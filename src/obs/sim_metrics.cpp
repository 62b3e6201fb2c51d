#include "obs/sim_metrics.hpp"

namespace ape::obs {

void record_sim_metrics(MetricsRegistry& registry, const sim::Simulator& sim) {
  // Event-loop pressure: fired events, live queue depth and its high-water
  // mark, and the tombstone (cancelled-slot) picture.
  registry.counter("sim.events_fired").set(sim.events_fired());
  registry.counter("sim.events_cancelled").set(sim.events_cancelled());
  registry.counter("sim.compactions").set(sim.compactions());
  registry.gauge("sim.queue.pending").set(static_cast<double>(sim.pending()));
  registry.gauge("sim.queue.high_water").set(static_cast<double>(sim.queue_high_water()));
  registry.gauge("sim.queue.tombstones").set(static_cast<double>(sim.tombstones()));
  registry.gauge("sim.queue.tombstone_ratio").set(sim.tombstone_ratio());

  // Engine internals: how the calendar queue and the event arena are
  // actually loaded (wheel occupancy counts non-empty buckets).
  registry.gauge("sim.queue.wheel_events").set(static_cast<double>(sim.wheel_events()));
  registry.gauge("sim.queue.wheel_occupied")
      .set(static_cast<double>(sim.wheel_occupied_buckets()));
  registry.gauge("sim.arena.slots").set(static_cast<double>(sim.arena_slots()));
  registry.counter("sim.arena.slot_reuse").set(sim.arena_slot_reuse());
  registry.counter("sim.smallfn.heap_fallbacks").set(sim.smallfn_heap_fallbacks());

  registry.gauge("sim.now_s").set(sim.now().seconds());
}

void record_span_metrics(MetricsRegistry& registry, SpanLog& spans) {
  if (!spans.enabled()) return;
  registry.counter("obs.spans.recorded").set(spans.recorded());
  registry.counter("obs.spans.dropped").set(spans.dropped());
  registry.gauge("obs.spans.open").set(static_cast<double>(spans.open_count()));
  // Per-span-kind latency histograms.  A span still open here is folded by
  // the first call after it closes.
  for (const std::size_t i : spans.take_closed()) {
    const Span& span = spans.spans()[i];
    registry.histogram("span." + span.name + "_ms", "ms")
        .record(sim::to_millis(span.duration()));
  }
}

}  // namespace ape::obs
