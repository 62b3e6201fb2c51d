// Pull-phase metric blocks every testbed's collect_metrics writes, so
// single-AP and fleet runs export the same names (the DNS/edge block is
// testbed::CdnBackend's): the simulator engine's event-loop pressure —
// fired/cancelled/compaction tallies, queue depth and high-water, the
// tombstone picture, calendar-wheel occupancy and the event-arena
// high-water mark (DESIGN.md §5k) — and span bookkeeping.  All writes are
// idempotent, so timeline ticks can call these every window.
#pragma once

#include "obs/metrics.hpp"
#include "obs/span_log.hpp"
#include "sim/simulator.hpp"

namespace ape::obs {

void record_sim_metrics(MetricsRegistry& registry, const sim::Simulator& sim);

// Traced runs only (a no-op otherwise): writes obs.spans.{recorded,dropped,
// open} and folds the spans closed since the previous call into
// span.<name>_ms histograms (SpanLog::take_closed), each span exactly once.
void record_span_metrics(MetricsRegistry& registry, SpanLog& spans);

}  // namespace ape::obs
