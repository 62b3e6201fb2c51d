// Pull-phase metric blocks every testbed's collect_metrics writes, so
// single-AP and fleet runs export the same names (the DNS/edge block is
// testbed::CdnBackend's): the simulator engine's event-loop pressure —
// fired/cancelled/compaction tallies, queue depth and high-water, the
// tombstone picture, calendar-wheel occupancy and the event-arena
// high-water mark (DESIGN.md §5k) — and span bookkeeping.  All writes are
// idempotent, so timeline ticks can call these every window.
#pragma once

#include <cstddef>

#include "obs/metrics.hpp"
#include "obs/span_log.hpp"
#include "sim/simulator.hpp"

namespace ape::obs {

void record_sim_metrics(MetricsRegistry& registry, const sim::Simulator& sim);

// Traced runs only (a no-op returning `cursor` otherwise): writes
// obs.spans.{recorded,dropped,open} and folds the spans from `cursor` on
// into span.<name>_ms histograms; returns the cursor for the next call.
std::size_t record_span_metrics(MetricsRegistry& registry, const SpanLog& spans,
                                std::size_t cursor);

}  // namespace ape::obs
