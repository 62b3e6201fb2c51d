// Machine-readable snapshot exporters for a MetricsRegistry and the opt-in
// observability planes (timeline, SLO alerts, engine profile, MRC).
//
// The JSON schema ("ape.obs.v1") is the contract the bench suite, the
// committed baselines under bench/baselines/ and scripts/
// check_bench_regression.py all share — change it only additively.  (The
// opt-in "trace" and "spans" sections were removed: no caller ever enabled
// them, and spans leave the program through obs/trace_export's Perfetto
// writer instead.)
//
//   {
//     "schema": "ape.obs.v1",
//     "meta":       { "<key>": "<value>", ... },          // caller-supplied
//     "counters":   { "<name>": <uint>, ... },
//     "gauges":     { "<name>": {"value": <f>, "max": <f>}, ... },
//     "histograms": { "<name>": {"unit": "<u>", "count": <n>, "sum": <f>,
//                                "mean": <f>, "min": <f>, "max": <f>,
//                                "stddev": <f>, "p50": <f>, "p90": <f>,
//                                "p95": <f>, "p99": <f>}, ... },
//     "volatile":   { "gauges": {...}, "histograms": {...} },   // opt-in
//     "profile":    { "kinds": { "<kind>": {"scheduled": <n>, "cancelled": <n>,
//                                "fired": <n>, "smallfn_heap": <n>}, ... },
//                     "engine": { "events_fired": <n>, "events_cancelled": <n>,
//                                 "compactions": <n>, "queue_high_water": <n>,
//                                 "far_migrations": <n>, "wheel_rebuckets": <n>,
//                                 "arena_slots": <n>, "arena_slot_reuse": <n>,
//                                 "generation_wraps": <n>,
//                                 "smallfn_heap_fallbacks": <n>,
//                                 "pending_at_end": <n> },
//                     "net": { "datagrams_sent": <n>, ... },       // when fed
//                     "wallclock": { "enabled": true, "kinds":
//                         {"<kind>": <host-us>, ...} } }  // opt-in, volatile
//     "timeseries": { "interval_us": <int>, "windows":
//                     [{"index": <n>, "start_us": <int>, "end_us": <int>,
//                       "counters": {"<name>": <int-delta>, ...},
//                       "gauges": {"<name>": <f>, ...},
//                       "histograms": {"<name>": {"unit": "<u>",
//                          "count": <n>, "sum": <f>, "mean": <f>,
//                          "min": <f>, "max": <f>, "p50": <f>,
//                          "p95": <f>, "p99": <f>}, ...}}, ...] },  // opt-in
//     "alerts":     { "fired": <n>, "resolved": <n>,
//                     "rules": [{"name": "...", "metric": "...",
//                                "field": "...", "op": "...",
//                                "threshold": <f>, "for_windows": <n>,
//                                "resolve_windows": <n>,
//                                "state": "<final state>"}, ...],
//                     "transitions": [{"window": <n>, "rule": "...",
//                                      "from": "...", "to": "...",
//                                      "value": <f>}, ...] }  // opt-in
//     "mrc":        { "aps": [{"name": "...", "capacity_bytes": <n>,
//                       "profilers": {"<label>": {"sample_rate": <f>,
//                          "current_rate": <f>, "accesses": <n>,
//                          "sampled": <n>, "total_weight": <f>,
//                          "cold_weight": <f>, "overflow_weight": <f>,
//                          "bucket_bytes": <n>,
//                          "points": [{"capacity_bytes": <n>,
//                                      "hit_weight": <f>,
//                                      "miss_ratio": <f>}, ...]}, ...},
//                       "evict": {"capacity": <n>, "expired": <n>,
//                                 "replaced": <n>, "invalidated": <n>,
//                                 "cleared": <n>, "doa": <n>},
//                       "doa_ratio": <f>,
//                       "apps": {"<app>": {"hits": <n>, "misses": <n>,
//                                          "delegations": <n>}, ...},
//                       "totals": {"hits": <n>, "misses": <n>,
//                                  "delegations": <n>}}, ...],
//                     "rollup": { "profilers": {...same, minus rates...},
//                                 "evict": {...}, "totals": {...} } }  // opt-in
//                   (an AP's "evict" causes and "totals" sum its per-app tallies)
//   }
//
// Span runs (DESIGN.md §5f) export spans through obs/trace_export's Perfetto
// writer; the snapshot carries only the span log's bookkeeping as the
// obs.spans.{recorded,dropped} counters, so consumers can treat dropped > 0
// as "tail missing" (spans drop newest-first, recorded traces stay whole).
//
// Doubles are rendered with std::to_chars (shortest round-trip form), so a
// deterministic run exports a byte-identical file.  Wall-clock instruments
// (Volatility::Volatile) only appear under "volatile" and only when asked,
// keeping the stable sections diffable.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeline.hpp"

namespace ape::obs {

class CacheAnalytics;
class EngineProfiler;

// One AP's analytics plane as seen by the "mrc" section: the display name
// ("ap", "fleet.ap0", ...), the cache's actual byte budget (the what-if
// table's 1x column) and the plane itself.
struct AnalyticsExportEntry {
  std::string name;
  std::uint64_t capacity_bytes = 0;
  const CacheAnalytics* analytics = nullptr;
};

struct ExportOptions {
  std::map<std::string, std::string> meta;  // run identity (bench name, ...)
  bool include_volatile = false;
  // Timeline-run extensions (DESIGN.md §5g): non-null emits "timeseries" /
  // "alerts".  Default runs leave them null, so the snapshot bytes are
  // unchanged — the same gating contract as the opt-in sections above.
  const Timeline* timeline = nullptr;
  const SloEvaluator* alerts = nullptr;
  // Engine-profiling runs (DESIGN.md §5k): non-null emits "profile".  The
  // stable subsections are byte-reproducible; "wallclock" appears only when
  // the profiler's wallclock stratum was enabled.
  const EngineProfiler* profile = nullptr;
  // Analytics runs (DESIGN.md §5l): non-null emits "mrc" — per-AP curves,
  // ledger and attribution plus a fleet rollup merged by profiler label.
  const std::vector<AnalyticsExportEntry>* mrc = nullptr;
};

void write_json(std::ostream& out, const MetricsRegistry& registry,
                const ExportOptions& options = {});

[[nodiscard]] std::string to_json(const MetricsRegistry& registry,
                                  const ExportOptions& options = {});

// Flat rows `name,kind,field,value` (kind in {counter, gauge, histogram}),
// one line per scalar — trivially ingestible by spreadsheets / pandas.
void write_csv(std::ostream& out, const MetricsRegistry& registry,
               bool include_volatile = false);

// Writes the JSON snapshot to `path`; returns false when the file cannot
// be opened.
bool write_json_file(const std::string& path, const MetricsRegistry& registry,
                     const ExportOptions& options = {});

// Deterministic shortest-round-trip rendering ("0.5", not "5.000000e-01");
// NaN/Inf degrade to 0 (JSON has no representation for them).
[[nodiscard]] std::string format_double(double value);

[[nodiscard]] std::string json_escape(const std::string& raw);

}  // namespace ape::obs
