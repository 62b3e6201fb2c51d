// CacheAnalytics — default-off, report-only cache analytics plane
// (DESIGN.md §5l): miss-ratio curves, an eviction-cause ledger and per-app
// hit attribution for one AP's object store.
//
// The plane observes three taps and mutates nothing it observes:
//
//   * on_lookup  — every cache decision (hit / miss / delegation) from the
//     AP's request path, feeding the MRC profilers and the per-app
//     attribution counters;
//   * on_insert  — the store's insert listener, correcting profiler byte
//     footprints once an object's real size is known;
//   * on_removal — the store's removal listener, feeding the eviction-cause
//     ledger (per-cause × per-app counters, object-lifetime and reuse-gap
//     histograms, dead-on-arrival accounting).
//
// Ownership: the AP's cache::CacheStatistics is the one ledger of lookup
// outcomes and the CacheStore counts removals by cause.  The plane adds
// only what they lack, the per-app split: its totals (hits(), misses(),
// delegations(), removals()) are sums over the per-app tallies, never a
// second count.  reconcile() is the two-way check between plane and ledger
// (per-app partition against the ledger).
//
// Cause values arrive as an obs-local enum and keys/apps as plain strings
// because obs sits *below* cache in the layer map (same pattern as
// EngineProfiler's NetPathStats): the ApRuntime that owns both translates
// cache::RemovalCause at the listener boundary.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/mrc.hpp"
#include "sim/time.hpp"
#include "stats/histogram.hpp"

namespace ape::obs {

// Mirror of cache::RemovalCause, translated at the ApRuntime boundary.
// `Demoted` (RAM -> flash) never reaches the removal listener — the tiered
// store counts it separately — so the ledger does not carry it.
enum class AnalyticsRemovalCause : std::uint8_t {
  Capacity = 0,     // evicted by the placement policy under byte pressure
  Expired = 1,      // TTL lapsed
  Replaced = 2,     // superseded by a fresh insert of the same key
  Invalidated = 3,  // explicitly erased (origin invalidation, block list)
  Cleared = 4,      // store-wide reset
};
inline constexpr std::size_t kAnalyticsCauseCount = 5;

[[nodiscard]] const char* to_string(AnalyticsRemovalCause cause) noexcept;

enum class LookupOutcome : std::uint8_t { Hit, Miss, Delegation };

struct CacheAnalyticsConfig {
  // Profilers run side by side over the same stream (e.g. an exact oracle
  // next to a SHARDS sampler, for error gating).  Empty = one exact oracle.
  std::vector<MrcConfig> profilers;
};

class CacheAnalytics {
 public:
  struct AppTally {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t delegations = 0;
    std::array<std::uint64_t, kAnalyticsCauseCount> removals{};
  };

  explicit CacheAnalytics(CacheAnalyticsConfig config = {});

  void on_lookup(const std::string& key, std::uint64_t size_bytes, const std::string& app,
                 LookupOutcome outcome);
  void on_insert(const std::string& key, std::uint64_t size_bytes);
  void on_removal(const std::string& key, std::uint64_t size_bytes, const std::string& app,
                  AnalyticsRemovalCause cause, std::uint64_t access_count, sim::Time inserted,
                  sim::Time last_access, sim::Time now);

  // Two-way check: the per-app partition sums to the ledger's lookup
  // outcomes (CacheStatistics hits/misses/delegations, misses being
  // Cache-Miss flags only).  Returns one human-readable line per violated
  // identity (empty = reconciled).
  [[nodiscard]] std::vector<std::string> reconcile(std::uint64_t hits, std::uint64_t misses,
                                                   std::uint64_t delegations) const;

  // Ledger + attribution as gated metrics (deterministic: ordered maps
  // only).  Called from ApRuntime::snapshot_metrics when the plane is on.
  void record_metrics(MetricsRegistry& metrics, const std::string& prefix) const;

  // Deterministic textual report — appended to the telemetry scrape reply
  // so serialization cost is charged on the AP's ServiceQueue (PR 5's
  // contract: observability work the AP does is work the AP pays for).
  [[nodiscard]] std::string encode_report() const;

  [[nodiscard]] const std::vector<MrcProfiler>& profilers() const noexcept { return profilers_; }
  [[nodiscard]] const std::map<std::string, AppTally>& apps() const noexcept { return app_tallies_; }
  // Totals, summed over the per-app tallies.
  [[nodiscard]] std::uint64_t removals(AnalyticsRemovalCause cause) const noexcept;
  [[nodiscard]] std::uint64_t hits() const noexcept { return sum(&AppTally::hits); }
  [[nodiscard]] std::uint64_t misses() const noexcept { return sum(&AppTally::misses); }
  [[nodiscard]] std::uint64_t delegations() const noexcept {
    return sum(&AppTally::delegations);
  }
  // Capacity evictions of objects that were never re-hit after insert.
  [[nodiscard]] std::uint64_t dead_on_arrival() const noexcept { return dead_on_arrival_; }
  [[nodiscard]] double dead_on_arrival_ratio() const noexcept;
  [[nodiscard]] const stats::Histogram& lifetime_ms() const noexcept { return lifetime_ms_; }

 private:
  [[nodiscard]] std::uint64_t sum(std::uint64_t AppTally::*field) const noexcept;

  CacheAnalyticsConfig config_;
  std::vector<MrcProfiler> profilers_;

  // Attribution (ordered by app id: canonical iteration).
  std::map<std::string, AppTally> app_tallies_;

  // Eviction-cause ledger (per-cause counts live in the app tallies).
  std::uint64_t dead_on_arrival_ = 0;
  stats::Histogram lifetime_ms_{"ms"};
  stats::Histogram reuse_gap_ms_{"ms"};
};

}  // namespace ape::obs
