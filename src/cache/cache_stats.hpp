// The AP's cache ledger: each DNS-Cache lookup outcome (split by priority
// class for Tables IV-VI's average and high-priority hit ratios), delegated
// fetch, revalidation and delegation insert is counted here exactly once.
// Removals by cause are CacheStore's own count; exports only mirror both.
#pragma once

#include <cstddef>

namespace ape::cache {

class CacheStatistics {
 public:
  // Lookup outcomes: one per explicitly requested hash, by the flag the AP
  // answered with (Cache-Hit, Cache-Miss or Delegation).
  void record_hit(int priority);
  void record_miss(int priority);
  void record_delegation(int priority);
  // Work performed: an edge fetch, a 304 refresh, a delegated admission.
  void record_delegated_fetch() noexcept { ++delegated_fetches_; }
  void record_revalidation() noexcept { ++revalidations_; }
  void record_delegation_insert() noexcept { ++delegation_inserts_; }
  // One periodic expiry sweep completed, reclaiming `bytes` (satellite
  // accounting for ApRuntime's sweep event; 0-byte sweeps still count).
  void record_sweep(std::size_t bytes) noexcept {
    ++sweeps_;
    sweep_reclaimed_bytes_ += bytes;
  }

  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  // Cache-Miss flags only (block-listed objects), not Delegation flags.
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::size_t delegations() const noexcept { return delegations_; }
  [[nodiscard]] std::size_t lookups() const noexcept { return hits_ + misses_ + delegations_; }
  [[nodiscard]] std::size_t delegated_fetches() const noexcept { return delegated_fetches_; }
  [[nodiscard]] std::size_t revalidations() const noexcept { return revalidations_; }
  [[nodiscard]] std::size_t delegation_inserts() const noexcept { return delegation_inserts_; }
  [[nodiscard]] std::size_t sweeps() const noexcept { return sweeps_; }
  [[nodiscard]] std::size_t sweep_reclaimed_bytes() const noexcept {
    return sweep_reclaimed_bytes_;
  }

  // Hit ratio over all lookups; 0 when no lookups yet.
  [[nodiscard]] double hit_ratio() const noexcept;
  // Hit ratio over lookups for high-priority (>= 2) objects only.
  [[nodiscard]] double high_priority_hit_ratio() const noexcept;

  // Adds every tally of `other` (a fleet's ledger is the sum of its APs').
  CacheStatistics& operator+=(const CacheStatistics& other) noexcept;

  void reset() noexcept { *this = CacheStatistics{}; }

 private:
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t delegations_ = 0;
  std::size_t high_hits_ = 0;
  std::size_t high_lookups_ = 0;
  std::size_t delegated_fetches_ = 0;
  std::size_t revalidations_ = 0;
  std::size_t delegation_inserts_ = 0;
  std::size_t sweeps_ = 0;
  std::size_t sweep_reclaimed_bytes_ = 0;
};

}  // namespace ape::cache
