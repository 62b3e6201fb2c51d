// Capacity-bounded object store with pluggable eviction.
//
// The store enforces the byte budget; the policy chooses victims.  PACM
// (core/pacm_policy) and LRU/FIFO/LFU (here) implement the same interface,
// which is what lets the evaluation swap cache-management algorithms while
// keeping every other moving part identical (paper Sec. V-C).
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/entry.hpp"

namespace ape::cache {

class CacheStore;

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  virtual void on_insert(const CacheEntry& entry) = 0;
  virtual void on_access(const CacheEntry& entry) = 0;
  virtual void on_erase(const std::string& key) = 0;

  // Chooses keys to evict so that `bytes_needed` become free for
  // `incoming`.  Returning nullopt rejects the insertion instead (the
  // incoming object is judged not worth the evictions).  The store
  // guarantees `incoming.size_bytes <= capacity`.
  [[nodiscard]] virtual std::optional<std::vector<std::string>> select_victims(
      const CacheStore& store, const CacheEntry& incoming, std::size_t bytes_needed) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

// RemovalCause lives in cache/entry.hpp next to CacheEntry.

class CacheStore {
 public:
  CacheStore(std::size_t capacity_bytes, std::unique_ptr<EvictionPolicy> policy);

  enum class InsertOutcome { Inserted, Rejected, TooLarge };

  // Inserts (replacing any same-key entry), evicting per policy if needed.
  InsertOutcome insert(CacheEntry entry, sim::Time now);

  // Valid (unexpired) lookup; records the access. Expired entries are
  // erased lazily here.
  [[nodiscard]] const CacheEntry* get(const std::string& key, sim::Time now);
  // Lookup without access side effects (for cache-status probes).
  [[nodiscard]] const CacheEntry* peek(const std::string& key, sim::Time now) const;
  // Lookup ignoring expiry (policy bookkeeping needs entry sizes even when
  // an entry happens to be stale).
  [[nodiscard]] const CacheEntry* lookup_any(const std::string& key) const;

  bool erase(const std::string& key);
  // Drops every expired entry; returns bytes reclaimed.
  std::size_t sweep_expired(sim::Time now);
  void clear();

  [[nodiscard]] std::size_t capacity_bytes() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t used_bytes() const noexcept { return used_; }
  [[nodiscard]] std::size_t entry_count() const noexcept { return entries_.size(); }

  void for_each(const std::function<void(const CacheEntry&)>& fn) const;
  [[nodiscard]] std::vector<const CacheEntry*> entries() const;

  [[nodiscard]] const EvictionPolicy& policy() const noexcept { return *policy_; }
  [[nodiscard]] EvictionPolicy& policy() noexcept { return *policy_; }

  // Entries that left the store for `cause`, counted once per removal.
  [[nodiscard]] std::size_t removals(RemovalCause cause) const noexcept {
    return removals_[static_cast<std::size_t>(cause)];
  }
  [[nodiscard]] std::size_t evictions() const noexcept {
    return removals(RemovalCause::Evicted);
  }
  [[nodiscard]] std::size_t rejections() const noexcept { return rejections_; }
  void reset_counts() noexcept {
    removals_.fill(0);
    rejections_ = 0;
  }

  // Fires for every entry that leaves the store, with the reason.  Wi-Cache
  // uses this to keep its central controller's registry in sync with the
  // AP's cache; the APE flash tier uses it to demote eviction victims.
  // set_ replaces every registered listener; add_ appends (the fleet
  // directory client mirrors removals *alongside* the tiered store's
  // demotion hook, so both must observe the same removal stream).
  void set_removal_listener(std::function<void(const CacheEntry&, RemovalCause)> listener) {
    removal_listeners_.clear();
    removal_listeners_.push_back(std::move(listener));
  }
  void add_removal_listener(std::function<void(const CacheEntry&, RemovalCause)> listener) {
    removal_listeners_.push_back(std::move(listener));
  }

  // Fires after every successful insert (including same-key replacement,
  // after the Replaced removal).  The fleet directory client PUBLISHes new
  // holdings from here; the analytics plane corrects MRC byte footprints.
  void add_insert_listener(std::function<void(const CacheEntry&)> listener) {
    insert_listeners_.push_back(std::move(listener));
  }

  // When set, inserts do not eagerly sweep expired entries; stale copies
  // stay resident (still invisible to get/peek) until capacity pressure
  // evicts them — the revalidation extension refreshes them with
  // conditional requests instead of full refetches.
  void set_retain_expired(bool retain) noexcept { retain_expired_ = retain; }
  [[nodiscard]] bool retain_expired() const noexcept { return retain_expired_; }

 private:
  void erase_internal(const std::string& key, RemovalCause cause);
  void notify_removal(const CacheEntry& entry, RemovalCause cause);

  std::vector<std::function<void(const CacheEntry&, RemovalCause)>> removal_listeners_;
  std::vector<std::function<void(const CacheEntry&)>> insert_listeners_;

  std::size_t capacity_;
  std::size_t used_ = 0;
  std::unique_ptr<EvictionPolicy> policy_;
  // Ordered by key: for_each/entries() feed eviction solvers and metric
  // exports, so iteration order must be canonical (ape-lint: unordered-iter).
  std::map<std::string, CacheEntry> entries_;
  std::array<std::size_t, kRemovalCauseCount> removals_{};
  std::size_t rejections_ = 0;
  bool retain_expired_ = false;
};

}  // namespace ape::cache
