// The unit of cached state on an AP (and in baselines).
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace ape::cache {

struct CacheEntry {
  std::string key;                 // base URL (or its hash, rendered)
  std::size_t size_bytes = 0;
  std::uint32_t app_id = 0;
  int priority = 1;                // developer-declared, 1 = low / 2 = high
  sim::Time expires{};             // absolute expiry (insert time + TTL)
  sim::Duration fetch_latency{0};  // observed cost of fetching from upstream
  sim::Time inserted{};
  sim::Time last_access{};
  std::uint64_t access_count = 0;
  std::string etag;  // validator for conditional refresh (revalidation ext.)

  [[nodiscard]] bool expired_at(sim::Time now) const noexcept { return expires <= now; }
  [[nodiscard]] sim::Duration remaining_ttl(sim::Time now) const noexcept {
    return expires <= now ? sim::Duration{0} : expires - now;
  }
};

// Why an entry left the store.  CacheStore counts removals per cause at
// its single removal chokepoint (CacheStore::removals).
// The flash tier demotes on Evicted only: expired/replaced/erased copies
// are dead data nobody should pay flash writes for (store/tiered_store.hpp).
enum class RemovalCause {
  Evicted,   // capacity pressure, chosen by the eviction policy
  Expired,   // TTL ran out (lazy get-side erase or sweep_expired)
  Replaced,  // same-key insert superseded it
  Erased,    // explicit erase()
  Cleared,   // store-wide clear()
};
inline constexpr std::size_t kRemovalCauseCount = 5;

}  // namespace ape::cache
