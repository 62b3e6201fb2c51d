#include "cache/cache_stats.hpp"

#include <initializer_list>

namespace ape::cache {

void CacheStatistics::record_hit(int priority) {
  ++hits_;
  if (priority >= 2) {
    ++high_hits_;
    ++high_lookups_;
  }
}

void CacheStatistics::record_miss(int priority) {
  ++misses_;
  if (priority >= 2) ++high_lookups_;
}

void CacheStatistics::record_delegation(int priority) {
  ++delegations_;
  if (priority >= 2) ++high_lookups_;
}

double CacheStatistics::hit_ratio() const noexcept {
  const std::size_t total = lookups();
  return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
}

double CacheStatistics::high_priority_hit_ratio() const noexcept {
  return high_lookups_ == 0 ? 0.0
                            : static_cast<double>(high_hits_) /
                                  static_cast<double>(high_lookups_);
}

CacheStatistics& CacheStatistics::operator+=(const CacheStatistics& other) noexcept {
  using S = CacheStatistics;
  for (std::size_t S::*tally :
       {&S::hits_, &S::misses_, &S::delegations_, &S::high_hits_, &S::high_lookups_,
        &S::delegated_fetches_, &S::revalidations_, &S::delegation_inserts_, &S::sweeps_,
        &S::sweep_reclaimed_bytes_}) {
    this->*tally += other.*tally;
  }
  return *this;
}

}  // namespace ape::cache
