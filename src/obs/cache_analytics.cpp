#include "obs/cache_analytics.hpp"

#include <utility>

#include "obs/export.hpp"

namespace ape::obs {

namespace {

// Registry/export names per cause — fixed order matches the enum.
constexpr std::array<const char*, kAnalyticsCauseCount> kCauseNames = {
    "capacity", "expired", "replaced", "invalidated", "cleared"};

}  // namespace

const char* to_string(AnalyticsRemovalCause cause) noexcept {
  return kCauseNames[static_cast<std::size_t>(cause)];
}

CacheAnalytics::CacheAnalytics(CacheAnalyticsConfig config) : config_(std::move(config)) {
  if (config_.profilers.empty()) config_.profilers.emplace_back();  // exact oracle
  profilers_.reserve(config_.profilers.size());
  for (const MrcConfig& c : config_.profilers) profilers_.emplace_back(c);
}

void CacheAnalytics::on_lookup(const std::string& key, std::uint64_t size_bytes,
                               const std::string& app, LookupOutcome outcome) {
  for (MrcProfiler& p : profilers_) p.record_access(key, size_bytes);
  AppTally& tally = app_tallies_[app];
  switch (outcome) {
    case LookupOutcome::Hit: ++tally.hits; break;
    case LookupOutcome::Miss: ++tally.misses; break;
    case LookupOutcome::Delegation: ++tally.delegations; break;
  }
}

void CacheAnalytics::on_insert(const std::string& key, std::uint64_t size_bytes) {
  // The miss that triggered the fetch entered the profilers with a 0-byte
  // hint; charge the real footprint now that the object landed.
  for (MrcProfiler& p : profilers_) p.update_size(key, size_bytes);
}

void CacheAnalytics::on_removal(const std::string& key, std::uint64_t size_bytes,
                                const std::string& app, AnalyticsRemovalCause cause,
                                std::uint64_t access_count, sim::Time inserted,
                                sim::Time last_access, sim::Time now) {
  (void)key;
  (void)size_bytes;
  ++app_tallies_[app].removals[static_cast<std::size_t>(cause)];
  lifetime_ms_.record(sim::to_millis(now - inserted));
  reuse_gap_ms_.record(sim::to_millis(now - last_access));
  if (cause == AnalyticsRemovalCause::Capacity && access_count == 0) ++dead_on_arrival_;
}

std::uint64_t CacheAnalytics::sum(std::uint64_t AppTally::*field) const noexcept {
  std::uint64_t total = 0;
  for (const auto& [app, tally] : app_tallies_) total += tally.*field;
  return total;
}

std::uint64_t CacheAnalytics::removals(AnalyticsRemovalCause cause) const noexcept {
  std::uint64_t total = 0;
  for (const auto& [app, tally] : app_tallies_) {
    total += tally.removals[static_cast<std::size_t>(cause)];
  }
  return total;
}

double CacheAnalytics::dead_on_arrival_ratio() const noexcept {
  const std::uint64_t evicted = removals(AnalyticsRemovalCause::Capacity);
  return evicted == 0 ? 0.0
                      : static_cast<double>(dead_on_arrival_) / static_cast<double>(evicted);
}

std::vector<std::string> CacheAnalytics::reconcile(std::uint64_t hits, std::uint64_t misses,
                                                   std::uint64_t delegations) const {
  std::vector<std::string> errors;
  const auto check = [&errors](const char* what, std::uint64_t per_app, std::uint64_t ledger) {
    if (per_app != ledger) {
      errors.push_back(std::string("per-app ") + what + " sum " + std::to_string(per_app) +
                       " != CacheStatistics " + std::to_string(ledger));
    }
  };
  check("hit", this->hits(), hits);
  check("miss", this->misses(), misses);
  check("delegation", this->delegations(), delegations);
  return errors;
}

void CacheAnalytics::record_metrics(MetricsRegistry& metrics, const std::string& prefix) const {
  metrics.counter(prefix + "cache.evict.doa").set(dead_on_arrival_);
  metrics.gauge(prefix + "cache.evict.doa_ratio").set(dead_on_arrival_ratio());
  if (!lifetime_ms_.empty()) {
    metrics.histogram(prefix + "cache.lifetime_ms", "ms").merge(lifetime_ms_);
  }
  if (!reuse_gap_ms_.empty()) {
    metrics.histogram(prefix + "cache.reuse_gap_ms", "ms").merge(reuse_gap_ms_);
  }
  for (const auto& [app, tally] : app_tallies_) {
    const std::string base = prefix + "cache.app." + app + ".";
    metrics.counter(base + "hits").set(tally.hits);
    metrics.counter(base + "misses").set(tally.misses);
    metrics.counter(base + "delegations").set(tally.delegations);
  }
  for (const MrcProfiler& p : profilers_) {
    const std::string base = prefix + "cache.mrc." + p.config().label + ".";
    metrics.counter(base + "sampled").set(p.sampled());
    metrics.counter(base + "accesses").set(p.accesses());
    metrics.gauge(base + "rate").set(p.current_rate());
  }
}

std::string CacheAnalytics::encode_report() const {
  // Line-oriented, deterministic (ordered maps only).  Consumed for its
  // byte count by the telemetry appendix; shape kept greppable for tests.
  std::string out = "ANALYTICS v1\n";
  out += "EVICT";
  for (std::size_t i = 0; i < kAnalyticsCauseCount; ++i) {
    out += ' ';
    out += kCauseNames[i];
    out += '=' + std::to_string(removals(static_cast<AnalyticsRemovalCause>(i)));
  }
  out += " doa=" + std::to_string(dead_on_arrival_) + "\n";
  for (const auto& [app, tally] : app_tallies_) {
    out += "APP " + app + " " + std::to_string(tally.hits) + " " + std::to_string(tally.misses) +
           " " + std::to_string(tally.delegations) + "\n";
  }
  for (const MrcProfiler& p : profilers_) {
    const std::vector<MrcPoint> points = p.curve();
    out += "MRC " + p.config().label + " rate=" + format_double(p.current_rate()) +
           " sampled=" + std::to_string(p.sampled()) +
           " points=" + std::to_string(points.size()) + "\n";
    for (const MrcPoint& point : points) {
      out += "P " + std::to_string(point.capacity_bytes) + " " +
             format_double(point.miss_ratio) + "\n";
    }
  }
  out += "END-ANALYTICS\n";
  return out;
}

}  // namespace ape::obs
