// Output checks.  Each compares the program's results with a figure the
// benchmark computes on its own from the generated inputs, or with a
// property the method must have.  Each carries a planted error that must
// make it fail, so a check that cannot fail is caught on every run.
#include <set>
#include <string>

#include "harness.hpp"

namespace perfbench {

namespace {

using Source = ClientRuntime::Source;

std::uint64_t counter(const Episode& ep, const std::string& name) {
  const auto& c = ep.metrics.counters();
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second.value();
}

std::string runs_complete(const WorkloadDef&, const Inputs&, const Episode& ep) {
  if (ep.runs.size() != ep.scheduled_runs) {
    return std::to_string(ep.runs.size()) + " of " + std::to_string(ep.scheduled_runs) +
           " scheduled app runs completed";
  }
  for (const auto& r : ep.runs) {
    if (r.failures != 0) return "an app run reported " + std::to_string(r.failures) + " failures";
  }
  for (const auto& f : ep.fetches) {
    if (!f.success) return "a fetch failed";
  }
  return {};
}

// Fetch count from the AppSpecs alone: every completed run fetches each of
// its app's objects once.
std::string fetch_count(const WorkloadDef&, const Inputs& in, const Episode& ep) {
  std::size_t expected = 0;
  for (const auto& r : ep.runs) expected += in.apps[r.app].requests.size();
  if (ep.fetches.size() != expected) {
    return std::to_string(ep.fetches.size()) + " fetches, AppSpecs imply " +
           std::to_string(expected);
  }
  for (const auto& f : ep.fetches) {
    if (f.object >= in.objects.size()) return "a fetch names no object of its app";
  }
  return {};
}

// AP hit, delegated and edge partition the fetches, on the client's own
// results and on the client runtime's counters.
std::string source_partition(const WorkloadDef&, const Inputs&, const Episode& ep) {
  std::size_t hit = 0, delegated = 0, edge = 0, other = 0;
  for (const auto& f : ep.fetches) {
    switch (f.source) {
      case Source::ApCache: ++hit; break;
      case Source::ApDelegated: ++delegated; break;
      case Source::EdgeServer: ++edge; break;
      default: ++other; break;
    }
  }
  if (other != 0) return std::to_string(other) + " fetches came from no known source";
  if (hit != counter(ep, "client.fetch.ap_hit") ||
      delegated != counter(ep, "client.fetch.ap_delegated") ||
      edge != counter(ep, "client.fetch.edge") ||
      ep.fetches.size() != counter(ep, "client.fetches")) {
    return "client results disagree with the client.fetch.* counters";
  }
  return {};
}

std::string client_hits_match_ap(const WorkloadDef&, const Inputs&, const Episode& ep) {
  std::size_t hit = 0;
  for (const auto& f : ep.fetches) hit += f.source == Source::ApCache ? 1 : 0;
  const std::uint64_t served = counter(ep, "ap.http.cache_serves");
  if (hit != served) {
    return "client saw " + std::to_string(hit) + " AP hits, the AP served " +
           std::to_string(served);
  }
  return {};
}

// The first fetch of every object is a compulsory miss.
std::string compulsory_misses(const WorkloadDef&, const Inputs&, const Episode& ep) {
  std::set<std::uint32_t> distinct;
  std::size_t hit = 0;
  for (const auto& f : ep.fetches) {
    distinct.insert(f.object);
    hit += f.source == Source::ApCache ? 1 : 0;
  }
  if (hit > ep.fetches.size() - distinct.size()) {
    return std::to_string(hit) + " AP hits exceed " + std::to_string(ep.fetches.size()) +
           " fetches minus " + std::to_string(distinct.size()) + " distinct objects";
  }
  return {};
}

std::string capacity(const WorkloadDef& def, const Inputs&, const Episode& ep) {
  if (ep.ram_peak > ep.ram_capacity || ep.ram_capacity != def.params.ape.cache_capacity_bytes) {
    return "RAM held " + std::to_string(ep.ram_peak) + " bytes of " +
           std::to_string(def.params.ape.cache_capacity_bytes);
  }
  if (def.tiered && (ep.flash_peak > ep.flash_capacity ||
                     ep.flash_capacity != def.params.ape.flash_capacity_bytes)) {
    return "flash held " + std::to_string(ep.flash_peak) + " bytes of " +
           std::to_string(def.params.ape.flash_capacity_bytes);
  }
  return {};
}

// An AP-served fetch crosses the WiFi link at least twice for its lookup
// (unless the client reused fresh flags) and twice for its HTTP exchange,
// and its body takes bytes / bandwidth on the link.
std::string latency_floor(const WorkloadDef&, const Inputs&, const Episode& ep) {
  for (const auto& f : ep.fetches) {
    if (f.source != Source::ApCache) continue;
    const auto body_us =
        static_cast<std::int64_t>(static_cast<double>(f.bytes) / ep.wifi_bandwidth * 1e6);
    const std::int64_t lookup_floor = f.lookup_cached ? 0 : 2 * ep.wifi_one_way_us;
    const std::int64_t retrieval_floor = 2 * ep.wifi_one_way_us + body_us;
    if (f.lookup_us < lookup_floor || f.retrieval_us < retrieval_floor ||
        f.total_us < lookup_floor + retrieval_floor) {
      return "an AP hit took " + std::to_string(f.total_us) + " us, under the link floor " +
             std::to_string(lookup_floor + retrieval_floor) + " us";
    }
  }
  return {};
}

// PACM weighs priority into utility, so where it alone decides what the AP
// holds, high-priority objects hit at least as often as the average (paper
// Table IV).  Not applied with a flash tier: the tier's eviction ignores
// priority and serves most RAM misses.
std::string priority_hits(const WorkloadDef&, const Inputs& in, const Episode& ep) {
  const SimFigures f = sim_figures(in, ep);
  if (f.hp_fetches == 0) return "no high-priority fetches";
  // hp_hits / hp_fetches >= ap_hits / fetches, in integers.
  if (f.hp_hits * f.fetches < f.ap_hits * f.hp_fetches) {
    return "high-priority hits " + std::to_string(f.hp_hits) + "/" + std::to_string(f.hp_fetches) +
           " are below the overall " + std::to_string(f.ap_hits) + "/" + std::to_string(f.fetches);
  }
  return {};
}

void plant_lost_run(const Inputs&, Episode& ep) { ep.runs.pop_back(); }
void plant_lost_fetch(const Inputs&, Episode& ep) { ep.fetches.pop_back(); }
void plant_unknown_source(const Inputs&, Episode& ep) { ep.fetches.front().source = Source::Unknown; }
void plant_extra_hit(const Inputs&, Episode& ep) {
  for (auto& f : ep.fetches) {
    if (f.source != Source::ApCache) {
      f.source = Source::ApCache;
      return;
    }
  }
}
void plant_all_hits(const Inputs&, Episode& ep) {
  for (auto& f : ep.fetches) f.source = Source::ApCache;
}
void plant_overfull(const Inputs&, Episode& ep) { ep.ram_peak = ep.ram_capacity + 1; }
void plant_fast_hit(const Inputs&, Episode& ep) {
  for (auto& f : ep.fetches) {
    if (f.source == Source::ApCache) {
      f.retrieval_us = ep.wifi_one_way_us;
      return;
    }
  }
  ep.fetches.front().source = Source::ApCache;
  ep.fetches.front().retrieval_us = 0;
}
void plant_priority_inversion(const Inputs& in, Episode& ep) {
  for (auto& f : ep.fetches) {
    const bool hp = in.objects[f.object].priority >= 2;
    f.source = hp ? Source::ApDelegated : Source::ApCache;
  }
}

}  // namespace

const std::vector<Check>& episode_checks() {
  static const std::vector<Check> checks{
      {"runs_complete", runs_complete, plant_lost_run},
      {"fetch_count", fetch_count, plant_lost_fetch},
      {"source_partition", source_partition, plant_unknown_source},
      {"client_hits_match_ap", client_hits_match_ap, plant_extra_hit},
      {"compulsory_misses", compulsory_misses, plant_all_hits},
      {"capacity", capacity, plant_overfull},
      {"latency_floor", latency_floor, plant_fast_hit},
      {"priority_hits", priority_hits, plant_priority_inversion, /*ram_pacm_only=*/true},
  };
  return checks;
}

}  // namespace perfbench
