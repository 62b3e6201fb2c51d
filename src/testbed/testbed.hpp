// The evaluation testbed of paper Fig. 9, in simulation:
//
//   phones/desktop --WiFi--> AP (GL-MT1300) --7 hops--> edge cache server
//                             |--upstream--> LDNS --> ADNS / CDN DNS
//                             |--12 hops--> Wi-Cache controller (EC2)
//
// One Testbed instance realizes one system-under-test (the AP either runs
// APE-CACHE with PACM, APE-CACHE with LRU, the Wi-Cache agent, or nothing
// but stock DNS forwarding), so experiments build one Testbed per compared
// system with identical seeds and workloads.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/ape_lru_system.hpp"
#include "common/shard.hpp"
#include "baselines/edge_cache_system.hpp"
#include "baselines/wicache_system.hpp"
#include "core/ap_runtime.hpp"
#include "dns/adns.hpp"
#include "dns/cdn_dns.hpp"
#include "dns/ldns.hpp"
#include "http/edge_server.hpp"
#include "obs/observer.hpp"
#include "sim/resource_meter.hpp"
#include "testbed/telemetry.hpp"
#include "workload/app_model.hpp"

namespace ape::testbed {

enum class System { ApeCache, ApeCacheLru, WiCache, EdgeCache };

[[nodiscard]] const char* to_string(System system) noexcept;

struct TestbedParams {
  System system = System::ApeCache;
  core::ApeConfig ape;

  // Link calibration (defaults reproduce the paper's measured latencies:
  // AP lookup ~7.5 ms, AP retrieval ~7 ms, edge retrieval ~31 ms, edge DNS
  // ~22 ms, Wi-Cache controller lookup ~26 ms).
  sim::Duration wifi_one_way{sim::microseconds(1750)};
  double wifi_bandwidth = 30e6;              // ~240 Mbps effective
  std::size_t edge_hops = 7;
  sim::Duration edge_per_hop{sim::microseconds(1070)};
  double wan_bandwidth = 60e6;
  std::size_t controller_hops = 12;
  sim::Duration controller_per_hop{sim::microseconds(1070)};
  sim::Duration ldns_one_way{sim::microseconds(7000)};
  sim::Duration adns_from_ldns{sim::microseconds(15000)};
  sim::Duration cdn_dns_from_ldns{sim::microseconds(2000)};

  // Akamai-style per-query server selection: mapping answers are not
  // cacheable, so every edge lookup pays the resolver chain (Sec. II-B).
  std::uint32_t cdn_answer_ttl = 0;
  std::uint32_t cname_ttl = 3600;

  std::size_t wicache_capacity_bytes = 5 * 1000 * 1000;

  // Ablation hook: overrides the AP cache policy implied by `system`
  // (e.g. run the APE-CACHE workflow with GDSF or FIFO management).
  std::optional<core::ApRuntime::Policy> policy_override;

  // Causal request tracing (DESIGN.md §5f).  Off by default: enabling it
  // injects trace-context carriers into DNS/HTTP messages (real wire
  // bytes), so traced runs are *not* byte-identical to default runs.
  bool enable_spans = false;
  std::size_t span_capacity = obs::SpanLog::kDefaultCapacity;

  // Windowed time-series telemetry + in-sim scrape path (DESIGN.md §5g).
  // Off by default: enabling it schedules capture ticks and puts scrape
  // datagrams on the simulated network, so timeline runs are *not*
  // byte-identical to default runs.
  bool enable_timeline = false;
  sim::Duration timeline_interval{sim::seconds(30.0)};
  sim::Duration telemetry_scrape_interval{sim::seconds(60.0)};
  // SLO rules (obs::parse_slo_rule grammar) loaded into the collector's
  // evaluator; a rule that fails to parse is a programming error (assert).
  std::vector<std::string> slo_rules;

  // Cache-analytics plane (DESIGN.md §5l).  Off by default: the plane is
  // report-only (host-side bookkeeping, no simulated events of its own), so
  // an analytics run's simulation is identical to a default run — but its
  // exports carry extra keys, and timeline+analytics runs append the
  // analytics report to scrape replies (real simulated cost).
  bool enable_analytics = false;
  obs::CacheAnalyticsConfig analytics;
};

class Testbed {
  APE_SHARD_CONTEXT(controller);

 public:
  explicit Testbed(TestbedParams params);
  ~Testbed();
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // --- workload wiring ------------------------------------------------------
  // Hosts the app's objects on the edge server and publishes its domain in
  // the DNS hierarchy (CNAME into the CDN namespace -> edge server A).
  void host_app(const workload::AppSpec& app);

  struct Client {
    net::NodeId node;
    std::unique_ptr<core::ClientRuntime> runtime;
    std::unique_ptr<baselines::WiCacheFetcher> wicache;
    std::unique_ptr<baselines::ObjectFetcher> fetcher;  // facade for `system`
  };

  // Adds a phone/emulator attached to the AP and returns its fetcher facade
  // matching the testbed's system.
  Client& add_client(const std::string& name);

  // --- accessors --------------------------------------------------------------
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] net::Network& network() noexcept { return *network_; }
  [[nodiscard]] net::TcpTransport& tcp() noexcept { return *tcp_; }
  [[nodiscard]] core::ApRuntime& ap() noexcept { return *ap_; }
  [[nodiscard]] http::EdgeCacheServer& edge() noexcept { return *edge_; }
  [[nodiscard]] dns::LocalDnsServer& ldns() noexcept { return *ldns_; }
  [[nodiscard]] baselines::WiCacheController* wicache_controller() noexcept {
    return wicache_controller_.get();
  }
  [[nodiscard]] baselines::WiCacheApAgent* wicache_agent() noexcept {
    return wicache_agent_.get();
  }
  [[nodiscard]] const TestbedParams& params() const noexcept { return params_; }
  [[nodiscard]] net::IpAddress ap_ip() const noexcept { return ap_ip_; }
  [[nodiscard]] net::IpAddress edge_ip() const noexcept { return edge_ip_; }

  // Per-run observability bundle (metrics, spans, timeline): the AP,
  // clients and PACM push counters — and spans, when enabled — into it
  // while events happen; collect_metrics() adds the pull-phase gauges.
  [[nodiscard]] obs::Observer& observer() noexcept { return obs_; }
  [[nodiscard]] const obs::Observer& observer() const noexcept { return obs_; }

  // Writes the point-in-time metrics (simulator queue stats, DNS server
  // tallies, edge hits, AP cache occupancy and per-app C_a) into the
  // observer's registry.  Call after — or during — a run; safe to call
  // repeatedly (gauges are overwritten, set-style counters re-set).
  void collect_metrics();

  // Resource meter over the AP (Fig. 2 / Fig. 14); call before running.
  [[nodiscard]] sim::ResourceMeter& meter_ap(sim::Duration interval, sim::Time until);

  // Pass-through forwarding accounting: charge the AP's CPU for client
  // traffic that merely transits it (edge fetches).
  void account_passthrough(std::size_t bytes);

  // Crash/restart model (flash-tier experiments): tears the ApRuntime down
  // and rebuilds it on the same node.  RAM state (cache, DNS record cache,
  // url_index) is lost; with `preserve_flash` the durable FlashMedia
  // survives and the new runtime replays its journal at mount (a *warm*
  // restart), without it the media is wiped first (a *cold* restart).
  // Only valid for APE systems, and only at a quiesced instant — no CPU or
  // flash work in flight (in-flight completions capture the old runtime).
  void restart_ap(bool preserve_flash);

  // Durable flash media handed to every ApRuntime incarnation; null when
  // the config has no flash tier.
  [[nodiscard]] store::FlashMedia* flash_media() noexcept { return flash_media_.get(); }

  // --- timeline telemetry (enable_timeline runs only) -----------------------
  // Schedules the periodic capture tick (collect_metrics + Timeline::capture
  // through the delta cursor) and the collector's scrape loop, every
  // `timeline_interval` / `telemetry_scrape_interval` until `until`.
  void start_timeline(sim::Time until);

  // Final capture after the last registry mutation, so the windows
  // partition the run exactly and Timeline::reconcile holds.  Call once,
  // after the run and after any post-run counters are written.
  void flush_timeline();

  [[nodiscard]] TelemetryCollector* telemetry_collector() noexcept {
    return telemetry_collector_.get();
  }
  [[nodiscard]] TelemetryAgent* telemetry_agent() noexcept {
    return telemetry_agent_.get();
  }

  // Cache-analytics plane (enable_analytics runs only; null otherwise).
  [[nodiscard]] obs::CacheAnalytics* analytics() noexcept { return analytics_.get(); }

 private:
  void build_topology();
  void build_dns();
  void build_servers();
  void build_ap();
  void build_telemetry();
  void schedule_timeline_tick();

  APE_SHARD_LOCAL(controller) TestbedParams params_;
  // Every node pushes metrics/spans into the run observer, and all shards
  // share the one calendar queue: both are cross-shard by construction.
  APE_SHARD_SHARED obs::Observer obs_;
  APE_SHARD_SHARED sim::Simulator sim_;
  APE_SHARD_LOCAL(controller) net::Topology topology_;
  APE_SHARD_SHARED std::unique_ptr<net::Network> network_;
  APE_SHARD_SHARED std::unique_ptr<net::TcpTransport> tcp_;

  // nodes (owning handles: built, restarted and torn down by the harness;
  // the pointees belong to their own shards)
  APE_SHARD_LOCAL(controller) net::NodeId ap_node_{}, edge_node_{}, ldns_node_{},
      adns_node_{}, cdn_dns_node_{}, controller_node_{};
  APE_SHARD_LOCAL(controller) net::IpAddress ap_ip_{}, edge_ip_{}, ldns_ip_{}, adns_ip_{},
      cdn_dns_ip_{}, controller_ip_{};

  // per-node CPUs (other than the AP's, which lives in ApRuntime)
  APE_SHARD_LOCAL(controller) std::unique_ptr<sim::ServiceQueue> edge_cpu_, ldns_cpu_,
      adns_cpu_, cdn_cpu_, controller_cpu_;

  // Declared before ap_: the runtime's store listeners capture the plane,
  // so the plane must outlive the runtime (reverse destruction order).
  APE_SHARD_LOCAL(controller) std::unique_ptr<obs::CacheAnalytics> analytics_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<store::FlashMedia> flash_media_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<core::ApRuntime> ap_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<http::EdgeCacheServer> edge_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<dns::LocalDnsServer> ldns_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<dns::AuthoritativeDnsServer> adns_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<dns::CdnDnsServer> cdn_dns_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<baselines::WiCacheController> wicache_controller_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<baselines::WiCacheApAgent> wicache_agent_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<sim::ResourceMeter> meter_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<TelemetryAgent> telemetry_agent_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<TelemetryCollector> telemetry_collector_;
  APE_SHARD_LOCAL(controller) sim::Time timeline_until_{};
  APE_SHARD_LOCAL(controller) sim::Simulator::EventId timeline_tick_ = 0;

  APE_SHARD_LOCAL(controller) std::vector<std::unique_ptr<Client>> clients_;
  APE_SHARD_LOCAL(controller) net::Port next_client_port_ = 49152;
  APE_SHARD_LOCAL(controller) std::uint32_t next_client_ip_suffix_ = 100;
  // collect_metrics() idempotency cursor
  APE_SHARD_LOCAL(controller) std::size_t spans_histogrammed_ = 0;
};

}  // namespace ape::testbed
