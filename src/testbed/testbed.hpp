// The evaluation testbed of paper Fig. 9, in simulation:
//
//   phones/desktop --WiFi--> AP (GL-MT1300) --7 hops--> edge cache server
//                             |--upstream--> LDNS --> ADNS / CDN DNS
//                             |--12 hops--> Wi-Cache controller (EC2)
//
// One Testbed instance realizes one system-under-test (the AP either runs
// APE-CACHE with PACM, APE-CACHE with LRU, the Wi-Cache agent, or nothing
// but stock DNS forwarding), so experiments build one Testbed per compared
// system with identical seeds and workloads.  The edge server and the DNS
// hierarchy are the CdnBackend both testbeds own, hung off the AP.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/ape_lru_system.hpp"
#include "baselines/edge_cache_system.hpp"
#include "baselines/wicache_system.hpp"
#include "common/shard.hpp"
#include "core/ap_runtime.hpp"
#include "obs/observer.hpp"
#include "sim/resource_meter.hpp"
#include "testbed/cdn_backend.hpp"
#include "testbed/telemetry.hpp"
#include "workload/app_model.hpp"

namespace ape::testbed {

enum class System { ApeCache, ApeCacheLru, WiCache, EdgeCache };

[[nodiscard]] const char* to_string(System system) noexcept;

struct TestbedParams : CommonParams {
  System system = System::ApeCache;
  core::ApeConfig ape;

  // AP -> Wi-Cache controller link (controller lookup ~26 ms); the rest of
  // the calibration lives in CommonParams.
  std::size_t controller_hops = 12;
  sim::Duration controller_per_hop{sim::microseconds(1070)};

  std::size_t wicache_capacity_bytes = 5 * 1000 * 1000;

  // Ablation hook: overrides the AP cache policy implied by `system`
  // (e.g. run the APE-CACHE workflow with GDSF or FIFO management).
  std::optional<core::ApRuntime::Policy> policy_override;

  // Windowed time-series telemetry + in-sim scrape path (DESIGN.md §5g).
  // Off by default: enabling it schedules capture ticks and puts scrape
  // datagrams on the simulated network, so timeline runs are *not*
  // byte-identical to default runs.  With analytics also on, scrape
  // replies carry the analytics report (real simulated cost).
  bool enable_timeline = false;
  sim::Duration timeline_interval{sim::seconds(30.0)};
  sim::Duration telemetry_scrape_interval{sim::seconds(60.0)};
  // SLO rules (obs::parse_slo_rule grammar) loaded into the collector's
  // evaluator; a rule that fails to parse is a programming error (assert).
  std::vector<std::string> slo_rules;
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
  [[nodiscard]] http::EdgeCacheServer& edge() noexcept { return backend_.edge(); }
  [[nodiscard]] dns::LocalDnsServer& ldns() noexcept { return backend_.ldns(); }
  [[nodiscard]] baselines::WiCacheController* wicache_controller() noexcept {
    return wicache_controller_.get();
  }
  [[nodiscard]] baselines::WiCacheApAgent* wicache_agent() noexcept {
    return wicache_agent_.get();
  }
  [[nodiscard]] const TestbedParams& params() const noexcept { return params_; }
  [[nodiscard]] net::IpAddress ap_ip() const noexcept { return ap_ip_; }
  [[nodiscard]] net::IpAddress edge_ip() const noexcept { return CdnBackend::kEdgeIp; }

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
  APE_SHARD_LOCAL(controller) net::NodeId ap_node_{}, controller_node_{};
  APE_SHARD_LOCAL(controller) net::IpAddress ap_ip_{}, controller_ip_{};
  APE_SHARD_LOCAL(controller) CdnBackend backend_;

  // the controller's CPU (the AP's lives in ApRuntime)
  APE_SHARD_LOCAL(controller) std::unique_ptr<sim::ServiceQueue> controller_cpu_;

  // Declared before ap_: the runtime's store listeners capture the plane,
  // so the plane must outlive the runtime (reverse destruction order).
  APE_SHARD_LOCAL(controller) std::unique_ptr<obs::CacheAnalytics> analytics_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<store::FlashMedia> flash_media_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<core::ApRuntime> ap_;
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
