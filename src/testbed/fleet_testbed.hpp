// Multi-AP fleet testbed (DESIGN.md §5j): N APE-CACHE access points on one
// LAN behind a shared uplink, a sharded cooperative-cache directory on
// controller nodes, and the single-AP testbed's back half (CdnBackend).
//
//   clients --WiFi--> ap0..apN --LAN switch--> directory shards
//                          |--7 hops--> edge cache server
//                          |--upstream--> LDNS --> ADNS / CDN DNS
//
// Each AP runs the full single-AP ApRuntime (same node/CPU wiring as
// testbed::Testbed) with the peer-probe stage attached: on a local miss it
// consults its fleet::DirectoryClient and relays from a neighbor before
// paying the WAN.  The testbed adds fleet-only affordances on top: client
// roaming between APs (the client keeps its cached DNS answers —
// deliberately, that is the staleness the probe absorbs), directory shard
// failover with an epoch bump, and fleet.*/dir.* metric collection.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/shard.hpp"
#include "core/ap_runtime.hpp"
#include "core/client_runtime.hpp"
#include "fleet/directory.hpp"
#include "obs/cache_analytics.hpp"
#include "obs/observer.hpp"
#include "obs/slo.hpp"
#include "testbed/cdn_backend.hpp"
#include "workload/app_model.hpp"

namespace ape::testbed {

struct FleetParams : CommonParams {
  std::size_t ap_count = 4;
  std::size_t shard_count = 2;
  // Per-AP APE-CACHE config.  The flash tier is forcibly disabled: the
  // directory equates removal with "copy gone", which a flash demotion
  // would violate (see fleet::DirectoryClient::attach).
  core::ApeConfig ape;
  core::ApRuntime::Policy policy = core::ApRuntime::Policy::Pacm;
  // false: no directory, APs are N isolated caches (the bench baseline the
  // fleet-wide hit ratio is compared against).
  bool enable_peer_probe = true;

  // The LAN hop is switch-local (AP <-> switch <-> AP ≈ 0.4 ms one way),
  // which is what makes a peer relay land between a local hit and an edge
  // fetch.  WiFi/WAN/DNS calibration lives in CommonParams.
  sim::Duration lan_one_way{sim::microseconds(200)};
  double lan_bandwidth = 125e6;  // GigE switch

  // Directory staleness/lease knobs (fleet::DirectoryClient::Options).
  sim::Duration dir_lookup_ttl = sim::seconds(2.0);
  sim::Duration dir_lookup_timeout = sim::milliseconds(10.0);
  std::uint32_t dir_publish_ttl_s = 60;
  sim::Duration dir_lease_interval = sim::seconds(20.0);

  // Timeline capture, off by default like TestbedParams::enable_timeline
  // (ticks are scheduled events).  No scrape path: each window is
  // evaluated locally against `slo_rules` (obs::parse_slo_rule grammar).
  bool enable_timeline = false;
  sim::Duration timeline_interval{sim::seconds(30.0)};
  std::vector<std::string> slo_rules;
};

class FleetTestbed {
  APE_SHARD_CONTEXT(controller);

 public:
  explicit FleetTestbed(FleetParams params);
  ~FleetTestbed();
  FleetTestbed(const FleetTestbed&) = delete;
  FleetTestbed& operator=(const FleetTestbed&) = delete;

  // Hosts the app on the shared back half, exactly as the single-AP
  // testbed does — the fleet shares one DNS hierarchy.
  void host_app(const workload::AppSpec& app) { backend_.host_app(app); }

  struct Client {
    net::NodeId node{};
    std::uint32_t ap = 0;  // current attachment
    std::unique_ptr<core::ClientRuntime> runtime;
  };

  Client& add_client(const std::string& name, std::uint32_t ap_index);

  // Moves the client's WiFi association to `new_ap`: the old radio link
  // goes down, a link to the new AP comes up (or back up), and the client
  // runtime re-homes its DNS/HTTP endpoints.  Cached DNS answers survive
  // the move by design.
  void roam(Client& client, std::uint32_t new_ap);

  // Crash-restarts directory shard `index`: the registry is lost and the
  // epoch bumps; clients replay their holdings when they first see the new
  // epoch in a reply.  Only valid when the shard's CPU is quiesced.
  void restart_shard(std::size_t index);

  // Failure injection: drops (or restores) the shard's LAN link, making
  // lookups to it time out client-side.
  void set_shard_reachable(std::size_t index, bool up);

  // --- accessors -----------------------------------------------------------
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] net::Network& network() noexcept { return *network_; }
  [[nodiscard]] obs::Observer& observer() noexcept { return obs_; }
  [[nodiscard]] const FleetParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t ap_count() const noexcept { return aps_.size(); }
  [[nodiscard]] core::ApRuntime& ap(std::size_t i) noexcept { return *aps_[i].runtime; }
  [[nodiscard]] net::IpAddress ap_ip(std::size_t i) const noexcept { return aps_[i].ip; }
  [[nodiscard]] fleet::DirectoryClient* directory(std::size_t i) noexcept {
    return aps_[i].directory.get();
  }
  // Per-AP analytics plane; null unless FleetParams::enable_analytics.
  [[nodiscard]] obs::CacheAnalytics* analytics(std::size_t i) noexcept {
    return aps_[i].analytics.get();
  }
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] fleet::DirectoryShard& shard(std::size_t i) noexcept {
    return *shards_[i].service;
  }
  [[nodiscard]] obs::SloEvaluator& slo() noexcept { return slo_; }

  // Fleet-wide pull-phase metrics: sim/DNS/edge tallies plus per-AP
  // fleet.ap<i>.* gauges and per-shard dir.shard<i>.* gauges.  Does NOT
  // call ApRuntime::snapshot_metrics — its ap.* gauge names are unqualified
  // and N runtimes would clobber each other.
  void collect_metrics();

  // Timeline support (enable_timeline runs only): periodic
  // collect_metrics + Timeline::capture ticks until `until`, feeding every
  // new window through the SLO evaluator.  flush_timeline() takes the final
  // partition-exact capture after the last registry mutation.
  void start_timeline(sim::Time until);
  void flush_timeline();

 private:
  struct ApSlot {
    net::NodeId node{};
    net::IpAddress ip{};
    // Declared before `runtime`: the runtime's store listeners capture the
    // plane, so it must outlive the runtime (destruction is reverse order).
    std::unique_ptr<obs::CacheAnalytics> analytics;
    std::unique_ptr<core::ApRuntime> runtime;
    std::unique_ptr<fleet::DirectoryClient> directory;
  };
  struct ShardSlot {
    net::NodeId node{};
    net::IpAddress ip{};
    std::uint64_t epoch = 0;
    std::unique_ptr<sim::ServiceQueue> cpu;
    std::unique_ptr<fleet::DirectoryShard> service;
  };

  void build_topology();
  void build_aps();
  void build_directory();
  void schedule_timeline_tick();
  void observe_new_windows();

  APE_SHARD_LOCAL(controller) FleetParams params_;
  APE_SHARD_SHARED obs::Observer obs_;
  APE_SHARD_SHARED sim::Simulator sim_;
  APE_SHARD_LOCAL(controller) net::Topology topology_;
  APE_SHARD_SHARED std::unique_ptr<net::Network> network_;
  APE_SHARD_SHARED std::unique_ptr<net::TcpTransport> tcp_;

  APE_SHARD_LOCAL(controller) net::NodeId switch_node_{};
  APE_SHARD_LOCAL(controller) CdnBackend backend_;

  APE_SHARD_LOCAL(controller) std::vector<ApSlot> aps_;
  APE_SHARD_LOCAL(controller) std::vector<ShardSlot> shards_;
  APE_SHARD_LOCAL(controller) std::vector<std::unique_ptr<Client>> clients_;
  APE_SHARD_LOCAL(controller) net::Port next_client_port_ = 49152;
  APE_SHARD_LOCAL(controller) std::uint32_t next_client_index_ = 0;

  APE_SHARD_LOCAL(controller) obs::SloEvaluator slo_;
  APE_SHARD_LOCAL(controller) std::size_t slo_windows_seen_ = 0;
  // collect_metrics() span-folding idempotency cursor
  APE_SHARD_LOCAL(controller) std::size_t spans_histogrammed_ = 0;
  APE_SHARD_LOCAL(controller) sim::Time timeline_until_{};
  APE_SHARD_LOCAL(controller) sim::Simulator::EventId timeline_tick_ = 0;
};

}  // namespace ape::testbed
