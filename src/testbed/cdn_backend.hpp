// The back half of the paper's Fig. 9 testbed, owned by both testbeds:
//
//   <uplink> --7 hops--> edge cache server
//       |--upstream--> LDNS --> ADNS / CDN DNS
//
// The uplink is the AP in Testbed and the LAN switch in FleetTestbed.
// Wiring takes three steps so an owner keeps its own nodes and links in a
// fixed creation order: add_nodes(), add_links() to the uplink, and
// start() (IPs and servers) once the Network exists.
#pragma once

#include <cstdint>
#include <memory>

#include "common/shard.hpp"
#include "dns/adns.hpp"
#include "dns/cdn_dns.hpp"
#include "dns/ldns.hpp"
#include "http/edge_server.hpp"
#include "net/tcp.hpp"
#include "obs/cache_analytics.hpp"
#include "obs/observer.hpp"
#include "sim/service_queue.hpp"
#include "workload/app_model.hpp"

namespace ape::testbed {

// Parameters both testbeds honour the same way.  The calibration defaults
// reproduce the paper's measured latencies: AP lookup ~7.5 ms, AP retrieval
// ~7 ms, edge retrieval ~31 ms, edge DNS ~22 ms.
struct CommonParams {
  sim::Duration wifi_one_way{sim::microseconds(1750)};
  double wifi_bandwidth = 30e6;              // ~240 Mbps effective
  std::size_t edge_hops = 7;
  sim::Duration edge_per_hop{sim::microseconds(1070)};
  double wan_bandwidth = 60e6;
  sim::Duration ldns_one_way{sim::microseconds(7000)};
  sim::Duration adns_from_ldns{sim::microseconds(15000)};
  sim::Duration cdn_dns_from_ldns{sim::microseconds(2000)};

  // Akamai-style per-query server selection: mapping answers are not
  // cacheable, so every edge lookup pays the resolver chain (Sec. II-B).
  std::uint32_t cdn_answer_ttl = 0;
  std::uint32_t cname_ttl = 3600;

  // Causal request tracing (DESIGN.md §5f).  Off by default: enabling it
  // injects trace-context carriers into DNS/HTTP messages (real wire
  // bytes), so traced runs are *not* byte-identical to default runs.
  bool enable_spans = false;
  std::size_t span_capacity = obs::SpanLog::kDefaultCapacity;

  // Cache-analytics plane (DESIGN.md §5l), one obs::CacheAnalytics per AP.
  // Off by default.  Report-only: the simulation is unchanged, but exports
  // carry extra keys.
  bool enable_analytics = false;
  obs::CacheAnalyticsConfig analytics;
};

class CdnBackend {
  APE_SHARD_CONTEXT(controller);

 public:
  static constexpr net::IpAddress kEdgeIp = net::IpAddress::from_octets(10, 1, 0, 2);
  static constexpr net::IpAddress kLdnsIp = net::IpAddress::from_octets(10, 2, 0, 2);
  static constexpr net::IpAddress kAdnsIp = net::IpAddress::from_octets(10, 3, 0, 2);
  static constexpr net::IpAddress kCdnDnsIp = net::IpAddress::from_octets(10, 4, 0, 2);

  void add_nodes(net::Topology& topology);
  void add_links(net::Topology& topology, net::NodeId uplink, const CommonParams& params);
  void start(net::Network& network, net::TcpTransport& tcp, obs::Observer& obs,
             const CommonParams& params);

  // Hosts the app's objects on the edge server and publishes its domain in
  // the DNS hierarchy (CNAME into the CDN namespace -> edge server A).
  void host_app(const workload::AppSpec& app);

  // dns.ldns.*, dns.adns.*, dns.cdn.* and edge.* tallies (idempotent).
  void collect_metrics(obs::MetricsRegistry& registry) const;

  [[nodiscard]] http::EdgeCacheServer& edge() noexcept { return *edge_; }
  [[nodiscard]] dns::LocalDnsServer& ldns() noexcept { return *ldns_; }

 private:
  APE_SHARD_LOCAL(controller) net::NodeId edge_node_{}, ldns_node_{}, adns_node_{},
      cdn_dns_node_{};
  APE_SHARD_LOCAL(controller) std::uint32_t cname_ttl_ = 0;
  // Owning handles; the pointees belong to their own shards.
  APE_SHARD_LOCAL(controller) std::unique_ptr<sim::ServiceQueue> edge_cpu_, ldns_cpu_,
      adns_cpu_, cdn_cpu_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<http::EdgeCacheServer> edge_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<dns::LocalDnsServer> ldns_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<dns::AuthoritativeDnsServer> adns_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<dns::CdnDnsServer> cdn_dns_;
};

}  // namespace ape::testbed
