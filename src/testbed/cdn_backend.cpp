#include "testbed/cdn_backend.hpp"

#include <cassert>

namespace ape::testbed {

// The one CDN mapping region: the LDNS sits in it, so the CDN DNS always
// answers with the testbed's edge server.
constexpr const char* kCdnRegion = "access";

void CdnBackend::add_nodes(net::Topology& topology) {
  edge_node_ = topology.add_node("edge");
  ldns_node_ = topology.add_node("ldns");
  adns_node_ = topology.add_node("adns");
  cdn_dns_node_ = topology.add_node("cdn-dns");
}

void CdnBackend::add_links(net::Topology& topology, net::NodeId uplink,
                           const CommonParams& params) {
  // Uplink -> edge: the 7-hop path of Fig. 9.
  topology.add_multi_hop_path(uplink, edge_node_, params.edge_hops, params.edge_per_hop,
                              params.wan_bandwidth);
  // Uplink -> LDNS (the ISP resolver), then resolver-side services.
  topology.add_link(uplink, ldns_node_,
                    net::LinkSpec{params.ldns_one_way, params.wan_bandwidth});
  topology.add_link(ldns_node_, adns_node_,
                    net::LinkSpec{params.adns_from_ldns, params.wan_bandwidth});
  topology.add_link(ldns_node_, cdn_dns_node_,
                    net::LinkSpec{params.cdn_dns_from_ldns, params.wan_bandwidth});
}

void CdnBackend::start(net::Network& network, net::TcpTransport& tcp, obs::Observer& obs,
                       const CommonParams& params) {
  network.assign_ip(edge_node_, kEdgeIp);
  network.assign_ip(ldns_node_, kLdnsIp);
  network.assign_ip(adns_node_, kAdnsIp);
  network.assign_ip(cdn_dns_node_, kCdnDnsIp);
  cname_ttl_ = params.cname_ttl;

  sim::Simulator& sim = network.simulator();
  ldns_cpu_ = std::make_unique<sim::ServiceQueue>(sim, 4);
  adns_cpu_ = std::make_unique<sim::ServiceQueue>(sim, 4);
  cdn_cpu_ = std::make_unique<sim::ServiceQueue>(sim, 4);
  ldns_ = std::make_unique<dns::LocalDnsServer>(network, ldns_node_, *ldns_cpu_,
                                                sim::microseconds(200));
  adns_ = std::make_unique<dns::AuthoritativeDnsServer>(network, adns_node_, *adns_cpu_,
                                                        sim::microseconds(150));
  cdn_dns_ = std::make_unique<dns::CdnDnsServer>(network, cdn_dns_node_, *cdn_cpu_,
                                                 sim::microseconds(150));
  cdn_dns_->set_answer_ttl(params.cdn_answer_ttl);
  cdn_dns_->set_region_of(kLdnsIp, kCdnRegion);

  // CDN namespace delegation.
  const auto cdn_zone = dns::DnsName::parse("edgecdn.net").value();
  ldns_->add_delegation(cdn_zone, net::Endpoint{kCdnDnsIp, net::kDnsPort});

  // Edge cache server: ample capacity, preloaded via host_app.
  edge_cpu_ = std::make_unique<sim::ServiceQueue>(sim, 8);
  edge_ = std::make_unique<http::EdgeCacheServer>(tcp, edge_node_, *edge_cpu_);
  edge_->set_observer(&obs);
}

void CdnBackend::host_app(const workload::AppSpec& app) {
  assert(app.valid());
  for (auto& object : app.objects()) {
    // The edge hosts every object with its backend ("retrieval") latency;
    // warm client-facing hits skip it, cache-fill origin pulls pay it —
    // see EdgeCacheServer.
    edge_->host(object);
  }
  // Publish the domain: ADNS answers the app's host with a CNAME into the
  // CDN namespace; the CDN DNS maps it to the edge server.
  const auto domain = dns::DnsName::parse(app.domain).value();
  const auto cdn_name = dns::DnsName::parse(app.domain + ".edgecdn.net").value();
  adns_->add_zone(domain);
  adns_->add_cname(domain, cdn_name, cname_ttl_);
  cdn_dns_->add_service(cdn_name, kEdgeIp);
  cdn_dns_->add_cache_server(cdn_name, kCdnRegion, kEdgeIp);

  // LDNS learns where the app's zone is served.
  ldns_->add_delegation(domain, net::Endpoint{kAdnsIp, net::kDnsPort});
}

void CdnBackend::collect_metrics(obs::MetricsRegistry& registry) const {
  registry.counter("dns.ldns.queries").set(ldns_->queries_received());
  registry.counter("dns.ldns.upstream_queries").set(ldns_->upstream_queries());
  registry.counter("dns.ldns.cache_size").set(ldns_->cache_size());
  registry.counter("dns.adns.queries").set(adns_->queries_received());
  registry.counter("dns.cdn.queries").set(cdn_dns_->queries_received());
  registry.counter("edge.requests").set(edge_->requests_served());
  registry.counter("edge.hits").set(edge_->hits());
  registry.counter("edge.misses").set(edge_->misses());
}

}  // namespace ape::testbed
