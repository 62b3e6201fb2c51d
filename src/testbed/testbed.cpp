#include "testbed/testbed.hpp"

#include <cassert>

#include "obs/sim_metrics.hpp"

namespace ape::testbed {

const char* to_string(System system) noexcept {
  switch (system) {
    case System::ApeCache: return "APE-CACHE";
    case System::ApeCacheLru: return "APE-CACHE-LRU";
    case System::WiCache: return "Wi-Cache";
    case System::EdgeCache: return "Edge Cache";
  }
  return "?";
}

Testbed::Testbed(TestbedParams params)
    : params_(std::move(params)), obs_(params_.span_capacity) {
  obs_.spans().set_enabled(params_.enable_spans);
  if (params_.enable_analytics) {
    analytics_ = std::make_unique<obs::CacheAnalytics>(params_.analytics);
  }
  build_topology();
  build_dns();
  build_servers();
  if (params_.enable_timeline) build_telemetry();
}

Testbed::~Testbed() {
  if (timeline_tick_ != 0) sim_.cancel(timeline_tick_);
}

void Testbed::build_telemetry() {
  obs_.timeline().set_enabled(true);
  obs_.timeline().set_interval(params_.timeline_interval);
  telemetry_agent_ = std::make_unique<TelemetryAgent>(*network_, ap_node_, ap_->cpu(),
                                                      obs_.timeline(), &obs_,
                                                      analytics_.get());
  telemetry_collector_ = std::make_unique<TelemetryCollector>(
      *network_, controller_node_, net::Endpoint{ap_ip_, kTelemetryAgentPort},
      params_.telemetry_scrape_interval, &obs_);
  for (const std::string& text : params_.slo_rules) {
    auto rule = obs::parse_slo_rule(text);
    assert(rule.ok() && "TestbedParams::slo_rules must parse (see obs/slo.hpp grammar)");
    if (rule.ok()) telemetry_collector_->slo().add_rule(std::move(rule).value());
  }
}

void Testbed::start_timeline(sim::Time until) {
  if (!obs_.timeline_enabled()) return;
  timeline_until_ = until;
  schedule_timeline_tick();
  if (telemetry_collector_ != nullptr) telemetry_collector_->start(until);
}

void Testbed::schedule_timeline_tick() {
  timeline_tick_ = sim_.schedule_in(obs_.timeline().interval(), [this] {
    timeline_tick_ = 0;
    collect_metrics();
    obs_.timeline().capture(obs_.metrics(), sim_.now());
    if (sim_.now() + obs_.timeline().interval() <= timeline_until_) {
      schedule_timeline_tick();
    }
  }, APE_EVT("controller.timeline.tick"));
}

void Testbed::flush_timeline() {
  if (!obs_.timeline_enabled()) return;
  collect_metrics();
  obs_.timeline().capture(obs_.metrics(), sim_.now());
}

void Testbed::build_topology() {
  ap_node_ = topology_.add_node("ap");
  edge_node_ = topology_.add_node("edge");
  ldns_node_ = topology_.add_node("ldns");
  adns_node_ = topology_.add_node("adns");
  cdn_dns_node_ = topology_.add_node("cdn-dns");
  controller_node_ = topology_.add_node("ec2-controller");

  // AP -> edge: the 7-hop path of Fig. 9.
  topology_.add_multi_hop_path(ap_node_, edge_node_, params_.edge_hops, params_.edge_per_hop,
                               params_.wan_bandwidth);
  // AP -> Wi-Cache controller: 12 hops.
  topology_.add_multi_hop_path(ap_node_, controller_node_, params_.controller_hops,
                               params_.controller_per_hop, params_.wan_bandwidth);
  // AP -> LDNS (the ISP resolver), then resolver-side services.
  topology_.add_link(ap_node_, ldns_node_,
                     net::LinkSpec{params_.ldns_one_way, params_.wan_bandwidth});
  topology_.add_link(ldns_node_, adns_node_,
                     net::LinkSpec{params_.adns_from_ldns, params_.wan_bandwidth});
  topology_.add_link(ldns_node_, cdn_dns_node_,
                     net::LinkSpec{params_.cdn_dns_from_ldns, params_.wan_bandwidth});

  network_ = std::make_unique<net::Network>(sim_, topology_);
  tcp_ = std::make_unique<net::TcpTransport>(*network_);
  tcp_->set_observer(&obs_);

  ap_ip_ = net::IpAddress::from_octets(192, 168, 8, 1);
  edge_ip_ = net::IpAddress::from_octets(10, 1, 0, 2);
  ldns_ip_ = net::IpAddress::from_octets(10, 2, 0, 2);
  adns_ip_ = net::IpAddress::from_octets(10, 3, 0, 2);
  cdn_dns_ip_ = net::IpAddress::from_octets(10, 4, 0, 2);
  controller_ip_ = net::IpAddress::from_octets(3, 14, 0, 2);
  network_->assign_ip(ap_node_, ap_ip_);
  network_->assign_ip(edge_node_, edge_ip_);
  network_->assign_ip(ldns_node_, ldns_ip_);
  network_->assign_ip(adns_node_, adns_ip_);
  network_->assign_ip(cdn_dns_node_, cdn_dns_ip_);
  network_->assign_ip(controller_node_, controller_ip_);
}

void Testbed::build_dns() {
  ldns_cpu_ = std::make_unique<sim::ServiceQueue>(sim_, 4);
  adns_cpu_ = std::make_unique<sim::ServiceQueue>(sim_, 4);
  cdn_cpu_ = std::make_unique<sim::ServiceQueue>(sim_, 4);

  ldns_ = std::make_unique<dns::LocalDnsServer>(*network_, ldns_node_, *ldns_cpu_,
                                                sim::microseconds(200));
  adns_ = std::make_unique<dns::AuthoritativeDnsServer>(*network_, adns_node_, *adns_cpu_,
                                                        sim::microseconds(150));
  cdn_dns_ = std::make_unique<dns::CdnDnsServer>(*network_, cdn_dns_node_, *cdn_cpu_,
                                                 sim::microseconds(150));
  cdn_dns_->set_answer_ttl(params_.cdn_answer_ttl);
  cdn_dns_->set_region_of(ldns_ip_, "testbed");

  // CDN namespace delegation.
  const auto cdn_zone = dns::DnsName::parse("edgecdn.net").value();
  ldns_->add_delegation(cdn_zone, net::Endpoint{cdn_dns_ip_, net::kDnsPort});
}

void Testbed::build_servers() {
  // Edge cache server: ample capacity, preloaded via host_app.
  edge_cpu_ = std::make_unique<sim::ServiceQueue>(sim_, 8);
  edge_ = std::make_unique<http::EdgeCacheServer>(*tcp_, edge_node_, *edge_cpu_);
  edge_->set_observer(&obs_);

  // The AP: APE-CACHE runtimes for the two APE systems, stock forwarder for
  // Wi-Cache / Edge Cache.  The flash media outlives ApRuntime incarnations
  // (restart_ap), modelling the AP's persistent storage part.
  const bool ape_enabled =
      params_.system == System::ApeCache || params_.system == System::ApeCacheLru;
  if (ape_enabled && params_.ape.flash_capacity_bytes > 0) {
    flash_media_ = std::make_unique<store::FlashMedia>();
  }
  build_ap();

  if (params_.system == System::WiCache) {
    wicache_agent_ = std::make_unique<baselines::WiCacheApAgent>(
        *network_, *tcp_, ap_node_, ap_->cpu(), params_.wicache_capacity_bytes,
        net::Endpoint{controller_ip_, baselines::kWiCacheControllerPort});
    controller_cpu_ = std::make_unique<sim::ServiceQueue>(sim_, 4);
    wicache_controller_ = std::make_unique<baselines::WiCacheController>(
        *network_, controller_node_, *controller_cpu_,
        net::Endpoint{ap_ip_, baselines::kWiCacheAgentControlPort}, ap_ip_, edge_ip_);
  }
}

void Testbed::build_ap() {
  core::ApRuntime::Options ap_options;
  ap_options.config = params_.ape;
  ap_options.upstream_dns = net::Endpoint{ldns_ip_, net::kDnsPort};
  ap_options.enable_ape =
      params_.system == System::ApeCache || params_.system == System::ApeCacheLru;
  ap_options.policy = params_.system == System::ApeCacheLru ? core::ApRuntime::Policy::Lru
                                                            : core::ApRuntime::Policy::Pacm;
  if (params_.policy_override) ap_options.policy = *params_.policy_override;
  ap_options.observer = &obs_;
  ap_options.flash_media = flash_media_.get();
  ap_options.analytics = analytics_.get();
  ap_ = std::make_unique<core::ApRuntime>(*network_, *tcp_, ap_node_, ap_options);
}

void Testbed::restart_ap(bool preserve_flash) {
  assert(ap_ != nullptr);
  assert(wicache_agent_ == nullptr && "restart_ap models APE firmware restarts only");
  // The telemetry agent captures the old runtime's ServiceQueue by
  // reference; timeline runs must not restart the AP.
  assert(telemetry_agent_ == nullptr && "restart_ap is unsupported in timeline runs");
  // Completion events capture the runtime; tearing it down mid-flight is UB.
  assert(ap_->cpu().busy_servers() == 0 && ap_->cpu().queued() == 0 &&
         "restart_ap requires a quiesced AP (drain the sim first)");
  ap_.reset();  // DNS/HTTP servers unbind, pending sweep event is cancelled
  if (!preserve_flash && flash_media_ != nullptr) flash_media_->clear();
  build_ap();
}

void Testbed::host_app(const workload::AppSpec& app) {
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
  adns_->add_cname(domain, cdn_name, params_.cname_ttl);
  cdn_dns_->add_service(cdn_name, edge_ip_);
  cdn_dns_->add_cache_server(cdn_name, "testbed", edge_ip_);

  // LDNS learns where the app's zone is served.
  ldns_->add_delegation(domain, net::Endpoint{adns_ip_, net::kDnsPort});
}

Testbed::Client& Testbed::add_client(const std::string& name) {
  auto client = std::make_unique<Client>();
  const net::NodeId node = topology_.add_node(name);
  topology_.add_link(node, ap_node_,
                     net::LinkSpec{params_.wifi_one_way, params_.wifi_bandwidth});
  network_->assign_ip(node,
                      net::IpAddress::from_octets(192, 168, 8,
                                                  static_cast<std::uint8_t>(
                                                      next_client_ip_suffix_++)));
  client->node = node;

  core::ClientRuntime::Options options;
  options.ap_dns = net::Endpoint{ap_ip_, net::kDnsPort};
  options.ap_ip = ap_ip_;
  options.ape_enabled =
      params_.system == System::ApeCache || params_.system == System::ApeCacheLru;
  options.observer = &obs_;
  client->runtime = std::make_unique<core::ClientRuntime>(*network_, *tcp_, node,
                                                          next_client_port_++, options);

  switch (params_.system) {
    case System::ApeCache:
      client->fetcher =
          std::make_unique<baselines::ApeFetcher>(*client->runtime, "APE-CACHE");
      break;
    case System::ApeCacheLru:
      client->fetcher =
          std::make_unique<baselines::ApeFetcher>(*client->runtime, "APE-CACHE-LRU");
      break;
    case System::WiCache:
      client->fetcher = std::make_unique<baselines::WiCacheFetcher>(
          *network_, *tcp_, node, next_client_port_++,
          net::Endpoint{controller_ip_, baselines::kWiCacheControllerPort}, ap_ip_);
      break;
    case System::EdgeCache:
      client->fetcher = std::make_unique<baselines::EdgeCacheFetcher>(*client->runtime);
      break;
  }

  clients_.push_back(std::move(client));
  return *clients_.back();
}

void Testbed::collect_metrics() {
  obs::MetricsRegistry& m = obs_.metrics();

  // Event-loop pressure: fired events, live queue depth / wheel occupancy,
  // arena high-water, and the tombstone (cancelled-slot) picture — one
  // shared helper so single-AP and fleet testbeds export uniformly.
  obs::record_sim_metrics(m, sim_);

  // DNS hierarchy tallies (queries each speaker served / recursed).
  m.counter("dns.ldns.queries").set(ldns_->queries_received());
  m.counter("dns.ldns.upstream_queries").set(ldns_->upstream_queries());
  m.counter("dns.ldns.cache_size").set(ldns_->cache_size());
  m.counter("dns.adns.queries").set(adns_->queries_received());
  m.counter("dns.cdn.queries").set(cdn_dns_->queries_received());

  // Edge server / origin pull picture.
  m.counter("edge.requests").set(edge_->requests_served());
  m.counter("edge.hits").set(edge_->hits());
  m.counter("edge.misses").set(edge_->misses());

  m.gauge("ap.cpu.busy_s").set(sim::to_seconds(ap_->cpu().busy_time()));

  // Span bookkeeping + per-span-kind latency histograms, only in traced
  // runs so default ape.obs.v1 exports stay byte-identical.  The cursor
  // makes repeated collection idempotent (each span is folded in once).
  if (obs_.spans_enabled()) {
    m.counter("obs.spans.recorded").set(obs_.spans().recorded());
    m.counter("obs.spans.dropped").set(obs_.spans().dropped());
    m.gauge("obs.spans.open").set(static_cast<double>(obs_.spans().open_count()));
    spans_histogrammed_ =
        obs::record_span_histograms(obs_.spans().spans(), m, spans_histogrammed_);
  }

  ap_->snapshot_metrics();
}

sim::ResourceMeter& Testbed::meter_ap(sim::Duration interval, sim::Time until) {
  meter_ = std::make_unique<sim::ResourceMeter>(sim_, ap_->cpu_cores());
  meter_->add_cpu_source([this] { return ap_->cpu().busy_time(); });
  meter_->add_memory_source([this] { return ap_->memory_bytes(); });
  meter_->start(interval, until);
  return *meter_;
}

void Testbed::account_passthrough(std::size_t bytes) {
  // Client <-> edge traffic transits the AP's kernel fast path twice
  // (WAN ingress + WiFi egress).  Connection state is tracked by the TCP
  // transport, not the flow counter (flows there model replayed captures).
  const std::size_t packets = 2 * (bytes / 1448 + 2);  // data + SYN/ACK chatter
  for (std::size_t i = 0; i < packets; ++i) {
    ap_->forward_packet(i < 2 ? 80 : 1448, false);
  }
}

}  // namespace ape::testbed
