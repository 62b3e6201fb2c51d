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
  backend_.add_nodes(topology_);
  controller_node_ = topology_.add_node("ec2-controller");

  // AP -> edge (7 hops) and AP -> LDNS -> ADNS / CDN DNS.
  backend_.add_links(topology_, ap_node_, params_);
  // AP -> Wi-Cache controller: 12 hops.
  topology_.add_multi_hop_path(ap_node_, controller_node_, params_.controller_hops,
                               params_.controller_per_hop, params_.wan_bandwidth);

  network_ = std::make_unique<net::Network>(sim_, topology_);
  tcp_ = std::make_unique<net::TcpTransport>(*network_);
  tcp_->set_observer(&obs_);

  ap_ip_ = net::IpAddress::from_octets(192, 168, 8, 1);
  controller_ip_ = net::IpAddress::from_octets(3, 14, 0, 2);
  network_->assign_ip(ap_node_, ap_ip_);
  backend_.start(*network_, *tcp_, obs_, params_);
  network_->assign_ip(controller_node_, controller_ip_);
}

void Testbed::build_servers() {
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
        net::Endpoint{ap_ip_, baselines::kWiCacheAgentControlPort}, ap_ip_, edge_ip());
  }
}

void Testbed::build_ap() {
  core::ApRuntime::Options ap_options;
  ap_options.config = params_.ape;
  ap_options.upstream_dns = net::Endpoint{CdnBackend::kLdnsIp, net::kDnsPort};
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

void Testbed::host_app(const workload::AppSpec& app) { backend_.host_app(app); }

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

  backend_.collect_metrics(m);
  m.gauge("ap.cpu.busy_s").set(sim::to_seconds(ap_->cpu().busy_time()));
  spans_histogrammed_ = obs::record_span_metrics(m, obs_.spans(), spans_histogrammed_);
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
