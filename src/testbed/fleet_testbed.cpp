#include "testbed/fleet_testbed.hpp"

#include <cassert>
#include <utility>

#include "obs/sim_metrics.hpp"

namespace ape::testbed {

using fleet::DirectoryClient;
using fleet::DirectoryShard;

FleetTestbed::FleetTestbed(FleetParams params)
    : params_(std::move(params)), obs_(params_.span_capacity) {
  assert(params_.ap_count > 0);
  assert(params_.shard_count > 0);
  // RETRACT must mean "copy gone"; a flash tier keeps serving demoted
  // copies, so the fleet runs RAM-only APs (see DirectoryClient::attach).
  params_.ape.flash_capacity_bytes = 0;
  obs_.spans().set_enabled(params_.enable_spans);
  if (params_.enable_timeline) {
    obs_.timeline().set_enabled(true);
    obs_.timeline().set_interval(params_.timeline_interval);
  }
  for (const std::string& text : params_.slo_rules) {
    auto rule = obs::parse_slo_rule(text);
    assert(rule.ok() && "FleetParams::slo_rules must parse (see obs/slo.hpp grammar)");
    if (rule.ok()) slo_.add_rule(std::move(rule).value());
  }
  build_topology();
  build_aps();
  if (params_.enable_peer_probe) build_directory();
}

FleetTestbed::~FleetTestbed() {
  if (timeline_tick_ != 0) sim_.cancel(timeline_tick_);
}

void FleetTestbed::build_topology() {
  switch_node_ = topology_.add_node("lan-switch");
  backend_.add_nodes(topology_);
  // Shared uplink: switch -> edge is the 7-hop WAN path every AP shares;
  // the resolver chain hangs off the same uplink.
  backend_.add_links(topology_, switch_node_, params_);

  network_ = std::make_unique<net::Network>(sim_, topology_);
  tcp_ = std::make_unique<net::TcpTransport>(*network_);
  tcp_->set_observer(&obs_);
  backend_.start(*network_, *tcp_, obs_, params_);
  network_->assign_ip(switch_node_, net::IpAddress::from_octets(10, 0, 0, 1));

  aps_.resize(params_.ap_count);
  for (std::size_t i = 0; i < aps_.size(); ++i) {
    ApSlot& slot = aps_[i];
    slot.node = topology_.add_node("ap" + std::to_string(i));
    topology_.add_link(slot.node, switch_node_,
                       net::LinkSpec{params_.lan_one_way, params_.lan_bandwidth});
    slot.ip = net::IpAddress::from_octets(10, 10, static_cast<std::uint8_t>(i), 1);
    network_->assign_ip(slot.node, slot.ip);
  }

  shards_.resize(params_.shard_count);
  for (std::size_t j = 0; j < shards_.size(); ++j) {
    ShardSlot& slot = shards_[j];
    slot.node = topology_.add_node("dir-shard" + std::to_string(j));
    topology_.add_link(slot.node, switch_node_,
                       net::LinkSpec{params_.lan_one_way, params_.lan_bandwidth});
    slot.ip = net::IpAddress::from_octets(10, 30, static_cast<std::uint8_t>(j), 2);
    network_->assign_ip(slot.node, slot.ip);
  }
}

void FleetTestbed::build_aps() {
  for (ApSlot& slot : aps_) {
    if (params_.enable_analytics) {
      slot.analytics = std::make_unique<obs::CacheAnalytics>(params_.analytics);
    }
    core::ApRuntime::Options options;
    options.config = params_.ape;
    options.upstream_dns = net::Endpoint{CdnBackend::kLdnsIp, net::kDnsPort};
    options.enable_ape = true;
    options.policy = params_.policy;
    options.observer = &obs_;
    options.analytics = slot.analytics.get();
    slot.runtime = std::make_unique<core::ApRuntime>(*network_, *tcp_, slot.node, options);
  }
}

void FleetTestbed::build_directory() {
  std::vector<net::Endpoint> shard_endpoints;
  shard_endpoints.reserve(shards_.size());
  for (ShardSlot& slot : shards_) {
    slot.epoch = 1;
    slot.cpu = std::make_unique<sim::ServiceQueue>(sim_, 2);
    slot.service = std::make_unique<DirectoryShard>(
        *network_, slot.node, *slot.cpu,
        static_cast<std::uint32_t>(&slot - shards_.data()), slot.epoch, &obs_);
    shard_endpoints.push_back(net::Endpoint{slot.ip, fleet::kDirectoryShardPort});
  }

  std::map<std::uint32_t, net::IpAddress> roster;
  for (std::size_t i = 0; i < aps_.size(); ++i) {
    roster.emplace(static_cast<std::uint32_t>(i), aps_[i].ip);
  }

  for (std::size_t i = 0; i < aps_.size(); ++i) {
    DirectoryClient::Options options;
    options.ap_id = static_cast<std::uint32_t>(i);
    options.port = fleet::kDirectoryClientPort;
    options.shards = shard_endpoints;
    options.roster = roster;
    options.lookup_ttl = params_.dir_lookup_ttl;
    options.lookup_timeout = params_.dir_lookup_timeout;
    options.publish_ttl_s = params_.dir_publish_ttl_s;
    options.lease_interval = params_.dir_lease_interval;
    options.observer = &obs_;
    aps_[i].directory =
        std::make_unique<DirectoryClient>(*network_, aps_[i].node, std::move(options));
    aps_[i].directory->attach(*aps_[i].runtime);
  }
}

FleetTestbed::Client& FleetTestbed::add_client(const std::string& name,
                                               std::uint32_t ap_index) {
  assert(ap_index < aps_.size());
  auto client = std::make_unique<Client>();
  client->node = topology_.add_node(name);
  client->ap = ap_index;
  topology_.add_link(client->node, aps_[ap_index].node,
                     net::LinkSpec{params_.wifi_one_way, params_.wifi_bandwidth});
  const std::uint32_t n = next_client_index_++;
  network_->assign_ip(client->node,
                      net::IpAddress::from_octets(10, 20, static_cast<std::uint8_t>(n >> 8),
                                                  static_cast<std::uint8_t>(n & 0xFF)));

  core::ClientRuntime::Options options;
  options.ap_dns = net::Endpoint{aps_[ap_index].ip, net::kDnsPort};
  options.ap_ip = aps_[ap_index].ip;
  options.ape_enabled = true;
  options.observer = &obs_;
  client->runtime = std::make_unique<core::ClientRuntime>(*network_, *tcp_, client->node,
                                                          next_client_port_++, options);
  clients_.push_back(std::move(client));
  return *clients_.back();
}

void FleetTestbed::roam(Client& client, std::uint32_t new_ap) {
  assert(new_ap < aps_.size());
  if (new_ap == client.ap) return;
  // Bring the new association up first (re-arming a previous link if the
  // client roamed here before), then drop the old one.
  if (topology_.link_exists(client.node, aps_[new_ap].node)) {
    topology_.set_link_down(client.node, aps_[new_ap].node, false);
  } else {
    topology_.add_link(client.node, aps_[new_ap].node,
                       net::LinkSpec{params_.wifi_one_way, params_.wifi_bandwidth});
  }
  topology_.set_link_down(client.node, aps_[client.ap].node, true);
  client.ap = new_ap;
  client.runtime->roam_to(net::Endpoint{aps_[new_ap].ip, net::kDnsPort}, aps_[new_ap].ip);
}

void FleetTestbed::restart_shard(std::size_t index) {
  assert(index < shards_.size());
  ShardSlot& slot = shards_[index];
  assert(slot.service != nullptr);
  assert(slot.cpu->busy_servers() == 0 && slot.cpu->queued() == 0 &&
         "restart_shard requires a quiesced shard (drain the sim first)");
  slot.service.reset();  // unbinds the UDP port; the registry dies with it
  ++slot.epoch;
  slot.service = std::make_unique<DirectoryShard>(*network_, slot.node, *slot.cpu,
                                                  static_cast<std::uint32_t>(index),
                                                  slot.epoch, &obs_);
}

void FleetTestbed::set_shard_reachable(std::size_t index, bool up) {
  assert(index < shards_.size());
  topology_.set_link_down(shards_[index].node, switch_node_, !up);
}

void FleetTestbed::collect_metrics() {
  obs::MetricsRegistry& m = obs_.metrics();

  obs::record_sim_metrics(m, sim_);
  backend_.collect_metrics(m);

  m.gauge("fleet.ap_count").set(static_cast<double>(aps_.size()));
  m.gauge("fleet.shard_count").set(static_cast<double>(shards_.size()));
  m.gauge("fleet.clients").set(static_cast<double>(clients_.size()));

  // Per-AP gauges under qualified names (ApRuntime::snapshot_metrics writes
  // unqualified ap.* gauges and is deliberately NOT called here — with N
  // runtimes sharing one registry the snapshots would clobber each other).
  // The unqualified ledger names carry the fleet-wide sum instead.
  std::size_t fleet_cache_bytes = 0;
  std::size_t fleet_cache_items = 0;
  cache::CacheStatistics fleet_ledger;
  for (std::size_t i = 0; i < aps_.size(); ++i) {
    fleet_ledger += aps_[i].runtime->lookup_stats();
    const std::string prefix = "fleet.ap" + std::to_string(i);
    const cache::CacheStore& store = aps_[i].runtime->data_cache();
    m.gauge(prefix + ".cache.bytes").set(static_cast<double>(store.used_bytes()));
    m.gauge(prefix + ".cache.items").set(static_cast<double>(store.entry_count()));
    m.gauge(prefix + ".cpu.busy_s").set(sim::to_seconds(aps_[i].runtime->cpu().busy_time()));
    aps_[i].runtime->record_analytics_metrics(m, prefix + ".");
    fleet_cache_bytes += store.used_bytes();
    fleet_cache_items += store.entry_count();
  }
  m.gauge("fleet.cache.bytes").set(static_cast<double>(fleet_cache_bytes));
  m.gauge("fleet.cache.items").set(static_cast<double>(fleet_cache_items));
  core::record_ledger_metrics(m, fleet_ledger);

  for (std::size_t j = 0; j < shards_.size(); ++j) {
    const std::string prefix = "dir.shard" + std::to_string(j);
    m.gauge(prefix + ".keys").set(static_cast<double>(shards_[j].service != nullptr
                                                          ? shards_[j].service->key_count()
                                                          : 0));
    m.gauge(prefix + ".epoch").set(static_cast<double>(shards_[j].epoch));
  }

  obs::record_span_metrics(m, obs_.spans());
}

void FleetTestbed::start_timeline(sim::Time until) {
  if (!obs_.timeline_enabled()) return;
  timeline_until_ = until;
  schedule_timeline_tick();
}

void FleetTestbed::schedule_timeline_tick() {
  timeline_tick_ = sim_.schedule_in(obs_.timeline().interval(), [this] {
    timeline_tick_ = 0;
    collect_metrics();
    obs_.timeline().capture(obs_.metrics(), sim_.now());
    observe_new_windows();
    if (sim_.now() + obs_.timeline().interval() <= timeline_until_) {
      schedule_timeline_tick();
    }
  }, APE_EVT("controller.timeline.tick"));
}

void FleetTestbed::flush_timeline() {
  if (!obs_.timeline_enabled()) return;
  collect_metrics();
  obs_.timeline().capture(obs_.metrics(), sim_.now());
  observe_new_windows();
}

void FleetTestbed::observe_new_windows() {
  const auto& windows = obs_.timeline().windows();
  for (; slo_windows_seen_ < windows.size(); ++slo_windows_seen_) {
    slo_.observe(windows[slo_windows_seen_]);
  }
}

}  // namespace ape::testbed
