#include "core/ap_runtime.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "cache/fifo_policy.hpp"
#include "cache/gdsf_policy.hpp"
#include "cache/lfu_policy.hpp"
#include "cache/lru_policy.hpp"
#include "core/pacm_policy.hpp"
#include "core/trace_propagation.hpp"
#include "core/url_hash.hpp"
#include "http/origin_server.hpp"

namespace ape::core {

namespace {
constexpr net::Port kApUpstreamPort = 41053;  // AP's socket toward the LDNS

// cache::RemovalCause -> the obs-local mirror (obs sits below cache in the
// layer map, so the analytics plane cannot see the cache enum itself).
obs::AnalyticsRemovalCause analytics_cause(cache::RemovalCause cause) {
  switch (cause) {
    case cache::RemovalCause::Evicted: return obs::AnalyticsRemovalCause::Capacity;
    case cache::RemovalCause::Expired: return obs::AnalyticsRemovalCause::Expired;
    case cache::RemovalCause::Replaced: return obs::AnalyticsRemovalCause::Replaced;
    case cache::RemovalCause::Erased: return obs::AnalyticsRemovalCause::Invalidated;
    case cache::RemovalCause::Cleared: return obs::AnalyticsRemovalCause::Cleared;
  }
  return obs::AnalyticsRemovalCause::Invalidated;
}

std::unique_ptr<cache::EvictionPolicy> make_policy(ApRuntime::Policy policy,
                                                   const ApeConfig& config,
                                                   const sim::Simulator& clock,
                                                   const FrequencyTracker& freq,
                                                   obs::Observer* observer) {
  switch (policy) {
    case ApRuntime::Policy::Pacm:
      return std::make_unique<PacmPolicy>(config, clock, freq, observer);
    case ApRuntime::Policy::Lru: return std::make_unique<cache::LruPolicy>();
    case ApRuntime::Policy::Fifo: return std::make_unique<cache::FifoPolicy>();
    case ApRuntime::Policy::Lfu: return std::make_unique<cache::LfuPolicy>();
    case ApRuntime::Policy::Gdsf: return std::make_unique<cache::GdsfPolicy>();
  }
  return std::make_unique<cache::LruPolicy>();
}
}  // namespace

ApRuntime::ApRuntime(net::Network& network, net::TcpTransport& tcp, net::NodeId node,
                     Options options)
    : network_(network),
      tcp_(tcp),
      node_(node),
      options_(std::move(options)),
      cpu_(network.simulator(), options_.cpu_cores),
      freq_(options_.config.alpha, options_.config.frequency_window),
      data_cache_(std::make_unique<cache::CacheStore>(
          options_.config.cache_capacity_bytes,
          make_policy(options_.policy, options_.config, network.simulator(), freq_,
                      options_.observer))),
      block_list_(options_.config.block_threshold_bytes),
      upstream_(network, node, kApUpstreamPort),
      edge_client_(tcp, node),
      observer_(options_.observer),
      analytics_(options_.analytics) {
  if (observer_ != nullptr) {
    // Per-request instruments: bind lazily resolving handles once, so the
    // DNS/HTTP hot paths never repeat a by-name map lookup.  Lazy (not
    // resolve()d here) on purpose — an instrument only materialises in the
    // export after its first event, exactly like the by-name calls these
    // replace.
    obs::MetricsRegistry& m = observer_->metrics();
    hot_.dns_cache_queries = {m, "ap.dns.cache_queries"};
    hot_.dns_cache_rr_emitted = {m, "ap.dns.cache_rr_emitted"};
    hot_.dns_flags_emitted = {m, "ap.dns.flags_emitted"};
    hot_.dns_short_circuit = {m, "dns.short_circuit"};
    hot_.dns_upstream_avoided = {m, "dns.upstream_avoided"};
    hot_.dns_regular_queries = {m, "ap.dns.regular_queries"};
    hot_.dns_record_cache_hit = {m, "ap.dns.record_cache_hit"};
    hot_.dns_upstream_queries = {m, "ap.dns.upstream_queries"};
    hot_.http_cache_serves = {m, "ap.http.cache_serves"};
    hot_.http_bytes_from_cache = {m, "ap.http.bytes_from_cache"};
    hot_.http_flash_serves = {m, "ap.http.flash_serves"};
    hot_.http_race_fallback = {m, "ap.http.race_fallback"};
    hot_.block_listed = {m, "ap.block_listed"};
    hot_.delegation_bytes_fetched = {m, "ap.delegation.bytes_fetched"};
    // Fleet peer-probe instruments: lazy like the rest, so single-AP runs
    // (which never fire them) keep byte-identical exports.
    hot_.peer_probes = {m, "ap.peer.probes"};
    hot_.peer_hits = {m, "ap.peer.hits"};
    hot_.peer_fallbacks = {m, "ap.peer.fallbacks"};
    hot_.peer_serves = {m, "ap.peer.serves"};
    hot_.peer_serve_misses = {m, "ap.peer.serve_misses"};
    hot_.peer_bytes_relayed = {m, "ap.peer.bytes_relayed"};
    hot_.latency_estimate_error_ms = {m, "pacm.latency_estimate_error_ms", "ms"};
  }
  data_cache_->set_retain_expired(options_.config.enable_revalidation);

  if (analytics_ != nullptr) {
    // Registered before the tiered store below, whose demotion hook rides
    // the same listener list (both use add_, neither clobbers the other).
    data_cache_->add_removal_listener(
        [this](const cache::CacheEntry& entry, cache::RemovalCause cause) {
          analytics_->on_removal(entry.key, entry.size_bytes, std::to_string(entry.app_id),
                                 analytics_cause(cause), entry.access_count, entry.inserted,
                                 entry.last_access, network_.simulator().now());
        });
    // The miss that scheduled a fetch entered the MRC with a 0-byte hint;
    // the insert corrects the footprint once the object's size is known.
    data_cache_->add_insert_listener([this](const cache::CacheEntry& entry) {
      analytics_->on_insert(entry.key, entry.size_bytes);
    });
  }

  if (options_.enable_ape && options_.config.flash_capacity_bytes > 0) {
    if (options_.flash_media == nullptr) {
      owned_media_ = std::make_unique<store::FlashMedia>();
      options_.flash_media = owned_media_.get();
    }
    store::FlashDeviceParams dev;
    dev.read_latency = options_.config.flash_read_latency;
    dev.write_latency = options_.config.flash_write_latency;
    dev.read_bandwidth = options_.config.flash_read_bandwidth;
    dev.write_bandwidth = options_.config.flash_write_bandwidth;
    flash_device_ = std::make_unique<store::FlashDevice>(network_.simulator(), dev);

    store::FlashTierParams tier;
    tier.capacity_bytes = options_.config.flash_capacity_bytes;
    tier.segment_bytes = options_.config.flash_segment_bytes;
    tier.compact_dead_ratio = options_.config.flash_compact_dead_ratio;
    flash_tier_ =
        std::make_unique<store::FlashTier>(*flash_device_, *options_.flash_media, tier);
    tiered_ = std::make_unique<store::TieredStore>(network_.simulator(), *data_cache_,
                                                   *flash_tier_);
    tiered_->set_observer(observer_);
    // Mount: formatted media means this AP is restarting — replay the
    // journal so the flash tier comes back warm.
    if (options_.flash_media->formatted()) flash_tier_->recover();
    // Tier-aware PACM: eviction demotes, so l_d clamps to the flash read.
    if (auto* pacm = dynamic_cast<PacmPolicy*>(&data_cache_->policy())) {
      pacm->set_demotion_latency(
          [this](const cache::CacheEntry& e) { return tiered_->flash_read_ms(e); });
    }
  }
  if (options_.config.sweep_interval.count() > 0) schedule_sweep();

  dns_ = std::make_unique<Dns>(*this, network_, node_, cpu_, options_.config.dns_service_time);
  dns_->set_serve_kind(APE_EVT("ap.dns.serve"));

  http::ServiceCost cost;
  cost.base = options_.config.http_service_base;
  cost.per_kilobyte = options_.config.http_service_per_kb;
  http_ = std::make_unique<http::HttpServer>(tcp_, node_, net::kHttpPort, cpu_, cost);
  http_->set_serve_kind(APE_EVT("ap.http.serve"));
  http_->set_fallback([this](const http::HttpRequest& req, net::Endpoint,
                             http::HttpServer::Responder respond) {
    handle_http(req, std::move(respond));
  });
}

ApRuntime::~ApRuntime() {
  if (sweep_event_ != 0) network_.simulator().cancel(sweep_event_);
}

void ApRuntime::schedule_sweep() {
  sweep_event_ =
      network_.simulator().schedule_in(options_.config.sweep_interval, [this] {
        const sim::Time now = network_.simulator().now();
        // Revalidation retains expired entries on purpose; sweep flash only.
        std::size_t ram_reclaimed = 0;
        if (!data_cache_->retain_expired()) ram_reclaimed = data_cache_->sweep_expired(now);
        if (tiered_ != nullptr) tiered_->sweep_flash_expired(now);
        stats_.record_sweep(ram_reclaimed);
        schedule_sweep();
      }, APE_EVT("ap.cache.sweep"));
}

void ApRuntime::snapshot_metrics() {
  if (observer_ == nullptr) return;
  obs::MetricsRegistry& m = observer_->metrics();
  const sim::Time now = network_.simulator().now();

  m.gauge("ap.cache.used_bytes").set(static_cast<double>(data_cache_->used_bytes()));
  m.gauge("ap.cache.capacity_bytes").set(static_cast<double>(data_cache_->capacity_bytes()));
  m.gauge("ap.cache.entries").set(static_cast<double>(data_cache_->entry_count()));
  m.counter("ap.cache.evictions").set(data_cache_->evictions());
  m.counter("ap.cache.rejections").set(data_cache_->rejections());
  m.gauge("ap.cache.hit_ratio").set(stats_.hit_ratio());
  m.gauge("ap.cache.high_priority_hit_ratio").set(stats_.high_priority_hit_ratio());
  m.counter("ap.block_list.size").set(block_list_.size());
  m.gauge("ap.mem.bytes").set(static_cast<double>(memory_bytes()));
  record_ledger_metrics(m, stats_);

  // Tier metrics are created only in their opt-in configurations so that
  // RAM-only runs export byte-identical ape.obs.v1 snapshots.
  if (options_.config.sweep_interval.count() > 0) {
    m.counter("ap.cache.sweeps").set(stats_.sweeps());
    m.counter("ap.cache.sweep_reclaimed_bytes").set(stats_.sweep_reclaimed_bytes());
  }
  if (tiered_ != nullptr) {
    store::FlashTier& flash = *flash_tier_;
    m.gauge("ap.store.ram_bytes").set(static_cast<double>(data_cache_->used_bytes()));
    m.gauge("ap.store.flash_bytes").set(static_cast<double>(flash.live_bytes()));
    m.gauge("ap.flash.capacity_bytes").set(static_cast<double>(flash.capacity_bytes()));
    m.gauge("ap.flash.physical_bytes").set(static_cast<double>(flash.physical_bytes()));
    m.gauge("ap.flash.entries").set(static_cast<double>(flash.entry_count()));
    m.gauge("ap.flash.segments").set(static_cast<double>(flash.segment_count()));
    m.counter("ap.flash.puts").set(flash.puts());
    m.counter("ap.flash.rejections").set(flash.rejections());
    m.counter("ap.flash.evictions").set(flash.evictions());
    m.counter("ap.flash.compactions").set(flash.compactions());
    m.counter("ap.flash.expired_reclaimed_bytes").set(flash.expired_reclaimed_bytes());
    m.counter("ap.flash.journal_records").set(flash.journal().record_count());
    m.counter("ap.flash.journal_bytes").set(flash.journal().total_bytes());
    m.counter("ap.flash.journal_rewrites").set(flash.journal().rewrites());
    m.counter("ap.flash.journal_replays").set(flash.recoveries());
    m.counter("ap.flash.device_reads").set(flash.device().reads());
    m.counter("ap.flash.device_writes").set(flash.device().writes());
    m.gauge("ap.flash.device_busy_ms").set(sim::to_millis(flash.device().busy_time()));
    m.counter("ap.store.demotions").set(tiered_->demotions());
    m.counter("ap.store.demotion_skips").set(tiered_->demotion_skips());
    m.counter("ap.store.promotions").set(tiered_->promotions());
    m.counter("ap.store.flash_hits").set(tiered_->flash_hits());
    m.counter("ap.store.flash_misses").set(tiered_->flash_misses());
  }

  // Analytics plane (default-off): per-cause eviction counters, the
  // ledger's histograms/ratios, per-app attribution and MRC bookkeeping.
  // Every key here is gated so default runs stay byte-identical.
  if (analytics_ != nullptr) {
    // Demotions are not removals (the object lives on in flash) but they do
    // leave RAM — reported beside the causes to close the budget story.
    m.counter("ap.cache.evict.demoted").set(tiered_ != nullptr ? tiered_->demotions() : 0);
  }
  record_analytics_metrics(m, "ap.");

  // Per-app storage efficiency C_a = cached bytes / R(a) — the fairness
  // signal PACM's Gini constraint bounds (paper Sec. IV-C).  Ordered map:
  // gauge creation order must match across runs for byte-identical exports.
  std::map<AppId, std::size_t> bytes_by_app;
  data_cache_->for_each(
      [&](const cache::CacheEntry& entry) { bytes_by_app[entry.app_id] += entry.size_bytes; });
  for (const auto& [app, bytes] : bytes_by_app) {
    const std::string prefix = "ap.app." + std::to_string(app);
    m.gauge(prefix + ".storage_bytes").set(static_cast<double>(bytes));
    const double freq = freq_.frequency(app, now);
    if (freq > 0.0) {
      m.gauge(prefix + ".efficiency_ca").set(static_cast<double>(bytes) / freq);
    }
  }
}

void ApRuntime::record_analytics_metrics(obs::MetricsRegistry& registry,
                                         const std::string& prefix) const {
  if (analytics_ == nullptr) return;
  for (std::size_t i = 0; i < cache::kRemovalCauseCount; ++i) {
    const auto cause = static_cast<cache::RemovalCause>(i);
    registry.counter(prefix + "cache.evict." + obs::to_string(analytics_cause(cause)))
        .set(data_cache_->removals(cause));
  }
  analytics_->record_metrics(registry, prefix);
}

void record_ledger_metrics(obs::MetricsRegistry& registry,
                           const cache::CacheStatistics& ledger) {
  registry.counter("ap.cache.hit").set(ledger.hits());
  registry.counter("ap.cache.miss").set(ledger.misses());
  registry.counter("ap.cache.delegation").set(ledger.delegations());
  registry.counter("ap.delegations").set(ledger.delegated_fetches());
  registry.counter("ap.revalidations").set(ledger.revalidations());
  // Appears with the first insert, so forwarder-only APs export no such key.
  if (ledger.delegation_inserts() > 0 || registry.counters().contains("ap.cache.inserts")) {
    registry.counter("ap.cache.inserts").set(ledger.delegation_inserts());
  }
}

void ApRuntime::set_peer_probe(PeerResolver* resolver, std::uint32_t ap_id) {
  peer_resolver_ = resolver;
  ap_id_ = ap_id;
}

void ApRuntime::reset_cache() {
  data_cache_->clear();
  data_cache_->reset_counts();
  if (flash_tier_ != nullptr) flash_tier_->reset();  // wipes the journal too
  block_list_.clear();
  stats_.reset();
  url_index_.clear();
  domain_hashes_.clear();
}

// ---------------------------------------------------------------- memory

std::size_t ApRuntime::memory_bytes() const {
  const ApeConfig& c = options_.config;
  std::size_t total = c.base_memory_bytes;
  total += flows_ * c.per_flow_bytes;
  total += tcp_.server_connection_count(node_) * c.per_connection_bytes;
  if (options_.enable_ape) {
    total += c.runtime_memory_bytes;
    total += data_cache_->used_bytes();
    total += (url_index_.size() + block_list_.size()) * c.per_index_entry_bytes;
    // Flash bodies live on flash, but the tier's index is a RAM structure.
    if (flash_tier_ != nullptr) {
      total += flash_tier_->entry_count() * c.per_index_entry_bytes;
    }
  }
  return total;
}

void ApRuntime::account_served_bytes(std::size_t bytes) {
  // Userspace serve path: roughly 2x the kernel fast-path per-packet cost
  // (socket write + copy + WiFi TX vs NAT forwarding) — about 7 MB/s per
  // core, in line with userspace file serving on an MT7621-class SoC.
  // Metered, not queued: the copy overlaps NIC DMA and never head-of-line
  // blocks DNS/HTTP request handling.
  const std::size_t packets = bytes / 1448 + 1;
  cpu_.account(sim::microseconds(static_cast<std::int64_t>(packets) * 209));
}

void ApRuntime::forward_packet(std::size_t bytes, bool new_flow) {
  // Software NAT forwarding on the MT7621A-class SoC (~14 MB/s per core):
  // fixed lookup/NAT work plus a per-byte copy.  Calibrated so the Table II
  // high-rate replay lands in the paper's "well below 50% CPU" band
  // (Fig. 2) without starving the serving path in the Fig. 13 sweeps.
  const sim::Duration cost =
      sim::microseconds(100) + sim::microseconds(static_cast<std::int64_t>(bytes / 100));
  cpu_.account(cost);  // softirq-overlapped: metered, never queued
  if (new_flow) ++flows_;
}

// ------------------------------------------------------------------- DNS

void ApRuntime::Dns::handle_query(const dns::DnsMessage& query, net::Endpoint client,
                                  Responder respond) {
  owner_.handle_dns_query(query, client, std::move(respond));
}

void ApRuntime::answer_with_ip(const dns::DnsMessage& query, const dns::DnsName& name,
                               net::IpAddress ip, std::uint32_t ttl,
                               std::vector<dns::ResourceRecord> additionals,
                               std::function<void(dns::DnsMessage)> respond) const {
  dns::DnsMessage resp = dns::make_response_for(query, dns::Rcode::NoError);
  resp.answers.push_back(dns::make_a_record(name, ip, ttl));
  resp.additionals = std::move(additionals);
  respond(std::move(resp));
}

obs::SpanLog* ApRuntime::spans() const {
  return observer_ == nullptr ? nullptr : &observer_->spans();
}

void ApRuntime::handle_dns_query(const dns::DnsMessage& query, net::Endpoint /*client*/,
                                 std::function<void(dns::DnsMessage)> respond) {
  auto view = extract_dns_cache(query);

  // Causal tracing: a TraceCtx RR on the query parents every AP-side span
  // under the client's dns.query span (DESIGN.md §5f).
  obs::TraceContext lookup_span;
  if (obs::SpanLog* log = spans(); log != nullptr) {
    const obs::TraceContext client_ctx = extract_trace_context(query);
    if (client_ctx.valid() && !query.questions.empty()) {
      lookup_span = log->open(client_ctx, "ap.lookup", "ap",
                              query.questions.front().name.to_string(),
                              network_.simulator().now());
    }
    if (lookup_span.valid()) {
      respond = [this, lookup_span,
                 respond = std::move(respond)](dns::DnsMessage msg) mutable {
        spans()->close(lookup_span, network_.simulator().now());
        respond(std::move(msg));
      };
    }
  }

  if (!options_.enable_ape || !view || !view.value().is_request) {
    handle_regular_dns(query, lookup_span, std::move(respond));
    return;
  }

  // --- DNS-Cache path ----------------------------------------------------
  const dns::DnsName domain = view.value().domain;

  // Charge the marginal cache-lookup cost on top of the base DNS service
  // time already paid in DnsServer::on_datagram.
  hot_.dns_cache_queries.add();
  cpu_.submit(options_.config.cache_lookup_extra,
              [this, query, domain, lookup_span, requested = view.value().entries,
               respond = std::move(respond)]() mutable {
    const FlagSet flags = collect_flags(domain, requested);
    std::vector<dns::ResourceRecord> additionals;
    additionals.push_back(make_cache_response_rr(domain, flags.entries));
    // One TYPE=300 RR per response, batching one flag per known URL.
    hot_.dns_cache_rr_emitted.add();
    hot_.dns_flags_emitted.add(flags.entries.size());

    if (!flags.needs_edge && !flags.entries.empty()) {
      // No URL under this domain requires the edge directly: Cache-Hits are
      // served locally and Delegations go through the AP, so the client
      // never dereferences the answer.  Skip upstream resolution and return
      // the non-routable dummy with TTL 0.  (The paper's Sec. IV-B3 rule is
      // the all-cached special case; extending it to delegations keeps the
      // lookup millisecond-level during cache warm-up as well — see
      // DESIGN.md.)  Block-listed URLs force a real answer.
      hot_.dns_short_circuit.add();
      hot_.dns_upstream_avoided.add();
      answer_with_ip(query, domain, net::kDummyIp, 0, std::move(additionals),
                     std::move(respond));
      return;
    }

    resolve_upstream(domain, lookup_span,
                     [this, query, domain, additionals = std::move(additionals),
                      respond = std::move(respond)](
                         Result<DnsCacheEntry> resolved) mutable {
      if (!resolved) {
        dns::DnsMessage resp = dns::make_response_for(query, dns::Rcode::ServFail);
        resp.additionals = std::move(additionals);
        respond(std::move(resp));
        return;
      }
      const sim::Time now = network_.simulator().now();
      const auto remaining = resolved.value().expires - now;
      const std::uint32_t ttl = std::min<std::uint32_t>(
          options_.config.dns_answer_ttl_cap,
          static_cast<std::uint32_t>(std::max<std::int64_t>(
              0, static_cast<std::int64_t>(sim::to_seconds(remaining)))));
      answer_with_ip(query, domain, resolved.value().ip, ttl, std::move(additionals),
                     std::move(respond));
    });
  }, APE_EVT("ap.dns.cache_lookup"));
}

void ApRuntime::handle_regular_dns(const dns::DnsMessage& query,
                                   const obs::TraceContext& parent,
                                   std::function<void(dns::DnsMessage)> respond) {
  if (query.questions.empty() || query.questions.front().qtype != dns::RrType::A) {
    respond(dns::make_response_for(query, dns::Rcode::NotImp));
    return;
  }
  hot_.dns_regular_queries.add();
  const dns::DnsName name = query.questions.front().name;
  resolve_upstream(name, parent, [this, query, name, respond = std::move(respond)](
                                     Result<DnsCacheEntry> resolved) mutable {
    if (!resolved) {
      respond(dns::make_response_for(query, dns::Rcode::ServFail));
      return;
    }
    const sim::Time now = network_.simulator().now();
    const std::uint32_t ttl = static_cast<std::uint32_t>(std::max<std::int64_t>(
        0, static_cast<std::int64_t>(sim::to_seconds(resolved.value().expires - now))));
    answer_with_ip(query, name, resolved.value().ip, ttl, {}, std::move(respond));
  });
}

void ApRuntime::resolve_upstream(const dns::DnsName& name, const obs::TraceContext& parent,
                                 std::function<void(Result<DnsCacheEntry>)> done) {
  const sim::Time now = network_.simulator().now();
  if (auto it = dns_cache_.find(name); it != dns_cache_.end()) {
    if (it->second.expires > now) {
      hot_.dns_record_cache_hit.add();
      done(it->second);
      return;
    }
    dns_cache_.erase(it);
  }

  hot_.dns_upstream_queries.add();
  obs::TraceContext up_span;
  if (obs::SpanLog* log = spans(); log != nullptr) {
    up_span = log->open(parent, "dns.upstream", "ap", name.to_string(), now);
  }
  dns::DnsMessage q;
  q.header.rd = true;
  q.questions.push_back(dns::Question{name, dns::RrType::A, dns::RrClass::In});
  upstream_.query(options_.upstream_dns, std::move(q),
                  [this, name, up_span,
                   done = std::move(done)](Result<dns::DnsMessage> resp) mutable {
                    if (obs::SpanLog* log = spans(); log != nullptr) {
                      log->close(up_span, network_.simulator().now());
                    }
                    if (!resp) {
                      done(make_error<DnsCacheEntry>(resp.error().message));
                      return;
                    }
                    auto extracted = dns::StubResolver::extract_address(resp.value(), name);
                    if (!extracted) {
                      done(make_error<DnsCacheEntry>(extracted.error().message));
                      return;
                    }
                    DnsCacheEntry entry;
                    entry.ip = extracted.value().address;
                    entry.expires = network_.simulator().now() +
                                    sim::seconds(extracted.value().ttl);
                    if (extracted.value().ttl > 0) dns_cache_[name] = entry;
                    done(entry);
                  });
}

ApRuntime::FlagSet ApRuntime::collect_flags(const dns::DnsName& domain,
                                            const std::vector<CacheLookupEntry>& requested) {
  const sim::Time now = network_.simulator().now();

  // Learn hash -> domain associations from the request itself.
  for (const auto& e : requested) {
    auto [it, inserted] = url_index_.try_emplace(e.hash);
    if (inserted) it->second.domain = domain;
    domain_hashes_[domain].insert(e.hash);
  }

  std::unordered_set<UrlHash> requested_set;
  for (const auto& e : requested) requested_set.insert(e.hash);

  FlagSet out;
  out.all_cached = true;
  const auto& hashes = domain_hashes_[domain];
  out.entries.reserve(hashes.size());
  // The symbol-aware linter resolves the `hashes` alias back to the
  // unordered domain_hashes_ set (the regex engine never saw this).  Flag
  // order feeds the DNS Additional section, which clients consume as an
  // unordered flag *set*; canonicalizing the walk would perturb the
  // committed bench baselines for zero behavioural gain, so the walk is
  // deliberately left in container order.
  // ape-lint: allow(unordered-iter)
  for (UrlHash h : hashes) {
    CacheFlag flag;
    const std::string key = hash_to_string(h);
    if (data_cache_->peek(key, now) != nullptr ||
        (tiered_ != nullptr && tiered_->flash_contains(key, now))) {
      // A valid flash copy is still a Cache-Hit: the AP serves it locally
      // (at flash cost) without touching the edge.
      flag = CacheFlag::CacheHit;
    } else if (block_list_.contains(key)) {
      flag = CacheFlag::CacheMiss;
      out.all_cached = false;
      out.needs_edge = true;
    } else {
      flag = CacheFlag::Delegation;
      out.all_cached = false;
    }
    out.entries.push_back(CacheLookupEntry{h, flag});

    // Only the explicitly requested hashes count toward hit statistics;
    // batched extras are opportunistic.
    if (requested_set.contains(h)) {
      const auto info = url_index_.find(h);
      const int priority = info == url_index_.end() ? 1 : info->second.priority;
      switch (flag) {
        case CacheFlag::CacheHit: stats_.record_hit(priority); break;
        case CacheFlag::CacheMiss: stats_.record_miss(priority); break;
        case CacheFlag::Delegation: stats_.record_delegation(priority); break;
      }
      // Analytics tap: the plane sees exactly the lookups the ledger counts
      // above and splits them per app, so its partition sums to the ledger
      // (the identity CacheAnalytics::reconcile() checks).
      if (analytics_ != nullptr) {
        obs::LookupOutcome outcome = obs::LookupOutcome::Hit;
        if (flag == CacheFlag::CacheMiss) {
          outcome = obs::LookupOutcome::Miss;
        } else if (flag == CacheFlag::Delegation) {
          outcome = obs::LookupOutcome::Delegation;
        }
        const cache::CacheEntry* cached = data_cache_->peek(key, now);
        const AppId app = info == url_index_.end() ? 0 : info->second.app;
        analytics_->on_lookup(key, cached != nullptr ? cached->size_bytes : 0,
                              std::to_string(app), outcome);
      }
    }
  }
  return out;
}

// ------------------------------------------------------------------ HTTP

void ApRuntime::serve_from_cache(const cache::CacheEntry& entry,
                                 http::HttpServer::Responder respond) {
  account_served_bytes(entry.size_bytes);
  hot_.http_cache_serves.add();
  hot_.http_bytes_from_cache.add(entry.size_bytes);
  http::HttpResponse resp;
  resp.status = 200;
  resp.simulated_body_bytes = entry.size_bytes;
  resp.headers.emplace_back("X-Cache", "AP-HIT");
  resp.headers.emplace_back("X-Object-Priority", std::to_string(entry.priority));
  resp.headers.emplace_back("X-Object-App", std::to_string(entry.app_id));
  respond(std::move(resp));
}

void ApRuntime::handle_http(const http::HttpRequest& request,
                            http::HttpServer::Responder respond) {
  if (!options_.enable_ape) {
    respond(http::make_status_response(404, "AP caching disabled"));
    return;
  }
  const std::string base = request.url.base();
  const UrlHash hash = hash_url(base);
  const std::string key = hash_to_string(hash);
  const sim::Time now = network_.simulator().now();
  // A relayed fetch from a neighbor AP (X-Ape-Peer carries the asker's
  // fleet id): serve it from the local cache or 404 — peers never delegate
  // or probe onward on each other's behalf.
  const bool peer_request = http::find_header(request.headers, "X-Ape-Peer") != nullptr;

  // Causal tracing: parent everything the AP does for this request under
  // the client's http.fetch span (X-Ape-Trace header).
  obs::TraceContext serve_span;
  if (obs::SpanLog* log = spans(); log != nullptr) {
    if (const std::string* h = http::find_trace_context_header(request.headers)) {
      serve_span = log->open(obs::decode_trace_context(*h),
                             peer_request ? "ap.peer_serve" : "ap.serve", "ap", base, now);
    }
    if (serve_span.valid()) {
      respond = [this, serve_span,
                 respond = std::move(respond)](http::HttpResponse resp) mutable {
        spans()->close(serve_span, network_.simulator().now());
        respond(std::move(resp));
      };
    }
  }

  // Request frequency feeds PACM regardless of how the fetch resolves.
  if (const auto app = http::find_decimal_header<AppId>(request.headers, "X-Ape-App")) {
    freq_.record_request(*app, now);
  }

  // Revalidation candidate: look for an expired-but-present entry *before*
  // get() lazily erases it.
  std::optional<cache::CacheEntry> stale;
  if (options_.config.enable_revalidation) {
    if (const auto* old = data_cache_->lookup_any(key);
        old != nullptr && old->expired_at(now) && !old->etag.empty()) {
      stale = *old;
    }
  }

  if (const cache::CacheEntry* entry = data_cache_->get(key, now); entry != nullptr) {
    if (peer_request) hot_.peer_serves.add();
    serve_from_cache(*entry, std::move(respond));
    return;
  }

  if (tiered_ != nullptr && tiered_->flash_contains(key, now)) {
    // Flash hit: read the body off the device (paying flash time rather
    // than an edge round trip), promote if the RAM policy takes it, serve.
    hot_.http_flash_serves.add();
    obs::ScopedTraceContext ambient(spans(), serve_span);  // -> ap.flash.read
    tiered_->fetch_flash(
        key, now,
        [this, request, hash, serve_span, peer_request, stale = std::move(stale),
         respond = std::move(respond)](std::optional<cache::CacheEntry> entry) mutable {
          if (entry.has_value()) {
            if (peer_request) hot_.peer_serves.add();
            serve_from_cache(*entry, std::move(respond));
            return;
          }
          // The copy vanished while the read was queued; treat as a miss.
          finish_http_miss(request, hash, std::move(stale), serve_span, std::move(respond));
        });
    return;
  }
  finish_http_miss(request, hash, std::move(stale), serve_span, std::move(respond));
}

void ApRuntime::finish_http_miss(const http::HttpRequest& request, UrlHash hash,
                                 std::optional<cache::CacheEntry> stale,
                                 const obs::TraceContext& parent,
                                 http::HttpServer::Responder respond) {
  if (http::find_header(request.headers, "X-Ape-Peer") != nullptr) {
    // A neighbor relayed here on a directory answer that no longer holds
    // (bounded staleness).  404 tells the asker to degrade to its own
    // fallback; never probe onward (relays are single-hop).
    hot_.peer_serve_misses.add();
    respond(http::make_status_response(404, "peer copy gone"));
    return;
  }

  // Peer-probe stage (fleet runs only): ask the cooperative-cache directory
  // for a neighbor holding the object before paying the edge round trip.
  if (peer_resolver_ != nullptr) {
    hot_.peer_probes.add();
    obs::TraceContext probe_span;
    if (obs::SpanLog* log = spans(); log != nullptr) {
      probe_span = log->open(parent, "ap.peer_probe", "ap", hash_to_string(hash),
                             network_.simulator().now());
    }
    peer_resolver_->lookup_peer(
        hash_to_string(hash), probe_span,
        [this, request, hash, probe_span, parent, stale = std::move(stale),
         respond = std::move(respond)](std::optional<PeerLocation> peer) mutable {
          if (obs::SpanLog* log = spans(); log != nullptr) {
            log->close(probe_span, network_.simulator().now());
          }
          if (peer.has_value()) {
            relay_from_peer(request, hash, *peer, std::move(stale), parent,
                            std::move(respond));
          } else {
            miss_fallback(request, hash, std::move(stale), parent, std::move(respond));
          }
        });
    return;
  }
  miss_fallback(request, hash, std::move(stale), parent, std::move(respond));
}

void ApRuntime::miss_fallback(const http::HttpRequest& request, UrlHash hash,
                              std::optional<cache::CacheEntry> stale,
                              const obs::TraceContext& parent,
                              http::HttpServer::Responder respond) {
  const bool is_delegation = http::find_header(request.headers, "X-Ape-Delegate") != nullptr;
  if (!is_delegation) {
    // Plain cache fetch that raced an eviction/expiry: the client falls
    // back to the edge on 404.
    hot_.http_race_fallback.add();
    respond(http::make_status_response(404, "not in AP cache"));
    return;
  }
  delegate_fetch(request, hash, std::move(stale), parent, std::move(respond));
}

void ApRuntime::relay_from_peer(const http::HttpRequest& request, UrlHash hash,
                                const PeerLocation& peer,
                                std::optional<cache::CacheEntry> stale,
                                const obs::TraceContext& parent,
                                http::HttpServer::Responder respond) {
  const std::string key = hash_to_string(hash);

  http::HttpRequest relay;
  relay.method = "GET";
  relay.url = request.url;
  relay.headers.emplace_back("X-Ape-Peer", std::to_string(ap_id_));

  obs::SpanLog* log = spans();
  obs::TraceContext fetch_span;
  if (log != nullptr) {
    fetch_span = log->open(parent, "http.fetch", "ap", request.url.base(),
                           network_.simulator().now());
    if (fetch_span.valid()) {
      http::set_trace_context_header(relay.headers, obs::encode_trace_context(fetch_span));
    }
  }
  obs::ScopedTraceContext ambient(log, fetch_span);  // -> net.connect
  edge_client_.fetch(
      net::Endpoint{peer.ip, net::kHttpPort}, std::move(relay),
      [this, request, hash, key, fetch_span, parent, stale = std::move(stale),
       respond = std::move(respond)](Result<http::HttpResponse> result,
                                     http::FetchTiming) mutable {
        const sim::Time now = network_.simulator().now();
        if (obs::SpanLog* slog = spans(); slog != nullptr) slog->close(fetch_span, now);

        if (!result || !result.value().ok()) {
          // Stale redirect: the peer no longer holds the copy the directory
          // advertised.  Tell the resolver (it drops its cached answer and
          // counts the stale redirect) and degrade to the pre-fleet path —
          // a stale answer must cost latency, never correctness.
          peer_resolver_->note_stale(key);
          hot_.peer_fallbacks.add();
          miss_fallback(request, hash, std::move(stale), parent, std::move(respond));
          return;
        }

        const std::size_t size = result.value().total_body_bytes();
        hot_.peer_hits.add();
        hot_.peer_bytes_relayed.add(size);
        // The body crossed the LAN into this AP (kernel RX) and is served
        // to the client from userspace, same cost model as a delegation.
        const std::size_t rx_packets = size / 1448 + 1;
        for (std::size_t i = 0; i < rx_packets; ++i) forward_packet(1448, false);
        account_served_bytes(size);

        http::HttpResponse resp;
        resp.status = 200;
        resp.simulated_body_bytes = size;
        resp.headers.emplace_back("X-Cache", "AP-PEER");
        respond(std::move(resp));
      });
}

void ApRuntime::insert_object(cache::CacheEntry entry, sim::Time now) {
  if (tiered_ != nullptr) {
    tiered_->insert(std::move(entry), now);
  } else {
    data_cache_->insert(std::move(entry), now);
  }
}

void ApRuntime::delegate_fetch(const http::HttpRequest& request, UrlHash hash,
                               std::optional<cache::CacheEntry> stale,
                               const obs::TraceContext& parent,
                               http::HttpServer::Responder respond) {
  // Delegation metadata shipped by the client library (Sec. IV-B2).
  const std::uint32_t ttl_seconds =
      http::find_decimal_header<std::uint32_t>(request.headers, "X-Ape-Ttl").value_or(600);
  const int priority =
      http::find_decimal_header<int>(request.headers, "X-Ape-Priority").value_or(1);
  const AppId app = http::find_decimal_header<AppId>(request.headers, "X-Ape-App").value_or(0);

  const std::string base = request.url.base();
  auto& info = url_index_[hash];
  if (auto domain = dns::DnsName::parse(request.url.host)) {
    info.domain = domain.value();
    domain_hashes_[info.domain].insert(hash);
  }
  info.base_url = base;
  info.app = app;
  info.priority = priority;

  stats_.record_delegated_fetch();
  const sim::Time fetch_start = network_.simulator().now();

  obs::TraceContext delegate_span;
  if (obs::SpanLog* log = spans(); log != nullptr) {
    delegate_span = log->open(parent, "ap.delegate", "ap", base, fetch_start);
    if (delegate_span.valid()) {
      respond = [this, delegate_span,
                 respond = std::move(respond)](http::HttpResponse resp) mutable {
        spans()->close(delegate_span, network_.simulator().now());
        respond(std::move(resp));
      };
    }
  }

  resolve_upstream(info.domain, delegate_span,
                   [this, request, hash, ttl_seconds, priority, app, fetch_start,
                    delegate_span, stale = std::move(stale), respond = std::move(respond)](
                       Result<DnsCacheEntry> resolved) mutable {
    if (!resolved) {
      respond(http::make_status_response(502, "AP could not resolve origin"));
      return;
    }
    http::HttpRequest upstream_req;
    upstream_req.method = "GET";
    upstream_req.url = request.url;
    // A delegation fills the AP cache with a fresh copy: the edge serves it
    // as an origin pull (paying the object's backend latency) — unless a
    // stale local copy can be revalidated with a conditional request.
    upstream_req.headers.emplace_back("X-Origin-Pull", "1");
    if (stale) upstream_req.headers.emplace_back("If-None-Match", stale->etag);

    obs::SpanLog* log = spans();
    obs::TraceContext fetch_span;
    if (log != nullptr) {
      fetch_span = log->open(delegate_span, "http.fetch", "ap", request.url.base(),
                             network_.simulator().now());
      if (fetch_span.valid()) {
        http::set_trace_context_header(upstream_req.headers,
                                       obs::encode_trace_context(fetch_span));
      }
    }
    obs::ScopedTraceContext ambient(log, fetch_span);  // -> net.connect
    edge_client_.fetch(
        net::Endpoint{resolved.value().ip, net::kHttpPort}, std::move(upstream_req),
        [this, request, hash, ttl_seconds, priority, app, fetch_start, delegate_span,
         fetch_span, stale = std::move(stale), respond = std::move(respond)](
            Result<http::HttpResponse> result, http::FetchTiming) mutable {
          const sim::Time now = network_.simulator().now();
          const std::string key = hash_to_string(hash);
          if (obs::SpanLog* slog = spans(); slog != nullptr) slog->close(fetch_span, now);

          if (result && result.value().status == 304 && stale) {
            // Not modified: refresh the stale entry's lifetime and serve it
            // locally — no body crossed the WAN.
            stats_.record_revalidation();
            cache::CacheEntry entry = std::move(*stale);
            const std::uint32_t ttl =
                http::find_decimal_header<std::uint32_t>(result.value().headers,
                                                         "X-Object-TTL")
                    .value_or(ttl_seconds);
            entry.expires = now + sim::seconds(ttl);
            const std::size_t size = entry.size_bytes;
            {
              obs::ScopedTraceContext insert_ambient(spans(), delegate_span);
              insert_object(std::move(entry), now);
            }
            account_served_bytes(size);

            http::HttpResponse resp;
            resp.status = 200;
            resp.simulated_body_bytes = size;
            resp.headers.emplace_back("X-Cache", "AP-REVALIDATED");
            respond(std::move(resp));
            return;
          }

          if (!result || !result.value().ok()) {
            respond(http::make_status_response(502, "delegated fetch failed"));
            return;
          }
          http::HttpResponse resp = std::move(result.value());
          const sim::Duration fetch_latency = now - fetch_start;
          const std::size_t size = resp.total_body_bytes();

          // PACM prices a cached object with its last observed fetch
          // latency l_d; compare that estimate against this measurement.
          // Report-only and span-gated: default exports stay byte-identical.
          if (obs::SpanLog* slog = spans(); slog != nullptr && slog->enabled()) {
            if (auto info_it = url_index_.find(hash); info_it != url_index_.end()) {
              const double measured_ms = sim::to_millis(fetch_latency);
              if (info_it->second.last_fetch_ms >= 0.0) {
                hot_.latency_estimate_error_ms.record(
                    std::abs(measured_ms - info_it->second.last_fetch_ms));
              }
              info_it->second.last_fetch_ms = measured_ms;
            }
          }

          if (block_list_.should_block(size)) {
            // Too large to ever cache: remember that and stop delegating.
            block_list_.block(key);
            hot_.block_listed.add();
          } else {
            cache::CacheEntry entry;
            entry.key = key;
            entry.size_bytes = size;
            entry.app_id = app;
            entry.priority = priority;
            entry.expires = now + sim::seconds(ttl_seconds);
            entry.fetch_latency = fetch_latency;
            if (const auto* etag = http::find_header(resp.headers, "ETag")) {
              entry.etag = *etag;
            }
            {
              obs::ScopedTraceContext insert_ambient(spans(), delegate_span);
              insert_object(std::move(entry), now);
            }
            stats_.record_delegation_insert();
            hot_.delegation_bytes_fetched.add(size);
          }

          // The pulled body crossed the WAN into the AP (kernel RX) and is
          // served to the client from userspace.
          const std::size_t rx_packets = size / 1448 + 1;
          for (std::size_t i = 0; i < rx_packets; ++i) forward_packet(1448, false);
          account_served_bytes(size);

          resp.headers.emplace_back("X-Cache", "AP-DELEGATED");
          respond(std::move(resp));
        });
  });
}

}  // namespace ape::core
