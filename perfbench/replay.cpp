// Layer replays: time one public function of a layer on inputs shaped by
// the workload (its hosts, objects, key stream and outcomes), outside any
// simulation.  The knapsack replay also checks every result against an
// independent DP.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "cache/lru_policy.hpp"
#include "cache/object_store.hpp"
#include "core/dns_cache_record.hpp"
#include "core/knapsack.hpp"
#include "core/pacm.hpp"
#include "core/url_hash.hpp"
#include "dns/codec.hpp"
#include "dns/name.hpp"
#include "harness.hpp"
#include "http/message.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using Source = ClientRuntime::Source;
constexpr std::size_t kUnit = 1024;  // the program's DP granule

double ns_since(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

// Keeps a result alive so the optimiser cannot drop the call that made it.
volatile std::size_t g_sink = 0;

const std::string& host_of(const Inputs& in, const FetchRec& f) {
  return in.apps[in.objects[f.object].app].domain;
}

// --- knapsack -------------------------------------------------------------------
// Instances from the workload's objects at the configured RAM capacity:
// a random candidate set ~15% over capacity (the eviction situation),
// utilities from PACM's own utility function with the schedule's per-app
// rates.  Sizes and capacity are whole 1 kB units, where the program's DP
// is exact, so its value must equal the oracle's optimum.
struct Instance {
  std::vector<ape::core::KnapsackItem> items;
  std::size_t capacity = 0;
};

std::vector<Instance> make_instances(const WorkloadDef& def, const Inputs& in,
                                     std::size_t count) {
  std::vector<double> rate(in.apps.size(), 0.0);
  const double minutes =
      in.arrivals.empty() ? 1.0 : static_cast<double>(in.arrivals.back().at_us) / 60e6;
  for (const auto& a : in.arrivals) rate[a.app] += 1.0 / minutes;

  const std::size_t cap = def.params.ape.cache_capacity_bytes;
  ape::sim::Rng rng(0xC0FFEEULL + in.arrivals.size());
  std::vector<Instance> out;
  for (std::size_t k = 0; k < count; ++k) {
    std::vector<std::size_t> order(in.objects.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = order.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i - 1)));
      std::swap(order[i - 1], order[j]);
    }
    const auto& incoming = in.objects[order.back()];
    const std::size_t incoming_bytes = (incoming.size_bytes + kUnit - 1) / kUnit * kUnit;
    Instance inst;
    inst.capacity = (cap - incoming_bytes) / kUnit * kUnit;
    std::size_t total = 0;
    for (std::size_t i = 0; i + 1 < order.size() && static_cast<double>(total) < 1.15 * static_cast<double>(cap); ++i) {
      const auto& o = in.objects[order[i]];
      ape::core::PacmObject p;
      p.key = o.key;
      p.app = static_cast<ape::core::AppId>(o.app);
      p.size_bytes = (o.size_bytes + kUnit - 1) / kUnit * kUnit;
      p.priority = o.priority;
      p.remaining_ttl_s = rng.uniform_real(0.0, o.ttl_minutes * 60.0);
      p.fetch_latency_ms = o.retrieval_ms + 31.0;
      inst.items.push_back({ape::core::PacmSolver::utility(p, rate[o.app]), p.size_bytes});
      total += p.size_bytes;
    }
    out.push_back(std::move(inst));
  }
  return out;
}

bool same_dns(const ape::dns::DnsMessage& a, const ape::dns::DnsMessage& b) {
  return a.questions == b.questions && a.answers == b.answers && a.additionals == b.additionals;
}

// to_tcp adds a Host header from the URL, so the request compares without it.
bool same_http(const ape::http::HttpRequest& sent, ape::http::HttpRequest got) {
  std::erase_if(got.headers, [](const auto& kv) { return kv.first == "Host"; });
  return got.headers == sent.headers && got.url.host == sent.url.host;
}

bool same_http(const ape::http::HttpResponse& sent, const ape::http::HttpResponse& got) {
  return got.headers == sent.headers && got.total_body_bytes() == sent.total_body_bytes();
}

std::string knapsack_error(const Instance& inst, const ape::core::KnapsackResult& r,
                           double optimum) {
  if (!r.exact) return "knapsack fell back to greedy on a budget-sized instance";
  if (r.selected.size() != inst.items.size()) return "knapsack selection has the wrong length";
  double value = 0.0;
  std::size_t weight = 0;
  for (std::size_t i = 0; i < inst.items.size(); ++i) {
    if (!r.selected[i]) continue;
    value += inst.items[i].value;
    weight += inst.items[i].weight;
  }
  const double tol = 1e-9 * std::max(1.0, std::fabs(optimum));
  if (weight != r.total_weight || weight > inst.capacity) {
    return "knapsack packs " + std::to_string(weight) + " bytes into " +
           std::to_string(inst.capacity);
  }
  if (std::fabs(value - r.total_value) > tol || std::fabs(value - optimum) > tol) {
    return "knapsack value " + std::to_string(value) + " differs from the optimum " +
           std::to_string(optimum);
  }
  return {};
}

double oracle_of(const Instance& inst) {
  std::vector<double> values;
  std::vector<std::size_t> units;
  for (const auto& it : inst.items) {
    values.push_back(it.value);
    units.push_back(it.weight / kUnit);
  }
  return knapsack_oracle(values, units, inst.capacity / kUnit);
}

}  // namespace

double knapsack_oracle(const std::vector<double>& values, const std::vector<std::size_t>& units,
                       std::size_t capacity_units) {
  // best[i][c]: the optimum over the first i items within c units.
  const std::size_t n = values.size();
  const std::size_t width = capacity_units + 1;
  std::vector<double> best((n + 1) * width, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < width; ++c) {
      double v = best[i * width + c];
      if (units[i] <= c) v = std::max(v, best[i * width + c - units[i]] + values[i]);
      best[(i + 1) * width + c] = v;
    }
  }
  return best[n * width + capacity_units];
}

bool knapsack_check_self_test() {
  Instance inst;
  inst.capacity = 5 * kUnit;
  inst.items = {{6.0, 3 * kUnit}, {5.0, 2 * kUnit}, {4.0, 2 * kUnit}, {1.0, 1 * kUnit}};
  ape::core::KnapsackResult right = ape::core::solve_knapsack(inst.items, inst.capacity);
  const double optimum = oracle_of(inst);
  if (optimum != 11.0 || !knapsack_error(inst, right, optimum).empty()) return false;
  // Planted: swap a chosen item for a worse one that also fits.
  ape::core::KnapsackResult wrong = right;
  wrong.selected = {true, false, true, false};
  wrong.total_value = 10.0;
  return !knapsack_error(inst, wrong, optimum).empty();
}

ReplayResult run_replays(const WorkloadDef& def, const Inputs& in, const Episode& ep,
                         double budget_s) {
  ReplayResult out;

  // --- build the workload-shaped inputs (untimed) -------------------------------
  std::vector<ape::dns::DnsMessage> dns_messages;
  std::vector<std::string> names;
  std::vector<ape::http::HttpRequest> requests;
  std::vector<ape::http::HttpResponse> responses;
  const ape::net::IpAddress edge_ip = ape::net::IpAddress::from_octets(10, 0, 2, 1);
  for (const auto& f : ep.fetches) {
    const auto& obj = in.objects[f.object];
    const auto& app = in.apps[obj.app];
    const std::string& host = host_of(in, f);
    names.push_back(host);
    names.push_back(host + ".edgecdn.net");
    const auto domain = ape::dns::DnsName::parse(host);
    const auto cdn = ape::dns::DnsName::parse(host + ".edgecdn.net");
    if (!domain || !cdn) {
      out.failures.push_back("DnsName::parse rejected " + host);
      continue;
    }
    const bool hit = f.source == Source::ApCache;
    // The client's DNS-Cache query and the AP's batched answer.
    ape::dns::DnsMessage query;
    query.header.id = static_cast<std::uint16_t>(dns_messages.size());
    query.questions.push_back({domain.value(), ape::dns::RrType::A, ape::dns::RrClass::In});
    query.additionals.push_back(ape::core::make_cache_request_rr(
        domain.value(), {{ape::core::hash_url(obj.key), ape::core::CacheFlag::Delegation}}));
    ape::dns::DnsMessage answer = ape::dns::make_response_for(query, ape::dns::Rcode::NoError);
    answer.answers.push_back(ape::dns::make_a_record(domain.value(), edge_ip, hit ? 0 : 30));
    std::vector<ape::core::CacheLookupEntry> flags;
    for (const auto& [name, id] : in.object_of[obj.app]) {
      flags.push_back({ape::core::hash_url(in.objects[id].key),
                       hit && id == f.object ? ape::core::CacheFlag::CacheHit
                                             : ape::core::CacheFlag::Delegation});
    }
    answer.additionals.push_back(ape::core::make_cache_response_rr(domain.value(), flags));
    dns_messages.push_back(query);
    dns_messages.push_back(std::move(answer));
    if (!hit) {
      // The AP's upstream resolution: CNAME into the CDN namespace + A.
      ape::dns::DnsMessage up;
      up.questions.push_back({domain.value(), ape::dns::RrType::A, ape::dns::RrClass::In});
      ape::dns::DnsMessage up_answer = ape::dns::make_response_for(up, ape::dns::Rcode::NoError);
      up_answer.answers.push_back(ape::dns::make_cname_record(domain.value(), cdn.value(), 3600));
      up_answer.answers.push_back(ape::dns::make_a_record(cdn.value(), edge_ip, 0));
      dns_messages.push_back(std::move(up));
      dns_messages.push_back(std::move(up_answer));
    }

    // The client's HTTP request (X-Ape-* headers) and the serving reply.
    ape::http::HttpRequest req;
    const auto url = ape::http::Url::parse(obj.key);
    if (!url) {
      out.failures.push_back("Url::parse rejected " + obj.key);
      continue;
    }
    req.url = url.value();
    if (f.source != Source::EdgeServer) {
      req.headers.emplace_back("X-Ape-App", std::to_string(app.id));
    }
    if (f.source == Source::ApDelegated) {
      req.headers.emplace_back("X-Ape-Delegate", "1");
      req.headers.emplace_back("X-Ape-Ttl", std::to_string(obj.ttl_minutes * 60));
      req.headers.emplace_back("X-Ape-Priority", std::to_string(obj.priority));
    }
    ape::http::HttpResponse resp;
    resp.simulated_body_bytes = obj.size_bytes;
    if (hit) {
      resp.headers.emplace_back("X-Cache", "AP-HIT");
    } else {
      resp.headers.emplace_back("X-Object-TTL", std::to_string(obj.ttl_minutes * 60));
      resp.headers.emplace_back("X-Cache", "HIT");
      resp.headers.emplace_back("ETag", "\"" + ape::core::hash_to_string(ape::core::hash_url(obj.key)) + "\"");
    }
    resp.headers.emplace_back("X-Object-Priority", std::to_string(obj.priority));
    resp.headers.emplace_back("X-Object-App", std::to_string(app.id));
    requests.push_back(std::move(req));
    responses.push_back(std::move(resp));
  }

  // Round-trip correctness (untimed, once), then the same comparison against
  // a planted difference, which it must catch.
  for (const auto& m : dns_messages) {
    const auto back = ape::dns::decode(ape::dns::encode(m));
    if (!back || !same_dns(m, back.value())) {
      out.failures.push_back("dns encode/decode does not round-trip");
      break;
    }
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto rq = ape::http::HttpRequest::from_tcp(requests[i].to_tcp());
    const auto rs = ape::http::HttpResponse::from_tcp(responses[i].to_tcp());
    if (!rq || !same_http(requests[i], rq.value()) || !rs ||
        !same_http(responses[i], rs.value())) {
      out.failures.push_back("http to_tcp/from_tcp does not round-trip");
      break;
    }
  }
  if (!dns_messages.empty() && !requests.empty()) {
    auto dns_planted = dns_messages.front();
    dns_planted.answers.push_back(dns_messages.front().questions.empty()
                                      ? ape::dns::ResourceRecord{}
                                      : ape::dns::make_a_record(
                                            dns_messages.front().questions.front().name,
                                            edge_ip, 1));
    auto http_planted = responses.front();
    http_planted.simulated_body_bytes += 1;
    if (same_dns(dns_messages.front(), dns_planted) || same_http(responses.front(), http_planted)) {
      out.failures.push_back("round-trip self-test: a planted difference was not detected");
    }
  }

  // Cache key stream: the fetch order, with simulated time spread evenly.
  const double sim_us = in.arrivals.empty() ? 1.0 : static_cast<double>(in.arrivals.back().at_us);
  const double us_per_fetch = sim_us / static_cast<double>(std::max<std::size_t>(1, ep.fetches.size()));

  const std::vector<Instance> instances = make_instances(def, in, 32);
  for (const auto& inst : instances) {
    const auto r = ape::core::solve_knapsack(inst.items, inst.capacity);
    if (auto why = knapsack_error(inst, r, oracle_of(inst)); !why.empty()) {
      out.failures.push_back(why);
      break;
    }
  }

  // --- timed passes ---------------------------------------------------------------
  std::vector<std::function<void()>> passes;
  std::vector<double> dns_ns, name_ns, http_ns, lookup_ns, insert_ns, knap_us;
  passes.emplace_back([&] {
    const auto t0 = Clock::now();
    std::size_t sink = 0;
    for (const auto& m : dns_messages) {
      const auto wire = ape::dns::encode(m);
      const auto back = ape::dns::decode(wire);
      sink += wire.size() + (back ? back.value().additionals.size() : 0);
    }
    g_sink = g_sink + sink;
    dns_ns.push_back(ns_since(t0) / static_cast<double>(std::max<std::size_t>(1, dns_messages.size())));
  });
  passes.emplace_back([&] {
    const auto t0 = Clock::now();
    std::size_t sink = 0;
    for (const auto& n : names) {
      const auto parsed = ape::dns::DnsName::parse(n);
      sink += parsed ? 1 : 0;
    }
    g_sink = g_sink + sink;
    name_ns.push_back(ns_since(t0) / static_cast<double>(std::max<std::size_t>(1, names.size())));
  });
  passes.emplace_back([&] {
    const auto t0 = Clock::now();
    std::size_t sink = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto rq = ape::http::HttpRequest::from_tcp(requests[i].to_tcp());
      const auto rs = ape::http::HttpResponse::from_tcp(responses[i].to_tcp());
      sink += (rq ? rq.value().headers.size() : 0) + (rs ? rs.value().headers.size() : 0);
    }
    g_sink = g_sink + sink;
    http_ns.push_back(ns_since(t0) /
                      static_cast<double>(std::max<std::size_t>(1, 2 * requests.size())));
  });
  passes.emplace_back([&] {
    ape::cache::CacheStore store(def.params.ape.cache_capacity_bytes,
                                 std::make_unique<ape::cache::LruPolicy>());
    double get_ns = 0.0, put_ns = 0.0;
    std::size_t gets = 0, puts = 0;
    for (std::size_t i = 0; i < ep.fetches.size(); ++i) {
      const auto& obj = in.objects[ep.fetches[i].object];
      const ape::sim::Time now{ape::sim::microseconds(
          static_cast<std::int64_t>(static_cast<double>(i) * us_per_fetch))};
      auto t0 = Clock::now();
      const auto* hit = store.get(obj.key, now);
      get_ns += ns_since(t0);
      ++gets;
      if (hit != nullptr) continue;
      ape::cache::CacheEntry e;
      e.key = obj.key;
      e.size_bytes = obj.size_bytes;
      e.app_id = static_cast<std::uint32_t>(in.apps[obj.app].id);
      e.priority = obj.priority;
      e.expires = now + ape::sim::minutes(obj.ttl_minutes);
      e.fetch_latency = ape::sim::milliseconds(obj.retrieval_ms);
      e.inserted = now;
      e.last_access = now;
      t0 = Clock::now();
      (void)store.insert(std::move(e), now);
      put_ns += ns_since(t0);
      ++puts;
    }
    lookup_ns.push_back(get_ns / static_cast<double>(std::max<std::size_t>(1, gets)));
    insert_ns.push_back(put_ns / static_cast<double>(std::max<std::size_t>(1, puts)));
  });
  passes.emplace_back([&] {
    const auto t0 = Clock::now();
    std::size_t sink = 0;
    for (const auto& inst : instances) {
      sink += ape::core::solve_knapsack(inst.items, inst.capacity).total_weight;
    }
    g_sink = g_sink + sink;
    knap_us.push_back(ns_since(t0) / 1e3 / static_cast<double>(std::max<std::size_t>(1, instances.size())));
  });

  // Whole rounds over every replay: at least three, then until the budget.
  const auto start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    if (round >= 3 && ns_since(start) / 1e9 >= budget_s) break;
    for (auto& pass : passes) pass();
  }
  out.dns_codec_ns = quantile(dns_ns, 0.5);
  out.dns_name_parse_ns = quantile(name_ns, 0.5);
  out.http_codec_ns = quantile(http_ns, 0.5);
  out.cache_lookup_ns = quantile(lookup_ns, 0.5);
  out.cache_insert_ns = quantile(insert_ns, 0.5);
  out.knapsack_solve_us = quantile(knap_us, 0.5);
  return out;
}

std::vector<std::string> check_knapsack(const WorkloadDef& def, const Inputs& in,
                                        std::size_t instances) {
  std::vector<std::string> failures;
  for (const auto& inst : make_instances(def, in, instances)) {
    const auto r = ape::core::solve_knapsack(inst.items, inst.capacity);
    if (auto why = knapsack_error(inst, r, oracle_of(inst)); !why.empty()) failures.push_back(why);
  }
  return failures;
}

}  // namespace perfbench
