// The AP runtime over the full Fig. 9 testbed: DNS-Cache semantics,
// delegation, block list, dummy-IP short-circuit, resource model.
#include <gtest/gtest.h>

#include <optional>

#include "core/url_hash.hpp"
#include "http/endpoint.hpp"
#include "testbed/testbed.hpp"
#include "workload/real_apps.hpp"

namespace ape::core {
namespace {

using testbed::System;
using testbed::Testbed;
using testbed::TestbedParams;

workload::AppSpec two_object_app() {
  workload::AppSpec app;
  app.name = "two-object";
  app.id = 50;
  app.domain = "api.two.example";
  for (const char* name : {"alpha", "beta"}) {
    workload::RequestSpec r;
    r.name = name;
    r.url = "http://api.two.example/" + std::string(name);
    r.size_bytes = 10'000;
    r.ttl_minutes = 30;
    r.priority = 2;
    r.retrieval_latency = sim::milliseconds(25);
    app.requests.push_back(std::move(r));
  }
  return app;
}

struct ApFixture : ::testing::Test {
  std::unique_ptr<Testbed> bed;
  Testbed::Client* client = nullptr;
  workload::AppSpec app = two_object_app();

  void build(System system, std::uint32_t cdn_ttl = 0) {
    TestbedParams params;
    params.system = system;
    params.cdn_answer_ttl = cdn_ttl;
    bed = std::make_unique<Testbed>(params);
    bed->host_app(app);
    client = &bed->add_client("phone");
    for (auto& spec : app.cacheables()) client->runtime->register_cacheable(spec);
  }

  ClientRuntime::FetchResult fetch(const std::string& url) {
    ClientRuntime::FetchResult out;
    client->runtime->fetch(url, [&out](ClientRuntime::FetchResult r) { out = std::move(r); });
    bed->simulator().run();
    return out;
  }

  Result<dns::DnsMessage> cache_lookup(const std::string& host,
                                       std::vector<UrlHash> hashes,
                                       sim::Duration* latency = nullptr) {
    Result<dns::DnsMessage> out = make_error<dns::DnsMessage>("not called");
    client->runtime->dns_cache_lookup(host, hashes,
                                      [&](Result<dns::DnsMessage> r, sim::Duration d) {
                                        out = std::move(r);
                                        if (latency) *latency = d;
                                      });
    bed->simulator().run();
    return out;
  }
};

TEST_F(ApFixture, UnknownUrlGetsDelegationFlag) {
  build(System::ApeCache);
  const UrlHash h = hash_url("http://api.two.example/alpha");
  const auto resp = cache_lookup("api.two.example", {h});
  ASSERT_TRUE(resp.ok());
  const auto view = extract_dns_cache(resp.value());
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view.value().entries.size(), 1u);
  EXPECT_EQ(view.value().entries[0].flag, CacheFlag::Delegation);
}

TEST_F(ApFixture, DelegationFetchesCachesAndServes) {
  build(System::ApeCache);
  const auto first = fetch("http://api.two.example/alpha");
  ASSERT_TRUE(first.success);
  EXPECT_EQ(first.source, ClientRuntime::Source::ApDelegated);
  EXPECT_EQ(first.bytes, 10'000u);
  EXPECT_EQ(bed->ap().lookup_stats().delegated_fetches(), 1u);
  EXPECT_EQ(bed->ap().data_cache().entry_count(), 1u);

  const auto second = fetch("http://api.two.example/alpha");
  ASSERT_TRUE(second.success);
  EXPECT_EQ(second.source, ClientRuntime::Source::ApCache);
  EXPECT_EQ(second.flag, CacheFlag::CacheHit);
  // Millisecond-level: well under the edge path.
  EXPECT_LT(sim::to_millis(second.total), 20.0);
  EXPECT_LT(second.total, first.total);
}

// Delegation metadata is wire input from a client: a malformed X-Ape-App
// falls back to the default app instead of throwing out of the simulation.
TEST_F(ApFixture, MalformedDelegationHeaderFallsBackToDefaults) {
  build(System::ApeCache);
  http::HttpRequest req;
  req.url = http::Url::parse("http://api.two.example/alpha").value();
  req.headers.emplace_back("X-Ape-App", "x");
  req.headers.emplace_back("X-Ape-Delegate", "1");
  http::HttpClient http(bed->tcp(), client->node);
  std::optional<Result<http::HttpResponse>> out;
  http.fetch(net::Endpoint{bed->ap_ip(), net::kHttpPort}, std::move(req),
             [&out](Result<http::HttpResponse> r, http::FetchTiming) { out = std::move(r); });
  EXPECT_NO_THROW(bed->simulator().run());
  ASSERT_TRUE(out.has_value());
  ASSERT_TRUE(out->ok());
  EXPECT_EQ(out->value().status, 200);
  EXPECT_EQ(out->value().total_body_bytes(), 10'000u);
  EXPECT_EQ(bed->ap().lookup_stats().delegated_fetches(), 1u);
}

TEST_F(ApFixture, DummyIpShortCircuitWhenAllCached) {
  build(System::ApeCache);
  // Cache both objects under the domain.
  fetch("http://api.two.example/alpha");
  fetch("http://api.two.example/beta");

  const UrlHash h = hash_url("http://api.two.example/alpha");
  const auto resp = cache_lookup("api.two.example", {h});
  ASSERT_TRUE(resp.ok());
  const auto addr = dns::StubResolver::extract_address(
      resp.value(), dns::DnsName::parse("api.two.example").value());
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr.value().address, net::kDummyIp);
  EXPECT_EQ(addr.value().ttl, 0u);  // never client-cached
}

TEST_F(ApFixture, DelegationOnlyDomainAlsoShortCircuits) {
  build(System::ApeCache);
  fetch("http://api.two.example/alpha");  // beta still unknown -> Delegation

  // Cache-Hits serve locally and Delegations go through the AP, so the
  // client never needs the edge IP: the AP short-circuits with the dummy.
  const auto resp = cache_lookup("api.two.example",
                                 {hash_url("http://api.two.example/alpha"),
                                  hash_url("http://api.two.example/beta")});
  ASSERT_TRUE(resp.ok());
  const auto addr = dns::StubResolver::extract_address(
      resp.value(), dns::DnsName::parse("api.two.example").value());
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr.value().address, net::kDummyIp);
}

TEST_F(ApFixture, BlockListedUrlForcesRealIp) {
  build(System::ApeCache);
  workload::AppSpec big;
  big.name = "blocky";
  big.id = 52;
  big.domain = "api.blocky.example";
  workload::RequestSpec small;
  small.name = "small";
  small.url = "http://api.blocky.example/small";
  small.size_bytes = 5'000;
  small.ttl_minutes = 30;
  big.requests.push_back(small);
  workload::RequestSpec huge = small;
  huge.name = "huge";
  huge.url = "http://api.blocky.example/huge";
  huge.size_bytes = 700'000;
  big.requests.push_back(huge);
  bed->host_app(big);
  for (auto& spec : big.cacheables()) client->runtime->register_cacheable(spec);

  fetch("http://api.blocky.example/small");  // cached
  fetch("http://api.blocky.example/huge");   // block-listed

  // A Cache-Miss flag means the client must reach the edge itself: the AP
  // must answer with the real edge address.
  const auto resp = cache_lookup("api.blocky.example",
                                 {hash_url("http://api.blocky.example/small"),
                                  hash_url("http://api.blocky.example/huge")});
  ASSERT_TRUE(resp.ok());
  const auto addr = dns::StubResolver::extract_address(
      resp.value(), dns::DnsName::parse("api.blocky.example").value());
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr.value().address, bed->edge_ip());
}

TEST_F(ApFixture, ResponseBatchesAllKnownUrlsUnderDomain) {
  build(System::ApeCache);
  fetch("http://api.two.example/alpha");
  fetch("http://api.two.example/beta");

  // Ask about only one hash; the response must still carry both.
  const auto resp = cache_lookup("api.two.example",
                                 {hash_url("http://api.two.example/alpha")});
  ASSERT_TRUE(resp.ok());
  const auto view = extract_dns_cache(resp.value());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().entries.size(), 2u);
}

TEST_F(ApFixture, OversizedObjectLandsOnBlockList) {
  build(System::ApeCache);
  workload::AppSpec big;
  big.name = "big";
  big.id = 51;
  big.domain = "api.big.example";
  workload::RequestSpec r;
  r.name = "huge";
  r.url = "http://api.big.example/huge";
  r.size_bytes = 600'000;  // above the 500 kB threshold
  r.ttl_minutes = 30;
  r.priority = 2;
  big.requests.push_back(r);
  bed->host_app(big);
  for (auto& spec : big.cacheables()) client->runtime->register_cacheable(spec);

  const auto first = fetch("http://api.big.example/huge");
  ASSERT_TRUE(first.success);
  EXPECT_EQ(first.source, ClientRuntime::Source::ApDelegated);
  EXPECT_EQ(bed->ap().block_list().size(), 1u);
  EXPECT_EQ(bed->ap().data_cache().entry_count(), 0u);

  // Next lookup reports Cache-Miss; the client goes straight to the edge.
  const auto second = fetch("http://api.big.example/huge");
  ASSERT_TRUE(second.success);
  EXPECT_EQ(second.flag, CacheFlag::CacheMiss);
  EXPECT_EQ(second.source, ClientRuntime::Source::EdgeServer);
}

TEST_F(ApFixture, TtlExpiryReturnsToDelegation) {
  build(System::ApeCache);
  fetch("http://api.two.example/alpha");
  // Jump past the 30-minute object TTL.
  bed->simulator().run_until(bed->simulator().now() + sim::minutes(31.0));
  const auto result = fetch("http://api.two.example/alpha");
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.source, ClientRuntime::Source::ApDelegated);
  EXPECT_EQ(bed->ap().lookup_stats().delegated_fetches(), 2u);
}

TEST_F(ApFixture, RegularDnsForwardingServesNonApeClients) {
  build(System::EdgeCache);
  ClientRuntime::FetchResult out;
  client->runtime->fetch_via_edge("http://api.two.example/alpha",
                                  [&out](ClientRuntime::FetchResult r) { out = std::move(r); });
  bed->simulator().run();
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.source, ClientRuntime::Source::EdgeServer);
  // Akamai-style uncacheable mapping: the lookup pays the resolver chain.
  EXPECT_GT(sim::to_millis(out.lookup_latency), 15.0);
}

TEST_F(ApFixture, ApDnsCacheHonoursMappingTtl) {
  build(System::EdgeCache, /*cdn_ttl=*/30);
  auto lookup_latency = [&] {
    sim::Duration d{};
    bool ok = false;
    client->runtime->regular_dns_lookup("api.two.example",
                                        [&](Result<dns::DnsMessage> r, sim::Duration t) {
                                          ok = r.ok();
                                          d = t;
                                        });
    bed->simulator().run();
    EXPECT_TRUE(ok);
    return sim::to_millis(d);
  };
  const double cold = lookup_latency();
  const double warm = lookup_latency();
  EXPECT_LT(warm, cold * 0.5);  // served from the AP's dnsmasq cache
  // After the 30 s TTL, cold again.
  bed->simulator().run_until(bed->simulator().now() + sim::seconds(31.0));
  EXPECT_GT(lookup_latency(), warm * 2.0);
}

TEST_F(ApFixture, ApeDisabledApAnswersWithoutCacheRr) {
  build(System::EdgeCache);
  const auto resp = cache_lookup("api.two.example",
                                 {hash_url("http://api.two.example/alpha")});
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(extract_dns_cache(resp.value()).ok());  // no DNS-Cache RR
}

TEST_F(ApFixture, MemoryModelGrowsWithCacheContents) {
  build(System::ApeCache);
  const std::size_t before = bed->ap().memory_bytes();
  fetch("http://api.two.example/alpha");
  fetch("http://api.two.example/beta");
  const std::size_t after = bed->ap().memory_bytes();
  EXPECT_GE(after, before + 20'000);
}

TEST_F(ApFixture, ResetCacheRestoresColdState) {
  build(System::ApeCache);
  fetch("http://api.two.example/alpha");
  bed->ap().reset_cache();
  EXPECT_EQ(bed->ap().data_cache().entry_count(), 0u);
  // The whole ledger restarts cold, the clear's own removals included.
  EXPECT_EQ(bed->ap().lookup_stats().lookups(), 0u);
  EXPECT_EQ(bed->ap().data_cache().removals(cache::RemovalCause::Cleared), 0u);
  EXPECT_EQ(bed->ap().memory_bytes(),
            bed->ap().config().base_memory_bytes + bed->ap().config().runtime_memory_bytes);
  const auto result = fetch("http://api.two.example/alpha");
  EXPECT_EQ(result.source, ClientRuntime::Source::ApDelegated);
}

TEST_F(ApFixture, ForwardPacketChargesCpuAndTracksFlows) {
  build(System::ApeCache);
  const auto busy_before = bed->ap().cpu().busy_time();
  bed->ap().forward_packet(1500, true);
  bed->ap().forward_packet(1500, false);
  bed->simulator().run();
  EXPECT_GT(bed->ap().cpu().busy_time(), busy_before);
  EXPECT_EQ(bed->ap().active_flows(), 1u);
}

TEST_F(ApFixture, LookupStatsTrackFlags) {
  build(System::ApeCache);
  fetch("http://api.two.example/alpha");  // Delegation
  fetch("http://api.two.example/alpha");  // Hit
  const auto& stats = bed->ap().lookup_stats();
  EXPECT_GE(stats.delegations(), 1u);
  EXPECT_GE(stats.hits(), 1u);
}

TEST_F(ApFixture, EdgeOutageFailsDelegationGracefully) {
  build(System::ApeCache);
  // Sever the AP<->edge path (first hop of the chain).
  auto& topo = bed->network().topology();
  // Sever every WAN-side link of the AP (node 0) but keep the WiFi link to
  // the client (the last-added node) up.
  const auto client_node = client->node;
  for (std::uint32_t i = 1; i < topo.node_count(); ++i) {
    const net::NodeId node{i};
    if (node == client_node) continue;
    if (topo.link_exists(net::NodeId{0}, node)) {
      topo.set_link_down(net::NodeId{0}, node, true);
    }
  }

  const auto result = fetch("http://api.two.example/alpha");
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.error.empty());
}

}  // namespace
}  // namespace ape::core
