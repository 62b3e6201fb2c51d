// The multi-AP fleet: sharded cooperative-cache directory protocol edges
// (duplicate PUBLISH after crash-recovery replay, RETRACT racing a cached
// LOOKUP answer, shard failover with an epoch bump), client roaming between
// APs, and the dir.stale_redirects SLO alert the staleness scenario must
// fire (DESIGN.md §5j), and parity of the back half (edge server + DNS
// hierarchy) with the single-AP testbed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "core/url_hash.hpp"
#include "obs/export.hpp"
#include "testbed/fleet_testbed.hpp"
#include "testbed/testbed.hpp"
#include "workload/app_model.hpp"

namespace ape::testbed {
namespace {

using fleet::shard_of;

using FetchResult = core::ClientRuntime::FetchResult;
using Source = core::ClientRuntime::Source;

workload::AppSpec two_object_app() {
  workload::AppSpec app;
  app.name = "fleet-sample";
  app.id = 3;
  app.domain = "api.fleetsample.com";
  for (int i = 0; i < 2; ++i) {
    workload::RequestSpec r;
    r.name = "obj" + std::to_string(i);
    r.url = "http://api.fleetsample.com/obj" + std::to_string(i);
    r.size_bytes = 20'000;
    r.ttl_minutes = 30;
    r.priority = 1;
    app.requests.push_back(std::move(r));
  }
  return app;
}

// The directory keys cache membership by hashed base URL (the store's own
// key space), not by raw URL.
std::string cache_key(const std::string& base_url) {
  return core::hash_to_string(core::hash_url(base_url));
}

FleetTestbed::Client& add_registered_client(FleetTestbed& bed, const workload::AppSpec& app,
                                            const std::string& name, std::uint32_t ap) {
  auto& client = bed.add_client(name, ap);
  for (const auto& spec : app.cacheables()) client.runtime->register_cacheable(spec);
  return client;
}

// Issues one APE fetch (or a direct edge fetch) and drains the sim for a
// bounded window.  run(), not run_until, would never return: the
// directory's lease timer re-schedules itself forever.  Also drives the
// single-AP Testbed (back-half parity).
template <typename Bed>
FetchResult fetch_and_run(Bed& bed, typename Bed::Client& client, const std::string& url,
                          bool via_edge = false) {
  FetchResult out;
  bool done = false;
  auto on_done = [&](FetchResult r) {
    out = std::move(r);
    done = true;
  };
  if (via_edge) {
    client.runtime->fetch_via_edge(url, on_done);
  } else {
    client.runtime->fetch(url, on_done);
  }
  bed.simulator().run_until(bed.simulator().now() + sim::milliseconds(500));
  EXPECT_TRUE(done) << "fetch of " << url << " did not complete within the window";
  return out;
}

std::uint64_t counter(FleetTestbed& bed, const std::string& name) {
  return bed.observer().metrics().counter(name).value();
}

// ------------------------------------------------------------------ wiring

TEST(FleetWiring, BuildsApsShardsAndDirectoryAttachments) {
  FleetParams params;
  params.ap_count = 3;
  params.shard_count = 2;
  // Even if a caller asks for a flash tier, the fleet must force RAM-only:
  // RETRACT means "copy gone", which a flash demotion would violate.
  params.ape.flash_capacity_bytes = 1 << 20;
  FleetTestbed bed(params);

  EXPECT_EQ(bed.ap_count(), 3u);
  EXPECT_EQ(bed.shard_count(), 2u);
  for (std::size_t i = 0; i < bed.ap_count(); ++i) {
    EXPECT_FALSE(bed.ap(i).tiered());
    ASSERT_NE(bed.directory(i), nullptr);
    EXPECT_EQ(bed.directory(i)->ap_id(), static_cast<std::uint32_t>(i));
    EXPECT_EQ(bed.ap(i).ap_id(), static_cast<std::uint32_t>(i));
  }
  for (std::size_t j = 0; j < bed.shard_count(); ++j) {
    EXPECT_EQ(bed.shard(j).shard_index(), static_cast<std::uint32_t>(j));
    EXPECT_EQ(bed.shard(j).epoch(), 1u);
  }
  EXPECT_LT(shard_of(cache_key("http://api.fleetsample.com/obj0"), 2), 2u);
  // Placement is a pure function of the key.
  EXPECT_EQ(shard_of("k", 4), shard_of("k", 4));
}

// -------------------------------------------------------------- peer probe

TEST(FleetPeerProbe, NeighborMissIsServedFromPeerCache) {
  FleetParams params;
  params.ap_count = 2;
  FleetTestbed bed(params);
  const auto app = two_object_app();
  bed.host_app(app);
  auto& alice = add_registered_client(bed, app, "alice", 0);
  auto& bob = add_registered_client(bed, app, "bob", 1);
  const std::string url = app.requests[0].url;

  // Warm AP0 through the ordinary delegation path.
  const FetchResult warm = fetch_and_run(bed, alice, url);
  ASSERT_TRUE(warm.success) << warm.error;
  EXPECT_EQ(warm.source, Source::ApDelegated);
  ASSERT_NE(bed.ap(0).data_cache().lookup_any(cache_key(url)), nullptr);
  EXPECT_GE(counter(bed, "dir.publishes"), 1u);

  const FetchResult local = fetch_and_run(bed, alice, url);
  ASSERT_TRUE(local.success);
  EXPECT_EQ(local.source, Source::ApCache);

  // Bob's AP misses locally, consults the directory, and relays from AP0.
  const FetchResult peer = fetch_and_run(bed, bob, url);
  ASSERT_TRUE(peer.success) << peer.error;
  EXPECT_EQ(peer.source, Source::ApPeer);
  EXPECT_GE(counter(bed, "ap.peer.probes"), 1u);
  EXPECT_GE(counter(bed, "ap.peer.hits"), 1u);
  EXPECT_GE(counter(bed, "ap.peer.serves"), 1u);
  EXPECT_GE(counter(bed, "dir.lookup_hits"), 1u);
  EXPECT_GE(counter(bed, "client.fetch.ap_peer"), 1u);

  // A second peer fetch reuses the cached directory answer (bounded
  // staleness window) instead of paying another LOOKUP round trip.
  const FetchResult again = fetch_and_run(bed, bob, url);
  ASSERT_TRUE(again.success);
  EXPECT_EQ(again.source, Source::ApPeer);
  EXPECT_GE(counter(bed, "dir.answer_reuse"), 1u);

  // The latency ordering the whole subsystem exists for: a peer relay costs
  // more than a local hit but far less than the 7-hop WAN edge fetch.
  const FetchResult edge = fetch_and_run(bed, bob, url, /*via_edge=*/true);
  ASSERT_TRUE(edge.success);
  EXPECT_EQ(edge.source, Source::EdgeServer);
  EXPECT_LT(local.retrieval_latency, peer.retrieval_latency);
  EXPECT_LT(peer.retrieval_latency, edge.retrieval_latency);
}

TEST(FleetPeerProbe, DisabledProbeLeavesApsIsolated) {
  FleetParams params;
  params.ap_count = 2;
  params.enable_peer_probe = false;
  FleetTestbed bed(params);
  const auto app = two_object_app();
  bed.host_app(app);
  auto& alice = add_registered_client(bed, app, "alice", 0);
  auto& bob = add_registered_client(bed, app, "bob", 1);
  const std::string url = app.requests[0].url;

  EXPECT_EQ(bed.directory(0), nullptr);
  EXPECT_EQ(bed.directory(1), nullptr);

  ASSERT_TRUE(fetch_and_run(bed, alice, url).success);
  const FetchResult isolated = fetch_and_run(bed, bob, url);
  ASSERT_TRUE(isolated.success);
  // Without the directory AP1 cannot know AP0 holds the object: it pays its
  // own delegation instead of a peer relay.
  EXPECT_EQ(isolated.source, Source::ApDelegated);
  EXPECT_EQ(counter(bed, "ap.peer.probes"), 0u);
}

// --------------------------------------------------- staleness / retract race

TEST(FleetDirectory, RetractRacingCachedLookupDegradesToEdgeNotError) {
  FleetParams params;
  params.ap_count = 2;
  params.shard_count = 1;
  FleetTestbed bed(params);
  const auto app = two_object_app();
  bed.host_app(app);
  auto& alice = add_registered_client(bed, app, "alice", 0);
  auto& bob = add_registered_client(bed, app, "bob", 1);
  const std::string url = app.requests[0].url;

  ASSERT_TRUE(fetch_and_run(bed, alice, url).success);   // warm AP0
  const FetchResult first = fetch_and_run(bed, bob, url);  // caches the FOUND answer
  ASSERT_TRUE(first.success);
  ASSERT_EQ(first.source, Source::ApPeer);

  // The copy vanishes from AP0 while bob's AP still trusts its cached
  // directory answer (well inside dir_lookup_ttl).  The erase drives a
  // RETRACT, but bob's AP never re-asks the shard.
  ASSERT_TRUE(bed.ap(0).data_cache().erase(cache_key(url)));
  EXPECT_GE(counter(bed, "dir.retracts"), 1u);

  const FetchResult stale = fetch_and_run(bed, bob, url);
  // The stale redirect costs latency, never correctness: the relay 404s and
  // the AP degrades to its own delegation path.
  ASSERT_TRUE(stale.success) << stale.error;
  EXPECT_TRUE(stale.error.empty());
  EXPECT_EQ(stale.source, Source::ApDelegated);
  EXPECT_GE(counter(bed, "ap.peer.serve_misses"), 1u);
  EXPECT_GE(counter(bed, "ap.peer.fallbacks"), 1u);
  EXPECT_GE(counter(bed, "dir.stale_redirects"), 1u);

  // The fallback delegation cached the object on bob's own AP, so the next
  // fetch is an ordinary local hit.
  const FetchResult healed = fetch_and_run(bed, bob, url);
  ASSERT_TRUE(healed.success);
  EXPECT_EQ(healed.source, Source::ApCache);
}

// -------------------------------------------------------- failover / epochs

TEST(FleetDirectory, ShardRestartBumpsEpochAndReplaysHoldingsIdempotently) {
  FleetParams params;
  params.ap_count = 2;
  params.shard_count = 1;  // every key lands on the shard under test
  params.dir_lease_interval = sim::seconds(1.0);
  FleetTestbed bed(params);
  const auto app = two_object_app();
  bed.host_app(app);
  auto& alice = add_registered_client(bed, app, "alice", 0);

  ASSERT_TRUE(fetch_and_run(bed, alice, app.requests[0].url).success);
  ASSERT_TRUE(fetch_and_run(bed, alice, app.requests[1].url).success);
  ASSERT_EQ(bed.directory(0)->holdings().size(), 2u);
  EXPECT_EQ(bed.shard(0).key_count(), 2u);

  // Let one lease round run so AP0 observes the pre-failover epoch (PUBLISH
  // is fire-and-forget; epochs only ride replies).
  bed.simulator().run_until(bed.simulator().now() + sim::milliseconds(1200));
  ASSERT_EQ(bed.directory(0)->shard_epoch(0), 1u);

  // Crash-restart: the registry is lost, the epoch bumps.
  bed.restart_shard(0);
  EXPECT_EQ(bed.shard(0).epoch(), 2u);
  EXPECT_EQ(bed.shard(0).key_count(), 0u);

  // The next lease round re-adds the held keys and its LEASEACK carries the
  // new epoch, which triggers the client's PUBLISH replay.  The duplicate
  // PUBLISHes land on an already-healed registry and must be idempotent.
  bed.simulator().run_until(bed.simulator().now() + sim::milliseconds(1200));
  EXPECT_EQ(bed.directory(0)->shard_epoch(0), 2u);
  EXPECT_GE(counter(bed, "dir.epoch_replays"), 1u);
  EXPECT_EQ(bed.shard(0).key_count(), 2u);
  EXPECT_GE(bed.shard(0).publishes(), 2u);  // the replayed PUBLISHes arrived

  // And the data path still works end to end after recovery.
  const FetchResult after = fetch_and_run(bed, alice, app.requests[0].url);
  ASSERT_TRUE(after.success);
  EXPECT_EQ(after.source, Source::ApCache);
}

TEST(FleetDirectory, UnreachableShardTimesOutAndFallsBackToDelegation) {
  FleetParams params;
  params.ap_count = 2;
  params.shard_count = 1;
  FleetTestbed bed(params);
  const auto app = two_object_app();
  bed.host_app(app);
  auto& alice = add_registered_client(bed, app, "alice", 0);
  auto& bob = add_registered_client(bed, app, "bob", 1);
  const std::string url = app.requests[0].url;

  ASSERT_TRUE(fetch_and_run(bed, alice, url).success);

  bed.set_shard_reachable(0, false);
  const FetchResult blind = fetch_and_run(bed, bob, url);
  ASSERT_TRUE(blind.success) << blind.error;
  EXPECT_EQ(blind.source, Source::ApDelegated);
  EXPECT_GE(counter(bed, "dir.lookup_timeouts"), 1u);
  EXPECT_EQ(counter(bed, "dir.lookup_hits"), 0u);
}

// ----------------------------------------------------------------- roaming

TEST(FleetRoaming, RoamedClientReusesStaleAnswerAndIsServedViaPeerRelay) {
  FleetParams params;
  params.ap_count = 2;
  // Give DNS answers a real TTL so the client still trusts flags learned
  // from AP0 after it roams away — the staleness the probe must absorb.
  params.cdn_answer_ttl = 60;
  FleetTestbed bed(params);
  // A block-listed sibling forces real-IP answers (the all-cached /
  // all-delegation short-circuit would otherwise hand out dummy answers
  // with TTL 0, which clients never cache — same setup as the single-AP
  // flag-reuse tests).
  auto app = two_object_app();
  {
    workload::RequestSpec big;
    big.name = "big";
    big.url = "http://api.fleetsample.com/big";
    big.size_bytes = 600'000;
    big.ttl_minutes = 30;
    app.requests.push_back(std::move(big));
  }
  bed.host_app(app);
  auto& carol = add_registered_client(bed, app, "carol", 0);
  const std::string url = app.requests[0].url;

  ASSERT_TRUE(fetch_and_run(bed, carol, app.requests[2].url).success);  // -> block list
  ASSERT_TRUE(fetch_and_run(bed, carol, url).success);                  // warm AP0
  const FetchResult local = fetch_and_run(bed, carol, url);
  ASSERT_TRUE(local.success);
  ASSERT_EQ(local.source, Source::ApCache);
  ASSERT_TRUE(local.lookup_from_cache);  // flags are now client-cached

  bed.roam(carol, 1);
  EXPECT_EQ(carol.ap, 1u);

  // The cached answer points at the AP carol just left; the fetch goes to
  // AP1, which misses locally and relays from AP0 over the LAN.
  const FetchResult roamed = fetch_and_run(bed, carol, url);
  ASSERT_TRUE(roamed.success) << roamed.error;
  EXPECT_TRUE(roamed.lookup_from_cache);
  EXPECT_EQ(roamed.source, Source::ApPeer);
  EXPECT_GE(counter(bed, "ap.peer.hits"), 1u);
}

// --------------------------------------------------------------- SLO alert

// ----------------------------------------------------------------- tracing

TEST(FleetTracing, TracedPeerServeReconcilesWithDirectorySpans) {
  FleetParams params;
  params.ap_count = 2;
  params.enable_spans = true;
  params.dir_lease_interval = sim::seconds(1.0);
  FleetTestbed bed(params);
  const auto app = two_object_app();
  bed.host_app(app);
  auto& alice = add_registered_client(bed, app, "alice", 0);
  auto& bob = add_registered_client(bed, app, "bob", 1);
  const std::string url = app.requests[0].url;

  // Warm AP0, then serve bob's AP1 miss via the traced peer-relay path.
  const FetchResult warm = fetch_and_run(bed, alice, url);
  ASSERT_TRUE(warm.success) << warm.error;
  const FetchResult peer = fetch_and_run(bed, bob, url);
  ASSERT_TRUE(peer.success) << peer.error;
  EXPECT_EQ(peer.source, Source::ApPeer);

  // Let a lease round complete, stopping mid-interval so its root span
  // has collected every LEASEACK and closed.
  bed.simulator().run_until(bed.simulator().now() + sim::seconds(1.5));

  const auto& spans = bed.observer().spans().spans();
  const auto count_named = [&spans](const std::string& name) {
    return static_cast<std::size_t>(std::count_if(
        spans.begin(), spans.end(),
        [&name](const obs::Span& sp) { return sp.name == name; }));
  };
  EXPECT_GE(count_named("dir.lookup"), 1u);
  EXPECT_GE(count_named("dir.publish"), 1u);
  EXPECT_GE(count_named("dir.lease"), 1u);

  // The LOOKUP round trip is attributed under the AP's peer probe, so the
  // directory's share of peer-serve latency is separable from the relay's.
  bool lookup_under_probe = false;
  for (const obs::Span& sp : spans) {
    if (sp.name != "dir.lookup" || sp.parent == 0) continue;
    for (const obs::Span& parent : spans) {
      if (parent.id == sp.parent && parent.trace == sp.trace &&
          parent.name == "ap.peer_probe") {
        lookup_under_probe = true;
      }
    }
  }
  EXPECT_TRUE(lookup_under_probe);

  // Structural invariants hold and every trace's exclusive times sum
  // exactly to its root duration — the reconciliation that makes span
  // dumps trustworthy for latency attribution.
  const auto issues = obs::validate_spans(spans);
  EXPECT_TRUE(issues.empty()) << issues.size() << " span issue(s), first: "
                              << (issues.empty() ? "" : issues.front().what);
  for (const auto& trace : obs::attribute_traces(spans)) {
    EXPECT_TRUE(trace.reconciles)
        << "trace " << trace.trace << " does not reconcile";
  }
  // Traced runs export the same span bookkeeping as the single-AP testbed.
  bed.collect_metrics();
  EXPECT_EQ(bed.observer().metrics().gauges().count("obs.spans.open"), 1u);
}

TEST(FleetSlo, StaleRedirectAlertFiresInStalenessScenario) {
  FleetParams params;
  params.ap_count = 2;
  params.shard_count = 1;
  params.enable_timeline = true;
  params.timeline_interval = sim::milliseconds(300);
  // The condition that should HOLD: no stale redirects in a window.
  params.slo_rules = {"stale-redirects: dir.stale_redirects <= 0 over 1 windows"};
  FleetTestbed bed(params);
  const auto app = two_object_app();
  bed.host_app(app);
  auto& alice = add_registered_client(bed, app, "alice", 0);
  auto& bob = add_registered_client(bed, app, "bob", 1);
  const std::string url = app.requests[0].url;

  bed.start_timeline(bed.simulator().now() + sim::seconds(5.0));

  ASSERT_TRUE(fetch_and_run(bed, alice, url).success);
  const FetchResult first = fetch_and_run(bed, bob, url);
  ASSERT_EQ(first.source, Source::ApPeer);
  ASSERT_TRUE(bed.ap(0).data_cache().erase(cache_key(url)));
  const FetchResult stale = fetch_and_run(bed, bob, url);
  ASSERT_TRUE(stale.success);
  ASSERT_GE(counter(bed, "dir.stale_redirects"), 1u);

  // Let at least one timeline tick capture the window holding the stale
  // redirect, then flush the tail.
  bed.simulator().run_until(bed.simulator().now() + sim::seconds(1.0));
  bed.flush_timeline();

  EXPECT_GE(bed.slo().fired(), 1u);
  const auto& transitions = bed.slo().transitions();
  const bool alert_fired =
      std::any_of(transitions.begin(), transitions.end(), [](const obs::AlertTransition& t) {
        return t.rule == "stale-redirects" && t.to == obs::AlertState::Firing;
      });
  EXPECT_TRUE(alert_fired) << "no Firing transition for the stale-redirects rule";
}

// ------------------------------------------------------- cache analytics

TEST(FleetAnalytics, PerApPlanesReconcileAndExportGatedKeys) {
  FleetParams params;
  params.ap_count = 2;
  params.enable_analytics = true;
  FleetTestbed bed(params);
  const auto app = two_object_app();
  bed.host_app(app);
  auto& alice = add_registered_client(bed, app, "alice", 0);

  const std::string url = app.requests[0].url;
  ASSERT_TRUE(fetch_and_run(bed, alice, url).success);  // miss, fills AP0
  ASSERT_TRUE(fetch_and_run(bed, alice, url).success);  // local hit

  // One plane per AP, each reconciling exactly against its own runtime's
  // CacheStatistics.
  for (std::size_t i = 0; i < bed.ap_count(); ++i) {
    ASSERT_NE(bed.analytics(i), nullptr) << "ap" << i;
    const cache::CacheStatistics& stats = bed.ap(i).lookup_stats();
    EXPECT_TRUE(
        bed.analytics(i)->reconcile(stats.hits(), stats.misses(), stats.delegations()).empty())
        << "ap" << i;
  }
  EXPECT_GT(bed.analytics(0)->hits() + bed.analytics(0)->misses() +
                bed.analytics(0)->delegations(),
            0u);
  // The untouched AP observed nothing — per-AP planes don't share streams.
  EXPECT_EQ(bed.analytics(1)->hits() + bed.analytics(1)->misses() +
                bed.analytics(1)->delegations(),
            0u);

  bed.collect_metrics();
  const std::string json = obs::to_json(bed.observer().metrics());
  EXPECT_NE(json.find("fleet.ap0.cache.mrc.oracle.sampled"), std::string::npos);
  EXPECT_NE(json.find("fleet.ap0.cache.evict.capacity"), std::string::npos);
}

TEST(FleetAnalytics, DefaultFleetExportsNoAnalyticsKeys) {
  FleetParams params;
  params.ap_count = 2;
  FleetTestbed bed(params);
  const auto app = two_object_app();
  bed.host_app(app);
  auto& alice = add_registered_client(bed, app, "alice", 0);
  ASSERT_TRUE(fetch_and_run(bed, alice, app.requests[0].url).success);

  EXPECT_EQ(bed.analytics(0), nullptr);
  bed.collect_metrics();
  const std::string json = obs::to_json(bed.observer().metrics());
  EXPECT_EQ(json.find("cache.evict."), std::string::npos);
  EXPECT_EQ(json.find("cache.mrc."), std::string::npos);
}

// ----------------------------------------------------------- cache ledger

// The shared registry's ledger names carry the sum of the APs' own ledgers.
TEST(FleetLedger, SharedRegistryMirrorsTheSumOfApLedgers) {
  FleetParams params;
  params.ap_count = 4;
  params.enable_peer_probe = false;  // every AP fills and hits its own cache
  FleetTestbed bed(params);
  const auto app = two_object_app();
  bed.host_app(app);
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto& client = add_registered_client(bed, app, "client" + std::to_string(i), i);
    for (std::uint32_t round = 0; round <= i; ++round) {
      ASSERT_TRUE(fetch_and_run(bed, client, app.requests[0].url).success);
    }
    if (i % 2 == 0) ASSERT_TRUE(fetch_and_run(bed, client, app.requests[1].url).success);
  }
  bed.collect_metrics();

  std::uint64_t hits = 0, misses = 0, flags = 0, inserts = 0, delegations = 0;
  for (std::size_t i = 0; i < bed.ap_count(); ++i) {
    const cache::CacheStatistics& ledger = bed.ap(i).lookup_stats();
    hits += ledger.hits();
    misses += ledger.misses();
    flags += ledger.delegations();
    inserts += ledger.delegation_inserts();
    delegations += ledger.delegated_fetches();
  }
  ASSERT_GT(hits, bed.ap(0).lookup_stats().hits()) << "hits must come from several APs";
  ASSERT_GT(delegations, 0u);
  EXPECT_EQ(counter(bed, "ap.cache.hit"), hits);
  EXPECT_EQ(counter(bed, "ap.cache.miss"), misses);
  EXPECT_EQ(counter(bed, "ap.cache.delegation"), flags);
  EXPECT_EQ(counter(bed, "ap.cache.inserts"), inserts);
  EXPECT_EQ(counter(bed, "ap.delegations"), delegations);
}

// ------------------------------------------------------------ back half

// Both testbeds own one CdnBackend: a 1-AP fleet and the single-AP testbed
// serving the same fetch export identical dns.* and edge.* counters.
TEST(FleetBackHalf, OneApFleetExportsTheSingleApTestbedsBackHalfCounters) {
  const auto app = two_object_app();
  Testbed single{TestbedParams{}};
  single.host_app(app);
  auto& alice = single.add_client("alice");
  for (const auto& spec : app.cacheables()) alice.runtime->register_cacheable(spec);
  ASSERT_TRUE(fetch_and_run(single, alice, app.requests[0].url).success);
  single.collect_metrics();

  FleetParams params;
  params.ap_count = 1;
  params.enable_peer_probe = false;
  FleetTestbed fleet(params);
  fleet.host_app(app);
  auto& bob = add_registered_client(fleet, app, "bob", 0);
  ASSERT_TRUE(fetch_and_run(fleet, bob, app.requests[0].url).success);
  fleet.collect_metrics();

  const auto back_half = [](const obs::Observer& observer) {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, entry] : observer.metrics().counters()) {
      for (const char* prefix : {"dns.ldns.", "dns.adns.", "dns.cdn.", "edge."}) {
        if (name.starts_with(prefix)) out.emplace(name, entry.value());
      }
    }
    return out;
  };
  EXPECT_EQ(back_half(single.observer()).size(), 8u);
  EXPECT_EQ(back_half(fleet.observer()), back_half(single.observer()));
}

}  // namespace
}  // namespace ape::testbed
