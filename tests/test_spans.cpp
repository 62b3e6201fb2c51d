// Causal request tracing (DESIGN.md §5f): SpanLog semantics, structural
// validation, exact latency attribution, Perfetto export shape, and the
// end-to-end span trees the testbed produces on the hit / miss /
// Delegation / flash-promotion / AP-restart paths.  Plus the contract the
// whole subsystem hangs off: tracing *off* (the default) leaves exports
// byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/span.hpp"
#include "obs/span_log.hpp"
#include "obs/trace_export.hpp"
#include "testbed/experiment.hpp"
#include "workload/real_apps.hpp"

using namespace ape;

namespace {

sim::Time at(std::int64_t us) { return sim::Time{} + sim::microseconds(us); }

// --- SpanLog semantics ----------------------------------------------------

TEST(SpanLog, DisabledByDefaultMintsNothing) {
  obs::SpanLog log;
  EXPECT_FALSE(log.enabled());
  const auto root = log.open_root("client.request", "client", "app:1", at(0));
  EXPECT_FALSE(root.valid());
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(SpanLog, OpenCloseLifecycle) {
  obs::SpanLog log;
  log.set_enabled(true);
  const auto root = log.open_root("client.request", "client", "app:1", at(0));
  ASSERT_TRUE(root.valid());
  const auto child = log.open(root, "dns.query", "client", "movie.example", at(10));
  ASSERT_TRUE(child.valid());
  EXPECT_EQ(child.trace, root.trace);
  EXPECT_EQ(log.open_count(), 2u);

  log.close(child, at(40));
  log.close(root, at(100));
  EXPECT_EQ(log.open_count(), 0u);

  ASSERT_EQ(log.spans().size(), 2u);
  // span.id == index + 1 — the invariant the exporters lean on.
  EXPECT_EQ(log.spans()[0].id, 1u);
  EXPECT_EQ(log.spans()[1].id, 2u);
  EXPECT_EQ(log.spans()[1].parent, root.span);
  EXPECT_EQ(log.spans()[1].duration(), sim::microseconds(30));
}

TEST(SpanLog, NullParentYieldsNullContext) {
  obs::SpanLog log;
  log.set_enabled(true);
  // Only explicit roots start traces: a child under nothing is refused, so
  // un-traced inbound messages never mint orphan trees.
  const auto orphan = log.open(obs::TraceContext{}, "ap.lookup", "ap", "k", at(0));
  EXPECT_FALSE(orphan.valid());
  EXPECT_EQ(log.recorded(), 0u);
}

TEST(SpanLog, CapacityDropsNewestNotOldest) {
  obs::SpanLog log(/*capacity=*/2);
  log.set_enabled(true);
  const auto a = log.open_root("client.request", "client", "a", at(0));
  const auto b = log.open(a, "dns.query", "client", "b", at(1));
  const auto c = log.open(b, "ap.lookup", "ap", "c", at(2));
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(c.valid());  // refused, not overwritten over `a`
  EXPECT_EQ(log.recorded(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  // The survivors are ancestor-complete: `b`'s parent is still in the log.
  EXPECT_EQ(log.spans()[1].parent, a.span);
}

TEST(SpanLog, CloseIsIdempotentAndNullSafe) {
  obs::SpanLog log;
  log.set_enabled(true);
  const auto root = log.open_root("client.request", "client", "a", at(0));
  log.close(root, at(50));
  log.close(root, at(999));  // first close wins
  EXPECT_EQ(log.spans()[0].end, at(50));
  log.close(obs::TraceContext{}, at(10));                 // null: no-op
  log.close(obs::TraceContext{12345, 678}, at(10));       // unknown: no-op
  EXPECT_EQ(log.open_count(), 0u);
}

TEST(SpanLog, AmbientStackBridgesSynchronousCalls) {
  obs::SpanLog log;
  log.set_enabled(true);
  EXPECT_FALSE(log.current_context().valid());
  const auto root = log.open_root("client.request", "client", "a", at(0));
  {
    obs::ScopedTraceContext scope(&log, root);
    EXPECT_EQ(log.current_context(), root);
  }
  EXPECT_FALSE(log.current_context().valid());
  // Inert on null logs and null contexts.
  { obs::ScopedTraceContext scope(nullptr, root); }
  { obs::ScopedTraceContext scope(&log, obs::TraceContext{}); }
  EXPECT_FALSE(log.current_context().valid());
}

TEST(TraceContext, EncodeDecodeRoundTrip) {
  const obs::TraceContext ctx{7, 42};
  const auto wire = obs::encode_trace_context(ctx);
  EXPECT_EQ(obs::decode_trace_context(wire), ctx);
  EXPECT_FALSE(obs::decode_trace_context("").valid());
  EXPECT_FALSE(obs::decode_trace_context("7").valid());
  EXPECT_FALSE(obs::decode_trace_context("x-y").valid());
}

// --- validation + attribution over hand-built dumps -----------------------

obs::Span make_span(obs::TraceId trace, obs::SpanId id, obs::SpanId parent,
                    const std::string& name, std::int64_t start_us, std::int64_t end_us,
                    bool closed = true) {
  obs::Span s;
  s.trace = trace;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.component = "test";
  s.start = at(start_us);
  s.end = at(end_us);
  s.closed = closed;
  return s;
}

TEST(SpanValidation, AcceptsProperTreeAndReconcilesExactly) {
  std::vector<obs::Span> spans{
      make_span(1, 1, 0, "client.request", 0, 100),
      make_span(1, 2, 1, "dns.query", 10, 40),
      make_span(1, 3, 1, "http.fetch", 40, 90),
      make_span(1, 4, 3, "net.connect", 45, 55),
  };
  EXPECT_TRUE(obs::validate_spans(spans).empty());

  const auto traces = obs::attribute_traces(spans);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces[0].reconciles);
  EXPECT_EQ(traces[0].end_to_end, sim::microseconds(100));
  EXPECT_EQ(traces[0].exclusive_sum, sim::microseconds(100));
  // root: 100 - (30 + 50) = 20; fetch: 50 - 10 = 40.
  EXPECT_EQ(traces[0].rows[0].exclusive, sim::microseconds(20));
  EXPECT_EQ(traces[0].rows[2].exclusive, sim::microseconds(40));
}

TEST(SpanValidation, FlagsUnclosedSpan) {
  std::vector<obs::Span> spans{
      make_span(1, 1, 0, "client.request", 0, 100),
      make_span(1, 2, 1, "dns.query", 10, 10, /*closed=*/false),
  };
  EXPECT_FALSE(obs::validate_spans(spans).empty());
}

TEST(SpanValidation, FlagsSiblingOverlap) {
  std::vector<obs::Span> spans{
      make_span(1, 1, 0, "client.request", 0, 100),
      make_span(1, 2, 1, "dns.query", 10, 50),
      make_span(1, 3, 1, "http.fetch", 40, 90),  // overlaps [40,50)
  };
  EXPECT_FALSE(obs::validate_spans(spans).empty());
  // Note the *sums* still cancel (the overlap is counted twice in the
  // children and subtracted twice from the root) — which is precisely why
  // exact attribution is only meaningful after validate_spans passes.
}

TEST(SpanValidation, FlagsChildEscapingParent) {
  std::vector<obs::Span> spans{
      make_span(1, 1, 0, "client.request", 0, 100),
      make_span(1, 2, 1, "dns.query", 90, 120),  // past parent's end
  };
  EXPECT_FALSE(obs::validate_spans(spans).empty());
}

TEST(SpanValidation, FlagsMultipleRootsAndOrphans) {
  std::vector<obs::Span> two_roots{
      make_span(1, 1, 0, "client.request", 0, 100),
      make_span(1, 2, 0, "client.request", 10, 90),
  };
  EXPECT_FALSE(obs::validate_spans(two_roots).empty());

  std::vector<obs::Span> orphan{
      make_span(1, 1, 0, "client.request", 0, 100),
      make_span(1, 2, 77, "dns.query", 10, 40),  // parent id 77 not in dump
  };
  EXPECT_FALSE(obs::validate_spans(orphan).empty());
}

// --- end-to-end span trees through the testbed ----------------------------

core::ClientRuntime::FetchResult fetch_one(testbed::Testbed& bed,
                                           testbed::Testbed::Client& client,
                                           const std::string& url) {
  core::ClientRuntime::FetchResult out;
  client.runtime->fetch(url, [&out](core::ClientRuntime::FetchResult r) { out = r; });
  bed.simulator().run();
  return out;
}

// Asserts the full dump validates and every trace reconciles exactly —
// the acceptance bar for the tracing subsystem.
void expect_all_reconcile(const testbed::Testbed& bed) {
  const auto& spans = bed.observer().spans().spans();
  const auto issues = obs::validate_spans(spans);
  for (const auto& issue : issues) {
    ADD_FAILURE() << "trace " << issue.trace << " span " << issue.span << ": " << issue.what;
  }
  for (const auto& trace : obs::attribute_traces(spans)) {
    EXPECT_TRUE(trace.reconciles)
        << "trace " << trace.trace << ": exclusive sum " << trace.exclusive_sum.count()
        << "us != end-to-end " << trace.end_to_end.count() << "us";
  }
}

std::set<std::string> span_kinds(const testbed::Testbed& bed) {
  std::set<std::string> kinds;
  for (const auto& s : bed.observer().spans().spans()) kinds.insert(s.name);
  return kinds;
}

struct TracedFixture : ::testing::Test {
  std::unique_ptr<testbed::Testbed> bed;
  testbed::Testbed::Client* client = nullptr;
  workload::AppSpec app = workload::make_movie_trailer();

  void build(testbed::TestbedParams params) {
    params.enable_spans = true;
    bed = std::make_unique<testbed::Testbed>(params);
    bed->host_app(app);
    client = &bed->add_client("phone");
    for (auto& spec : app.cacheables()) client->runtime->register_cacheable(spec);
  }
};

TEST_F(TracedFixture, MissThenHitProduceReconcilingTrees) {
  build(testbed::TestbedParams{});
  ASSERT_TRUE(fetch_one(*bed, *client, app.requests[0].url).success);  // miss/delegation
  const auto hit = fetch_one(*bed, *client, app.requests[0].url);      // AP hit
  ASSERT_TRUE(hit.success);
  EXPECT_EQ(hit.source, core::ClientRuntime::Source::ApCache);

  expect_all_reconcile(*bed);
  const auto kinds = span_kinds(*bed);
  EXPECT_TRUE(kinds.count("client.request"));
  EXPECT_TRUE(kinds.count("dns.query"));
  EXPECT_TRUE(kinds.count("ap.lookup"));
  EXPECT_TRUE(kinds.count("ap.serve"));  // the hit was served by the AP
  EXPECT_TRUE(kinds.count("net.connect"));
  EXPECT_EQ(bed->observer().spans().open_count(), 0u);  // nothing leaks
}

TEST_F(TracedFixture, DelegationTraceCrossesAllHops) {
  build(testbed::TestbedParams{});
  ASSERT_TRUE(fetch_one(*bed, *client, app.requests[0].url).success);
  expect_all_reconcile(*bed);

  // The delegated pull must stitch one causal chain from the client's root
  // through the AP's fetch to the edge's serve: walk edge.serve's parents
  // up to the root and record what the chain passes through.
  const auto& spans = bed->observer().spans().spans();
  const auto edge_it = std::find_if(spans.begin(), spans.end(),
                                    [](const obs::Span& s) { return s.name == "edge.serve"; });
  ASSERT_NE(edge_it, spans.end()) << "delegated fetch must reach the edge";
  std::set<std::string> chain;
  const obs::Span* cursor = &*edge_it;
  while (true) {
    chain.insert(cursor->name);
    if (cursor->parent == 0) break;
    ASSERT_LE(cursor->parent, spans.size());
    cursor = &spans[cursor->parent - 1];  // id == index + 1
  }
  EXPECT_TRUE(chain.count("client.request"));  // reached the client's root
  EXPECT_TRUE(chain.count("ap.delegate"));
  EXPECT_TRUE(chain.count("http.fetch"));
}

TEST_F(TracedFixture, PacmSolveSpansRideTheInsertPath) {
  testbed::TestbedParams params;
  // RAM too small for the app's objects: inserts evict, and under the
  // default PACM policy each eviction decision is a traced solve.
  params.ape.cache_capacity_bytes = 10'000;
  build(params);
  // Two passes: the tight cache evicts earlier objects, so the second pass
  // re-delegates URLs the AP already holds an l_d estimate for — which is
  // what feeds the pacm.latency_estimate_error_ms histogram.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& request : app.requests) (void)fetch_one(*bed, *client, request.url);
  }

  expect_all_reconcile(*bed);
  const auto& spans = bed->observer().spans().spans();
  bool saw_solve = false;
  for (const auto& s : spans) {
    if (s.name != "pacm.solve") continue;
    saw_solve = true;
    EXPECT_EQ(s.duration(), sim::Duration{0});  // synchronous marker span
    EXPECT_NE(s.parent, 0u) << "solve must parent under the inserting hop";
  }
  EXPECT_TRUE(saw_solve);
  // Satellite: the PACM estimate-error histogram only exists when traced.
  bed->collect_metrics();
  EXPECT_TRUE(bed->observer().metrics().histograms().count("pacm.latency_estimate_error_ms"));
}

testbed::TestbedParams tiered_traced_params() {
  testbed::TestbedParams params;
  params.policy_override = core::ApRuntime::Policy::Lru;  // deterministic demotions
  params.ape.cache_capacity_bytes = 20'000;
  params.ape.flash_capacity_bytes = 5'000'000;
  return params;
}

TEST_F(TracedFixture, FlashPromotionTraced) {
  build(tiered_traced_params());
  for (const auto& request : app.requests) (void)fetch_one(*bed, *client, request.url);
  ASSERT_GT(bed->ap().flash_tier()->entry_count(), 0u) << "workload must spill into flash";
  // Re-fetch: demoted objects come back via flash reads (and promotions).
  for (const auto& request : app.requests) (void)fetch_one(*bed, *client, request.url);
  ASSERT_GT(bed->ap().tiered_store()->flash_hits(), 0u);

  expect_all_reconcile(*bed);
  EXPECT_TRUE(span_kinds(*bed).count("ap.flash.read"));
  // A flash read nests inside the AP's serve span of the same trace.
  const auto& spans = bed->observer().spans().spans();
  for (const auto& s : spans) {
    if (s.name != "ap.flash.read") continue;
    ASSERT_NE(s.parent, 0u);
    EXPECT_EQ(spans[s.parent - 1].name, "ap.serve");
  }
}

TEST_F(TracedFixture, TracingSurvivesApRestart) {
  build(tiered_traced_params());
  for (const auto& request : app.requests) (void)fetch_one(*bed, *client, request.url);
  bed->restart_ap(/*preserve_flash=*/true);

  auto& phone2 = bed->add_client("phone2");
  for (auto& spec : app.cacheables()) phone2.runtime->register_cacheable(spec);
  for (const auto& request : app.requests) {
    EXPECT_TRUE(fetch_one(*bed, phone2, request.url).success);
  }
  expect_all_reconcile(*bed);
  EXPECT_EQ(bed->observer().spans().open_count(), 0u);
  EXPECT_TRUE(span_kinds(*bed).count("ap.flash.read"));  // recovered flash serves
}

// --- the byte-identity contract -------------------------------------------

std::string default_run_json() {
  testbed::Testbed bed{testbed::TestbedParams{}};
  const auto app = workload::make_movie_trailer();
  bed.host_app(app);
  auto& client = bed.add_client("phone");
  for (auto spec : app.cacheables()) client.runtime->register_cacheable(spec);
  for (const auto& request : app.requests) (void)fetch_one(bed, client, request.url);
  bed.collect_metrics();
  return obs::to_json(bed.observer().metrics());
}

TEST(SpanByteIdentity, DefaultRunsExportIdenticallyAndCarryNoSpanKeys) {
  const auto first = default_run_json();
  const auto second = default_run_json();
  EXPECT_EQ(first, second);
  // Tracing off: no span-derived metrics may appear anywhere in the export.
  EXPECT_EQ(first.find("span."), std::string::npos);
  EXPECT_EQ(first.find("obs.spans"), std::string::npos);
  EXPECT_EQ(first.find("pacm.latency_estimate_error_ms"), std::string::npos);
}

TEST_F(TracedFixture, RepeatedCollectMetricsDoesNotDoubleCount) {
  build(testbed::TestbedParams{});
  ASSERT_TRUE(fetch_one(*bed, *client, app.requests[0].url).success);
  bed->collect_metrics();
  const auto& hist = bed->observer().metrics().histogram("span.client.request_ms", "ms");
  const auto count = hist.count();
  ASSERT_GT(count, 0u);
  bed->collect_metrics();  // each closed span is folded once
  EXPECT_EQ(hist.count(), count);
}

// Timeline ticks call collect_metrics while spans are still open; each
// closed span must still reach its span.<name>_ms histogram exactly once,
// however fine the tick, and a span left open across the whole run must
// hold back no span closed after it.
TEST(SpanMetrics, TimelineTicksFoldEveryClosedSpanOnce) {
  const auto folded_spans = [](const testbed::Testbed& bed) {
    std::uint64_t folded = 0;
    for (const auto& [name, entry] : bed.observer().metrics().histograms()) {
      if (name.starts_with("span.") && name.ends_with("_ms")) folded += entry.histogram.count();
    }
    return folded;
  };
  for (const bool leave_one_open : {false, true}) {
    for (const sim::Duration tick : {sim::milliseconds(7), sim::seconds(5.0)}) {
      SCOPED_TRACE(testing::Message() << "tick " << sim::to_millis(tick) << " ms, "
                                      << (leave_one_open ? "one span left open" : "drained"));
      testbed::TestbedParams params;
      params.enable_spans = true;
      params.enable_timeline = true;
      params.timeline_interval = tick;
      testbed::Testbed bed(params);
      obs::SpanLog& log = bed.observer().spans();
      obs::TraceContext straggler;
      if (leave_one_open) {
        straggler = log.open_root("test.straggler", "test", "", bed.simulator().now());
      }
      const std::vector<workload::AppSpec> apps{workload::make_movie_trailer()};
      testbed::WorkloadConfig config;
      config.duration = sim::minutes(2.0);
      (void)testbed::run_workload(bed, apps, config);

      ASSERT_EQ(log.open_count(), leave_one_open ? 1u : 0u);
      ASSERT_EQ(log.dropped(), 0u);
      ASSERT_GT(log.recorded(), 100u);
      EXPECT_EQ(folded_spans(bed), log.recorded() - log.open_count());
      if (!leave_one_open) continue;
      log.close(straggler, bed.simulator().now());
      bed.collect_metrics();
      EXPECT_EQ(folded_spans(bed), log.recorded());
      EXPECT_EQ(bed.observer().metrics().histogram("span.test.straggler_ms", "ms").count(), 1u);
    }
  }
}

// --- Perfetto export -------------------------------------------------------

TEST_F(TracedFixture, PerfettoExportIsDeterministicAndWellFormed) {
  build(testbed::TestbedParams{});
  ASSERT_TRUE(fetch_one(*bed, *client, app.requests[0].url).success);

  obs::PerfettoExportOptions options;
  options.meta["test"] = "spans";
  const auto json = obs::to_perfetto_json(bed->observer().spans().spans(), options);
  EXPECT_EQ(json, obs::to_perfetto_json(bed->observer().spans().spans(), options));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"client.request\""), std::string::npos);
  // No wall-clock anywhere: ts/dur are integer sim-microseconds.
  EXPECT_EQ(json.find("e+"), std::string::npos);
}

}  // namespace
