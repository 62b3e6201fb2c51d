// End-to-end benchmark harness: one workload per process, one JSON result
// line on stdout.  Usage:
//
//   perfbench_harness --workload <paper-pacm|paper-lru|tiered-churn>
//                     --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 (timed runs, every plane off): repeats the seeded episode for
//   --seconds of host time and reports the end-to-end metrics.
// --trace 1 (per-layer runs): repeated untraced / engine-profiler / span
//   episode triples, then the layer replays; reports the per-layer metrics.
//
// Every run checks the program's outputs (checks.cpp) outside the timed
// phase and self-tests each check with a planted error.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/profile.hpp"
#include "sim/event_kind.hpp"
#include "sim/rng.hpp"
#include "testbed/app_driver.hpp"
#include "workload/app_generator.hpp"
#include "workload/arrivals.hpp"
#include "workload/real_apps.hpp"

namespace perfbench {

namespace sim = ape::sim;
namespace tb = ape::testbed;

namespace {

// Simulated length of one episode.  30 apps at 3 runs/min/app give about
// 90 app runs per simulated minute, so 20 minutes yield ~1,800 runs: p99
// has ~18 samples beyond it.
constexpr double kSimMinutes = 20.0;
// In-flight runs (worst case: delegation + timeouts) finish inside this.
constexpr double kGraceSeconds = 30.0;
constexpr std::uint64_t kArrivalSalt = 0x5DEECE66DULL;
// A run pools this many app suites, each generated from its own sub-seed,
// so one seed's draw of object sizes moves the figures less.
constexpr std::size_t kSuites = 4;
// Share of a traced run's budget spent on repeated plane triples; the
// layer replays take the rest.
constexpr double kTracedShare = 0.8;
// setup_s is a median over at least this many set-ups per run.
constexpr std::size_t kMinSetupSamples = 25;

using Clock = std::chrono::steady_clock;

// Sub-seed of suite `k` (splitmix64 of the run seed), so that no two run
// seeds share a suite.
std::uint64_t suite_seed(std::uint64_t seed, std::size_t k) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<WorkloadDef> make_workloads() {
  std::vector<WorkloadDef> defs;
  {
    WorkloadDef d;
    d.name = "paper-pacm";
    d.params.system = tb::System::ApeCache;
    d.pacm = true;
    defs.push_back(d);
  }
  {
    WorkloadDef d;
    d.name = "paper-lru";
    d.params.system = tb::System::ApeCacheLru;
    defs.push_back(d);
  }
  {
    WorkloadDef d;
    d.name = "tiered-churn";
    d.params.system = tb::System::ApeCache;
    d.params.ape.cache_capacity_bytes = 1 * 1000 * 1000;
    d.params.ape.flash_capacity_bytes = 16 * 1000 * 1000;
    d.params.ape.sweep_interval = sim::minutes(1);
    d.pacm = true;
    d.tiered = true;
    defs.push_back(d);
  }
  return defs;
}

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = make_workloads();
  return defs;
}

// The paper's 30-app suite (Sec. V-A): MovieTrailer, VirtualHome and 28
// generated apps with objects of 1-100 kB, plus Poisson arrivals at a mean
// 3 runs/min/app with Zipf(0.8) app popularity, pre-rolled to the horizon.
Inputs make_inputs(std::uint64_t seed) {
  const auto t0 = Clock::now();
  Inputs in;
  in.apps.push_back(ape::workload::make_movie_trailer());
  in.apps.push_back(ape::workload::make_virtual_home());
  ape::workload::GeneratorParams gen;
  gen.app_count = 28;
  gen.max_object_bytes = 100 * 1000;
  sim::Rng app_rng(seed);
  for (auto& app : ape::workload::generate_apps(gen, app_rng)) in.apps.push_back(std::move(app));

  sim::Rng arrival_rng(seed ^ kArrivalSalt);
  ape::workload::ArrivalSchedule schedule(in.apps.size(), 3.0, 0.8, arrival_rng);
  const sim::Time horizon{sim::minutes(kSimMinutes)};
  while (auto a = schedule.next(horizon)) {
    in.arrivals.push_back(Inputs::Arrival{a->at.since_epoch.count(), a->app_index});
  }

  in.object_of.resize(in.apps.size());
  for (std::size_t a = 0; a < in.apps.size(); ++a) {
    const auto& app = in.apps[a];
    const auto cacheables = app.cacheables();
    for (std::size_t r = 0; r < app.requests.size(); ++r) {
      const auto& req = app.requests[r];
      Inputs::Object obj;
      obj.key = cacheables[r].id;
      obj.app = a;
      obj.size_bytes = req.size_bytes;
      obj.priority = req.priority;
      obj.ttl_minutes = req.ttl_minutes;
      obj.retrieval_ms = sim::to_millis(req.retrieval_latency);
      const auto id = static_cast<std::uint32_t>(in.objects.size());
      if (!in.object_of[a].emplace(req.name, id).second) {
        std::fprintf(stderr, "perfbench: app %s repeats request name %s\n", app.name.c_str(),
                     req.name.c_str());
        std::exit(2);
      }
      in.objects.push_back(std::move(obj));
    }
  }
  in.generate_ms = seconds_since(t0) * 1e3;
  return in;
}

// Exclusive time of every span: its duration minus the union of its
// children's intervals clipped to it.  Summed over a trace this equals the
// root's duration exactly when children nest and siblings never overlap.
void attribute_spans(const std::vector<ape::obs::Span>& spans, Episode& ep) {
  std::map<ape::obs::SpanId, std::vector<const ape::obs::Span*>> children;
  std::map<ape::obs::TraceId, const ape::obs::Span*> roots;
  std::map<ape::obs::TraceId, std::int64_t> exclusive_sum;
  bool unclosed = false;
  for (const auto& s : spans) {
    if (!s.closed) unclosed = true;
    if (s.parent == 0) {
      // A second root makes the trace malformed: it then never reconciles.
      auto [it, fresh] = roots.emplace(s.trace, &s);
      if (!fresh) it->second = nullptr;
    } else {
      children[s.parent].push_back(&s);
    }
  }
  for (const auto& s : spans) {
    const std::int64_t lo = s.start.since_epoch.count();
    const std::int64_t hi = s.end.since_epoch.count();
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const auto* c : it->second) {
        iv.emplace_back(std::max(lo, c->start.since_epoch.count()),
                        std::min(hi, c->end.since_epoch.count()));
      }
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = -1;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (!open || a > cur_hi) {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      } else {
        cur_hi = std::max(cur_hi, b);
      }
    }
    if (open) covered += cur_hi - cur_lo;
    const std::int64_t excl = (hi - lo) - covered;
    ep.span_exclusive_us[s.name] += excl;
    exclusive_sum[s.trace] += excl;
  }
  ep.traces = roots.size();
  for (const auto& [trace, root] : roots) {
    if (root == nullptr || unclosed) continue;
    if (exclusive_sum[trace] == root->duration().count()) ++ep.traces_reconciled;
    if (root->name == "client.request") {
      ++ep.request_traces;
      ep.request_root_us += root->duration().count();
    }
  }
}

Episode run_episode(const WorkloadDef& def, std::uint64_t seed, Plane plane) {
  Episode ep;
  const auto setup_t0 = Clock::now();
  const Inputs in = make_inputs(seed);

  tb::TestbedParams params = def.params;
  if (plane == Plane::Spans) {
    params.enable_spans = true;
    params.span_capacity = std::size_t{1} << 23;
  }
  const auto build_t0 = Clock::now();
  auto testbed = std::make_unique<tb::Testbed>(params);
  ep.build_ms = seconds_since(build_t0) * 1e3;
  tb::Testbed::Client& client = testbed->add_client("client-0");

  std::vector<std::unique_ptr<tb::AppDriver>> drivers;
  drivers.reserve(in.apps.size());
  for (const auto& app : in.apps) {
    testbed->host_app(app);
    for (auto& spec : app.cacheables()) client.runtime->register_cacheable(spec);
    drivers.push_back(
        std::make_unique<tb::AppDriver>(testbed->simulator(), app, *client.fetcher));
  }

  ape::core::ApRuntime& ap = testbed->ap();
  auto sample_store = [&ep, &ap] {
    ep.ram_peak = std::max(ep.ram_peak, ap.data_cache().used_bytes());
    if (const auto* flash = ap.flash_tier(); flash != nullptr) {
      ep.flash_peak = std::max(ep.flash_peak, flash->physical_bytes());
    }
  };
  ep.runs.reserve(in.arrivals.size());
  auto record_run = [&ep, &in, &sample_store](std::uint32_t app, tb::AppRunResult run) {
    ep.runs.push_back(RunRec{app, run.app_latency.count(), run.fetches, run.failures});
    for (const auto& obj : run.objects) {
      const auto& r = obj.result;
      const auto it = in.object_of[app].find(obj.request_name);
      FetchRec f;
      f.object = it == in.object_of[app].end() ? ~std::uint32_t{0} : it->second;
      f.source = r.source;
      f.success = r.success;
      f.lookup_cached = r.lookup_from_cache;
      f.lookup_us = r.lookup_latency.count();
      f.retrieval_us = r.retrieval_latency.count();
      f.total_us = r.total.count();
      f.bytes = r.bytes;
      ep.fetches.push_back(f);
    }
    sample_store();
  };
  sim::Simulator& sim = testbed->simulator();
  for (const auto& a : in.arrivals) {
    tb::AppDriver* driver = drivers[a.app].get();
    const auto app = static_cast<std::uint32_t>(a.app);
    sim.schedule_at(
        sim::Time{sim::microseconds(a.at_us)},
        [driver, app, &record_run] {
          driver->run_once([app, &record_run](tb::AppRunResult r) { record_run(app, std::move(r)); });
        },
        APE_EVT("client.app.arrive"));
  }
  ep.scheduled_runs = in.arrivals.size();
  ep.setup_s = seconds_since(setup_t0);

  std::optional<ape::obs::EngineProfiler> profiler;
  if (plane == Plane::Profile) {
    testbed->observer().enable_wallclock(true);
    profiler.emplace(sim);
    profiler->follow_wallclock(testbed->observer());
  }

  const auto run_t0 = Clock::now();
  sim.run_until(sim::Time{sim::minutes(kSimMinutes) + sim::seconds(kGraceSeconds)});
  ep.timed_s = seconds_since(run_t0);

  sample_store();
  testbed->collect_metrics();
  ep.metrics = testbed->observer().metrics();
  ep.events_fired = sim.events_fired();
  ep.queue_high_water = sim.queue_high_water();
  ep.heap_fallbacks = sim.smallfn_heap_fallbacks();
  ep.datagrams_sent = testbed->network().counters().datagrams_sent;
  ep.bytes_copied = testbed->network().counters().bytes_copied;
  ep.tcp_requests = testbed->tcp().counters().requests_sent;
  ep.ap_cpu_busy_ms = sim::to_millis(ap.cpu().busy_time());
  ep.ap_cpu_jobs = ap.cpu().jobs_completed();
  ep.ap_memory_bytes = ap.memory_bytes();
  ep.ram_capacity = ap.data_cache().capacity_bytes();
  if (const auto* flash = ap.flash_tier(); flash != nullptr) {
    ep.flash_capacity = flash->capacity_bytes();
  }
  ep.wifi_one_way_us = params.wifi_one_way.count();
  ep.wifi_bandwidth = params.wifi_bandwidth;

  if (profiler) {
    for (const auto& row : profiler->rows()) {
      ep.kinds[row.name] = KindCost{row.profile.fired, row.profile.fire_wall_ns};
    }
  }
  if (plane == Plane::Spans) {
    ep.span_dropped = testbed->observer().spans().dropped();
    attribute_spans(testbed->observer().spans().spans(), ep);
  }
  return ep;
}

std::uint64_t counter(const Episode& ep, const std::string& name) {
  const auto& c = ep.metrics.counters();
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second.value();
}

const ape::stats::Histogram* histogram(const Episode& ep, const std::string& name) {
  const auto& h = ep.metrics.histograms();
  const auto it = h.find(name);
  return it == h.end() ? nullptr : &it->second.histogram;
}

double per(double num, double den, double scale = 1.0) {
  return den == 0.0 ? 0.0 : num / den * scale;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// --- result line --------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// Reports one check run on real results (`why`) and on results carrying a
// planted error (`planted`): the first must pass, the second must fail.
bool verdict(const char* name, const std::string& why, const std::string& planted) {
  bool ok = true;
  if (!why.empty()) {
    std::fprintf(stderr, "CHECK FAILED %s: %s\n", name, why.c_str());
    ok = false;
  }
  if (planted.empty()) {
    std::fprintf(stderr, "CHECK SELF-TEST FAILED %s: planted error not detected\n", name);
    ok = false;
  }
  return ok;
}

std::string figures_agree(const SimFigures& a, const SimFigures& b) {
  return a == b ? std::string{} : "simulated figures differ between runs of one seed";
}

SimFigures planted_figures(SimFigures f) {
  ++f.ap_hits;
  return f;
}

std::string spans_reconcile(const Episode& ep) {
  if (ep.span_dropped != 0 || ep.traces == 0 || ep.traces_reconciled != ep.traces) {
    return std::to_string(ep.traces_reconciled) + " of " + std::to_string(ep.traces) +
           " traces reconcile (" + std::to_string(ep.span_dropped) + " spans dropped)";
  }
  return {};
}

// One trace whose two children overlap: its exclusive times overcount.
Episode planted_overlap() {
  auto span = [](ape::obs::SpanId id, ape::obs::SpanId parent, std::int64_t lo, std::int64_t hi) {
    ape::obs::Span s;
    s.trace = 1;
    s.id = id;
    s.parent = parent;
    s.name = parent == 0 ? "client.request" : "http.fetch";
    s.start = sim::Time{sim::microseconds(lo)};
    s.end = sim::Time{sim::microseconds(hi)};
    s.closed = true;
    return s;
  };
  Episode ep;
  attribute_spans({span(1, 0, 0, 10), span(2, 1, 2, 6), span(3, 1, 5, 8)}, ep);
  return ep;
}

// Every fetch is one client.request trace, whose root spans exactly the
// latency the client measured.
std::string spans_cover_fetches(std::size_t traces, std::int64_t root_us,
                                const std::vector<FetchRec>& fetches) {
  std::int64_t fetch_us = 0;
  for (const auto& f : fetches) fetch_us += f.total_us;
  if (traces != fetches.size() || root_us != fetch_us) {
    return std::to_string(traces) + " request traces spanning " + std::to_string(root_us) +
           " us, " + std::to_string(fetches.size()) + " fetches taking " +
           std::to_string(fetch_us) + " us";
  }
  return {};
}

// Runs every output check, then re-runs each against a copy of the
// episode with that check's planted error: a check that still passes there
// is broken, which also fails the run.
bool check_episode(const WorkloadDef& def, const Inputs& in, const Episode& ep) {
  bool ok = true;
  for (const auto& check : episode_checks()) {
    if (check.ram_pacm_only && (!def.pacm || def.tiered)) continue;
    Episode planted = ep;
    check.plant(in, planted);
    ok = verdict(check.name.c_str(), check.run(def, in, ep), check.run(def, in, planted)) && ok;
  }
  for (const auto& why : check_knapsack(def, in, 8)) {
    std::fprintf(stderr, "CHECK FAILED knapsack_oracle: %s\n", why.c_str());
    ok = false;
  }
  if (!knapsack_check_self_test()) {
    std::fprintf(stderr, "CHECK SELF-TEST FAILED knapsack_oracle: planted error not detected\n");
    ok = false;
  }
  return ok;
}

std::size_t failed_fetches(const Episode& ep) {
  std::size_t n = 0;
  for (const auto& f : ep.fetches) n += f.success ? 0 : 1;
  return n;
}

// VmHWM, the high-water resident set of this program image.  Not
// getrusage's ru_maxrss: Linux carries that across exec, so it would include
// whatever the parent (e.g. the Python launcher) had resident at fork.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(status);
  return kib * 1024.0 / 1e6;
}

void print_figures(const char* label, const SimFigures& f) {
  std::printf(
      "%s: app runs %zu, fetches %zu | latency p50 %.3f ms p99 %.3f ms (over %zu runs) | "
      "hit %zu/%zu = %.4f | hp hit %zu/%zu = %.4f | ap cpu %.4f ms/fetch | ap mem %.3f MB\n",
      label, f.app_runs, f.fetches, f.latency_p50_ms, f.latency_p99_ms, f.app_runs, f.ap_hits,
      f.fetches, f.hit_ratio, f.hp_hits, f.hp_fetches, f.hp_hit_ratio, f.ap_cpu_ms_per_fetch,
      f.ap_mem_mb);
}

int run_timed(const WorkloadDef& def, std::uint64_t seed, double budget_s) {
  const auto t0 = Clock::now();
  std::vector<Inputs> inputs;
  std::vector<Episode> first;  // the first round, one episode per suite
  std::vector<std::vector<double>> times(kSuites);
  std::vector<double> setups;
  std::size_t attempted = 0, failed = 0;
  double rss_mb = 0.0;
  for (std::size_t k = 0; k < kSuites; ++k) {
    inputs.push_back(make_inputs(suite_seed(seed, k)));
    first.push_back(run_episode(def, suite_seed(seed, k), Plane::None));
    // Peak resident set over set-up and one whole episode, read before the
    // harness's records of later episodes, its checks and repeats add to it.
    if (k == 0) rss_mb = peak_rss_mb();
  }
  const SimFigures figures = pooled_figures(inputs, first);
  for (std::size_t k = 0; k < kSuites; ++k) {
    times[k].push_back(first[k].timed_s);

    setups.push_back(first[k].setup_s);
    attempted += first[k].fetches.size();
    failed += failed_fetches(first[k]);
  }
  std::string repeat_differs;
  // Whole rounds until the budget is spent; each repeats the first round
  // exactly, which is itself checked.
  std::size_t rounds = 1;
  while (seconds_since(t0) < budget_s) {
    for (std::size_t k = 0; k < kSuites; ++k) {
      const Episode ep = run_episode(def, suite_seed(seed, k), Plane::None);
      if (repeat_differs.empty()) {
        repeat_differs = figures_agree(sim_figures(inputs[k], first[k]), sim_figures(inputs[k], ep));
      }
      times[k].push_back(ep.timed_s);

      setups.push_back(ep.setup_s);
      attempted += ep.fetches.size();
      failed += failed_fetches(ep);
    }
    ++rounds;
  }
  // Extra set-ups (no simulation) so the set-up median has enough samples.
  for (std::size_t i = 0; setups.size() < kMinSetupSamples; ++i) {
    const auto s0 = Clock::now();
    const Inputs extra = make_inputs(suite_seed(seed, i % kSuites));
    auto testbed = std::make_unique<tb::Testbed>(def.params);
    auto& client = testbed->add_client("client-0");
    for (const auto& app : extra.apps) {
      testbed->host_app(app);
      for (auto& spec : app.cacheables()) client.runtime->register_cacheable(spec);
    }
    setups.push_back(seconds_since(s0));
  }

  bool correct = verdict("determinism", repeat_differs,
                         figures_agree(figures, planted_figures(figures)));
  for (std::size_t k = 0; k < kSuites; ++k) {
    correct = check_episode(def, inputs[k], first[k]) && correct;
  }
  // Throughput of one round: its fetches over the sum of each suite's
  // median timed phase.
  double round_s = 0.0;
  for (const auto& t : times) round_s += median(t);
  const double fetches_per_s = per(static_cast<double>(figures.fetches), round_s);

  print_figures(def.name.c_str(), figures);
  std::printf("host: %zu rounds of %zu suites, %.1f fetches/s, setup median %.6f s over %zu\n",
              rounds, kSuites, fetches_per_s, median(setups), setups.size());

  print_result(correct, attempted, failed,
               {{"fetches_per_s", fetches_per_s, "fetch/s"},
                {"setup_s", median(setups), "s"},
                {"peak_rss_mb", rss_mb, "MB"},
                {"app_latency_p50_ms", figures.latency_p50_ms, "ms"},
                {"app_latency_p99_ms", figures.latency_p99_ms, "ms"},
                {"hit_ratio", figures.hit_ratio, "ratio"},
                {"hp_hit_ratio", figures.hp_hit_ratio, "ratio"},
                {"ap_cpu_ms_per_fetch", figures.ap_cpu_ms_per_fetch, "ms/fetch"},
                {"ap_mem_mb", figures.ap_mem_mb, "MB"}});
  return correct ? 0 : 1;
}

double kind_ns(const Episode& ep, std::initializer_list<const char*> names) {
  std::uint64_t fired = 0, ns = 0;
  for (const char* n : names) {
    if (auto it = ep.kinds.find(n); it != ep.kinds.end()) {
      fired += it->second.fired;
      ns += it->second.wall_ns;
    }
  }
  return per(static_cast<double>(ns), static_cast<double>(fired));
}

double kinds_share(const Episode& ep, const std::string& prefix, double total_ns) {
  std::uint64_t ns = 0;
  for (const auto& [name, cost] : ep.kinds) {
    if (name.rfind(prefix, 0) == 0) ns += cost.wall_ns;
  }
  return per(static_cast<double>(ns), total_ns);
}

// The traced planes run on the run's first suite only.
int run_traced(const WorkloadDef& def, std::uint64_t seed, double budget_s) {
  const auto t0 = Clock::now();
  const std::uint64_t suite = suite_seed(seed, 0);
  const Inputs in = make_inputs(suite);
  const Episode timed = run_episode(def, suite, Plane::None);
  const Episode prof = run_episode(def, suite, Plane::Profile);
  const Episode span = run_episode(def, suite, Plane::Spans);
  // Each plane's overhead compares medians over repeated untraced /
  // profiled / spanned triples, so one noisy episode cannot flip its sign.
  std::vector<double> untraced_times{timed.timed_s}, prof_times{prof.timed_s},
      span_times{span.timed_s};
  std::size_t attempted = 0, failed = 0;
  for (const Episode* ep : {&timed, &prof, &span}) {
    attempted += ep->fetches.size();
    failed += failed_fetches(*ep);
  }
  while (untraced_times.size() < 2 || seconds_since(t0) < kTracedShare * budget_s) {
    for (const Plane plane : {Plane::None, Plane::Profile, Plane::Spans}) {
      const Episode ep = run_episode(def, suite, plane);
      (plane == Plane::None ? untraced_times : plane == Plane::Profile ? prof_times : span_times)
          .push_back(ep.timed_s);
      attempted += ep.fetches.size();
      failed += failed_fetches(ep);
    }
  }

  bool correct = check_episode(def, in, timed);
  const SimFigures figures = sim_figures(in, timed);
  correct = verdict("profiler_perturbation", figures_agree(figures, sim_figures(in, prof)),
                    figures_agree(figures, planted_figures(figures))) &&
            correct;
  correct = verdict("span_reconcile", spans_reconcile(span), spans_reconcile(planted_overlap())) &&
            correct;
  correct = verdict("span_end_to_end",
                    spans_cover_fetches(span.request_traces, span.request_root_us, span.fetches),
                    spans_cover_fetches(span.request_traces, span.request_root_us + 1,
                                        span.fetches)) &&
            correct;

  const double replay_budget = std::max(1.0, budget_s - seconds_since(t0));
  const ReplayResult replay = run_replays(def, in, timed, replay_budget);
  for (const auto& why : replay.failures) {
    std::fprintf(stderr, "CHECK FAILED replay: %s\n", why.c_str());
    correct = false;
  }

  const double fetches = static_cast<double>(timed.fetches.size());
  const double kfetch = fetches / 1e3;
  const double prof_ns = prof.timed_s * 1e9;
  std::uint64_t callback_ns = 0, untagged_ns = 0;
  for (const auto& [name, cost] : prof.kinds) {
    callback_ns += cost.wall_ns;
    if (name == ape::sim::EventKindTable::instance().name_of(ape::sim::kKindUntagged)) {
      untagged_ns += cost.wall_ns;
    }
  }
  const double outside_ns = prof_ns - static_cast<double>(callback_ns);
  const auto* solve_us = histogram(prof, "pacm.solve_us");
  const auto* repair = histogram(timed, "pacm.repair_rounds");
  const auto* candidates = histogram(timed, "pacm.candidates");
  const double solve_sum_us = solve_us != nullptr ? solve_us->sum() : 0.0;
  const double untraced_ns_per_fetch = median(untraced_times) * 1e9 / fetches;
  const double traces = static_cast<double>(span.request_traces);
  auto span_ms = [&](const char* name) {
    const auto it = span.span_exclusive_us.find(name);
    return it == span.span_exclusive_us.end() ? 0.0
                                              : per(static_cast<double>(it->second) / 1e3, traces);
  };
  const double dns_queries = static_cast<double>(
      counter(timed, "ap.dns.cache_queries") + counter(timed, "ap.dns.regular_queries") +
      counter(timed, "dns.ldns.queries") + counter(timed, "dns.adns.queries") +
      counter(timed, "dns.cdn.queries"));

  std::vector<Metric> m{
      {"sim.events_per_fetch", per(static_cast<double>(timed.events_fired), fetches), "event/fetch"},
      {"sim.heap_fallbacks_per_kevent",
       per(static_cast<double>(timed.heap_fallbacks), static_cast<double>(timed.events_fired), 1e3),
       "1/kevent"},
      {"sim.dispatch_ns_per_event", per(outside_ns, static_cast<double>(prof.events_fired)), "ns"},
      {"sim.queue_high_water", static_cast<double>(timed.queue_high_water), "event"},
      {"net.datagrams_per_fetch", per(static_cast<double>(timed.datagrams_sent), fetches), "dgram/fetch"},
      {"net.bytes_copied_per_fetch", per(static_cast<double>(timed.bytes_copied), fetches), "B/fetch"},
      {"net.deliver_ns", kind_ns(prof, {"net.datagram.deliver"}), "ns"},
      {"net.tcp_exchange_ns", kind_ns(prof, {"net.tcp.connect", "net.tcp.request"}), "ns"},
      {"net.tcp_response_ns", kind_ns(prof, {"net.tcp.response"}), "ns"},
      {"dns.messages_per_fetch", per(2.0 * dns_queries, fetches), "msg/fetch"},
      {"dns.codec_ns", replay.dns_codec_ns, "ns"},
      {"dns.name_parse_ns", replay.dns_name_parse_ns, "ns"},
      {"dns.wan_serve_ns", kind_ns(prof, {"wan.dns.serve"}), "ns"},
      {"dns.upstream_avoided_ratio",
       per(static_cast<double>(counter(timed, "dns.upstream_avoided")),
           static_cast<double>(counter(timed, "ap.dns.cache_queries"))),
       "ratio"},
      {"http.exchanges_per_fetch", per(static_cast<double>(timed.tcp_requests), fetches), "req/fetch"},
      {"http.codec_ns", replay.http_codec_ns, "ns"},
      {"http.edge_serve_ns", kind_ns(prof, {"edge.http.serve"}), "ns"},
      {"cache.evictions_per_kfetch", per(static_cast<double>(counter(timed, "ap.cache.evictions")), kfetch),
       "1/kfetch"},
      {"cache.inserts_per_kfetch", per(static_cast<double>(counter(timed, "ap.cache.inserts")), kfetch),
       "1/kfetch"},
      {"cache.lookup_ns", replay.cache_lookup_ns, "ns"},
      {"cache.insert_ns", replay.cache_insert_ns, "ns"},
      {"core.pacm.solves_per_kfetch", per(static_cast<double>(counter(timed, "pacm.solves")), kfetch),
       "1/kfetch"},
      {"core.pacm.solve_us_p50", solve_us != nullptr ? quantile(solve_us->samples(), 0.5) : 0.0, "us"},
      {"core.pacm.solve_us_p99", solve_us != nullptr ? quantile(solve_us->samples(), 0.99) : 0.0, "us"},
      {"core.pacm.us_per_fetch", per(solve_sum_us, fetches), "us/fetch"},
      {"core.pacm.host_share", per(solve_sum_us * 1e3, prof_ns), "ratio"},
      {"core.pacm.repair_rounds_mean", repair != nullptr ? repair->mean() : 0.0, "round"},
      {"core.pacm.candidates_p50", candidates != nullptr ? quantile(candidates->samples(), 0.5) : 0.0,
       "object"},
      {"core.pacm.greedy_solves", static_cast<double>(counter(timed, "pacm.greedy")), "count"},
      {"core.knapsack.solve_us", replay.knapsack_solve_us, "us"},
      {"core.ap.dns_lookup_ns", kind_ns(prof, {"ap.dns.cache_lookup"}), "ns"},
      {"core.ap.dns_serve_ns", kind_ns(prof, {"ap.dns.serve"}), "ns"},
      {"core.ap.http_serve_ns", kind_ns(prof, {"ap.http.serve"}), "ns"},
      {"core.ap.flags_per_query",
       per(static_cast<double>(counter(timed, "ap.dns.flags_emitted")),
           static_cast<double>(counter(timed, "ap.dns.cache_queries"))),
       "flag/query"},
      {"core.ap.delegations_per_kfetch", per(static_cast<double>(counter(timed, "ap.delegations")), kfetch),
       "1/kfetch"},
      {"core.ap.cpu_jobs_per_fetch", per(static_cast<double>(timed.ap_cpu_jobs), fetches), "job/fetch"},
      {"core.client.cache_build_ns", kind_ns(prof, {"client.dns.cache_build"}), "ns"},
      {"core.client.app_arrive_ns", kind_ns(prof, {"client.app.arrive"}), "ns"},
      {"store.flash_read_ns", kind_ns(prof, {"ap.flash.read"}), "ns"},
      {"store.flash_write_ns", kind_ns(prof, {"ap.flash.write"}), "ns"},
      {"store.flash_read_host_share", kinds_share(prof, "ap.flash.read", prof_ns), "ratio"},
      {"store.write_amplification",
       per(static_cast<double>(counter(timed, "ap.flash.device_writes")),
           static_cast<double>(counter(timed, "ap.flash.puts"))),
       "write/put"},
      {"store.compactions_per_kfetch",
       per(static_cast<double>(counter(timed, "ap.flash.compactions")), kfetch), "1/kfetch"},
      {"store.journal_bytes_per_fetch",
       per(static_cast<double>(counter(timed, "ap.flash.journal_bytes")), fetches), "B/fetch"},
      {"store.flash_hits_per_kfetch",
       per(static_cast<double>(counter(timed, "ap.store.flash_hits")), kfetch), "1/kfetch"},
      {"net.host_share", kinds_share(prof, "net.", prof_ns), "ratio"},
      {"profile.outside_callbacks_share", per(outside_ns, prof_ns), "ratio"},
      {"profile.untagged_share", per(static_cast<double>(untagged_ns), prof_ns), "ratio"},
      {"obs.profile_overhead_ns_per_fetch", median(prof_times) * 1e9 / fetches - untraced_ns_per_fetch,
       "ns/fetch"},
      {"obs.span_overhead_ns_per_fetch",
       median(span_times) * 1e9 / static_cast<double>(span.fetches.size()) - untraced_ns_per_fetch,
       "ns/fetch"},
      {"span.dns.query_ms", span_ms("dns.query"), "ms"},
      {"span.dns.upstream_ms", span_ms("dns.upstream"), "ms"},
      {"span.ap.lookup_ms", span_ms("ap.lookup"), "ms"},
      {"span.ap.serve_ms", span_ms("ap.serve"), "ms"},
      {"span.ap.delegate_ms", span_ms("ap.delegate"), "ms"},
      {"span.http.fetch_ms", span_ms("http.fetch"), "ms"},
      {"span.edge.serve_ms", span_ms("edge.serve"), "ms"},
      {"span.ap.flash.read_ms", span_ms("ap.flash.read"), "ms"},
      {"span.net.connect_ms", span_ms("net.connect"), "ms"},
      {"testbed.build_ms", timed.build_ms, "ms"},
      {"workload.generate_ms", in.generate_ms, "ms"},
  };

  // Human summary: host time by event kind in the profiler run, with the
  // remainder outside any callback, largest first.
  std::vector<std::pair<double, std::string>> shares;
  for (const auto& [name, cost] : prof.kinds) {
    shares.emplace_back(per(static_cast<double>(cost.wall_ns), prof_ns), name);
  }
  shares.emplace_back(per(outside_ns, prof_ns), "(outside callbacks)");
  std::sort(shares.rbegin(), shares.rend());
  std::printf("profile of %s: %.3f s host over %zu fetches; pacm.solve (nested) %.1f%%\n",
              def.name.c_str(), prof.timed_s, prof.fetches.size(),
              100.0 * per(solve_sum_us * 1e3, prof_ns));
  for (std::size_t i = 0; i < shares.size() && i < 10; ++i) {
    std::printf("  %-28s %5.1f%%\n", shares[i].second.c_str(), 100.0 * shares[i].first);
  }
  print_figures(def.name.c_str(), figures);

  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace

const WorkloadDef* find_workload(const std::string& name) {
  for (const auto& d : workloads()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& d : workloads()) names.push_back(d.name);
  return names;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

SimFigures pooled_figures(std::span<const Inputs> inputs, std::span<const Episode> eps) {
  SimFigures f;
  std::vector<double> latency;
  double cpu_ms = 0.0, mem_mb = 0.0;
  for (std::size_t k = 0; k < eps.size(); ++k) {
    const Inputs& in = inputs[k];
    const Episode& ep = eps[k];
    f.app_runs += ep.runs.size();
    f.fetches += ep.fetches.size();
    for (const auto& r : ep.runs) latency.push_back(static_cast<double>(r.latency_us) / 1e3);
    for (const auto& fr : ep.fetches) {
      const bool hit = fr.success && fr.source == ClientRuntime::Source::ApCache;
      f.ap_hits += hit ? 1 : 0;
      if (fr.object < in.objects.size() && in.objects[fr.object].priority >= 2) {
        ++f.hp_fetches;
        f.hp_hits += hit ? 1 : 0;
      }
    }
    cpu_ms += ep.ap_cpu_busy_ms;
    mem_mb += static_cast<double>(ep.ap_memory_bytes) / 1e6;
  }
  f.latency_p50_ms = quantile(latency, 0.5);
  f.latency_p99_ms = quantile(latency, 0.99);
  f.hit_ratio = per(static_cast<double>(f.ap_hits), static_cast<double>(f.fetches));
  f.hp_hit_ratio = per(static_cast<double>(f.hp_hits), static_cast<double>(f.hp_fetches));
  f.ap_cpu_ms_per_fetch = per(cpu_ms, static_cast<double>(f.fetches));
  f.ap_mem_mb = eps.empty() ? 0.0 : mem_mb / static_cast<double>(eps.size());
  return f;
}

SimFigures sim_figures(const Inputs& in, const Episode& ep) {
  return pooled_figures(std::span<const Inputs>(&in, 1), std::span<const Episode>(&ep, 1));
}

}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const perfbench::WorkloadDef* def = perfbench::find_workload(workload);
  if (def == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; one of:", workload.c_str());
    for (const auto& n : perfbench::workload_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  return trace != 0 ? perfbench::run_traced(*def, seed, seconds)
                    : perfbench::run_timed(*def, seed, seconds);
}
