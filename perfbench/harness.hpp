// Shared types of the end-to-end benchmark harness (see README.md).
//
// The harness drives the program through its public API only: it builds a
// Testbed, hosts the paper's 30-app suite, plants a pre-rolled open-loop
// arrival schedule, runs the simulator, and reads back counters, profiler
// rows and spans.  Nothing here reaches into src/ internals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/client_runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "testbed/testbed.hpp"
#include "workload/app_model.hpp"

namespace perfbench {

using ape::core::ClientRuntime;

// One named workload: which system the AP runs and how its store is shaped.
struct WorkloadDef {
  std::string name;
  ape::testbed::TestbedParams params;
  bool pacm = false;   // PACM manages the RAM cache
  bool tiered = false; // a flash tier backs the RAM cache
};

[[nodiscard]] const WorkloadDef* find_workload(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

// Inputs generated from the seed: the app suite, its object table and the
// arrival schedule.  The program receives only these.
struct Inputs {
  std::vector<ape::workload::AppSpec> apps;
  struct Arrival {
    std::int64_t at_us = 0;
    std::size_t app = 0;
  };
  std::vector<Arrival> arrivals;
  // Object table: one row per (app, request), keyed by base URL.
  struct Object {
    std::string key;
    std::size_t app = 0;
    std::size_t size_bytes = 0;
    int priority = 1;
    std::uint32_t ttl_minutes = 0;
    double retrieval_ms = 0.0;
  };
  std::vector<Object> objects;
  // object index by (app index, request name)
  std::vector<std::map<std::string, std::uint32_t>> object_of;
  double generate_ms = 0.0;  // host time to build all of the above
};

struct FetchRec {
  std::uint32_t object = 0;
  ClientRuntime::Source source = ClientRuntime::Source::Unknown;
  bool success = false;
  bool lookup_cached = false;
  std::int64_t lookup_us = 0;
  std::int64_t retrieval_us = 0;
  std::int64_t total_us = 0;
  std::size_t bytes = 0;
};

struct RunRec {
  std::uint32_t app = 0;
  std::int64_t latency_us = 0;
  std::size_t fetches = 0;
  std::size_t failures = 0;
};

struct KindCost {
  std::uint64_t fired = 0;
  std::uint64_t wall_ns = 0;
};

enum class Plane { None, Profile, Spans };

// Everything one simulated episode produced, read back from the program.
struct Episode {
  std::size_t scheduled_runs = 0;
  std::vector<RunRec> runs;
  std::vector<FetchRec> fetches;
  ape::obs::MetricsRegistry metrics;  // the testbed's registry after collect_metrics()

  // host clocks
  double setup_s = 0.0;
  double build_ms = 0.0;   // Testbed constructor alone
  double timed_s = 0.0;    // first event to the end of run_until

  // simulator / net / AP accessors
  std::size_t events_fired = 0;
  std::size_t queue_high_water = 0;
  std::size_t heap_fallbacks = 0;
  std::size_t datagrams_sent = 0;
  std::size_t bytes_copied = 0;
  std::size_t tcp_requests = 0;
  double ap_cpu_busy_ms = 0.0;
  std::size_t ap_cpu_jobs = 0;
  std::size_t ap_memory_bytes = 0;
  std::size_t ram_capacity = 0;
  std::size_t ram_peak = 0;       // sampled at every app-run completion and at the end
  std::size_t flash_capacity = 0;
  std::size_t flash_peak = 0;     // physical bytes, same sampling
  std::int64_t wifi_one_way_us = 0;
  double wifi_bandwidth = 0.0;

  // profiler plane
  std::map<std::string, KindCost> kinds;
  // span plane: exclusive simulated µs per span name, summed over traces
  std::map<std::string, std::int64_t> span_exclusive_us;
  std::size_t traces = 0;
  std::size_t traces_reconciled = 0;
  std::size_t request_traces = 0;     // client.request roots, one per fetch
  std::int64_t request_root_us = 0;   // their summed durations
  std::size_t span_dropped = 0;
};

// The simulated end-to-end figures of one episode (identical run to run
// for a fixed seed).
struct SimFigures {
  std::size_t app_runs = 0;
  std::size_t fetches = 0;
  std::size_t ap_hits = 0;
  std::size_t hp_fetches = 0;
  std::size_t hp_hits = 0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double hit_ratio = 0.0;
  double hp_hit_ratio = 0.0;
  double ap_cpu_ms_per_fetch = 0.0;
  double ap_mem_mb = 0.0;
  friend bool operator==(const SimFigures&, const SimFigures&) = default;
};

[[nodiscard]] SimFigures sim_figures(const Inputs& in, const Episode& ep);
// The same figures over several suites' episodes pooled (inputs[k] made episodes[k]).
[[nodiscard]] SimFigures pooled_figures(std::span<const Inputs> inputs,
                                        std::span<const Episode> episodes);

// Exact order statistic with linear interpolation between closest ranks.
[[nodiscard]] double quantile(std::vector<double> values, double q);

// --- output checks (checks.cpp) -------------------------------------------
// Each check returns an empty string when it holds, else what went wrong.
struct Check {
  std::string name;
  std::string (*run)(const WorkloadDef&, const Inputs&, const Episode&);
  // Plants one error into a copy of a passing episode; the check must then fail.
  void (*plant)(const Inputs&, Episode&);
  bool ram_pacm_only = false;  // a property of PACM alone managing the AP's store
};
[[nodiscard]] const std::vector<Check>& episode_checks();

// --- layer replays (replay.cpp) -------------------------------------------
struct ReplayResult {
  double dns_codec_ns = 0.0;
  double dns_name_parse_ns = 0.0;
  double http_codec_ns = 0.0;
  double cache_lookup_ns = 0.0;
  double cache_insert_ns = 0.0;
  double knapsack_solve_us = 0.0;
  std::vector<std::string> failures;  // knapsack oracle mismatches and codec errors
};
[[nodiscard]] ReplayResult run_replays(const WorkloadDef& def, const Inputs& in,
                                       const Episode& ep, double budget_s);

// Independent 0/1 knapsack optimum (full table, integer weights in units).
[[nodiscard]] double knapsack_oracle(const std::vector<double>& values,
                                     const std::vector<std::size_t>& units,
                                     std::size_t capacity_units);

// Replays `instances` workload-shaped knapsack instances through
// core::solve_knapsack and compares each with the oracle; returns failures.
[[nodiscard]] std::vector<std::string> check_knapsack(const WorkloadDef& def, const Inputs& in,
                                                      std::size_t instances);

// Self-test of the knapsack comparison: a planted wrong selection must fail.
[[nodiscard]] bool knapsack_check_self_test();

}  // namespace perfbench
