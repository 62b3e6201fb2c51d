// Command-line experiment explorer: run any system / workload combination
// without writing code.
//
//   experiment_cli [--system ape|ape-lru|wicache|edge]
//                  [--apps N] [--max-kb N] [--freq F] [--minutes M]
//                  [--clients N] [--seed S] [--policy pacm|lru|lfu|fifo|gdsf]
//                  [--revalidation] [--no-priority] [--no-fairness]
//
// Prints the run's latency/hit summary plus the AP's cache and resource
// state — handy for sweeping configurations beyond the paper's grid.
#include <cstdio>
#include <cstring>
#include <string>

#include "testbed/experiment.hpp"
#include "workload/app_generator.hpp"
#include "workload/real_apps.hpp"

using namespace ape;

namespace {

struct CliOptions {
  testbed::System system = testbed::System::ApeCache;
  std::size_t apps = 30;
  std::size_t max_kb = 100;
  double freq = 3.0;
  double minutes = 20.0;
  std::size_t clients = 1;
  std::uint64_t seed = 42;
  std::optional<core::ApRuntime::Policy> policy;
  bool revalidation = false;
  bool no_priority = false;
  bool no_fairness = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--system ape|ape-lru|wicache|edge] [--apps N] [--max-kb N]\n"
               "          [--freq F] [--minutes M] [--clients N] [--seed S]\n"
               "          [--policy pacm|lru|lfu|fifo|gdsf] [--revalidation]\n"
               "          [--no-priority] [--no-fairness]\n",
               argv0);
  return 2;
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };

    if (arg == "--system") {
      const char* v = next();
      if (v == nullptr) return false;
      const std::string s = v;
      if (s == "ape") {
        options.system = testbed::System::ApeCache;
      } else if (s == "ape-lru") {
        options.system = testbed::System::ApeCacheLru;
      } else if (s == "wicache") {
        options.system = testbed::System::WiCache;
      } else if (s == "edge") {
        options.system = testbed::System::EdgeCache;
      } else {
        return false;
      }
    } else if (arg == "--apps") {
      const char* v = next();
      if (v == nullptr) return false;
      options.apps = std::stoul(v);
    } else if (arg == "--max-kb") {
      const char* v = next();
      if (v == nullptr) return false;
      options.max_kb = std::stoul(v);
    } else if (arg == "--freq") {
      const char* v = next();
      if (v == nullptr) return false;
      options.freq = std::stod(v);
    } else if (arg == "--minutes") {
      const char* v = next();
      if (v == nullptr) return false;
      options.minutes = std::stod(v);
    } else if (arg == "--clients") {
      const char* v = next();
      if (v == nullptr) return false;
      options.clients = std::stoul(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      options.seed = std::stoull(v);
    } else if (arg == "--policy") {
      const char* v = next();
      if (v == nullptr) return false;
      const std::string s = v;
      if (s == "pacm") {
        options.policy = core::ApRuntime::Policy::Pacm;
      } else if (s == "lru") {
        options.policy = core::ApRuntime::Policy::Lru;
      } else if (s == "lfu") {
        options.policy = core::ApRuntime::Policy::Lfu;
      } else if (s == "fifo") {
        options.policy = core::ApRuntime::Policy::Fifo;
      } else if (s == "gdsf") {
        options.policy = core::ApRuntime::Policy::Gdsf;
      } else {
        return false;
      }
    } else if (arg == "--revalidation") {
      options.revalidation = true;
    } else if (arg == "--no-priority") {
      options.no_priority = true;
    } else if (arg == "--no-fairness") {
      options.no_fairness = true;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse_args(argc, argv, options)) return usage(argv[0]);

  // Workload: the two real apps + generated fillers, as in the paper.
  std::vector<workload::AppSpec> apps;
  if (options.apps >= 1) apps.push_back(workload::make_movie_trailer());
  if (options.apps >= 2) apps.push_back(workload::make_virtual_home());
  if (options.apps > 2) {
    workload::GeneratorParams gen;
    gen.app_count = options.apps - 2;
    gen.max_object_bytes = options.max_kb * 1000;
    sim::Rng rng(options.seed);
    for (auto& app : workload::generate_apps(gen, rng)) apps.push_back(std::move(app));
  }

  testbed::TestbedParams params;
  params.system = options.system;
  params.policy_override = options.policy;
  params.ape.enable_revalidation = options.revalidation;
  params.ape.pacm_use_priority = !options.no_priority;
  params.ape.pacm_use_fairness = !options.no_fairness;

  testbed::WorkloadConfig config;
  config.mean_freq_per_min = options.freq;
  config.duration = sim::minutes(options.minutes);
  config.seed = options.seed;
  config.client_count = options.clients;

  testbed::Testbed bed(params);
  const auto result = testbed::run_workload(bed, apps, config);

  std::printf("system          : %s\n", result.system.c_str());
  std::printf("workload        : %zu apps, <=%zu kB objects, %.1f runs/min, %zu client(s), "
              "%.0f sim-minutes, seed %llu\n",
              apps.size(), options.max_kb, options.freq, options.clients, options.minutes,
              static_cast<unsigned long long>(options.seed));
  std::printf("app runs        : %zu (%zu object fetches, %zu failures)\n", result.app_runs,
              result.object_fetches, result.failures);
  std::printf("app latency     : mean %.1f ms, p50 %.1f, p95 %.1f, p99 %.1f\n",
              result.app_latency_ms.mean(), result.app_latency_ms.percentile(0.5),
              result.app_latency_ms.percentile(0.95), result.app_latency_ms.percentile(0.99));
  std::printf("hit ratio       : %.3f overall, %.3f high-priority\n", result.hit_ratio(),
              result.high_priority_hit_ratio());
  if (result.ap_hit_lookup_ms.count() > 0) {
    std::printf("AP hit path     : lookup %.2f ms, retrieval %.2f ms\n",
                result.ap_hit_lookup_ms.mean(), result.ap_hit_retrieval_ms.mean());
  }
  if (result.edge_lookup_ms.count() > 0) {
    std::printf("edge path       : lookup %.2f ms, retrieval %.2f ms\n",
                result.edge_lookup_ms.mean(), result.edge_retrieval_ms.mean());
  }
  std::printf("AP cache        : %zu objects / %zu bytes (policy %s), %zu evictions, "
              "%zu delegations, %zu revalidations, block list %zu\n",
              bed.ap().data_cache().entry_count(), bed.ap().data_cache().used_bytes(),
              bed.ap().data_cache().policy().name().c_str(),
              bed.ap().data_cache().evictions(), bed.ap().lookup_stats().delegated_fetches(),
              bed.ap().lookup_stats().revalidations(), bed.ap().block_list().size());
  std::printf("AP memory model : %.1f MB\n",
              static_cast<double>(bed.ap().memory_bytes()) / (1024.0 * 1024.0));
  return 0;
}
