// Quickstart: stand up the Fig. 9 testbed, register one cacheable object
// via the declarative programming model, and fetch it three times to watch
// the APE-CACHE workflow progress:
//
//   run 1  ->  Delegation  (AP fetches from the edge and caches)
//   run 2  ->  Cache-Hit   (served from the AP, milliseconds)
//   run 3  ->  Cache-Hit   (flags may even be reused from the DNS TTL)
//
// Build:  cmake -B build -G Ninja && cmake --build build
// Run:    ./build/examples/quickstart
#include <cstdio>

#include "core/programming_model.hpp"
#include "testbed/testbed.hpp"
#include "workload/real_apps.hpp"

using namespace ape;

int main() {
  // 1. A testbed: phone --WiFi--> AP --7 hops--> edge server (+ DNS chain).
  testbed::TestbedParams params;
  params.system = testbed::System::ApeCache;
  testbed::Testbed bed(params);

  // 2. An app with one cacheable object, declared via the annotation-style
  //    programming model (paper Fig. 6).
  core::AnnotatedApp app("quickstart-app", /*id=*/7);
  app.cacheable_field("movieId", "http://api.quickstart.app/movie-id",
                      /*priority=*/2, /*ttl_minutes=*/30);

  // Host the object on the edge and publish the domain.
  workload::AppSpec spec;
  spec.name = app.name();
  spec.id = app.id();
  spec.domain = "api.quickstart.app";
  workload::RequestSpec request;
  request.name = "movie-id";
  request.url = "http://api.quickstart.app/movie-id";
  request.size_bytes = 20'000;
  request.ttl_minutes = 30;
  request.priority = 2;
  request.retrieval_latency = sim::milliseconds(30);
  spec.requests.push_back(request);
  bed.host_app(spec);

  // 3. A phone attached to the AP, with the app's annotations processed.
  testbed::Testbed::Client& phone = bed.add_client("phone");
  app.attach(*phone.runtime);

  // 4. Fetch the object three times, two seconds apart.
  for (int round = 1; round <= 3; ++round) {
    phone.runtime->fetch(
        "http://api.quickstart.app/movie-id",
        [round](core::ClientRuntime::FetchResult r) {
          std::printf(
              "run %d: %-12s flag=%-10s lookup=%6.2f ms retrieval=%6.2f ms total=%6.2f ms%s\n",
              round, core::to_string(r.source), core::to_string(r.flag),
              sim::to_millis(r.lookup_latency), sim::to_millis(r.retrieval_latency),
              sim::to_millis(r.total), r.success ? "" : "  (FAILED)");
        });
    bed.simulator().run();
    bed.simulator().run_until(bed.simulator().now() + sim::seconds(2.0));
  }

  std::printf("\nAP cache: %zu objects, %zu bytes used; delegations performed: %zu\n",
              bed.ap().data_cache().entry_count(), bed.ap().data_cache().used_bytes(),
              bed.ap().lookup_stats().delegated_fetches());
  return 0;
}
