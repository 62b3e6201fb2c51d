// APE-CACHE-LRU ablation (paper Sec. V-A): identical workflow to
// APE-CACHE — DNS-Cache lookup, delegation, block list — but the AP's
// object cache is managed by LRU instead of PACM.  Realized purely through
// configuration: ApRuntime{policy = Lru} plus the standard client runtime.
#pragma once

#include "baselines/system_interface.hpp"
#include "common/shard.hpp"

namespace ape::baselines {

// Fetcher facade over the regular APE client runtime (used for both
// APE-CACHE and APE-CACHE-LRU; the difference lives on the AP).
class ApeFetcher final : public ObjectFetcher {
  APE_SHARD_CONTEXT(client);

 public:
  ApeFetcher(core::ClientRuntime& runtime, std::string label = "APE-CACHE")
      : runtime_(runtime), label_(std::move(label)) {}

  void fetch_object(const std::string& url,
                    core::ClientRuntime::FetchHandler handler) override {
    runtime_.fetch(url, std::move(handler));
  }

  [[nodiscard]] std::string system_name() const override { return label_; }

 private:
  APE_SHARD_LOCAL(client) core::ClientRuntime& runtime_;
  APE_SHARD_LOCAL(client) std::string label_;
};

}  // namespace ape::baselines
