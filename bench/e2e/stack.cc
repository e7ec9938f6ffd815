#include "stack.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "cluster/storage_layer.h"
#include "core/cot_cache.h"
#include "core/elastic_resizer.h"
#include "walk.h"

namespace cot::e2e {

// Each workload loads one layer heavily and leaves another idle, so a
// change to one layer has a workload that must move and one that must not
// (README.md has the full layer -> metric -> workload map). Timed op rates
// are sized so one second of --seconds is about one second of timed work
// on a 4-core Xeon VM.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;
    // The paper's deployment: CoT's tracker, admission and resizer epochs
    // (core) do most of the work.
    WorkloadSpec cot;
    cot.name = "cot-elastic-zipf0.99";
    cot.cache_lines = 64;
    cot.tracker_lines = 512;
    cot.elastic = true;
    cot.warmup_ops = 4'000'000;
    cot.timed_ops_per_second = 3'500'000;
    w.push_back(cot);
    // The cacheless baseline under contention: core idle, four clients on
    // the hottest shard's mutex.
    WorkloadSpec t4;
    t4.name = "nocache-zipf0.99-t4";
    t4.threads = 4;
    t4.warmup_ops = 1'000'000;
    t4.timed_ops_per_second = 1'700'000;
    w.push_back(t4);
    // The batched transport: grouping plus one lock and fence per
    // sub-batch.
    WorkloadSpec mget;
    mget.name = "nocache-mget16-zipf0.99";
    mget.read_fraction = 1.0;
    mget.batch = 16;
    mget.warmup_ops = 1'000'000;
    mget.timed_ops_per_second = 9'600'000;
    w.push_back(mget);
    // Two-layer routing: the DistCache router tracks every access, runs
    // p2c and rebuilds its hot set every 1024 ops; core idle.
    WorkloadSpec dc;
    dc.name = "distcache-zipf1.2";
    dc.alpha = 1.2;
    dc.cache_nodes = 4;
    dc.warmup_ops = 1'000'000;
    dc.timed_ops_per_second = 4'800'000;
    w.push_back(dc);
    // Core used the other way: Eq. 1 invalidations, storage writes, shard
    // deletes and miss fills at the first workload's converged size.
    WorkloadSpec w50;
    w50.name = "cot-fixed-zipf0.99-w50";
    w50.cache_lines = 2048;
    w50.tracker_lines = 16384;
    w50.read_fraction = 0.5;
    w50.warmup_ops = 1'000'000;
    w50.timed_ops_per_second = 2'400'000;
    w.push_back(w50);
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Stack::Stack() = default;
Stack::~Stack() = default;
Stack::Stack(Stack&&) noexcept = default;
Stack& Stack::operator=(Stack&&) noexcept = default;

Stack BuildStack(const WorkloadSpec& spec, Mode mode) {
  Stack s;
  s.cluster =
      std::make_unique<cluster::CacheCluster>(kShards, kKeys, kVirtualNodes);
  {
    // YCSB load phase: every key on its owning shard.
    auto snapshot = s.cluster->ring_snapshot();
    for (uint64_t key = 0; key < kKeys; ++key) {
      snapshot->servers[snapshot->ring.ServerFor(key)]->Set(
          key, cluster::StorageLayer::InitialValue(key));
    }
  }
  s.cluster->ResetServerCounters();
  for (uint32_t i = 0; i < spec.cache_nodes; ++i) {
    s.cache_nodes.push_back(s.cluster->AddCacheNode());
  }
  for (uint32_t t = 0; t < spec.threads; ++t) {
    if (mode == Mode::kWalk) {
      s.walkers.push_back(
          std::make_unique<WalkClient>(s.cluster.get(), spec, s.cache_nodes));
      continue;
    }
    std::unique_ptr<cache::Cache> local;
    if (spec.cache_lines > 0) {
      local = std::make_unique<core::CotCache>(spec.cache_lines,
                                               spec.tracker_lines);
    }
    auto client = std::make_unique<cluster::FrontendClient>(s.cluster.get(),
                                                            std::move(local));
    if (spec.cache_nodes > 0) {
      s.routers.push_back(
          std::make_unique<cluster::DistCacheRouter>(s.cache_nodes));
      client->SetRouter(s.routers.back().get());
    }
    if (spec.elastic) {
      Status st = client->EnableElasticResizing(core::ResizerConfig{});
      if (!st.ok()) {
        std::fprintf(stderr, "e2e_bench: %s\n", st.ToString().c_str());
        std::exit(1);
      }
    }
    s.clients.push_back(std::move(client));
  }
  return s;
}

}  // namespace cot::e2e
