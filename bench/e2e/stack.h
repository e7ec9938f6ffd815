#ifndef COT_BENCH_E2E_STACK_H_
#define COT_BENCH_E2E_STACK_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "cluster/cache_cluster.h"
#include "cluster/distcache_router.h"
#include "cluster/frontend_client.h"
#include "workload/types.h"

namespace cot::e2e {

class WalkClient;

/// The deployment every workload shares: 8 caching shards over 1M keys on
/// a 16384-vnode ring, every key preloaded into its shard.
inline constexpr uint32_t kShards = 8;
inline constexpr uint64_t kKeys = 1'000'000;
inline constexpr uint32_t kVirtualNodes = 16384;

/// One traffic mix on one stack. Op counts are per thread (keys on the
/// batch path); the timed count scales with the run length.
struct WorkloadSpec {
  std::string_view name;
  /// Front-end `CotCache` capacity C and tracker capacity K; C == 0 means a
  /// cacheless client.
  size_t cache_lines = 0;
  size_t tracker_lines = 0;
  /// Attach CoT's `ElasticResizer` (I_t 1.1, defaults otherwise).
  bool elastic = false;
  /// Zipfian skew and read share of the YCSB op stream.
  double alpha = 0.99;
  double read_fraction = 0.998;
  uint32_t threads = 1;
  /// Keys per `MultiGet`; 1 = single-key `Get`/`Set`.
  uint32_t batch = 1;
  uint64_t warmup_ops = 0;
  uint64_t timed_ops_per_second = 0;
  /// Unbounded DistCache cache nodes; with any, every client routes
  /// through its own `DistCacheRouter` (default config: 64 hot keys,
  /// 1024-op epochs) instead of the ring.
  uint32_t cache_nodes = 0;
};

/// Every workload, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// Ops are generated before timing and stored as one word each: the key
/// in the low 31 bits, the update flag in the top bit.
inline constexpr uint32_t kUpdateBit = uint32_t{1} << 31;
inline uint32_t EncodeOp(const workload::Op& op) {
  return static_cast<uint32_t>(op.key) |
         (op.type == workload::OpType::kUpdate ? kUpdateBit : 0);
}
inline uint64_t OpKey(uint32_t op) { return op & ~kUpdateBit; }
inline bool IsUpdate(uint32_t op) { return (op & kUpdateBit) != 0; }

/// Values the benchmark writes carry their key in the high 32 bits and a
/// per-thread write sequence number (from 1) in the low 32, so a read can
/// be checked against the key it was issued for.
inline uint64_t MakeValue(uint64_t key, uint64_t seq) {
  return (key << 32) | (seq & 0xFFFFFFFFULL);
}

enum class Mode {
  /// Every op goes through `FrontendClient` (the untraced, measured path).
  kClient,
  /// The benchmark calls each layer itself, in the client's protocol
  /// order, with a span around every call (the traced path).
  kWalk,
};

/// One pass's deployment. Shards never move, so the clients' and walkers'
/// borrowed pointers stay valid until the stack is destroyed.
struct Stack {
  Stack();
  ~Stack();
  Stack(Stack&&) noexcept;
  Stack& operator=(Stack&&) noexcept;

  std::unique_ptr<cluster::CacheCluster> cluster;
  std::vector<cluster::ServerId> cache_nodes;
  std::vector<std::unique_ptr<cluster::DistCacheRouter>> routers;
  std::vector<std::unique_ptr<cluster::FrontendClient>> clients;
  std::vector<std::unique_ptr<WalkClient>> walkers;
};

/// Set-up, the work `setup_s` times: cluster construction, preload of
/// every key into its owning shard, the cache tier, and one front-end per
/// thread. Aborts on a library error (a benchmark bug, not a measurement).
Stack BuildStack(const WorkloadSpec& spec, Mode mode);

}  // namespace cot::e2e

#endif  // COT_BENCH_E2E_STACK_H_
