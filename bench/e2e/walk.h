#ifndef COT_BENCH_E2E_WALK_H_
#define COT_BENCH_E2E_WALK_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "clock.h"
#include "cluster/cache_cluster.h"
#include "cluster/distcache_router.h"
#include "core/cot_cache.h"
#include "core/elastic_resizer.h"
#include "stack.h"

namespace cot::e2e {

/// What a span is charged to. Every layer call the walk makes is one span;
/// `kWalk` is the benchmark's own loop between ops (unattributed time).
enum class Layer : uint8_t {
  kWalk,
  kCotGet,
  kCotPut,
  kCotInvalidate,
  kResizerEndEpoch,
  kRoute,
  kAllReplicas,
  kGroup,
  kShardGet,
  kShardMultiGet,
  kShardSet,
  kShardDelete,
  kStorageGet,
  kStorageSet,
  kCount,
};
inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

/// Span name, e.g. "core.cot_cache.get".
std::string_view LayerName(Layer layer);

struct LayerStats {
  /// Raw ticks of every span charged here, one span cost included per lap.
  uint64_t ticks = 0;
  uint64_t laps = 0;
  uint64_t calls = 0;
  uint64_t keys = 0;
  /// Per-call self time, span cost subtracted.
  SpanHistogram hist;
};

/// One sampled span: `parent` indexes this thread's span list (-1 for an op
/// root, whose layer is `kWalk`).
struct SpanRecord {
  uint64_t op = 0;
  int32_t parent = -1;
  Layer layer = Layer::kWalk;
  uint64_t start = 0;
  uint64_t end = 0;
};

/// Lap-style span recorder: each stamp closes the interval since the
/// previous one and charges it to the call that just returned, so spans
/// tile a round with one clock read per span. A lap therefore holds one
/// span cost (the clock read plus bookkeeping), calibrated by
/// `CalibrateSpanCost` and subtracted from self times.
class Tracer {
 public:
  /// 1 in `kSampleEvery` ops keeps its span tree for the JSONL dump.
  static constexpr uint64_t kSampleEvery = 4096;

  explicit Tracer(double span_cost_ticks)
      : span_cost_(static_cast<uint64_t>(span_cost_ticks + 0.5)) {}

  void StartRound() { prev_ = TscOrdered(); }

  /// Closes the gap since the previous op (charged to `kWalk`) and opens
  /// op `op_id`.
  void BeginOp(uint64_t op_id) {
    sampled_ = false;
    Lap(Layer::kWalk);
    sampled_ = op_id % kSampleEvery == 0;
    if (sampled_) {
      root_ = static_cast<int32_t>(spans_.size());
      spans_.push_back(SpanRecord{op_id, -1, Layer::kWalk, prev_, prev_});
    }
  }
  void EndOp() {
    if (sampled_) spans_[static_cast<size_t>(root_)].end = prev_;
  }

  /// Charges the interval since the previous stamp to `layer` as `calls`
  /// calls (one per key on the batch path).
  void Lap(Layer layer, uint64_t calls = 1) { LapUnder(root_, layer, calls); }

  /// Raw ticks since the previous stamp, restamping; charges nothing. For a
  /// call whose span has child spans inside it (MultiGet's storage fetch).
  uint64_t Split() {
    const uint64_t t = TscOrdered();
    const uint64_t raw = t - prev_;
    prev_ = t;
    return raw;
  }

  /// Opens a span around a call with children; returns its index (or -1
  /// when the op is not sampled). Close with `CloseSpan`.
  int32_t OpenSpan(Layer layer) {
    if (!sampled_) return -1;
    spans_.push_back(SpanRecord{op_id(), root_, layer, prev_, prev_});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void CloseSpan(int32_t span) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end = prev_;
  }
  /// A lap inside span `parent` (from `OpenSpan`).
  void ChildLap(Layer layer, int32_t parent) { LapUnder(parent, layer, 1); }

  /// Charges `raw` ticks covering `laps` laps to `layer` as `calls` calls.
  void Charge(Layer layer, uint64_t raw, uint64_t laps, uint64_t calls,
              uint64_t keys) {
    LayerStats& s = stats_[static_cast<size_t>(layer)];
    s.ticks += raw;
    s.laps += laps;
    s.calls += calls;
    s.keys += keys;
    const uint64_t cost = laps * span_cost_;
    uint64_t self = raw > cost ? raw - cost : 0;
    if (calls > 1) self /= calls;
    s.hist.Add(self);
  }

  /// Drops everything recorded (end of warm-up).
  void Reset() {
    for (LayerStats& s : stats_) s = LayerStats();
    spans_.clear();
  }

  const LayerStats& stats(Layer layer) const {
    return stats_[static_cast<size_t>(layer)];
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  uint64_t op_id() const {
    return spans_[static_cast<size_t>(root_)].op;
  }

  void LapUnder(int32_t parent, Layer layer, uint64_t calls) {
    const uint64_t start = prev_;
    Charge(layer, Split(), 1, calls, calls);
    if (sampled_) {
      spans_.push_back(SpanRecord{op_id(), parent, layer, start, prev_});
    }
  }

  uint64_t span_cost_;
  uint64_t prev_ = 0;
  bool sampled_ = false;
  int32_t root_ = -1;
  std::array<LayerStats, kLayerCount> stats_;
  std::vector<SpanRecord> spans_;
};

/// Median cost in ticks of one empty lap (stamp + bookkeeping, no call).
double CalibrateSpanCost();

/// The walk with every span compiled out: the bare layer calls, timed only
/// per round. Its time per op against the client's is what the client's
/// own bookkeeping costs.
struct NoTracer {
  void StartRound() {}
  void BeginOp(uint64_t) {}
  void EndOp() {}
  void Lap(Layer, uint64_t = 1) {}
  uint64_t Split() { return 0; }
  int32_t OpenSpan(Layer) { return -1; }
  void CloseSpan(int32_t) {}
  void ChildLap(Layer, int32_t) {}
  void Charge(Layer, uint64_t, uint64_t, uint64_t, uint64_t) {}
};

/// Per-walker traffic counters, mirroring `cluster::FrontendStats`.
struct WalkCounts {
  uint64_t reads = 0;
  uint64_t updates = 0;
  uint64_t local_hits = 0;
  uint64_t backend_lookups = 0;
  uint64_t backend_hits = 0;
  uint64_t storage_reads = 0;
  uint64_t invalidations = 0;
};

/// The traced stand-in for one `FrontendClient`: the same local cache,
/// resizer and router objects, driven call by call through their public
/// functions in the client's fault-free protocol order, with a span
/// around each call (`Tracer`) or none (`NoTracer`). Its counts must equal
/// the client's exactly.
class WalkClient {
 public:
  using Key = cache::Key;
  using Value = cache::Value;

  WalkClient(cluster::CacheCluster* cluster, const WorkloadSpec& spec,
             const std::vector<cluster::ServerId>& cache_nodes);

  WalkClient(const WalkClient&) = delete;
  WalkClient& operator=(const WalkClient&) = delete;

  /// Read: local cache, then route, fenced (ring) or unfenced (router)
  /// shard read, storage read + shard fill on a miss, local fill.
  template <typename T>
  Value Get(Key key, T& tr);
  /// Update: storage write, local invalidate, shard delete(s).
  template <typename T>
  void Set(Key key, Value value, T& tr);
  /// Cacheless ring batch: route every key, group by owner in ascending
  /// ServerId, one fenced `BackendServer::MultiGet` per group.
  template <typename T>
  void MultiGet(std::span<const Key> keys, Value* out, T& tr);

  const WalkCounts& counts() const { return counts_; }
  void ResetCounts() { counts_ = WalkCounts(); }

  core::CotCache* cache() { return cache_.get(); }
  core::ElasticResizer* resizer() { return resizer_.get(); }

 private:
  /// `FrontendClient::OnOperation`: the resizer's epoch clock and its
  /// epoch-close rule.
  template <typename T>
  void OnOperation(T& tr);
  /// Counts one delivered lookup to `sid`.
  void CountLookup(cluster::ServerId sid);

  cluster::CacheCluster* cluster_;
  std::shared_ptr<const cluster::CacheCluster::RingSnapshot> snapshot_;
  std::unique_ptr<core::CotCache> cache_;
  std::unique_ptr<core::ElasticResizer> resizer_;
  std::unique_ptr<cluster::DistCacheRouter> router_;
  std::vector<uint64_t> epoch_lookups_;
  WalkCounts counts_;

  struct Pending {
    Key key;
    uint32_t slot;
    cluster::ServerId sid;
  };
  std::vector<Pending> pending_;
  std::vector<Key> group_keys_;
  std::vector<Value> group_values_;
  std::vector<uint32_t> group_begin_;
};

}  // namespace cot::e2e

#endif  // COT_BENCH_E2E_WALK_H_
