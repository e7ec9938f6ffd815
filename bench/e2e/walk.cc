#include "walk.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace cot::e2e {

using cluster::BackendServer;
using cluster::ServerId;

namespace {

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "e2e_bench: walk: %s\n", what);
  std::exit(1);
}

}  // namespace

std::string_view LayerName(Layer layer) {
  switch (layer) {
    case Layer::kWalk:
      return "trace.walk";
    case Layer::kCotGet:
      return "core.cot_cache.get";
    case Layer::kCotPut:
      return "core.cot_cache.put";
    case Layer::kCotInvalidate:
      return "core.cot_cache.invalidate";
    case Layer::kResizerEndEpoch:
      return "core.elastic_resizer.end_epoch";
    case Layer::kRoute:
      return "cluster.routing.route";
    case Layer::kAllReplicas:
      return "cluster.routing.all_replicas";
    case Layer::kGroup:
      return "cluster.frontend_client.group";
    case Layer::kShardGet:
      return "cluster.backend_server.get";
    case Layer::kShardMultiGet:
      return "cluster.backend_server.mget";
    case Layer::kShardSet:
      return "cluster.backend_server.set";
    case Layer::kShardDelete:
      return "cluster.backend_server.delete";
    case Layer::kStorageGet:
      return "cluster.storage_layer.get";
    case Layer::kStorageSet:
      return "cluster.storage_layer.set";
    case Layer::kCount:
      break;
  }
  return "unknown";
}

double CalibrateSpanCost() {
  constexpr int kReps = 15;
  constexpr uint64_t kLaps = 200000;
  std::vector<double> per_lap;
  per_lap.reserve(kReps);
  for (int r = 0; r < kReps; ++r) {
    Tracer tr(0.0);
    tr.StartRound();
    const uint64_t t0 = TscOrdered();
    for (uint64_t i = 0; i < kLaps; ++i) tr.Lap(Layer::kWalk);
    per_lap.push_back(static_cast<double>(TscOrdered() - t0) /
                      static_cast<double>(kLaps));
  }
  std::sort(per_lap.begin(), per_lap.end());
  return per_lap[per_lap.size() / 2];
}

WalkClient::WalkClient(cluster::CacheCluster* cluster,
                       const WorkloadSpec& spec,
                       const std::vector<ServerId>& cache_nodes)
    : cluster_(cluster),
      snapshot_(cluster->ring_snapshot_synced()),
      epoch_lookups_(snapshot_->servers.size(), 0) {
  if (spec.cache_lines > 0) {
    cache_ = std::make_unique<core::CotCache>(spec.cache_lines,
                                              spec.tracker_lines);
    if (spec.elastic) {
      resizer_ = std::make_unique<core::ElasticResizer>(cache_.get(),
                                                        core::ResizerConfig{});
    }
  }
  if (spec.cache_nodes > 0) {
    router_ = std::make_unique<cluster::DistCacheRouter>(cache_nodes);
  }
}

void WalkClient::CountLookup(ServerId sid) {
  if (sid >= epoch_lookups_.size()) {
    epoch_lookups_.resize(
        std::max<size_t>(sid + 1, cluster_->server_count()), 0);
  }
  ++epoch_lookups_[sid];
  ++counts_.backend_lookups;
}

template <typename T>
cache::Value WalkClient::Get(Key key, T& tr) {
  ++counts_.reads;
  if (cache_ != nullptr) {
    std::optional<Value> local = cache_->Get(key);
    tr.Lap(Layer::kCotGet);
    if (local.has_value()) {
      ++counts_.local_hits;
      OnOperation(tr);
      return *local;
    }
  }
  Value value = 0;
  if (router_ != nullptr) {
    // Router path: replica placement is the router's, so the shard ops are
    // the unfenced ones, reached through the cluster's server accessor.
    const cluster::RouteView view{snapshot_->epoch, &snapshot_->ring};
    const ServerId sid = router_->Route(key, view);
    router_->OnLookup(key, sid);
    tr.Lap(Layer::kRoute);
    CountLookup(sid);
    std::optional<Value> reply = cluster_->server(sid).Get(key);
    tr.Lap(Layer::kShardGet);
    if (reply.has_value()) {
      ++counts_.backend_hits;
      value = *reply;
    } else {
      ++counts_.storage_reads;
      value = cluster_->storage().Get(key);
      tr.Lap(Layer::kStorageGet);
      cluster_->server(sid).Set(key, value);
      tr.Lap(Layer::kShardSet);
    }
  } else {
    const ServerId sid = snapshot_->ring.ServerFor(key);
    tr.Lap(Layer::kRoute);
    const uint64_t epoch = snapshot_->epoch;
    BackendServer& shard = *snapshot_->servers[sid];
    BackendServer::FencedValue reply = shard.Get(key, epoch);
    tr.Lap(Layer::kShardGet);
    if (reply.status != BackendServer::ShardStatus::kOk) {
      Fail("fenced Get rejected on a static ring");
    }
    CountLookup(sid);
    if (reply.value.has_value()) {
      ++counts_.backend_hits;
      value = *reply.value;
    } else {
      ++counts_.storage_reads;
      value = cluster_->storage().Get(key);
      tr.Lap(Layer::kStorageGet);
      shard.Set(key, value, epoch);
      tr.Lap(Layer::kShardSet);
    }
  }
  if (cache_ != nullptr) {
    cache_->Put(key, value);
    tr.Lap(Layer::kCotPut);
  }
  OnOperation(tr);
  return value;
}

template <typename T>
void WalkClient::Set(Key key, Value value, T& tr) {
  ++counts_.updates;
  cluster_->storage().Set(key, value);
  tr.Lap(Layer::kStorageSet);
  if (cache_ != nullptr) {
    cache_->Invalidate(key);
    tr.Lap(Layer::kCotInvalidate);
  }
  if (router_ != nullptr) {
    const cluster::RouteView view{snapshot_->epoch, &snapshot_->ring};
    const std::vector<ServerId> targets = router_->AllReplicas(key, view);
    tr.Lap(Layer::kAllReplicas);
    for (ServerId sid : targets) {
      cluster_->server(sid).Delete(key);
      tr.Lap(Layer::kShardDelete);
      ++counts_.invalidations;
    }
  } else {
    const ServerId sid = snapshot_->ring.ServerFor(key);
    tr.Lap(Layer::kRoute);
    BackendServer::FencedAck ack =
        snapshot_->servers[sid]->Delete(key, snapshot_->epoch);
    tr.Lap(Layer::kShardDelete);
    if (ack.status != BackendServer::ShardStatus::kOk) {
      Fail("fenced Delete rejected on a static ring");
    }
    ++counts_.invalidations;
  }
  OnOperation(tr);
}

template <typename T>
void WalkClient::MultiGet(std::span<const Key> keys, Value* out, T& tr) {
  if (cache_ != nullptr || router_ != nullptr) {
    Fail("the batch walk covers the cacheless ring path only");
  }
  const size_t n = keys.size();
  counts_.reads += n;
  pending_.clear();
  for (size_t i = 0; i < n; ++i) {
    pending_.push_back(Pending{keys[i], static_cast<uint32_t>(i),
                               snapshot_->ring.ServerFor(keys[i])});
  }
  tr.Lap(Layer::kRoute, n);
  std::stable_sort(pending_.begin(), pending_.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.sid < b.sid;
                   });
  group_keys_.clear();
  group_begin_.clear();
  for (size_t k = 0; k < n; ++k) {
    if (k == 0 || pending_[k].sid != pending_[k - 1].sid) {
      group_begin_.push_back(static_cast<uint32_t>(k));
    }
    group_keys_.push_back(pending_[k].key);
  }
  group_begin_.push_back(static_cast<uint32_t>(n));
  group_values_.resize(n);
  tr.Lap(Layer::kGroup);

  const uint64_t epoch = snapshot_->epoch;
  for (size_t g = 0; g + 1 < group_begin_.size(); ++g) {
    const size_t begin = group_begin_[g];
    const size_t count = group_begin_[g + 1] - begin;
    const ServerId sid = pending_[begin].sid;
    const int32_t span = tr.OpenSpan(Layer::kShardMultiGet);
    uint64_t self = 0;
    uint64_t laps = 1;
    auto fetch = [&](Key key) {
      self += tr.Split();
      ++laps;
      ++counts_.storage_reads;
      const Value v = cluster_->storage().Get(key);
      tr.ChildLap(Layer::kStorageGet, span);
      return v;
    };
    BackendServer::FencedBatch ack = snapshot_->servers[sid]->MultiGet(
        std::span<const Key>(group_keys_.data() + begin, count), epoch, fetch,
        group_values_.data() + begin);
    self += tr.Split();
    tr.Charge(Layer::kShardMultiGet, self, laps, 1, count);
    tr.CloseSpan(span);
    if (ack.status != BackendServer::ShardStatus::kOk) {
      Fail("fenced MultiGet rejected on a static ring");
    }
    epoch_lookups_[sid] += count;
    counts_.backend_lookups += count;
    counts_.backend_hits += ack.hits;
  }
  for (size_t k = 0; k < n; ++k) out[pending_[k].slot] = group_values_[k];
  for (size_t i = 0; i < n; ++i) OnOperation(tr);
}

template <typename T>
void WalkClient::OnOperation(T& tr) {
  if (resizer_ == nullptr) return;
  resizer_->OnAccess();
  if (!resizer_->EpochComplete()) return;
  // The client's epoch-close rule: hold the epoch open until it carries
  // enough backend lookups for a meaningful max/min ratio, unless it has
  // stalled.
  constexpr uint64_t kEpochStallFactor = 8;
  uint64_t lookups = 0;
  for (uint64_t c : epoch_lookups_) lookups += c;
  const bool stalled = resizer_->accesses_in_epoch() >=
                       kEpochStallFactor * resizer_->epoch_size();
  if (lookups < resizer_->config().min_epoch_backend_lookups && !stalled) {
    return;
  }
  std::vector<uint8_t> mask(epoch_lookups_.size(), 0);
  for (size_t i = 0; i < mask.size(); ++i) {
    if (!cluster_->IsActive(static_cast<ServerId>(i))) mask[i] = 1;
  }
  tr.Lap(Layer::kWalk);
  resizer_->EndEpoch(epoch_lookups_, &mask);
  tr.Lap(Layer::kResizerEndEpoch);
  std::fill(epoch_lookups_.begin(), epoch_lookups_.end(), 0);
}

template cache::Value WalkClient::Get(Key, Tracer&);
template cache::Value WalkClient::Get(Key, NoTracer&);
template void WalkClient::Set(Key, Value, Tracer&);
template void WalkClient::Set(Key, Value, NoTracer&);
template void WalkClient::MultiGet(std::span<const Key>, Value*, Tracer&);
template void WalkClient::MultiGet(std::span<const Key>, Value*, NoTracer&);

}  // namespace cot::e2e
