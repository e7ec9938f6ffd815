// e2e_bench: wall-clock benchmark of the in-process Get/Set stack
// (FrontendClient -> routing -> BackendServer -> StorageLayer), built
// through the library's public API only.
//
//   e2e_bench --workload NAME [--seed N] [--seconds S] [--trace]
//             [--ops-scale F] [--setup-reps N] [--spans PATH]
//
// Untraced (default): one closed-loop FrontendClient per thread; each
// thread issues its next call only when the previous one returns. Every
// call is timed as the gap between consecutive TSC stamps, so a latency
// includes one clock read. Prints the end-to-end metrics.
//
// --trace: the same workload, seed and op count run three times in one
// process: through the clients (the reference), as a bare walk that calls
// each layer itself in the client's protocol order, and as the same walk
// with a span around every layer call. Both walks must reproduce the
// reference's counts exactly. Prints the per-layer metrics.
//
// Each pass: set-up, an untimed warm-up, a stats reset, then twenty timed
// rounds. Ops are generated before each round and results verified after
// it, both outside the timed region. Any wrong read or broken accounting
// identity fails the run (exit 1). The last stdout line is one JSON object.

#include <algorithm>
#include <array>
#include <barrier>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "clock.h"
#include "cluster/storage_layer.h"
#include "core/cot_cache.h"
#include "metrics/imbalance.h"
#include "stack.h"
#include "walk.h"
#include "workload/op_stream.h"

namespace cot::e2e {
namespace {

constexpr int kTimedRounds = 20;
/// End-to-end timings come from the fastest quarter of the timed rounds.
/// Co-tenants on a shared host slow some rounds for seconds at a time
/// (cache and memory-bandwidth contention); they never speed one up, so
/// the least-disturbed rounds are the steadiest estimate of the code's own
/// cost.
constexpr int kSelectedRounds = kTimedRounds / 4;
/// A traced run makes three passes (see `RunTraced`), each over this share
/// of the timed ops, so it takes about as long as an untraced run.
constexpr double kTraceShare = 1.0 / 3.0;

/// How a pass issues its ops.
enum class Pass {
  /// Through the clients, every call timed (the untraced run).
  kClient,
  /// Through the clients, only rounds timed.
  kBareClient,
  /// The walk without spans.
  kBareWalk,
  /// The walk with a span around every layer call.
  kTracedWalk,
};
constexpr uint32_t kMaxBatch = 64;
/// The warm-up stream's seed. It is the same for every --seed, so every run
/// enters its timed region from the same state (the same converged resizer,
/// the same cache contents); --seed varies only the measured traffic.
constexpr uint64_t kWarmupSeed = 0x5EED0000;

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  double ops_scale = 1.0;
  int setup_reps = 5;
  std::string spans_path;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "e2e_bench: %s\n"
               "usage: e2e_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace] [--ops-scale F] [--setup-reps N] [--spans PATH]\n"
               "workloads:",
               msg);
  for (const WorkloadSpec& w : Workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double ParseDouble(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v <= 0.0) {
    Usage((std::string(flag) + " needs a positive number").c_str());
  }
  return v;
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage((arg + " needs a value").c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      const char* text = value();
      char* end = nullptr;
      o.seed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0') Usage("--seed needs an integer");
    } else if (arg == "--seconds") {
      o.seconds = ParseDouble("--seconds", value());
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--ops-scale") {
      o.ops_scale = ParseDouble("--ops-scale", value());
    } else if (arg == "--setup-reps") {
      o.setup_reps =
          static_cast<int>(ParseDouble("--setup-reps", value()));
    } else if (arg == "--spans") {
      o.spans_path = value();
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  if (o.setup_reps < 1) o.setup_reps = 1;
  return o;
}

uint64_t ResidentBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct RoundPlan {
  size_t ops = 0;  // per thread; keys on the batch path
  bool timed = false;
};

/// Warm-up rounds (at most one timed round's size each), then the timed
/// rounds. Every round is a whole number of batches.
std::vector<RoundPlan> PlanRounds(const WorkloadSpec& w, uint64_t warm,
                                  uint64_t timed) {
  const uint64_t batch = w.batch;
  const uint64_t round =
      std::max<uint64_t>(batch, timed / kTimedRounds / batch * batch);
  std::vector<RoundPlan> plan;
  for (uint64_t left = warm; left > 0;) {
    uint64_t n = std::min(round, left);
    n = (n + batch - 1) / batch * batch;
    plan.push_back(RoundPlan{static_cast<size_t>(n), false});
    left -= std::min(n, left);
  }
  for (int r = 0; r < kTimedRounds; ++r) {
    plan.push_back(RoundPlan{static_cast<size_t>(round), true});
  }
  return plan;
}

/// Traffic and accounting counts over a pass's timed region.
struct Counts {
  uint64_t reads = 0;
  uint64_t updates = 0;
  uint64_t local_hits = 0;
  uint64_t backend_lookups = 0;
  uint64_t backend_hits = 0;
  uint64_t storage_reads = 0;
  uint64_t invalidations = 0;
  /// The storage layer's own read/write counters.
  uint64_t storage_read_count = 0;
  uint64_t storage_write_count = 0;
  /// Lookups counted at each server (shards and cache nodes) by ServerId.
  std::vector<uint64_t> server_lookups;
  std::vector<uint8_t> is_cache_node;
  uint64_t epoch_rejects = 0;
  uint64_t resizer_epochs = 0;
  uint64_t resizes = 0;
  uint64_t cache_lines = 0;
  uint64_t tracker_lines = 0;
  uint64_t cot_insertions = 0;
  uint64_t cot_evictions = 0;
};

/// Counter values at the end of warm-up, subtracted at the end.
struct Baseline {
  uint64_t storage_reads = 0;
  uint64_t storage_writes = 0;
  std::vector<uint64_t> resizer_epochs;
  std::vector<size_t> resizer_history;
};

/// One thread's op stream. Every pass of a run replays the same ops.
struct Traffic {
  std::optional<workload::OpStream> warmup_stream;
  std::optional<workload::OpStream> stream;
  std::vector<uint32_t> ops;
};

/// One thread's state within one pass.
struct ThreadState {
  std::vector<uint64_t> results;
  /// Per-call latencies, one histogram per timed round (`Pass::kClient`).
  std::vector<LatencyHistogram> latency;
  std::unique_ptr<Tracer> tracer;
  uint64_t seq = 0;
  uint64_t next_op_id = 0;
  uint64_t busy_ticks = 0;
  uint64_t wrong_reads = 0;
};

struct PassResult {
  /// Each set-up's duration; the pass runs on the last one built.
  std::vector<double> setup_seconds;
  uint64_t rss_growth = 0;
  std::vector<double> round_seconds;
  uint64_t round_ops = 0;  // all threads, per timed round
  uint64_t timed_ops = 0;
  uint64_t busy_ticks = 0;  // sum over threads, timed rounds
  std::vector<LatencyHistogram> round_latency;
  uint64_t wrong_reads = 0;
  Counts counts;
  std::vector<LayerStats> layers;
  std::vector<std::vector<SpanRecord>> spans;
};

void Generate(Traffic& traffic, const RoundPlan& round) {
  workload::OpStream& stream =
      round.timed ? *traffic.stream : *traffic.warmup_stream;
  for (size_t i = 0; i < round.ops; ++i) {
    traffic.ops[i] = EncodeOp(stream.Next());
  }
}

/// One round through the clients. `kStamp` times every call (the
/// untraced run's latency samples); without it only the round is timed.
template <bool kStamp>
void RunClientRound(const WorkloadSpec& w, cluster::FrontendClient& client,
                    const uint32_t* ops, ThreadState& ts, size_t n,
                    LatencyHistogram* latency = nullptr) {
  uint64_t* results = ts.results.data();
  const uint64_t start = Tsc();
  uint64_t prev = start;
  auto stamp = [&]() {
    if constexpr (kStamp) {
      const uint64_t t = Tsc();
      latency->Add(t - prev);
      prev = t;
    }
  };
  if (w.batch == 1) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t op = ops[i];
      const uint64_t key = OpKey(op);
      if (IsUpdate(op)) {
        const uint64_t value = MakeValue(key, ++ts.seq);
        client.Set(key, value);
        results[i] = value;
      } else {
        results[i] = client.Get(key);
      }
      stamp();
    }
  } else {
    std::array<cache::Key, kMaxBatch> keys{};
    for (size_t i = 0; i < n; i += w.batch) {
      for (uint32_t b = 0; b < w.batch; ++b) keys[b] = OpKey(ops[i + b]);
      const std::vector<cache::Value> values =
          client.MultiGet(std::span<const cache::Key>(keys.data(), w.batch));
      std::copy(values.begin(), values.end(), results + i);
      stamp();
    }
  }
  ts.busy_ticks += Tsc() - start;
}

/// One round of the walk, with spans (`Tracer`) or without (`NoTracer`).
template <typename T>
void RunWalkRound(const WorkloadSpec& w, WalkClient& walker, T& tr,
                  const uint32_t* ops, ThreadState& ts, size_t n) {
  uint64_t* results = ts.results.data();
  const uint64_t start = Tsc();
  tr.StartRound();
  if (w.batch == 1) {
    for (size_t i = 0; i < n; ++i) {
      tr.BeginOp(ts.next_op_id++);
      const uint32_t op = ops[i];
      const uint64_t key = OpKey(op);
      if (IsUpdate(op)) {
        const uint64_t value = MakeValue(key, ++ts.seq);
        walker.Set(key, value, tr);
        results[i] = value;
      } else {
        results[i] = walker.Get(key, tr);
      }
      tr.EndOp();
    }
  } else {
    std::array<cache::Key, kMaxBatch> keys{};
    for (size_t i = 0; i < n; i += w.batch) {
      tr.BeginOp(ts.next_op_id++);
      for (uint32_t b = 0; b < w.batch; ++b) keys[b] = OpKey(ops[i + b]);
      walker.MultiGet(std::span<const cache::Key>(keys.data(), w.batch),
                      results + i, tr);
      tr.EndOp();
    }
  }
  ts.busy_ticks += Tsc() - start;
}

/// Checks a round's recorded return values. With one client a read must
/// return exactly the latest value written to its key (`shadow` holds it,
/// 0 = never written); with several, any value written for that key or
/// its initial value.
uint64_t VerifyRound(const uint32_t* ops, const ThreadState& ts, size_t n,
                     std::vector<uint64_t>* shadow) {
  uint64_t wrong = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t op = ops[i];
    const uint64_t key = OpKey(op);
    const uint64_t v = ts.results[i];
    if (IsUpdate(op)) {
      if (shadow != nullptr) (*shadow)[key] = v;
      continue;
    }
    if (shadow != nullptr) {
      const uint64_t latest = (*shadow)[key];
      const uint64_t expected =
          latest != 0 ? latest : cluster::StorageLayer::InitialValue(key);
      wrong += v != expected;
    } else {
      wrong += !(v == cluster::StorageLayer::InitialValue(key) ||
                 (v >> 32) == key);
    }
  }
  return wrong;
}

core::CotCache* CotOf(Stack& s, size_t t) {
  if (!s.walkers.empty()) return s.walkers[t]->cache();
  return dynamic_cast<core::CotCache*>(s.clients[t]->local_cache());
}

core::ElasticResizer* ResizerOf(Stack& s, size_t t) {
  if (!s.walkers.empty()) return s.walkers[t]->resizer();
  return s.clients[t]->resizer();
}

/// The stats reset between warm-up and the timed region. Runs while every
/// thread waits at the barrier.
Baseline ResetAfterWarmup(Stack& s, std::vector<ThreadState>& threads) {
  Baseline b;
  for (size_t t = 0; t < threads.size(); ++t) {
    threads[t].busy_ticks = 0;
    if (threads[t].tracer != nullptr) threads[t].tracer->Reset();
    if (!s.walkers.empty()) {
      s.walkers[t]->ResetCounts();
    } else {
      s.clients[t]->ResetStats();
    }
    if (core::CotCache* cot = CotOf(s, t)) cot->ResetStats();
    core::ElasticResizer* resizer = ResizerOf(s, t);
    b.resizer_epochs.push_back(resizer ? resizer->epochs_completed() : 0);
    b.resizer_history.push_back(resizer ? resizer->history().size() : 0);
  }
  s.cluster->ResetServerCounters();
  b.storage_reads = s.cluster->storage().read_count();
  b.storage_writes = s.cluster->storage().write_count();
  return b;
}

Counts CollectCounts(Stack& s, size_t threads, const Baseline& b) {
  Counts c;
  for (size_t t = 0; t < threads; ++t) {
    if (!s.walkers.empty()) {
      const WalkCounts& w = s.walkers[t]->counts();
      c.reads += w.reads;
      c.updates += w.updates;
      c.local_hits += w.local_hits;
      c.backend_lookups += w.backend_lookups;
      c.backend_hits += w.backend_hits;
      c.storage_reads += w.storage_reads;
      c.invalidations += w.invalidations;
    } else {
      const cluster::FrontendStats& f = s.clients[t]->stats();
      c.reads += f.reads;
      c.updates += f.updates;
      c.local_hits += f.local_hits;
      c.backend_lookups += f.backend_lookups;
      c.backend_hits += f.backend_hits;
      c.storage_reads += f.storage_reads;
      c.invalidations += f.invalidations;
    }
    if (core::CotCache* cot = CotOf(s, t)) {
      c.cot_insertions += cot->stats().insertions;
      c.cot_evictions += cot->stats().evictions;
      c.cache_lines += cot->capacity();
      c.tracker_lines += cot->tracker_capacity();
    }
    if (core::ElasticResizer* resizer = ResizerOf(s, t)) {
      c.resizer_epochs += resizer->epochs_completed() - b.resizer_epochs[t];
      const auto& history = resizer->history();
      for (size_t i = b.resizer_history[t]; i < history.size(); ++i) {
        if (i > 0 && (history[i].cache_capacity !=
                          history[i - 1].cache_capacity ||
                      history[i].tracker_capacity !=
                          history[i - 1].tracker_capacity)) {
          ++c.resizes;
        }
      }
    }
  }
  const uint32_t servers = s.cluster->server_count();
  for (uint32_t id = 0; id < servers; ++id) {
    const cluster::BackendServer& server = s.cluster->server(id);
    c.server_lookups.push_back(server.lookup_count());
    c.is_cache_node.push_back(s.cluster->IsCacheNode(id) ? 1 : 0);
    c.epoch_rejects += server.epoch_mismatch_count();
  }
  c.storage_read_count = s.cluster->storage().read_count() - b.storage_reads;
  c.storage_write_count =
      s.cluster->storage().write_count() - b.storage_writes;
  return c;
}

/// The accounting identities every fault-free run must satisfy. Returns
/// the number violated.
uint64_t CheckIdentities(const char* pass, const Counts& c) {
  uint64_t violations = 0;
  auto check = [&](bool ok, const char* what, uint64_t lhs, uint64_t rhs) {
    if (ok) return;
    ++violations;
    std::printf("VIOLATION (%s): %s: %" PRIu64 " != %" PRIu64 "\n", pass,
                what, lhs, rhs);
  };
  check(c.reads == c.local_hits + c.backend_lookups,
        "reads == local_hits + backend_lookups", c.reads,
        c.local_hits + c.backend_lookups);
  const uint64_t lookups = metrics::TotalLoad(c.server_lookups);
  check(lookups == c.backend_lookups,
        "sum of server lookup_count == backend_lookups", lookups,
        c.backend_lookups);
  check(c.storage_read_count == c.storage_reads,
        "storage read_count == storage_reads", c.storage_read_count,
        c.storage_reads);
  check(c.storage_write_count == c.updates, "storage write_count == updates",
        c.storage_write_count, c.updates);
  return violations;
}

/// Faithfulness of a walk: its counts must equal the reference run's. With several clients, backend hits and storage reads depend on
/// how their deletes and reads interleave, so only the interleaving-free
/// counts are compared. Returns the number of mismatches.
uint64_t CompareCounts(const Counts& ref, const Counts& walk,
                       bool single_client) {
  uint64_t mismatches = 0;
  auto same = [&](const char* what, uint64_t a, uint64_t b) {
    if (a == b) return;
    ++mismatches;
    std::printf("MISMATCH walk vs client: %s: %" PRIu64 " != %" PRIu64 "\n",
                what, b, a);
  };
  same("reads", ref.reads, walk.reads);
  same("updates", ref.updates, walk.updates);
  same("local_hits", ref.local_hits, walk.local_hits);
  same("backend_lookups", ref.backend_lookups, walk.backend_lookups);
  same("invalidations", ref.invalidations, walk.invalidations);
  same("storage_writes", ref.storage_write_count, walk.storage_write_count);
  same("resizer_epochs", ref.resizer_epochs, walk.resizer_epochs);
  same("final_cache_lines", ref.cache_lines, walk.cache_lines);
  same("final_tracker_lines", ref.tracker_lines, walk.tracker_lines);
  same("servers", ref.server_lookups.size(), walk.server_lookups.size());
  for (size_t i = 0;
       i < std::min(ref.server_lookups.size(), walk.server_lookups.size());
       ++i) {
    const std::string what = "lookups on server " + std::to_string(i);
    same(what.c_str(), ref.server_lookups[i], walk.server_lookups[i]);
  }
  if (single_client) {
    same("backend_hits", ref.backend_hits, walk.backend_hits);
    same("storage_reads", ref.storage_reads, walk.storage_reads);
    same("storage_read_count", ref.storage_read_count,
         walk.storage_read_count);
  }
  return mismatches;
}

/// Builds the stack `reps` times, timing each build, and keeps the last.
/// Every rep starts from the same heap state (the previous stack freed),
/// so their median is steady.
Stack TimedBuild(const WorkloadSpec& w, Mode mode, int reps,
                 std::vector<double>* seconds) {
  Stack s;
  for (int i = 0; i < reps; ++i) {
    s = Stack();
    const uint64_t t0 = SteadyNs();
    s = BuildStack(w, mode);
    seconds->push_back(static_cast<double>(SteadyNs() - t0) / 1e9);
  }
  return s;
}

/// One pass of a run: its own stack and per-thread state.
struct PassState {
  Pass pass = Pass::kClient;
  Stack stack;
  std::vector<ThreadState> threads;
  /// Single client: the latest value written to each key (0 = none).
  std::vector<uint64_t> shadow;
  Baseline baseline;
  PassResult result;
};

void RunRound(const WorkloadSpec& w, PassState& ps, uint32_t t,
              const uint32_t* ops, const RoundPlan& round,
              size_t timed_round) {
  ThreadState& ts = ps.threads[t];
  switch (ps.pass) {
    case Pass::kClient:
      if (round.timed) {
        RunClientRound<true>(w, *ps.stack.clients[t], ops, ts, round.ops,
                             &ts.latency[timed_round]);
      } else {
        RunClientRound<false>(w, *ps.stack.clients[t], ops, ts, round.ops);
      }
      break;
    case Pass::kBareClient:
      RunClientRound<false>(w, *ps.stack.clients[t], ops, ts, round.ops);
      break;
    case Pass::kBareWalk: {
      NoTracer none;
      RunWalkRound(w, *ps.stack.walkers[t], none, ops, ts, round.ops);
      break;
    }
    case Pass::kTracedWalk:
      RunWalkRound(w, *ps.stack.walkers[t], *ts.tracer, ops, ts, round.ops);
      break;
  }
}

/// Runs `passes` over the same ops, round by round in turn, so host noise
/// lands on every pass alike. Each pass has its own stack; only a
/// `Pass::kClient` pass times `setup_reps` set-ups.
std::vector<PassResult> RunPasses(const WorkloadSpec& w,
                                  const std::vector<Pass>& passes,
                                  const std::vector<RoundPlan>& plan,
                                  uint64_t seed, double span_cost,
                                  int setup_reps) {
  const uint32_t nthreads = w.threads;
  size_t buffer = 0;
  size_t first_timed = plan.size();
  for (size_t r = 0; r < plan.size(); ++r) {
    buffer = std::max(buffer, plan[r].ops);
    if (plan[r].timed) first_timed = std::min(first_timed, r);
  }

  // Everything a run allocates for itself is allocated and touched before
  // the RSS baseline, so rss_mb measures the stack alone.
  workload::PhaseSpec spec;
  spec.distribution = workload::Distribution::kZipfian;
  spec.skew = w.alpha;
  spec.read_fraction = w.read_fraction;
  auto make_stream = [&](uint64_t stream_seed) {
    auto stream = workload::OpStream::Create(kKeys, {spec}, stream_seed);
    if (!stream.ok()) {
      std::fprintf(stderr, "e2e_bench: %s\n",
                   stream.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(stream).value();
  };
  std::vector<Traffic> traffic(nthreads);
  for (uint32_t t = 0; t < nthreads; ++t) {
    traffic[t].warmup_stream.emplace(make_stream(kWarmupSeed + t));
    traffic[t].stream.emplace(make_stream(seed + t));
    traffic[t].ops.assign(buffer, 0);
  }
  std::vector<PassState> states(passes.size());
  for (size_t p = 0; p < passes.size(); ++p) {
    PassState& ps = states[p];
    ps.pass = passes[p];
    ps.threads.resize(nthreads);
    for (ThreadState& ts : ps.threads) {
      ts.results.assign(buffer, 0);
      if (ps.pass == Pass::kClient) ts.latency.resize(kTimedRounds);
      if (ps.pass == Pass::kTracedWalk) {
        ts.tracer = std::make_unique<Tracer>(span_cost);
      }
    }
    if (nthreads == 1) ps.shadow.assign(kKeys, 0);
  }

  const uint64_t rss0 = ResidentBytes();
  for (PassState& ps : states) {
    const bool client =
        ps.pass == Pass::kClient || ps.pass == Pass::kBareClient;
    ps.stack = TimedBuild(w, client ? Mode::kClient : Mode::kWalk,
                          ps.pass == Pass::kClient ? setup_reps : 1,
                          &ps.result.setup_seconds);
    if (first_timed == 0) ps.baseline = ResetAfterWarmup(ps.stack, ps.threads);
  }

  // Barrier phases alternate start / end of one (round, pass) step; the
  // completion step runs while every thread waits, so it owns the clock
  // and the stats reset.
  const size_t npasses = states.size();
  uint64_t phase = 0;
  uint64_t step_start = 0;
  auto on_phase = [&]() noexcept {
    const size_t step = phase / 2;
    const size_t round = step / npasses;
    PassState& ps = states[step % npasses];
    if (phase % 2 == 0) {
      step_start = SteadyNs();
    } else {
      if (plan[round].timed) {
        ps.result.round_seconds.push_back(
            static_cast<double>(SteadyNs() - step_start) / 1e9);
      }
      if (round + 1 == first_timed) {
        ps.baseline = ResetAfterWarmup(ps.stack, ps.threads);
      }
    }
    ++phase;
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(nthreads), on_phase);

  auto body = [&](uint32_t t) {
    for (size_t r = 0; r < plan.size(); ++r) {
      Generate(traffic[t], plan[r]);
      const uint32_t* ops = traffic[t].ops.data();
      for (PassState& ps : states) {
        sync.arrive_and_wait();
        RunRound(w, ps, t, ops, plan[r], r - std::min(r, first_timed));
        sync.arrive_and_wait();
        ps.threads[t].wrong_reads +=
            VerifyRound(ops, ps.threads[t], plan[r].ops,
                        nthreads == 1 ? &ps.shadow : nullptr);
      }
    }
  };
  std::vector<std::thread> workers;
  for (uint32_t t = 1; t < nthreads; ++t) workers.emplace_back(body, t);
  body(0);
  for (std::thread& worker : workers) worker.join();

  const uint64_t rss1 = ResidentBytes();
  std::vector<PassResult> results;
  for (PassState& ps : states) {
    PassResult& r = ps.result;
    r.rss_growth = rss1 > rss0 ? rss1 - rss0 : 0;
    r.counts = CollectCounts(ps.stack, nthreads, ps.baseline);
    r.round_ops = plan.back().ops * nthreads;
    r.timed_ops = r.round_ops * kTimedRounds;
    r.layers.resize(kLayerCount);
    r.round_latency.resize(ps.pass == Pass::kClient ? kTimedRounds : 0);
    for (ThreadState& ts : ps.threads) {
      for (size_t i = 0; i < ts.latency.size(); ++i) {
        r.round_latency[i].Merge(ts.latency[i]);
      }
      r.busy_ticks += ts.busy_ticks;
      r.wrong_reads += ts.wrong_reads;
      if (ts.tracer == nullptr) continue;
      for (size_t l = 0; l < kLayerCount; ++l) {
        const LayerStats& s = ts.tracer->stats(static_cast<Layer>(l));
        LayerStats& m = r.layers[l];
        m.ticks += s.ticks;
        m.laps += s.laps;
        m.calls += s.calls;
        m.keys += s.keys;
        m.hist.Merge(s.hist);
      }
      r.spans.push_back(ts.tracer->spans());
    }
    results.push_back(std::move(r));
  }
  return results;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetric(const Metric& m) {
  std::printf("  %-42s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CountsJson(const Counts& c) {
  std::string s = "{";
  auto field = [&](const char* name, uint64_t v) {
    if (s.size() > 1) s += ", ";
    s += "\"" + std::string(name) + "\": " + std::to_string(v);
  };
  field("reads", c.reads);
  field("updates", c.updates);
  field("local_hits", c.local_hits);
  field("backend_lookups", c.backend_lookups);
  field("backend_hits", c.backend_hits);
  field("storage_reads", c.storage_reads);
  field("storage_read_count", c.storage_read_count);
  field("storage_write_count", c.storage_write_count);
  field("invalidations", c.invalidations);
  field("resizer_epochs", c.resizer_epochs);
  field("resizes", c.resizes);
  field("cache_lines", c.cache_lines);
  field("tracker_lines", c.tracker_lines);
  s += ", \"server_lookups\": [";
  for (size_t i = 0; i < c.server_lookups.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(c.server_lookups[i]);
  }
  return s + "]}";
}

void PrintResult(const Options& o, const WorkloadSpec& w, bool correct,
                 uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics,
                 const std::string& extra) {
  std::string json = "{\"workload\": \"" + std::string(w.name) + "\"";
  json += ", \"seed\": " + std::to_string(o.seed);
  json += ", \"trace\": " + std::string(o.trace ? "true" : "false");
  json += ", \"threads\": " + std::to_string(w.threads);
  json += ", \"correct\": " + std::string(correct ? "true" : "false");
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += extra;
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Ring-shard imbalance I_c: max / min lookups over shards on the ring.
double RingImbalance(const Counts& c) {
  std::vector<uint64_t> shards;
  for (size_t i = 0; i < c.server_lookups.size(); ++i) {
    if (!c.is_cache_node[i]) shards.push_back(c.server_lookups[i]);
  }
  return metrics::LoadImbalance(shards);
}

int RunUntraced(const Options& o, const WorkloadSpec& w, uint64_t warm,
                uint64_t timed, TscClock& clock) {
  const std::vector<RoundPlan> plan = PlanRounds(w, warm, timed);
  PassResult r =
      RunPasses(w, {Pass::kClient}, plan, o.seed, 0.0, o.setup_reps)[0];

  clock.Calibrate();

  const Counts& c = r.counts;
  const uint64_t violations = CheckIdentities("client", c);
  const uint64_t failed = r.wrong_reads + violations;
  if (r.wrong_reads > 0) {
    std::printf("VIOLATION: %" PRIu64 " wrong reads\n", r.wrong_reads);
  }
  // The fastest quarter of the rounds: their median throughput, and the
  // latency percentiles of every call they made.
  std::vector<size_t> order(r.round_seconds.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return r.round_seconds[a] < r.round_seconds[b];
  });
  order.resize(kSelectedRounds);
  std::vector<double> throughput;
  LatencyHistogram latency;
  for (size_t i : order) {
    throughput.push_back(static_cast<double>(r.round_ops) /
                         r.round_seconds[i]);
    latency.Merge(r.round_latency[i]);
  }
  const double ops = static_cast<double>(r.timed_ops);
  std::vector<Metric> m = {
      {"ops_per_s", Median(throughput), "ops/s"},
      {"lat_p90_ns", clock.ToNs(latency.Quantile(0.90)), "ns"},
      {"lat_p99_ns", clock.ToNs(latency.Quantile(0.99)), "ns"},
      {"setup_s", Median(r.setup_seconds), "s"},
      {"rss_mb", static_cast<double>(r.rss_growth) / (1024.0 * 1024.0),
       "MiB"},
      {"imbalance", RingImbalance(c), "ratio"},
      {"backend_lookups_per_op",
       Ratio(static_cast<double>(metrics::TotalLoad(c.server_lookups)), ops), "lookups/op"},
      {"hit_rate", Ratio(static_cast<double>(c.local_hits),
                         static_cast<double>(c.reads)),
       "ratio"},
      {"error_rate", Ratio(static_cast<double>(failed), ops), "ratio"},
      {"lat_p50_ns", clock.ToNs(latency.Quantile(0.50)), "ns"},
      {"lat_p999_ns", clock.ToNs(latency.Quantile(0.999)), "ns"},
      {"lat_samples", static_cast<double>(latency.count()), "calls"},
  };
  std::printf("workload %.*s seed %" PRIu64 " threads %u untraced: %" PRIu64
              " timed ops in %d rounds\n",
              static_cast<int>(w.name.size()), w.name.data(), o.seed,
              w.threads, r.timed_ops, kTimedRounds);
  for (const Metric& metric : m) PrintMetric(metric);
  PrintResult(o, w, failed == 0, r.timed_ops, failed, m,
              ", \"counts\": " + CountsJson(c));
  return failed == 0 ? 0 : 1;
}

void WriteSpans(const std::string& path, const PassResult& walk,
                const TscClock& clock) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "e2e_bench: cannot write %s\n", path.c_str());
    return;
  }
  uint64_t origin = UINT64_MAX;
  for (const auto& spans : walk.spans) {
    if (!spans.empty()) origin = std::min(origin, spans.front().start);
  }
  for (size_t t = 0; t < walk.spans.size(); ++t) {
    const auto& spans = walk.spans[t];
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      const std::string_view layer =
          s.parent < 0 ? std::string_view("op") : LayerName(s.layer);
      std::fprintf(f,
                   "{\"thread\": %zu, \"op\": %" PRIu64
                   ", \"span\": %zu, \"parent\": %d, \"layer\": \"%.*s\", "
                   "\"start_ns\": %.1f, \"end_ns\": %.1f}\n",
                   t, s.op, i, s.parent, static_cast<int>(layer.size()),
                   layer.data(),
                   clock.ToNs(static_cast<double>(s.start - origin)),
                   clock.ToNs(static_cast<double>(s.end - origin)));
    }
  }
  std::fclose(f);
}

int RunTraced(const Options& o, const WorkloadSpec& w, uint64_t warm,
              uint64_t timed, TscClock& clock) {
  const std::vector<RoundPlan> plan = PlanRounds(w, warm, timed);
  const double c = CalibrateSpanCost();
  std::vector<PassResult> passes =
      RunPasses(w, {Pass::kBareClient, Pass::kBareWalk, Pass::kTracedWalk},
                plan, o.seed, c, 1);
  const PassResult& ref = passes[0];
  const PassResult& bare = passes[1];
  const PassResult& walk = passes[2];
  clock.Calibrate();

  const bool single = w.threads == 1;
  const uint64_t violations = CheckIdentities("client", ref.counts) +
                              CheckIdentities("bare walk", bare.counts) +
                              CheckIdentities("traced walk", walk.counts);
  const uint64_t mismatches =
      CompareCounts(ref.counts, bare.counts, single) +
      CompareCounts(ref.counts, walk.counts, single);
  const uint64_t wrong = ref.wrong_reads + bare.wrong_reads + walk.wrong_reads;
  if (wrong > 0) std::printf("VIOLATION: %" PRIu64 " wrong reads\n", wrong);
  const uint64_t failed = wrong + violations + mismatches;

  const auto& L = walk.layers;
  auto at = [&](Layer l) -> const LayerStats& {
    return L[static_cast<size_t>(l)];
  };
  auto self = [&](Layer l) {
    const LayerStats& s = at(l);
    return static_cast<double>(s.ticks) - static_cast<double>(s.laps) * c;
  };
  auto self_sum = [&](std::initializer_list<Layer> layers) {
    double total = 0.0;
    for (Layer l : layers) total += self(l);
    return total;
  };
  auto per_call_ns = [&](Layer l) {
    return clock.ToNs(Ratio(self(l), static_cast<double>(at(l).calls)));
  };
  double raw_total = 0.0;
  double laps_total = 0.0;
  for (const LayerStats& s : L) {
    raw_total += static_cast<double>(s.ticks);
    laps_total += static_cast<double>(s.laps);
  }
  const double corrected_total = raw_total - laps_total * c;
  const double ops = static_cast<double>(walk.timed_ops);
  const Counts& wc = walk.counts;

  const std::initializer_list<Layer> core_layers = {
      Layer::kCotGet, Layer::kCotPut, Layer::kCotInvalidate,
      Layer::kResizerEndEpoch};
  const std::initializer_list<Layer> routing_layers = {Layer::kRoute,
                                                       Layer::kAllReplicas};
  const std::initializer_list<Layer> backend_layers = {
      Layer::kShardGet, Layer::kShardMultiGet, Layer::kShardSet,
      Layer::kShardDelete};
  const std::initializer_list<Layer> storage_layers = {Layer::kStorageGet,
                                                       Layer::kStorageSet};

  SpanHistogram reads = at(Layer::kShardGet).hist;
  reads.Merge(at(Layer::kShardMultiGet).hist);
  uint64_t ring_lookups = 0;
  uint64_t tier_lookups = 0;
  uint64_t max_shard = 0;
  for (size_t i = 0; i < wc.server_lookups.size(); ++i) {
    if (wc.is_cache_node[i]) {
      tier_lookups += wc.server_lookups[i];
    } else {
      ring_lookups += wc.server_lookups[i];
      max_shard = std::max(max_shard, wc.server_lookups[i]);
    }
  }
  const double cot_calls = static_cast<double>(
      at(Layer::kCotGet).calls + at(Layer::kCotPut).calls +
      at(Layer::kCotInvalidate).calls);
  const double backend_read_keys = static_cast<double>(
      at(Layer::kShardGet).calls + at(Layer::kShardMultiGet).keys);

  std::vector<Metric> m = {
      {"core.cot_cache.get_ns", per_call_ns(Layer::kCotGet), "ns"},
      {"core.cot_cache.put_ns", per_call_ns(Layer::kCotPut), "ns"},
      {"core.cot_cache.invalidate_ns", per_call_ns(Layer::kCotInvalidate),
       "ns"},
      {"core.cot_cache.admit_ratio",
       Ratio(static_cast<double>(wc.cot_insertions),
             static_cast<double>(at(Layer::kCotPut).calls)),
       "ratio"},
      {"core.cot_cache.calls_per_op", Ratio(cot_calls, ops), "calls/op"},
      {"core.cot_cache.evictions_per_op",
       Ratio(static_cast<double>(wc.cot_evictions), ops), "1/op"},
      {"core.cot_cache.hit_rate",
       Ratio(static_cast<double>(wc.local_hits),
             static_cast<double>(wc.reads)),
       "ratio"},
      {"core.elastic_resizer.end_epoch_ns",
       per_call_ns(Layer::kResizerEndEpoch), "ns"},
      {"core.elastic_resizer.epochs", static_cast<double>(wc.resizer_epochs),
       "count"},
      {"core.elastic_resizer.resizes", static_cast<double>(wc.resizes),
       "count"},
      {"core.elastic_resizer.final_cache_lines",
       static_cast<double>(wc.cache_lines), "count"},
      {"core.time_share", Ratio(self_sum(core_layers), corrected_total),
       "ratio"},
      {"cluster.routing.route_ns", per_call_ns(Layer::kRoute), "ns"},
      {"cluster.routing.route_p999_ns",
       clock.ToNs(at(Layer::kRoute).hist.Quantile(0.999)), "ns"},
      {"cluster.routing.all_replicas_ns", per_call_ns(Layer::kAllReplicas),
       "ns"},
      {"cluster.routing.cache_tier_share",
       Ratio(static_cast<double>(tier_lookups),
             static_cast<double>(tier_lookups + ring_lookups)),
       "ratio"},
      {"cluster.routing.time_share",
       Ratio(self_sum(routing_layers), corrected_total), "ratio"},
      {"cluster.backend_server.get_ns", per_call_ns(Layer::kShardGet), "ns"},
      {"cluster.backend_server.get_p99_ns",
       clock.ToNs(at(Layer::kShardGet).hist.Quantile(0.99)), "ns"},
      {"cluster.backend_server.mget_ns_per_key",
       clock.ToNs(Ratio(self(Layer::kShardMultiGet),
                        static_cast<double>(at(Layer::kShardMultiGet).keys))),
       "ns"},
      {"cluster.backend_server.set_ns", per_call_ns(Layer::kShardSet), "ns"},
      {"cluster.backend_server.delete_ns", per_call_ns(Layer::kShardDelete),
       "ns"},
      {"cluster.backend_server.read_ns_per_key",
       clock.ToNs(Ratio(self(Layer::kShardGet) + self(Layer::kShardMultiGet),
                        backend_read_keys)),
       "ns"},
      {"cluster.backend_server.read_p99_ns", clock.ToNs(reads.Quantile(0.99)),
       "ns"},
      {"cluster.backend_server.hit_ratio",
       Ratio(static_cast<double>(wc.backend_hits),
             static_cast<double>(wc.backend_lookups)),
       "ratio"},
      {"cluster.backend_server.max_shard_share",
       Ratio(static_cast<double>(max_shard),
             static_cast<double>(ring_lookups)),
       "ratio"},
      {"cluster.backend_server.epoch_rejects",
       static_cast<double>(wc.epoch_rejects), "count"},
      {"cluster.backend_server.time_share",
       Ratio(self_sum(backend_layers), corrected_total), "ratio"},
      {"cluster.storage_layer.get_ns", per_call_ns(Layer::kStorageGet), "ns"},
      {"cluster.storage_layer.set_ns", per_call_ns(Layer::kStorageSet), "ns"},
      {"cluster.storage_layer.reads_per_op",
       Ratio(static_cast<double>(wc.storage_read_count), ops), "1/op"},
      {"cluster.storage_layer.writes_per_op",
       Ratio(static_cast<double>(wc.storage_write_count), ops), "1/op"},
      {"cluster.storage_layer.time_share",
       Ratio(self_sum(storage_layers), corrected_total), "ratio"},
      {"cluster.frontend_client.group_ns", per_call_ns(Layer::kGroup), "ns"},
      {"cluster.frontend_client.overhead_ns",
       clock.ToNs(Ratio(static_cast<double>(ref.busy_ticks) -
                            static_cast<double>(bare.busy_ticks),
                        ops)),
       "ns"},
      {"trace.span_cost_ns", clock.ToNs(c), "ns"},
      {"trace.unattributed_share", Ratio(self(Layer::kWalk), corrected_total),
       "ratio"},
      {"trace.overhead_ratio",
       Ratio(static_cast<double>(walk.busy_ticks),
             static_cast<double>(bare.busy_ticks)),
       "ratio"},
  };
  std::printf("workload %.*s seed %" PRIu64 " threads %u traced: %" PRIu64
              " timed ops per pass, walk %s the client's counts\n",
              static_cast<int>(w.name.size()), w.name.data(), o.seed,
              w.threads, walk.timed_ops,
              mismatches == 0 ? "reproduces" : "DOES NOT reproduce");
  for (const Metric& metric : m) PrintMetric(metric);
  if (!o.spans_path.empty()) WriteSpans(o.spans_path, walk, clock);
  const std::string extra =
      std::string(", \"faithful\": ") + (mismatches == 0 ? "true" : "false") +
      ", \"counts\": " + CountsJson(ref.counts) +
      ", \"walk_counts\": " + CountsJson(walk.counts);
  PrintResult(o, w, failed == 0,
              ref.timed_ops + bare.timed_ops + walk.timed_ops, failed, m,
              extra);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cot::e2e

int main(int argc, char** argv) {
  using namespace cot::e2e;
  TscClock clock;
  const Options o = ParseOptions(argc, argv);
  const WorkloadSpec* w = FindWorkload(o.workload);
  if (w == nullptr) Usage(("unknown workload " + o.workload).c_str());
  const double share = o.trace ? kTraceShare : 1.0;
  const uint64_t warm = static_cast<uint64_t>(
      std::llround(static_cast<double>(w->warmup_ops) * o.ops_scale));
  const uint64_t timed = std::max<uint64_t>(
      w->batch,
      static_cast<uint64_t>(std::llround(
          static_cast<double>(w->timed_ops_per_second) * o.seconds * share *
          o.ops_scale)));
  return o.trace ? RunTraced(o, *w, warm, timed, clock)
                 : RunUntraced(o, *w, warm, timed, clock);
}
