// Runtime match profiler (DESIGN.md §15): attributes executed activations,
// emitted children and nanosecond wall time to (node id, agent id), in
// per-worker cache-line-padded shards that are written lock-free on the
// match hot path and merged only at quiescence.
//
// Allocation discipline (the §10 guarantee must survive with profiling on):
//   * ensure_workers()/ensure_nodes()/ensure_agents() are quiescent-only —
//     binding an obs::TaskObserver (obs/record.h) to a shard grows the
//     shard set; ParallelMatcher grows the cells at the drain boundary of
//     run_cycle (next to MatchState::ensure_alpha) and the trace recorder
//     (TraceExecutor) at the top of its drain. Once the network and agent set
//     stop growing these are integer compares per cycle.
//   * sample()/record() are the hot path, called only by TaskObserver: a
//     shard-local tick, at most two steady-clock reads, and a handful of
//     array writes into preallocated cells. No locks, no atomics — each
//     shard is written by exactly one worker during a cycle, and merges
//     happen after the fork-join.
//
// Sampling (`sample_shift`): activation COUNTS are always exact; TIMING is
// taken on every 2^shift-th activation per worker (shift 0 = time all).
// Reports scale sampled time by activations/sampled per cell, so a resident
// multi-tenant server can keep the profiler always-on at, say, shift 6 and
// pay two clock reads per 64 activations.
//
// Node ids are recycled: run-time production removal frees a node's id and
// the next production added may reuse it (Network::make_node). Removal
// zeroes a freed id's cells (forget_nodes), so a cell counts only the node
// that holds its id now, and the cell arrays stay sized to the largest live
// network instead of growing with every id ever churned. A snapshot taken
// before a removal keeps the removed node's numbers; one taken after does
// not (bench_query diffs snapshots taken while its cue is live).
//
// The flight recorder keeps the last N (metrics + profile) snapshots in a
// preallocated ring for post-hoc inspection of long-lived sessions without
// tracing overhead: SoarKernel snapshots it every `flight_every` decisions
// and PSME_FLIGHT=<path> dumps the retained window as JSON at end of run.
// Snapshot capture is a reporting-time operation (it copies into the slot,
// reusing capacity after warm-up) and runs only at quiescent decision
// boundaries, never inside a match cycle.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace psme::obs {

/// Per-(shard, node) counters. POD; merged by field-wise addition.
struct ProfileCell {
  uint64_t activations = 0;  // tasks executed at this node
  uint64_t sampled = 0;      // of those, how many were timed
  uint64_t time_ns = 0;      // wall ns summed over the sampled ones
  uint64_t emits = 0;        // child activations emitted
};

/// Per-(shard, agent) counters (node detail collapses per agent; the full
/// node × agent × worker matrix would not stay cache-resident at 64 agents).
struct ProfileAgentCell {
  uint64_t activations = 0;
  uint64_t sampled = 0;
  uint64_t time_ns = 0;
};

/// Merged view across all shards. Reused across captures: snapshot_into()
/// assigns element-wise into retained capacity.
struct ProfileSnapshot {
  uint32_t sample_shift = 0;
  uint64_t total_activations = 0;
  uint64_t total_sampled = 0;
  uint64_t total_time_ns = 0;            // over sampled activations only
  std::vector<ProfileCell> nodes;        // indexed by node id
  std::vector<ProfileAgentCell> agents;  // indexed by agent id

  /// Estimated full-time of a cell: sampled time scaled back up by the
  /// cell's own activation/sampled ratio (exact when shift == 0).
  [[nodiscard]] static double est_ns(const ProfileCell& c) {
    if (c.sampled == 0) return 0;
    return static_cast<double>(c.time_ns) *
           (static_cast<double>(c.activations) /
            static_cast<double>(c.sampled));
  }
  [[nodiscard]] static double est_ns(const ProfileAgentCell& c) {
    if (c.sampled == 0) return 0;
    return static_cast<double>(c.time_ns) *
           (static_cast<double>(c.activations) /
            static_cast<double>(c.sampled));
  }
};

/// Monotonic timestamp for profiling spans. Separate from Tracer::now_ns so
/// profiling works with tracing off; only differences are ever used.
[[nodiscard]] inline uint64_t profile_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class MatchProfiler {
 public:
  explicit MatchProfiler(uint32_t sample_shift = 0)
      : shift_(sample_shift > 63 ? 63 : sample_shift),
        mask_((uint64_t{1} << shift_) - 1) {
    ensure_workers(1);  // shard 0 (the serial/coordinator thread) always exists
  }
  MatchProfiler(const MatchProfiler&) = delete;
  MatchProfiler& operator=(const MatchProfiler&) = delete;

  [[nodiscard]] uint32_t sample_shift() const { return shift_; }
  [[nodiscard]] size_t workers() const { return shards_.size(); }
  [[nodiscard]] size_t node_capacity() const {
    return shards_.empty() ? 0 : shards_[0]->nodes.size();
  }
  [[nodiscard]] size_t agent_capacity() const {
    return shards_.empty() ? 0 : shards_[0]->agents.size();
  }

  // ---- quiescent-only growth (drain boundaries, prewarm) -----------------
  void ensure_workers(size_t n) {
    while (shards_.size() < n) {
      auto s = std::make_unique<Shard>();
      if (!shards_.empty()) {
        s->nodes.resize(shards_[0]->nodes.size());
        s->agents.resize(shards_[0]->agents.size());
      }
      shards_.push_back(std::move(s));
    }
  }
  void ensure_nodes(size_t n) {
    if (n <= node_capacity()) return;
    for (auto& s : shards_) s->nodes.resize(n);
  }
  void ensure_agents(size_t n) {
    if (n <= agent_capacity()) return;
    for (auto& s : shards_) s->agents.resize(n);
  }

  // ---- hot path (one writer per shard during a cycle) --------------------
  /// Pre-execute: advances the shard's sampling tick; true = time this one.
  [[nodiscard]] bool sample(size_t worker) {
    return (shards_[worker]->tick++ & mask_) == 0;
  }

  /// Post-execute: folds one task into the worker's shard. `dur_ns` is
  /// meaningful only when `timed` (callers pass 0 otherwise).
  void record(size_t worker, uint32_t node, uint32_t agent, bool timed,
              uint64_t dur_ns, uint64_t emits) {
    Shard& s = *shards_[worker];
    ProfileCell& c = s.nodes[node];
    ++c.activations;
    c.emits += emits;
    ProfileAgentCell& a = s.agents[agent];
    ++a.activations;
    if (timed) {
      ++c.sampled;
      c.time_ns += dur_ns;
      ++a.sampled;
      a.time_ns += dur_ns;
    }
  }

  // ---- quiescent-only reads ----------------------------------------------
  /// Merges every shard into `out`, reusing its capacity.
  void snapshot_into(ProfileSnapshot& out) const;
  [[nodiscard]] ProfileSnapshot snapshot() const {
    ProfileSnapshot s;
    snapshot_into(s);
    return s;
  }
  /// Zeroes every cell (capacity retained). Sampling ticks keep running.
  void reset();
  /// Zeroes the node cells of `ids` in every shard: removal frees those ids
  /// for reuse, and a reused id's cell must start from zero.
  void forget_nodes(const std::vector<uint32_t>& ids);

 private:
  struct alignas(64) Shard {
    uint64_t tick = 0;  // sampling counter; never reset (phase-free)
    std::vector<ProfileCell> nodes;
    std::vector<ProfileAgentCell> agents;
  };

  uint32_t shift_;
  uint64_t mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// One retained flight-recorder entry.
struct FlightSnapshot {
  uint64_t seq = 0;     // 0-based capture index (monotonic over the run)
  uint64_t marker = 0;  // caller-supplied position (Soar: decision count)
  MetricsRegistry metrics;
  ProfileSnapshot profile;
};

/// Bounded ring of (metrics, profile) snapshots: capacity slots allocated up
/// front, overwritten round-robin, so a long-lived session retains exactly
/// the last `capacity` captures. Single-writer, quiescent-only (the §11
/// read rules), reporting-time allocation only (slot reuse after warm-up).
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity)
      : ring_(capacity == 0 ? 1 : capacity) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  [[nodiscard]] size_t capacity() const { return ring_.size(); }
  /// Snapshots retained (== min(count, capacity)).
  [[nodiscard]] size_t size() const {
    return count_ < ring_.size() ? static_cast<size_t>(count_) : ring_.size();
  }
  /// Snapshots ever taken (overwritten ones included).
  [[nodiscard]] uint64_t count() const { return count_; }

  /// Captures `m` plus (when non-null) `prof`'s merged profile into the
  /// oldest slot. Quiescent-only.
  void snapshot(const MetricsRegistry& m, const MatchProfiler* prof,
                uint64_t marker);

  /// Retained snapshots in chronological order: 0 = oldest, size()-1 =
  /// newest.
  [[nodiscard]] const FlightSnapshot& at(size_t i) const;

  /// Deterministic JSON of the retained window (schema in DESIGN.md §15).
  [[nodiscard]] std::string to_json() const;
  /// Writes to_json() to `path`. Returns false on IO failure.
  bool dump(const char* path) const;

 private:
  std::vector<FlightSnapshot> ring_;
  uint64_t count_ = 0;
};

/// The PSME_FLIGHT=<path> env hook: nullptr when unset or empty. SoarKernel
/// arms its per-decision flight recorder when this is set and dumps the
/// retained window there at the end of run() (same shape as PSME_TRACE).
const char* env_flight_path();

}  // namespace psme::obs
