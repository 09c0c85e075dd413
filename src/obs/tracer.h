// Trace session: one clock, one event ring per track (DESIGN.md §11).
//
// Track layout: track 0 is the engine/coordinator thread (cycle spans,
// Decide, chunk compiles, the §5.2 phases, the recorder's task spans); tracks
// 1..N are the parallel matcher's workers 0..N-1 (task spans, steal
// attempts, parks, queue-depth samples). A pool's worker 0 is the same OS
// thread as the coordinator, but it gets its own track: what it does *as a
// scheduler worker* and *as the engine* are different timelines.
//
// Lifecycle rules (the ones that keep §10's zero-allocation guarantee):
//   * ensure_tracks() is quiescent-only — ParallelMatcher::prewarm() calls
//     it from the (single-threaded) constructor, before any worker runs.
//   * During a cycle each ring is written by exactly one thread; recording
//     is a clock read plus a bump-and-store into preallocated memory.
//   * Export (obs/export.h) is quiescent-only: it reads every ring after
//     the cycle's join, which carries the happens-before edge.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/event_ring.h"

namespace psme::obs {

struct TraceOptions {
  /// Master switch. Off costs one null-pointer test per potential event.
  bool enabled = false;
  /// Per-track ring capacity, in events (40 bytes each). Overflow drops.
  uint32_t ring_events = 1u << 15;
};

class Tracer {
 public:
  explicit Tracer(const TraceOptions& opts) : opts_(opts) {
    epoch_ = std::chrono::steady_clock::now();
    ensure_tracks(1);  // track 0 (engine) always exists
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Grows the track set to at least `n` rings. Quiescent-only.
  void ensure_tracks(size_t n) {
    while (rings_.size() < n) {
      rings_.push_back(std::make_unique<EventRing>(opts_.ring_events));
    }
  }

  [[nodiscard]] size_t tracks() const { return rings_.size(); }
  [[nodiscard]] EventRing& ring(size_t track) { return *rings_[track]; }
  [[nodiscard]] const EventRing& ring(size_t track) const {
    return *rings_[track];
  }
  [[nodiscard]] const TraceOptions& options() const { return opts_; }

  /// Nanoseconds since this tracer's epoch (monotonic, thread-safe).
  [[nodiscard]] uint64_t now_ns() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  [[nodiscard]] uint64_t total_events() const {
    uint64_t n = 0;
    for (const auto& r : rings_) n += r->size();
    return n;
  }
  [[nodiscard]] uint64_t total_dropped() const {
    uint64_t n = 0;
    for (const auto& r : rings_) n += r->dropped();
    return n;
  }

 private:
  TraceOptions opts_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<EventRing>> rings_;
};

/// RAII span: stamps the start time at construction, pushes one complete
/// event at destruction (or at end()). A null tracer disables it entirely,
/// so untraced call sites pay a single branch.
class Span {
 public:
  Span() = default;
  Span(Tracer* t, size_t track, EventKind kind, uint32_t node = 0)
      : t_(t), track_(static_cast<uint32_t>(track)), kind_(kind), node_(node) {
    if (t_ != nullptr) t0_ = t_->now_ns();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  /// Attaches/overrides the node payload (e.g. an id known only mid-span).
  void set_node(uint32_t node) { node_ = node; }

  /// Closes the span early (idempotent).
  void end() {
    if (t_ == nullptr) return;
    TraceEvent e;
    e.ts_ns = t0_;
    e.dur_ns = t_->now_ns() - t0_;
    e.kind = kind_;
    e.node = node_;
    t_->ring(track_).push(e);
    t_ = nullptr;
  }

 private:
  Tracer* t_ = nullptr;
  uint32_t track_ = 0;
  EventKind kind_ = EventKind::MatchCycle;
  uint32_t node_ = 0;
  uint64_t t0_ = 0;
};

/// The PSME_TRACE=<path> env hook: nullptr when unset or empty. Demos and
/// benches use it both to switch tracing on and as the export destination.
const char* env_trace_path();

}  // namespace psme::obs
