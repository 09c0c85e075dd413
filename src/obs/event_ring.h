// Per-worker event storage for the tracing layer (DESIGN.md §11).
//
// A ring is a fixed-size buffer of fixed-size POD events, preallocated
// before any worker runs (ParallelMatcher::prewarm / Tracer construction)
// and written by exactly one thread for its lifetime. This is what lets the
// tracing layer coexist with the §10 zero-allocation guarantee: recording an
// event is a bump-and-store, overflow DROPS the event and counts it (the
// buffer never grows), and reading happens only at quiescence — export, the
// end-of-run table — when no writer is inside a cycle.
//
// The name "ring" describes the recycling discipline, not overwrite
// semantics: clear() rewinds the ring so the same storage records the next
// window, but within a window the earliest events win and the tail is
// dropped. Keeping the prefix (rather than the suffix) means a trace always
// shows how a cycle *started* — the part the §6-style attribution needs —
// and makes the drop accounting a single counter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace psme::obs {

/// Every recordable occurrence. Spans carry a duration; instants and
/// counter samples have dur_ns == 0. The exporters own the kind -> name /
/// Chrome-phase mapping (export.h).
enum class EventKind : uint8_t {
  // -- spans (dur_ns meaningful) ------------------------------------------
  TaskExec = 0,   // one node activation: node = node id, v0..v3 = TaskStats
                  // (tests, probes, inserts, emits), flags = side/add bits
  MatchCycle,     // Engine::match(), the whole cycle
  DrainRemoves,   // parallel match: the removals drain
  DrainAdds,      // parallel match: the additions drain
  Elaborate,      // Soar: one elaboration phase (fires + matches)
  Decide,         // Soar: one decision
  Gc,             // Soar: context-reachability garbage collection
  ChunkBuild,     // chunker backtrace + variablization (node = result level)
  ChunkCompile,   // run-time production compile (node = its P-node id)
  ProdRemove,     // run-time production removal (node = victim P-node id)
  UpdateA,        // §5.2 phase A: alpha-chain fill   (node = P-node id)
  UpdateB,        // §5.2 phase B: shared-amem right fill
  UpdateC,        // §5.2 phase C: last-shared-node replay
  Park,           // Steal worker parked; span covers the sleep
  // -- instants (dur_ns == 0) ---------------------------------------------
  StealOk,        // successful cross-worker take; node = victim worker
  StealFail,      // one full failed sweep over all peers; v0 = peers probed
  // -- counter samples ----------------------------------------------------
  QueueDepth,     // v0 = owner deque depth right after a publish
};

/// Fixed-size POD record. 40 bytes: a 32K-event ring is 1.25 MiB per track.
struct TraceEvent {
  uint64_t ts_ns = 0;   // start time, ns since the Tracer's epoch
  uint64_t dur_ns = 0;  // span length; 0 for instants/counters
  EventKind kind = EventKind::TaskExec;
  uint8_t flags = 0;  // TaskExec: bit0 = add, bit1 = right side
  uint16_t reserved = 0;
  uint32_t node = 0;  // node id / victim worker / kind-specific
  uint32_t v0 = 0, v1 = 0, v2 = 0, v3 = 0;  // kind-specific payload
};
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "rings memcpy events; keep TraceEvent POD");
static_assert(sizeof(TraceEvent) == 40, "event size is part of ring sizing");

inline constexpr uint8_t kTaskFlagAdd = 1u << 0;
inline constexpr uint8_t kTaskFlagRight = 1u << 1;

/// Single-writer event buffer. push() never allocates and never blocks:
/// when the buffer is full the event is dropped and counted. Readers
/// (exporters, tests) run only at quiescence — after the writer's cycle has
/// joined — so no synchronization is needed beyond that lifecycle rule.
class EventRing {
 public:
  explicit EventRing(uint32_t capacity_events)
      : buf_(std::make_unique<TraceEvent[]>(
            capacity_events == 0 ? 1 : capacity_events)),
        cap_(capacity_events == 0 ? 1 : capacity_events) {}

  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  /// Owner-thread only. Allocation-free; drops and counts on overflow.
  void push(const TraceEvent& e) {
    if (size_ == cap_) {
      ++dropped_;
      return;
    }
    buf_[size_++] = e;
  }

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] size_t capacity() const { return cap_; }
  [[nodiscard]] uint64_t dropped() const { return dropped_; }
  [[nodiscard]] const TraceEvent& operator[](size_t i) const {
    return buf_[i];
  }

  /// Rewinds the ring for the next recording window (quiescent-only). The
  /// drop counter is cumulative across windows: it answers "did this run
  /// ever lose events", which clear() must not erase.
  void clear() { size_ = 0; }

 private:
  std::unique_ptr<TraceEvent[]> buf_;
  uint32_t cap_;
  uint32_t size_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace psme::obs
