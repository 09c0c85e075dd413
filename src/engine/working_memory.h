// Working memory: owns all wmes, assigns timetags, provides structural
// lookup (Soar-mode deduplication), and defers freeing removed wmes until
// the end of the match cycle (delete tokens still reference them while they
// traverse the network).
//
// Storage is a slab recycler: wmes live inside Recs carved from slabs the WM
// owns, and a removed wme's Rec returns to the free list at end_cycle() with
// its fields vector's capacity intact. The structural index is an intrusive
// growth-only chained table over the same Recs. At steady state (population
// oscillating under its high-water mark) an add/remove/end_cycle round trip
// touches no heap — the WM leg of the allocation-free engine cycle
// (tests/engine_alloc_test.cpp).
#pragma once

#include <memory>
#include <vector>

#include "rete/wme.h"

namespace psme {

class WorkingMemory {
 public:
  WorkingMemory();
  WorkingMemory(const WorkingMemory&) = delete;
  WorkingMemory& operator=(const WorkingMemory&) = delete;

  /// Span primary: copies the fields into a recycled wme (the vector-taking
  /// overload delegates here). The returned pointer is stable until the
  /// end_cycle() after its removal.
  const Wme* add(Symbol cls, const Value* fields, size_t n);
  const Wme* add(Symbol cls, std::vector<Value> fields) {
    return add(cls, fields.data(), fields.size());
  }

  /// Marks `w` removed. It stays allocated (in limbo) until end_cycle().
  /// Returns false if `w` is not live. `w` must have come from this WM's
  /// add() (handles cast back to their Rec).
  bool remove(const Wme* w);

  /// Structural lookup among live wmes.
  [[nodiscard]] const Wme* find(Symbol cls, const Value* fields,
                                size_t n) const;
  [[nodiscard]] const Wme* find(Symbol cls,
                                const std::vector<Value>& fields) const {
    return find(cls, fields.data(), fields.size());
  }

  [[nodiscard]] bool is_live(const Wme* w) const {
    return rec_of(w)->state == Rec::State::Live;
  }

  /// Calls `f(const Wme*)` for every live wme, in storage order (not
  /// timetag order). Allocation-free; visits every record, removed ones
  /// retained under set_retain_removed included, so it costs O(records).
  template <class F>
  void for_each_live(F&& f) const {
    for (const auto& slab : slabs_) {
      for (size_t i = 0; i < kSlabRecs; ++i) {
        if (slab[i].state == Rec::State::Live) f(&slab[i].wme);
      }
    }
  }

  /// Snapshot of live wmes ordered by timetag (for_each_live, then a sort).
  [[nodiscard]] std::vector<const Wme*> live() const;

  [[nodiscard]] size_t size() const { return live_count_; }

  /// Dense index of `w`'s record, fixed when its slab was carved and below
  /// record_capacity(): callers keep per-wme side tables as arrays indexed
  /// by it. A recycled record keeps its index, so a side table must reset
  /// an entry when its wme is removed (the Soar kernel does).
  [[nodiscard]] static uint32_t record_index(const Wme* w) {
    return rec_of(w)->index;
  }
  [[nodiscard]] size_t record_capacity() const {
    return slabs_.size() * kSlabRecs;
  }

  /// Recycles wmes removed during the cycle. Call only at quiescence. With
  /// retain_removed set, removed wmes stay allocated (the Soar kernel keeps
  /// them so chunking's provenance records remain readable after garbage
  /// collection).
  void end_cycle();

  void set_retain_removed(bool retain) { retain_removed_ = retain; }

  [[nodiscard]] uint64_t timetags_issued() const { return timetag_; }

  /// Slabs allocated since construction (diagnostics: flat at steady state).
  [[nodiscard]] size_t slab_allocs() const { return slabs_.size(); }

 private:
  // Wme is the first member: the const Wme* handles handed out cast back to
  // their Rec (same pattern as ConflictSet::Node).
  struct Rec {
    Wme wme;
    Rec* next = nullptr;  // content-bucket chain (Live) or free list (Free)
    enum class State : uint8_t { Free, Live, Limbo } state = State::Free;
    uint32_t index = 0;  // record_index(); fits the padding after state
  };
  static_assert(std::is_standard_layout_v<Rec>,
                "Wme* <-> Rec* relies on first-member layout");
  static_assert(sizeof(Rec) == sizeof(Wme) + 2 * sizeof(void*),
                "the record index must fit the padding after state");

  static constexpr size_t kSlabRecs = 64;
  static constexpr size_t kInitialBuckets = 64;

  static Rec* rec_of(const Wme* w) {
    return reinterpret_cast<Rec*>(const_cast<Wme*>(w));
  }
  [[nodiscard]] size_t bucket_of(size_t hash) const {
    return (hash ^ (hash >> 17)) & bucket_mask_;
  }
  Rec* alloc_rec();
  void grow_buckets();

  std::vector<std::unique_ptr<Rec[]>> slabs_;
  Rec* free_ = nullptr;
  std::vector<Rec*> buckets_;  // structural index over live recs
  size_t bucket_mask_ = 0;
  size_t live_count_ = 0;
  std::vector<Rec*> limbo_;
  uint64_t timetag_ = 0;
  bool retain_removed_ = false;
};

}  // namespace psme
