#include "engine/working_memory.h"

#include <algorithm>

namespace psme {

WorkingMemory::WorkingMemory() {
  buckets_.assign(kInitialBuckets, nullptr);
  bucket_mask_ = kInitialBuckets - 1;
}

WorkingMemory::Rec* WorkingMemory::alloc_rec() {
  if (free_ == nullptr) {
    auto slab = std::make_unique<Rec[]>(kSlabRecs);
    const size_t base = record_capacity();
    for (size_t i = 0; i < kSlabRecs; ++i) {
      slab[i].index = static_cast<uint32_t>(base + i);
      slab[i].next = free_;
      free_ = &slab[i];
    }
    slabs_.push_back(std::move(slab));
  }
  Rec* r = free_;
  free_ = r->next;
  r->next = nullptr;
  return r;
}

void WorkingMemory::grow_buckets() {
  // Growth-only doubling: allocates only when the live population reaches a
  // new high-water mark.
  std::vector<Rec*> grown(buckets_.size() * 2, nullptr);
  const size_t mask = grown.size() - 1;
  for (Rec* chain : buckets_) {
    while (chain != nullptr) {
      Rec* next = chain->next;
      const size_t h = chain->wme.contents_hash();
      Rec** b = &grown[(h ^ (h >> 17)) & mask];
      chain->next = *b;
      *b = chain;
      chain = next;
    }
  }
  buckets_.swap(grown);
  bucket_mask_ = mask;
}

const Wme* WorkingMemory::add(Symbol cls, const Value* fields, size_t n) {
  Rec* r = alloc_rec();
  r->wme.cls = cls;
  // assign() reuses the recycled vector's capacity.
  r->wme.fields.assign(fields, fields + n);
  r->wme.timetag = ++timetag_;
  r->state = Rec::State::Live;
  Rec** b = &buckets_[bucket_of(r->wme.contents_hash())];
  r->next = *b;
  *b = r;
  ++live_count_;
  if (live_count_ > buckets_.size() * 2) grow_buckets();
  return &r->wme;
}

bool WorkingMemory::remove(const Wme* w) {
  Rec* r = rec_of(w);
  if (r->state != Rec::State::Live) return false;
  Rec** link = &buckets_[bucket_of(r->wme.contents_hash())];
  while (*link != r) link = &(*link)->next;
  *link = r->next;
  r->next = nullptr;
  r->state = Rec::State::Limbo;
  limbo_.push_back(r);
  --live_count_;
  return true;
}

const Wme* WorkingMemory::find(Symbol cls, const Value* fields,
                               size_t n) const {
  const size_t h = Wme::contents_hash_of(cls, fields, n);
  for (const Rec* r = buckets_[bucket_of(h)]; r != nullptr; r = r->next) {
    const Wme& cand = r->wme;
    if (cand.cls != cls || cand.fields.size() != n) continue;
    if (std::equal(cand.fields.begin(), cand.fields.end(), fields)) {
      return &cand;
    }
  }
  return nullptr;
}

std::vector<const Wme*> WorkingMemory::live() const {
  std::vector<const Wme*> out;
  out.reserve(live_count_);
  for_each_live([&](const Wme* w) { out.push_back(w); });
  std::sort(out.begin(), out.end(), [](const Wme* a, const Wme* b) {
    return a->timetag < b->timetag;
  });
  return out;
}

void WorkingMemory::end_cycle() {
  if (retain_removed_) return;  // limbo recs stay readable (and allocated)
  for (Rec* r : limbo_) {
    r->state = Rec::State::Free;
    r->next = free_;
    free_ = r;
  }
  limbo_.clear();
}

}  // namespace psme
