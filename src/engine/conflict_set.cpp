#include "engine/conflict_set.h"

#include <algorithm>

namespace psme {

ConflictSet::ConflictSet() {
  SpinGuard g(lock_);
  buckets_.assign(kInitialBuckets, nullptr);
  bucket_mask_ = kInitialBuckets - 1;
}

ConflictSet::Node* ConflictSet::alloc_node() {
  if (free_ == nullptr) {
    auto slab = std::make_unique<Node[]>(kSlabNodes);
    for (size_t i = 0; i < kSlabNodes; ++i) {
      slab[i].next = free_;
      free_ = &slab[i];
    }
    slabs_.push_back(std::move(slab));
  }
  Node* n = free_;
  free_ = n->next;
  n->inst = Instantiation{};
  n->key = 0;
  n->prev = n->next = n->hnext = nullptr;
  return n;
}

void ConflictSet::free_node(Node* n) {
  n->next = free_;
  free_ = n;
}

void ConflictSet::unlink_list(Node* n) {
  // An unfired node's successor is unfired too (or there is none).
  if (n == unfired_) unfired_ = n->next;
  if (n->prev != nullptr) {
    n->prev->next = n->next;
  } else {
    head_ = n->next;
  }
  if (n->next != nullptr) {
    n->next->prev = n->prev;
  } else {
    tail_ = n->prev;
  }
}

void ConflictSet::unlink(Node* n) {
  unlink_list(n);
  Node** link = &buckets_[bucket_of(n->key)];
  while (*link != n) link = &(*link)->hnext;
  *link = n->hnext;
  --count_;
}

void ConflictSet::grow_buckets() {
  // Growth-only doubling; rehash by walking the arrival list. Allocates only
  // when the CS population reaches a new high-water mark.
  buckets_.assign(buckets_.size() * 2, nullptr);
  bucket_mask_ = buckets_.size() - 1;
  for (Node* n = head_; n != nullptr; n = n->next) {
    Node** b = &buckets_[bucket_of(n->key)];
    n->hnext = *b;
    *b = n;
  }
}

void ConflictSet::on_insert(const ProdNode& p, const Token& t) {
  SpinGuard g(lock_);
  ++inserts_;
  const size_t key = key_of(p, t);
  // A conjugate retract that overtook this insert (threaded match; the pair
  // was created in order under a not/NCC line lock but raced here) is held
  // in the pending list — cancel against it instead of installing a stale
  // instantiation.
  for (Node** link = &pending_head_; *link != nullptr;
       link = &(*link)->next) {
    Node* pn = *link;
    if (pn->key == key && pn->inst.pnode == &p && pn->inst.token == t) {
      pn->inst.token.unpin();
      *link = pn->next;
      --pending_count_;
      free_node(pn);
      return;
    }
  }
  Node* n = alloc_node();
  n->inst.pnode = &p;
  n->inst.token = t;
  // Instantiations outlive the drain that produced them (they are fired in
  // a later phase), so the CS holds a pinned copy (DESIGN.md §9 I2).
  n->inst.token.pin();
  n->inst.arrival = ++arrival_;
  n->key = key;
  n->prev = tail_;
  n->next = nullptr;
  if (tail_ != nullptr) {
    tail_->next = n;
  } else {
    head_ = n;
  }
  tail_ = n;
  if (unfired_ == nullptr) unfired_ = n;
  Node** b = &buckets_[bucket_of(key)];
  n->hnext = *b;
  *b = n;
  ++count_;
  if (count_ > buckets_.size() * 2) grow_buckets();
}

void ConflictSet::on_retract(const ProdNode& p, const Token& t) {
  SpinGuard g(lock_);
  ++retracts_;
  const size_t key = key_of(p, t);
  for (Node* n = buckets_[bucket_of(key)]; n != nullptr; n = n->hnext) {
    if (n->key == key && n->inst.pnode == &p && n->inst.token == t) {
      n->inst.token.unpin();
      unlink(n);
      free_node(n);
      return;
    }
  }
  // Retract before its conjugate insert: hold it for the insert to cancel
  // against. (At quiescence the pending list is empty; a leftover entry
  // means the executor produced a genuinely inconsistent token stream.)
  Node* pn = alloc_node();
  pn->inst.pnode = &p;
  pn->inst.token = t;
  pn->inst.token.pin();
  pn->key = key;
  pn->next = pending_head_;
  pending_head_ = pn;
  ++pending_count_;
}

size_t ConflictSet::size() const {
  SpinGuard g(lock_);
  return count_;
}

namespace {

/// The timetag order of two wme arrays of length `n` that hold the same
/// wmes at [0, from). The arrays are compared as pointers and timetags read
/// only at the first wme they differ in: distinct wmes have distinct
/// timetags.
bool tags_less(const Wme* const* a, const Wme* const* b, uint32_t from,
               uint32_t n) {
  const auto d = std::mismatch(a + from, a + n, b + from);
  return d.first != a + n && (*d.first)->timetag < (*d.second)->timetag;
}

/// Schedule-invariant total order on instantiations: production age (the
/// P-node's creation stamp — ids are recycled after removal, so a newer
/// production may hold a lower id), then token arity, then the wme timetags
/// in token order. Two distinct instantiations always differ in one of these
/// (the CS dedups on exactly (pnode, token) and timetags are unique per
/// wme), so the order is total — and it is a pure function of WM content,
/// never of task interleaving.
/// Arrival order is NOT schedule-invariant even per agent: when a left and
/// a right activation race into the same join, whichever parent executes
/// second under the line lock emits the child, so CS insertion order varies
/// with worker count. Ordering fires by this key instead is what makes
/// learning runs bit-identical from match_workers=1 to 8 (DESIGN.md §13).
bool det_less(const Instantiation* a, const Instantiation* b) {
  if (a->pnode->stamp != b->pnode->stamp) {
    return a->pnode->stamp < b->pnode->stamp;
  }
  const uint32_t n = a->token.size();
  if (n != b->token.size()) return n < b->token.size();
  return tags_less(a->token.begin(), b->token.begin(), 0, n);
}

}  // namespace

void ConflictSet::unfired_into(std::vector<const Instantiation*>& out) const {
  out.clear();
  SpinGuard g(lock_);
  harvest_keys_.clear();
  for (const Node* n = unfired_; n != nullptr; n = n->next) {
    const Token& t = n->inst.token;
    harvest_keys_.push_back(
        HarvestKey{n->inst.pnode->stamp, t.size(), t.begin(), &n->inst});
  }
  // Deterministic firing order regardless of how the threaded match
  // interleaved the inserts (the arrival list's order is schedule-
  // dependent): det_less, in two steps. Sort by (stamp, arity); then sort
  // each run of equal (stamp, arity) by timetags from the run's longest
  // common prefix on, which a long production's instantiations share (on
  // strips they average 52 wmes).
  std::sort(harvest_keys_.begin(), harvest_keys_.end(),
            [](const HarvestKey& a, const HarvestKey& b) {
              if (a.stamp != b.stamp) return a.stamp < b.stamp;
              return a.size < b.size;
            });
  for (auto run = harvest_keys_.begin(); run != harvest_keys_.end();) {
    const HarvestKey& first = *run;
    uint32_t lcp = first.size;
    auto end = run + 1;
    for (; end != harvest_keys_.end() && end->stamp == first.stamp &&
           end->size == first.size;
         ++end) {
      lcp = static_cast<uint32_t>(
          std::mismatch(first.wmes, first.wmes + lcp, end->wmes).first -
          first.wmes);
    }
    std::sort(run, end, [lcp](const HarvestKey& a, const HarvestKey& b) {
      return tags_less(a.wmes, b.wmes, lcp, a.size);
    });
    run = end;
  }
  for (const HarvestKey& k : harvest_keys_) out.push_back(k.inst);
}

std::vector<const Instantiation*> ConflictSet::unfired() const {
  std::vector<const Instantiation*> out;
  unfired_into(out);
  return out;
}

void ConflictSet::mark_fired(const Instantiation* inst) {
  SpinGuard g(lock_);
  // The handle is the first member of its Node (asserted in the header).
  Node* n = reinterpret_cast<Node*>(const_cast<Instantiation*>(inst));
  if (n->inst.fired) return;
  n->inst.fired = true;
  // To the head: the fired prefix grows, the unfired tail shrinks.
  unlink_list(n);
  n->prev = nullptr;
  n->next = head_;
  if (head_ != nullptr) {
    head_->prev = n;
  } else {
    tail_ = n;
  }
  head_ = n;
}

void ConflictSet::remove(const Instantiation* inst) {
  SpinGuard g(lock_);
  Node* n = reinterpret_cast<Node*>(const_cast<Instantiation*>(inst));
  n->inst.token.unpin();
  unlink(n);
  free_node(n);
}

namespace {

/// Number of tests in a production (LEX specificity).
int specificity(const Production* p) {
  int n = 0;
  for (const Condition& c : p->conditions) {
    n += static_cast<int>(c.consts.size() + c.disjs.size() + c.vars.size());
    for (const Condition& inner : c.ncc) {
      n += static_cast<int>(inner.consts.size() + inner.disjs.size() +
                            inner.vars.size());
    }
  }
  return n;
}

}  // namespace

/// LEX recency comparison: timetags sorted descending, compared
/// lexicographically; the instantiation with the more recent tag wins.
bool ConflictSet::lex_less(const Instantiation* a,
                           const Instantiation* b) const {
  lex_a_.clear();
  lex_b_.clear();
  for (const Wme* w : a->token) lex_a_.push_back(w->timetag);
  for (const Wme* w : b->token) lex_b_.push_back(w->timetag);
  std::sort(lex_a_.rbegin(), lex_a_.rend());
  std::sort(lex_b_.rbegin(), lex_b_.rend());
  if (lex_a_ != lex_b_) {
    return std::lexicographical_compare(lex_a_.begin(), lex_a_.end(),
                                        lex_b_.begin(), lex_b_.end());
  }
  const int sa = specificity(a->pnode->prod);
  const int sb = specificity(b->pnode->prod);
  if (sa != sb) return sa < sb;
  // Final tiebreak by the deterministic content key (not arrival, which is
  // schedule-dependent under the threaded match): b wins iff it sorts first.
  return det_less(b, a);
}

const Instantiation* ConflictSet::select_lex() const {
  SpinGuard g(lock_);
  const Instantiation* best = nullptr;
  for (const Node* n = unfired_; n != nullptr; n = n->next) {
    if (best == nullptr || lex_less(best, &n->inst)) best = &n->inst;
  }
  return best;
}

std::vector<const Instantiation*> ConflictSet::all() const {
  SpinGuard g(lock_);
  std::vector<const Instantiation*> out;
  out.reserve(count_);
  for (const Node* n = head_; n != nullptr; n = n->next) out.push_back(&n->inst);
  return out;
}

size_t ConflictSet::purge_production(const ProdNode* pnode) {
  SpinGuard g(lock_);
  size_t dropped = 0;
  for (Node* n = head_; n != nullptr;) {
    Node* next = n->next;
    if (n->inst.pnode == pnode) {
      n->inst.token.unpin();
      unlink(n);
      free_node(n);
      ++dropped;
    }
    n = next;
  }
  for (Node** link = &pending_head_; *link != nullptr;) {
    Node* pn = *link;
    if (pn->inst.pnode == pnode) {
      pn->inst.token.unpin();
      *link = pn->next;
      --pending_count_;
      free_node(pn);
      ++dropped;
    } else {
      link = &pn->next;
    }
  }
  return dropped;
}

void ConflictSet::clear() {
  SpinGuard g(lock_);
  for (Node* n = head_; n != nullptr;) {
    Node* next = n->next;
    n->inst.token.unpin();
    free_node(n);
    n = next;
  }
  for (Node* n = pending_head_; n != nullptr;) {
    Node* next = n->next;
    n->inst.token.unpin();
    free_node(n);
    n = next;
  }
  head_ = tail_ = unfired_ = pending_head_ = nullptr;
  count_ = pending_count_ = 0;
  std::fill(buckets_.begin(), buckets_.end(), nullptr);
}

}  // namespace psme
