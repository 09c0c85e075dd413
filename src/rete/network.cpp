#include "rete/network.h"

#include <algorithm>
#include <cassert>

namespace psme {
namespace {

/// A task's hold on the one table line it stores into and probes: takes the
/// line's lock and records the task's line statistics — the spins, which
/// line on which side, and the task's one memory insert or removal. Every
/// line-locked exec_* path takes exactly one.
class PSME_SCOPED_CAPABILITY LineGuard {
 public:
  LineGuard(PairedHashTables::Line& line, size_t index, Side side,
            TaskStats& stats) PSME_ACQUIRE(line.lock)
      : lock_(line.lock) {
    stats.lock_spins += static_cast<uint32_t>(lock_.lock());
    stats.touched_line = true;
    stats.line = static_cast<uint32_t>(index);
    stats.line_side = side;
    ++stats.inserts;
  }
  ~LineGuard() PSME_RELEASE() { lock_.unlock(); }
  LineGuard(const LineGuard&) = delete;
  LineGuard& operator=(const LineGuard&) = delete;

 private:
  Spinlock& lock_;
};

}  // namespace

Network::Network(SymbolTable& syms, ClassSchemas& schemas)
    : syms_(syms), schemas_(schemas) {}

uint32_t Network::root_slot(Symbol cls) {
  auto it = roots_.find(cls);
  if (it != roots_.end()) return it->second;
  const uint32_t slot = jt_.new_slot();
  roots_.emplace(cls, slot);
  return slot;
}

bool Network::has_root(Symbol cls) const { return roots_.count(cls) != 0; }

uint32_t Network::inject(const Wme* w, bool add, uint32_t agent,
                         std::vector<Activation>& out) const {
  auto it = roots_.find(w->cls);
  if (it == roots_.end()) return 0;  // no production tests this class
  for (const SuccessorRef& s : jt_.peek(it->second)) {
    out.push_back(Activation{s.node, s.side, add, Token{w}, agent});
  }
  return 1;
}

void Network::emit_succs(uint32_t jt_slot, const Token& token, bool add,
                         ExecContext& ctx) {
  ++ctx.counters.indirections;
  for (const SuccessorRef& s : jt_.peek(jt_slot)) {
    ++ctx.stats.emits;
    // Children stay inside the emitting agent's state.
    emit(ctx, Activation{s.node, s.side, add, token, ctx.agent});
  }
}

void Network::execute(const Activation& act, ExecContext& ctx) {
  Node* n = nodes_[act.node].get();
  switch (n->type) {
    case NodeType::Const:
      exec_const(static_cast<const ConstNode&>(*n), act, ctx);
      break;
    case NodeType::Disj:
      exec_disj(static_cast<const DisjNode&>(*n), act, ctx);
      break;
    case NodeType::Intra:
      exec_intra(static_cast<const IntraNode&>(*n), act, ctx);
      break;
    case NodeType::BJoin:
      exec_bjoin(static_cast<const BJoinNode&>(*n), act, ctx);
      break;
    case NodeType::AlphaMem:
      exec_alpha(static_cast<const AlphaMemNode&>(*n), act, ctx);
      break;
    case NodeType::Join:
      exec_join(static_cast<const JoinNode&>(*n), act, ctx);
      break;
    case NodeType::Not:
      exec_not(static_cast<const NotNode&>(*n), act, ctx);
      break;
    case NodeType::Ncc:
      exec_ncc(static_cast<const NccNode&>(*n), act, ctx);
      break;
    case NodeType::NccPartner:
      exec_partner(static_cast<const NccPartnerNode&>(*n), act, ctx);
      break;
    case NodeType::Prod:
      exec_prod(static_cast<const ProdNode&>(*n), act, ctx);
      break;
  }
}

void Network::exec_const(const ConstNode& n, const Activation& a,
                         ExecContext& ctx) {
  ++ctx.stats.tests;
  const Wme* w = a.token.front();
  if (eval_pred(n.test.pred, w->field(n.test.slot), n.test.value)) {
    emit_succs(n.jt_slot, a.token, a.add, ctx);
  }
}

void Network::exec_disj(const DisjNode& n, const Activation& a,
                        ExecContext& ctx) {
  const Wme* w = a.token.front();
  const Value v = w->field(n.test.slot);
  for (const Value& opt : n.test.options) {
    ++ctx.stats.tests;
    if (v == opt) {
      emit_succs(n.jt_slot, a.token, a.add, ctx);
      return;
    }
  }
}

void Network::exec_intra(const IntraNode& n, const Activation& a,
                         ExecContext& ctx) {
  ++ctx.stats.tests;
  const Wme* w = a.token.front();
  if (eval_pred(n.pred, w->field(n.slot_a), w->field(n.slot_b))) {
    emit_succs(n.jt_slot, a.token, a.add, ctx);
  }
}

void Network::exec_bjoin(const BJoinNode& n, const Activation& a,
                         ExecContext& ctx) {
  // Side encodes which sub-result the token comes from. Both sides store in
  // the left table under the shared-prefix identity hash; a child token is
  // left ++ right[prefix_len:], and the two sides agree on the prefix by
  // construction (identical wme pointers).
  MatchState& ms = state_of(ctx);
  const uint64_t h = n.hash_prefix(a.token);
  const size_t li = ms.tables.line_index(h);
  auto& line = ms.tables.line_at(li);
  const uint8_t my_tag = a.side == Side::Left ? 1 : 2;
  const uint8_t other_tag = a.side == Side::Left ? 2 : 1;
  LineGuard g(line, li, a.side, ctx.stats);
  // A conjugate pair meeting out of order emits nothing.
  if (a.add ? line.insert_left(h, n.id, my_tag, a.token) == nullptr
            : !line.delete_left(h, n.id, my_tag, a.token)) {
    return;
  }
  for (const LeftEntry& e : line.left) {
    ++ctx.stats.probes;
    if (e.node_id != n.id || e.tag != other_tag || e.anti > 0 ||
        e.full_hash != h) {
      continue;
    }
    // Verify the shared prefix is identical (hash collisions).
    bool same = true;
    for (uint32_t i = 0; i < n.prefix_len; ++i) {
      ++ctx.stats.tests;
      if (e.token[i] != a.token[i]) {
        same = false;
        break;
      }
    }
    if (!same) continue;
    const Token& l = a.side == Side::Left ? a.token : e.token;
    const Token& r = a.side == Side::Left ? e.token : a.token;
    emit_succs(n.jt_slot,
               token_concat(l, r, n.prefix_len, ms.arena, ctx.worker), a.add,
               ctx);
  }
}

void Network::exec_alpha(const AlphaMemNode& n, const Activation& a,
                         ExecContext& ctx) {
  MatchState& ms = state_of(ctx);
  AlphaMemState& am = ms.alpha(n.mem_index);
  const Wme* w = a.token.front();
  SpinGuard g(am.lock);
  ctx.stats.lock_spins += static_cast<uint32_t>(g.spins());
  ++ctx.stats.inserts;
  if (a.add) {
    am.wmes.push_back(w, ms.alpha_pool);
  } else {
    for (auto it = am.wmes.begin(); it != am.wmes.end(); ++it) {
      if (*it == w) {
        am.wmes.erase(it, ms.alpha_pool);
        break;
      }
    }
  }
  // Emitted under the lock a relink takes (DESIGN.md §16): an unlinked join
  // gets no right activation, and the relink that links it later finds this
  // wme in the memory (or, for a removal, no longer finds it).
  ++ctx.counters.indirections;
  for (const SuccessorRef& s : jt_.peek(n.jt_slot)) {
    if (s.side == Side::Left) {
      if (ctx.filter.suppress_alpha_left) continue;
    } else if (!ms.link(s.node).linked.load(std::memory_order_relaxed) &&
               nodes_[s.node]->type == NodeType::Join) {
      continue;
    }
    ++ctx.stats.emits;
    emit(ctx, Activation{s.node, s.side, a.add, a.token, ctx.agent});
  }
}

bool Network::relink(const JoinNode& n, MatchState& ms, ExecContext& ctx) {
  const auto& amn = static_cast<const AlphaMemNode&>(*nodes_[n.alpha_mem]);
  AlphaMemState& am = ms.alpha(amn.mem_index);
  JoinLink& link = ms.link(n.id);
  SpinGuard g(am.lock);
  ctx.stats.lock_spins += static_cast<uint32_t>(g.spins());
  if (link.linked.load(std::memory_order_relaxed)) return false;
  for (const Wme* w : am.wmes) {
    const uint64_t h = n.hash_right(w);
    auto& line = ms.tables.line_for(h);
    SpinGuard lg(line.lock);
    ctx.stats.lock_spins += static_cast<uint32_t>(lg.spins());
    line.store_right(RightEntry{h, n.id, w}, ms.tables.right_pool());
  }
  ++ctx.counters.relinks;
  ctx.counters.relinked_wmes += am.wmes.size();
  // Release: a left add that reads the flag set skips the alpha lock and
  // must still find every entry inserted above.
  link.linked.store(true, std::memory_order_release);
  return true;
}

void Network::unlink_if_empty(uint32_t join, MatchState& ms,
                              MatchCounters& c) const {
  const Node* node = nodes_[join].get();
  if (node == nullptr || node->type != NodeType::Join) return;
  JoinLink& link = ms.link(join);
  if (!link.linked.load(std::memory_order_relaxed) ||
      link.left.load(std::memory_order_relaxed) != 0) {
    return;
  }
  const auto& j = static_cast<const JoinNode&>(*node);
  const auto& amn = static_cast<const AlphaMemNode&>(*nodes_[j.alpha_mem]);
  // A linked join holds exactly one right entry per wme of its memory.
  for (const Wme* w : ms.alpha(amn.mem_index).wmes) {
    if (ms.tables.line_for(j.hash_right(w))
            .erase_right(join, w, ms.tables.right_pool())) {
      ++c.unlinked_entries;
    }
  }
  link.linked.store(false, std::memory_order_relaxed);
  ++c.unlinks;
}

void Network::exec_join(const JoinNode& n, const Activation& a,
                        ExecContext& ctx) {
  MatchState& ms = state_of(ctx);
  if (a.side == Side::Left) {
    // An unlinked join is relinked before its first left token is stored,
    // so the token meets every wme of the alpha memory (DESIGN.md §16).
    JoinLink& link = ms.link(n.id);
    const bool relinked = a.add &&
                          !link.linked.load(std::memory_order_acquire) &&
                          relink(n, ms, ctx);
    const uint64_t h = n.hash_left(a.token);
    const size_t li = ms.tables.line_index(h);
    auto& line = ms.tables.line_at(li);
    LineGuard g(line, li, Side::Left, ctx.stats);
    // A conjugate pair meeting out of order emits nothing (see the
    // anti-entry note in hash_tables.h).
    if (a.add) {
      if (line.insert_left(h, n.id, 0, a.token) == nullptr) {
        if (relinked) note_emptied(n.id, ms, ctx);
        return;
      }
      link.left.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (!line.delete_left(h, n.id, 0, a.token)) return;
      if (link.left.fetch_sub(1, std::memory_order_relaxed) == 1) {
        note_emptied(n.id, ms, ctx);
      }
    }
    for (const RightEntry& r : line.right) {
      ++ctx.stats.probes;
      if (r.node_id != n.id || r.full_hash != h) continue;
      if (n.tests_pass(a.token, r.wme, &ctx.stats.tests)) {
        emit_succs(n.jt_slot,
                   token_extend(a.token, r.wme, ms.arena, ctx.worker), a.add,
                   ctx);
      }
    }
  } else {
    const Wme* w = a.token.front();
    const uint64_t h = n.hash_right(w);
    const size_t li = ms.tables.line_index(h);
    auto& line = ms.tables.line_at(li);
    LineGuard g(line, li, Side::Right, ctx.stats);
    if (a.add) {
      line.store_right(RightEntry{h, n.id, w}, ms.tables.right_pool());
    } else {
      line.erase_right(n.id, w, ms.tables.right_pool());
    }
    for (const LeftEntry& l : line.left) {
      ++ctx.stats.probes;
      if (l.node_id != n.id || l.anti > 0 || l.full_hash != h) continue;
      if (n.tests_pass(l.token, w, &ctx.stats.tests)) {
        emit_succs(n.jt_slot, token_extend(l.token, w, ms.arena, ctx.worker),
                   a.add, ctx);
      }
    }
  }
}

void Network::exec_not(const NotNode& n, const Activation& a,
                       ExecContext& ctx) {
  // A not-node passes its left token through unchanged iff no right wme
  // matches it. Counts live in the left entries.
  MatchState& ms = state_of(ctx);
  if (a.side == Side::Left) {
    const uint64_t h = n.hash_left(a.token);
    const size_t li = ms.tables.line_index(h);
    auto& line = ms.tables.line_at(li);
    LineGuard g(line, li, Side::Left, ctx.stats);
    // A conjugate pair meeting out of order emits nothing.
    if (a.add) {
      if (LeftEntry* e = line.insert_left(h, n.id, 0, a.token)) {
        for (const RightEntry& r : line.right) {
          ++ctx.stats.probes;
          if (r.node_id != n.id || r.full_hash != h) continue;
          if (n.tests_pass(a.token, r.wme, &ctx.stats.tests)) ++e->neg_count;
        }
        if (e->neg_count == 0) emit_succs(n.jt_slot, a.token, true, ctx);
      }
    } else if (line.delete_left(h, n.id, 0, a.token) == 0) {
      emit_succs(n.jt_slot, a.token, false, ctx);  // it had passed unblocked
    }
  } else {
    const Wme* w = a.token.front();
    const uint64_t h = n.hash_right(w);
    const size_t li = ms.tables.line_index(h);
    auto& line = ms.tables.line_at(li);
    LineGuard g(line, li, Side::Right, ctx.stats);
    if (a.add) {
      line.store_right(RightEntry{h, n.id, w}, ms.tables.right_pool());
      for (LeftEntry& l : line.left) {
        ++ctx.stats.probes;
        if (l.node_id != n.id || l.anti > 0 || l.full_hash != h) continue;
        if (n.tests_pass(l.token, w, &ctx.stats.tests)) {
          if (++l.neg_count == 1) emit_succs(n.jt_slot, l.token, false, ctx);
        }
      }
    } else {
      line.erase_right(n.id, w, ms.tables.right_pool());
      for (LeftEntry& l : line.left) {
        ++ctx.stats.probes;
        if (l.node_id != n.id || l.anti > 0 || l.full_hash != h) continue;
        if (n.tests_pass(l.token, w, &ctx.stats.tests)) {
          if (--l.neg_count == 0) emit_succs(n.jt_slot, l.token, true, ctx);
        }
      }
    }
  }
}

void Network::exec_ncc(const NccNode& n, const Activation& a,
                       ExecContext& ctx) {
  MatchState& ms = state_of(ctx);
  const uint64_t h = n.hash_prefix(a.token);
  const size_t li = ms.tables.line_index(h);
  auto& line = ms.tables.line_at(li);
  LineGuard g(line, li, Side::Left, ctx.stats);
  LeftEntry* entry = nullptr;
  for (LeftEntry& e : line.left) {
    ++ctx.stats.probes;
    if (e.node_id == n.id && e.full_hash == h && e.token == a.token) {
      entry = &e;
      break;
    }
  }
  if (a.add) {
    if (entry != nullptr && entry->anti > 0) {
      // Cancel against a conjugate deletion that overtook this insertion.
      --entry->anti;
      if (entry->anti == 0 && !entry->ncc_present && entry->neg_count == 0) {
        line.erase_left(line.left.begin() + (entry - line.left.data()));
      }
    } else {
      if (entry == nullptr) {
        line.store_left(LeftEntry{h, n.id, 0, false, false, 0, a.token});
        entry = &line.left.back();
      }
      entry->ncc_present = true;
      if (entry->neg_count == 0 && !entry->ncc_emitted) {
        entry->ncc_emitted = true;
        emit_succs(n.jt_slot, a.token, true, ctx);
      }
    }
  } else if (entry == nullptr || !entry->ncc_present) {
    // Deletion before its conjugate insertion (the entry may exist already
    // as a partner-created placeholder): hold it as a pending anti.
    if (entry == nullptr) {
      line.store_left(LeftEntry{h, n.id, 0, false, false, 0, a.token});
      entry = &line.left.back();
    }
    ++entry->anti;
  } else {
    entry->ncc_present = false;
    if (entry->ncc_emitted) {
      entry->ncc_emitted = false;
      emit_succs(n.jt_slot, a.token, false, ctx);
    }
    if (entry->neg_count == 0 && entry->anti == 0) {
      line.erase_left(line.left.begin() + (entry - line.left.data()));
    }
  }
}

void Network::exec_partner(const NccPartnerNode& n, const Activation& a,
                           ExecContext& ctx) {
  MatchState& ms = state_of(ctx);
  const NccNode& owner = static_cast<const NccNode&>(*nodes_[n.owner]);
  const Token prefix = token_prefix(a.token, n.prefix_len, ms.arena,
                                    ctx.worker);
  const uint64_t h = owner.hash_prefix(prefix);
  const size_t li = ms.tables.line_index(h);
  auto& line = ms.tables.line_at(li);
  LineGuard g(line, li, Side::Left, ctx.stats);
  LeftEntry* entry = nullptr;
  for (LeftEntry& e : line.left) {
    ++ctx.stats.probes;
    if (e.node_id == owner.id && e.full_hash == h && e.token == prefix) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr) {
    // Subnetwork result arrived before the owner's left activation.
    line.store_left(LeftEntry{h, owner.id, 0, false, false, 0, prefix});
    entry = &line.left.back();
  }
  // Emissions flow from the owner NCC node's successors.
  if (a.add) {
    ++entry->neg_count;
    if (entry->ncc_present && entry->neg_count == 1 && entry->ncc_emitted) {
      entry->ncc_emitted = false;
      emit_succs(owner.jt_slot, prefix, false, ctx);
    }
  } else {
    --entry->neg_count;
    if (entry->neg_count == 0) {
      if (entry->ncc_present && !entry->ncc_emitted) {
        entry->ncc_emitted = true;
        emit_succs(owner.jt_slot, prefix, true, ctx);
      } else if (!entry->ncc_present && entry->anti == 0) {
        line.erase_left(line.left.begin() + (entry - line.left.data()));
      }
    }
  }
}

void Network::exec_prod(const ProdNode& n, const Activation& a,
                        ExecContext& ctx) {
  MatchSink* sink = state_of(ctx).sink;
  if (sink == nullptr) return;
  if (a.add) {
    sink->on_insert(n, a.token);
  } else {
    sink->on_retract(n, a.token);
  }
}

void Network::node_outputs_into(uint32_t node_id, const MatchState& ms,
                                std::vector<Token>& out) const {
  const Node* n = nodes_[node_id].get();
  switch (n->type) {
    case NodeType::AlphaMem: {
      const auto& am = static_cast<const AlphaMemNode&>(*n);
      for (const Wme* w : ms.alpha(am.mem_index).wmes) out.push_back(Token{w});
      break;
    }
    case NodeType::Join: {
      const auto& j = static_cast<const JoinNode&>(*n);
      ms.tables.for_each_left_of(n->id, [&](const LeftEntry& l) {
        if (l.anti > 0) return;
        // One line per left token, as exec_join probes: a right entry
        // joins only under the left entry's full hash.
        const auto join = [&](const RightEntry& r) {
          if (j.tests_pass(l.token, r.wme)) {
            // Quiescent replay: spill from pool 0 (no worker is running).
            out.push_back(token_extend(l.token, r.wme, ms.arena, 0));
          }
        };
        ms.tables.for_each_right_at(n->id, l.full_hash, join);
      });
      break;
    }
    case NodeType::Not: {
      ms.tables.for_each_left_of(n->id, [&](const LeftEntry& l) {
        if (l.anti == 0 && l.neg_count == 0) out.push_back(l.token);
      });
      break;
    }
    case NodeType::Ncc: {
      ms.tables.for_each_left_of(n->id, [&](const LeftEntry& l) {
        if (l.ncc_present && l.neg_count == 0) out.push_back(l.token);
      });
      break;
    }
    default:
      assert(false && "node_outputs_into: not a share-point node type");
      break;
  }
}

Network::Census Network::census() const {
  Census c;
  for (const auto& n : nodes_) {
    if (!n) continue;  // free id of a removed production's node
    switch (n->type) {
      case NodeType::Const: ++c.consts; break;
      case NodeType::Disj: ++c.disjs; break;
      case NodeType::Intra: ++c.intras; break;
      case NodeType::BJoin: ++c.bjoins; break;
      case NodeType::AlphaMem: ++c.alpha_mems; break;
      case NodeType::Join: ++c.joins; break;
      case NodeType::Not: ++c.nots; break;
      case NodeType::Ncc: ++c.nccs; break;
      case NodeType::NccPartner: ++c.partners; break;
      case NodeType::Prod: ++c.prods; break;
    }
  }
  return c;
}

}  // namespace psme
