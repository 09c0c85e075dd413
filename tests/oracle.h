// A matcher for tests that shares no code with Rete: it evaluates every
// production's conditions directly over working memory by backtracking and
// compares the matches with the engine's conflict set. The builder, the
// node interpreter, the §5.2 update, right unlinking and the removal
// planner are all bypassed, so a defect in any of them shows as a missing
// or an extra instantiation even when every executor agrees with every
// other one. Semantics, as the language defines them:
//
//   * positive CEs bind in order: within a CE, the first Eq occurrence of
//     an unbound variable binds it, and every other test of the CE is then
//     checked against the bindings;
//   * a negated CE, or an NCC group, holds when no assignment extends the
//     bindings made so far (its own bindings stay inside it);
//   * a predicate on a variable that nothing has bound never matches.
//
// Each instantiation is a (production, wme tuple) pair, the tuple being the
// positive CEs' wmes in order, and both sides are compared as multisets.
// The oracle reads the working memory the conflict set reflects — the live
// wmes without the changes queued for the next match — so it can run at
// any quiescent point. Cost grows with the product of the candidate wmes
// per CE; a hash bucket per Eq-tested slot keeps the candidates few.
#pragma once

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/engine.h"

namespace psme::test {

namespace oracle_detail {

struct Bindings {
  std::vector<Value> value;
  std::vector<uint8_t> bound;
};

/// The working memory by class, plus hash buckets by (class, slot, value)
/// built on first use: a CE with an Eq test on a bound variable or a
/// constant scans one bucket instead of its whole class.
class WmeIndex {
 public:
  void add(const Wme* w) { by_class_[w->cls].push_back(w); }

  /// The wmes that can satisfy `ce` under `b`, a superset of the answer.
  const std::vector<const Wme*>& candidates(const Condition& ce,
                                            const Bindings& b) {
    for (const VarTest& t : ce.vars) {
      if (t.pred == Pred::Eq && b.bound[t.var] != 0) {
        return bucket(ce.cls, t.slot, b.value[t.var]);
      }
    }
    for (const ConstTest& t : ce.consts) {
      if (t.pred == Pred::Eq) return bucket(ce.cls, t.slot, t.value);
    }
    const auto it = by_class_.find(ce.cls);
    return it == by_class_.end() ? empty_ : it->second;
  }

 private:
  const std::vector<const Wme*>& bucket(Symbol cls, int slot,
                                        const Value& v) {
    auto [it, fresh] = by_slot_.try_emplace({cls, slot});
    if (fresh) {
      for (const Wme* w : by_class_[cls]) it->second[w->field(slot)].push_back(w);
    }
    const auto found = it->second.find(v);
    return found == it->second.end() ? empty_ : found->second;
  }

  std::map<Symbol, std::vector<const Wme*>> by_class_;
  std::map<std::pair<Symbol, int>,
           std::unordered_map<Value, std::vector<const Wme*>>>
      by_slot_;
  std::vector<const Wme*> empty_;
};

/// Does `w` satisfy `ce` under `b`? Binds the CE's unbound Eq variables
/// into `b` first; the caller unbinds them (`fresh`) afterwards.
inline bool satisfies(const Condition& ce, const Wme* w, Bindings& b) {
  if (w->cls != ce.cls) return false;
  for (const ConstTest& t : ce.consts) {
    if (!eval_pred(t.pred, w->field(t.slot), t.value)) return false;
  }
  for (const DisjTest& t : ce.disjs) {
    if (std::find(t.options.begin(), t.options.end(), w->field(t.slot)) ==
        t.options.end()) {
      return false;
    }
  }
  for (const VarTest& t : ce.vars) {
    if (t.pred == Pred::Eq && b.bound[t.var] == 0) {
      b.value[t.var] = w->field(t.slot);
      b.bound[t.var] = 1;
    }
  }
  for (const VarTest& t : ce.vars) {
    if (b.bound[t.var] == 0) return false;
    if (!eval_pred(t.pred, w->field(t.slot), b.value[t.var])) return false;
  }
  return true;
}

/// The variables `ce` binds when tried under `b`.
inline std::vector<uint32_t> fresh_vars(const Condition& ce,
                                        const Bindings& b) {
  std::vector<uint32_t> out;
  for (const VarTest& t : ce.vars) {
    if (t.pred == Pred::Eq && b.bound[t.var] == 0 &&
        std::find(out.begin(), out.end(), t.var) == out.end()) {
      out.push_back(t.var);
    }
  }
  return out;
}

/// The visitor of an existence check: stops at the first assignment. (A
/// named type, not a lambda, so the NCC recursion instantiates
/// each_assignment once instead of once per nesting level, forever.)
struct StopAtFirst {
  bool operator()(const std::vector<const Wme*>& /*tuple*/) const {
    return true;
  }
};

/// Calls `visit(tuple)` for every assignment of conds[i..] that extends
/// `b`, until it returns true; returns whether it did. `b` is restored.
template <typename Visit>
bool each_assignment(const std::vector<Condition>& conds, size_t i,
                     Bindings& b, std::vector<const Wme*>& tuple,
                     WmeIndex& wm, Visit& visit) {
  if (i == conds.size()) return visit(tuple);
  const Condition& ce = conds[i];
  if (ce.is_ncc()) {
    std::vector<const Wme*> inner;
    StopAtFirst any;
    if (each_assignment(ce.ncc, 0, b, inner, wm, any)) return false;
    return each_assignment(conds, i + 1, b, tuple, wm, visit);
  }
  const std::vector<uint32_t> fresh = fresh_vars(ce, b);
  const auto unbind = [&] {
    for (const uint32_t v : fresh) b.bound[v] = 0;
  };
  if (ce.negated) {
    for (const Wme* w : wm.candidates(ce, b)) {
      const bool hit = satisfies(ce, w, b);
      unbind();
      if (hit) return false;
    }
    return each_assignment(conds, i + 1, b, tuple, wm, visit);
  }
  for (const Wme* w : wm.candidates(ce, b)) {
    bool stop = false;
    if (satisfies(ce, w, b)) {
      tuple.push_back(w);
      stop = each_assignment(conds, i + 1, b, tuple, wm, visit);
      tuple.pop_back();
    }
    unbind();
    if (stop) return true;
  }
  return false;
}

/// An instantiation keyed by content: production name and wme timetags.
using Key = std::pair<std::string, std::vector<uint64_t>>;

inline Key key_of(Engine& e, const Production& p,
                  const std::vector<const Wme*>& tuple) {
  Key k{std::string(e.syms().name(p.name)), {}};
  for (const Wme* w : tuple) k.second.push_back(w->timetag);
  return k;
}

}  // namespace oracle_detail

/// Every instantiation the productions of `e` have over its matched
/// working memory.
inline std::multiset<oracle_detail::Key> oracle_matches(Engine& e) {
  using namespace oracle_detail;
  const std::set<const Wme*> queued(e.pending_adds().begin(),
                                    e.pending_adds().end());
  WmeIndex wm;
  for (const Wme* w : e.wm().live()) {
    if (queued.count(w) == 0) wm.add(w);
  }
  for (const Wme* w : e.pending_removes()) wm.add(w);
  std::multiset<Key> out;
  for (const Production* p : e.productions()) {
    Bindings b{std::vector<Value>(p->num_vars),
               std::vector<uint8_t>(p->num_vars, 0)};
    std::vector<const Wme*> tuple;
    auto collect = [&](const std::vector<const Wme*>& t) {
      out.insert(key_of(e, *p, t));
      return false;
    };
    each_assignment(p->conditions, 0, b, tuple, wm, collect);
  }
  return out;
}

/// "" when `e`'s conflict set holds exactly the oracle's instantiations;
/// otherwise one line per difference, naming the production and the
/// missing or extra wme tuple.
inline std::string oracle_diff(Engine& e) {
  using oracle_detail::Key;
  const std::multiset<Key> want = oracle_matches(e);
  std::multiset<Key> got;
  std::map<uint64_t, const Wme*> by_tag;
  for (const Instantiation* inst : e.cs().all()) {
    std::vector<const Wme*> tuple(inst->token.begin(), inst->token.end());
    got.insert(oracle_detail::key_of(e, *inst->pnode->prod, tuple));
    for (const Wme* w : tuple) by_tag[w->timetag] = w;
  }
  if (got == want) return "";
  for (const Wme* w : e.wm().live()) by_tag[w->timetag] = w;
  for (const Wme* w : e.pending_removes()) by_tag[w->timetag] = w;
  std::vector<Key> missing, extra;
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  std::string out;
  auto describe = [&](const char* what, const Key& k) {
    out += "production " + k.first + ": " + what + " (";
    for (size_t i = 0; i < k.second.size(); ++i) {
      if (i != 0) out += ", ";
      const auto it = by_tag.find(k.second[i]);
      out += it != by_tag.end() ? it->second->to_string(e.syms(), e.schemas())
                                : "#" + std::to_string(k.second[i]);
    }
    out += ")\n";
  };
  for (const Key& k : missing) describe("conflict set lacks", k);
  for (const Key& k : extra) describe("conflict set has extra", k);
  return out;
}

}  // namespace psme::test
