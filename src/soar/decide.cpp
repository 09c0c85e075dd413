// The decision procedure (Decide module).
//
// After each elaboration phase reaches quiescence, Decide scans the context
// stack from the oldest goal down and makes at most one context change:
// install a new state (operator application result), install an operator, or
// raise an impasse and push a subgoal. Installing a change at level L
// terminates every goal below L (those subgoals addressed an impasse that is
// now moot) and garbage-collects their wmes.
#include <algorithm>
#include <optional>

#include "soar/kernel.h"

namespace psme {

std::vector<SoarKernel::Candidate>& SoarKernel::slot_candidates(
    const GoalEntry& g, Symbol role) {
  SlotScratch& sc = slot_scratch_;
  std::vector<Symbol>& acceptable = sc.acceptable;
  std::vector<Symbol>& rejects = sc.rejects;
  std::vector<Symbol>& bests = sc.bests;
  std::vector<Symbol>& indiffs = sc.indiffs;
  std::vector<std::pair<Symbol, Symbol>>& betters = sc.betters;
  acceptable.clear();
  rejects.clear();
  bests.clear();
  indiffs.clear();
  betters.clear();

  // The slot's preferences, in timetag order: the better/worse filter below
  // applies them in sequence, so their order is observable.
  const bool state_scoped = role == sym_op_ || role == sym_state_;
  std::vector<const Wme*>& prefs = wm_scratch_;
  prefs.clear();
  engine_.wm().for_each_live([&](const Wme* w) {
    if (w->cls != cls_pref_) return;
    if (w->field(0) != Value(g.id)) return;
    if (w->field(2) != Value(role)) return;
    if (state_scoped && !w->field(1).is_nil() &&
        w->field(1) != Value(g.state)) {
      return;  // preference is scoped to a state no longer current
    }
    prefs.push_back(w);
  });
  sort_by_timetag(prefs);
  for (const Wme* w : prefs) {
    if (!w->field(3).is_sym()) continue;
    const Symbol v = w->field(3).sym();
    // A finished operator never becomes a candidate again: its acceptable
    // preference is a plain wme (productions only add), so candidacy is
    // filtered here instead of by preference retraction.
    const Value done[] = {Value(v), Value(sym_done_), Value(sym_yes_)};
    if (role == sym_op_ && engine_.wm().find(cls_wme_, done, 3) != nullptr) {
      continue;
    }
    const Value kind = w->field(4);
    if (kind == Value(sym_acceptable_)) {
      if (std::find(acceptable.begin(), acceptable.end(), v) ==
          acceptable.end()) {
        acceptable.push_back(v);
      }
    } else if (kind == Value(sym_reject_)) {
      rejects.push_back(v);
    } else if (kind == Value(sym_best_)) {
      bests.push_back(v);
    } else if (kind == Value(sym_indiff_)) {
      indiffs.push_back(v);
    } else if (kind == Value(sym_better_) && w->field(5).is_sym()) {
      betters.emplace_back(v, w->field(5).sym());
    }
  }

  // Deterministic candidate order: acceptable preferences by symbol id.
  std::sort(acceptable.begin(), acceptable.end());

  std::vector<Candidate>& out = sc.out;
  out.clear();
  auto contains = [](const std::vector<Symbol>& v, Symbol s) {
    return std::find(v.begin(), v.end(), s) != v.end();
  };
  for (const Symbol v : acceptable) {
    if (contains(rejects, v)) continue;
    out.push_back(Candidate{v, contains(bests, v), contains(indiffs, v)});
  }
  // Best filter: if any surviving candidate is best, keep only bests.
  if (std::any_of(out.begin(), out.end(),
                  [](const Candidate& c) { return c.best; })) {
    out.erase(std::remove_if(out.begin(), out.end(),
                             [](const Candidate& c) { return !c.best; }),
              out.end());
  }
  // Better/worse filter: drop dominated candidates.
  for (const auto& [better, worse] : betters) {
    const bool better_present =
        std::any_of(out.begin(), out.end(),
                    [&](const Candidate& c) { return c.value == better; });
    if (!better_present) continue;
    out.erase(std::remove_if(
                  out.begin(), out.end(),
                  [&](const Candidate& c) { return c.value == worse; }),
              out.end());
  }
  return out;
}

void SoarKernel::install(GoalEntry& g, Symbol role, Symbol value) {
  Symbol* slot = nullptr;
  if (role == sym_ps_) {
    slot = &g.problem_space;
  } else if (role == sym_state_) {
    slot = &g.state;
  } else {
    slot = &g.op;
  }
  if (slot->valid()) remove_triple(g.id, role, Value(*slot));
  *slot = value;
  add_triple(g.id, role, Value(value));
  if (role == sym_state_ && g.op.valid()) {
    // A new state retires the operator that produced it.
    remove_triple(g.id, sym_op_, Value(g.op));
    g.op = Symbol();
  }
}

void SoarKernel::push_subgoal(GoalEntry& g, Symbol role, Symbol type,
                              const std::vector<Candidate>& items,
                              SoarRunStats& stats) {
  // Copy out of `g` before push_back: it references into stack_, which may
  // reallocate.
  const Symbol super_id = g.id;
  const Symbol super_state = g.state;
  const int level = g.level;
  const Symbol sg = make_id("g", level + 1);
  GoalEntry e;
  e.id = sg;
  e.level = level + 1;
  e.impasse_role = role;
  e.impasse_type = type;
  stack_.push_back(e);
  add_triple(sg, "object", Value(super_id));
  add_triple(sg, "role", Value(role));
  add_triple(sg, "impasse", Value(type));
  add_triple(sg, "superstate", Value(super_state));
  for (const Candidate& c : items) {
    add_triple(sg, "item", Value(c.value));
  }
  ++stats.impasses;
}

bool SoarKernel::subgoal_exists_for(size_t gi, Symbol role) const {
  return gi + 1 < stack_.size() && stack_[gi + 1].impasse_role == role;
}

namespace {

/// Resolves a multi-candidate slot: a unique best wins; otherwise, if every
/// candidate carries an indifferent preference, the lowest symbol wins
/// deterministically; otherwise the tie stands.
std::optional<Symbol> choose(
    const std::vector<SoarKernel::Candidate>& cands) {
  if (cands.size() == 1) return cands.front().value;
  size_t n_best = 0;
  Symbol best;
  for (const auto& c : cands) {
    if (c.best) {
      ++n_best;
      best = c.value;
    }
  }
  if (n_best == 1) return best;
  const bool all_indiff = std::all_of(
      cands.begin(), cands.end(),
      [](const SoarKernel::Candidate& c) { return c.indifferent || c.best; });
  if (!cands.empty() && (all_indiff || n_best > 1)) {
    // Deterministic pick among mutually indifferent (or equally best)
    // candidates.
    std::optional<Symbol> min;
    for (const auto& c : cands) {
      if (n_best > 0 && !c.best) continue;
      if (!min || c.value < *min) min = c.value;
    }
    return min;
  }
  return std::nullopt;
}

}  // namespace

bool SoarKernel::decide(SoarRunStats& stats) {
  for (size_t gi = 0; gi < stack_.size(); ++gi) {
    GoalEntry& g = stack_[gi];

    // Problem-space slot (tasks usually pre-install it at setup).
    if (!g.problem_space.valid()) {
      const auto& cands = slot_candidates(g, sym_ps_);
      if (auto pick = choose(cands)) {
        install(g, sym_ps_, *pick);
        pop_goals_below(g.level);
        return true;
      }
    }

    // Operator completion without a state change (monotonic tasks mark the
    // operator (o ^done yes) instead of proposing a successor state).
    const Value done[] = {Value(g.op), Value(sym_done_), Value(sym_yes_)};
    if (g.op.valid() && engine_.wm().find(cls_wme_, done, 3) != nullptr) {
      remove_triple(g.id, sym_op_, Value(g.op));
      g.op = Symbol();
      pop_goals_below(g.level);
      return true;
    }

    // State slot: operator applications propose the successor state.
    {
      auto& cands = slot_candidates(g, sym_state_);
      cands.erase(std::remove_if(cands.begin(), cands.end(),
                                 [&](const Candidate& c) {
                                   return c.value == g.state;
                                 }),
                  cands.end());
      if (!cands.empty()) {
        if (auto pick = choose(cands)) {
          install(g, sym_state_, *pick);
          pop_goals_below(g.level);
          return true;
        }
        // Several competing successor states: rare; treat as a tie impasse
        // on the state slot.
        if (!subgoal_exists_for(gi, sym_state_)) {
          push_subgoal(g, sym_state_, sym_tie_, cands, stats);
          return true;
        }
      }
    }

    // Operator slot.
    if (!g.op.valid() && g.state.valid()) {
      const auto& cands = slot_candidates(g, sym_op_);
      if (!cands.empty()) {
        if (auto pick = choose(cands)) {
          install(g, sym_op_, *pick);
          pop_goals_below(g.level);
          return true;
        }
        if (!subgoal_exists_for(gi, sym_op_)) {
          push_subgoal(g, sym_op_, sym_tie_, cands, stats);
          return true;
        }
        // The tie subgoal exists but has not produced a resolution yet;
        // give deeper goals a chance (they have none to give in this
        // simplified architecture, so the run will end as "stuck").
      }
      // No candidates at all: nothing to decide at this goal.
    }
  }
  return false;
}

}  // namespace psme
