#include "soar/chunker.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "soar/kernel.h"

namespace psme {

std::optional<Production> Chunker::build_chunk(const Wme* result,
                                               int result_level,
                                               std::string* signature) {
  if (k_.provenance(result) == nullptr) return std::nullopt;

  // Backtrace: collect supergoal-level condition wmes, and remember every
  // traced instantiation so its negated conditions can be transferred.
  std::vector<const Wme*> frontier = {result};
  std::set<const Wme*> visited;
  std::vector<const Wme*> conditions;
  std::set<const Wme*> cond_set;
  std::vector<const Provenance*> traced;
  std::set<std::pair<const Production*, size_t>> traced_insts;
  while (!frontier.empty()) {
    const Wme* w = frontier.back();
    frontier.pop_back();
    if (!visited.insert(w).second) continue;
    const Provenance* prov = k_.provenance(w);
    if (prov == nullptr) continue;  // architectural: trace stops
    if (traced_insts.insert({prov->prod, token_identity_hash(prov->token)})
            .second) {
      traced.push_back(prov);
    }
    for (const Wme* cond : prov->token) {
      if (k_.wme_level(cond) <= result_level) {
        if (cond_set.insert(cond).second) conditions.push_back(cond);
      } else {
        frontier.push_back(cond);
      }
    }
  }
  if (conditions.empty()) return std::nullopt;

  // Variablize identifiers consistently across conditions and the result.
  Production chunk;
  chunk.is_chunk = true;
  std::map<Symbol, uint32_t> var_of;
  auto variablize = [&](Symbol id) -> uint32_t {
    auto it = var_of.find(id);
    if (it != var_of.end()) return it->second;
    const uint32_t v = chunk.num_vars++;
    chunk.var_names.push_back("<c" + std::to_string(v) + ">");
    var_of.emplace(id, v);
    return v;
  };
  auto is_identifier = [&](const Value& v) {
    return v.is_sym() && k_.id_level(v.sym()) > 0;
  };

  // The result must be anchored: at least one condition must mention the
  // result's root identifier (its id/gid field), else the chunk would fire
  // on unrelated goals.
  Symbol anchor;
  if (!result->fields.empty() && result->fields[0].is_sym()) {
    anchor = result->fields[0].sym();
  }
  bool anchored = false;
  for (const Wme* c : conditions) {
    for (const Value& v : c->fields) {
      if (v.is_sym() && v.sym() == anchor) anchored = true;
    }
  }
  if (!anchored) return std::nullopt;

  // Order conditions for connectivity: start with one mentioning the anchor,
  // then greedily append conditions sharing an identifier with what's
  // already placed.
  std::vector<const Wme*> ordered;
  {
    std::set<Symbol> known;
    auto mentions_known = [&](const Wme* w) {
      for (const Value& v : w->fields) {
        if (is_identifier(v) && known.count(v.sym())) return true;
      }
      return false;
    };
    auto place = [&](size_t idx) {
      const Wme* w = conditions[idx];
      ordered.push_back(w);
      for (const Value& v : w->fields) {
        if (is_identifier(v)) known.insert(v.sym());
      }
      conditions.erase(conditions.begin() + static_cast<ptrdiff_t>(idx));
    };
    // Seed with an anchor-mentioning condition.
    for (size_t i = 0; i < conditions.size(); ++i) {
      bool has_anchor = false;
      for (const Value& v : conditions[i]->fields) {
        if (v.is_sym() && v.sym() == anchor) has_anchor = true;
      }
      if (has_anchor) {
        place(i);
        break;
      }
    }
    while (!conditions.empty()) {
      bool placed = false;
      for (size_t i = 0; i < conditions.size(); ++i) {
        if (mentions_known(conditions[i])) {
          place(i);
          placed = true;
          break;
        }
      }
      if (!placed) place(0);  // disconnected remainder: append as-is
    }
  }

  // Build condition ASTs. Slot layout comes straight from the wme contents;
  // nil fields generate no test.
  for (const Wme* w : ordered) {
    Condition ce;
    ce.cls = w->cls;
    for (size_t slot = 0; slot < w->fields.size(); ++slot) {
      const Value& v = w->fields[slot];
      if (v.is_nil()) continue;
      if (is_identifier(v)) {
        ce.vars.push_back(
            {static_cast<int>(slot), Pred::Eq, variablize(v.sym())});
      } else {
        ce.consts.push_back({static_cast<int>(slot), Pred::Eq, v});
      }
    }
    chunk.conditions.push_back(std::move(ce));
  }

  // Transfer negated conditions of every traced instantiation: the chunk
  // must not fire in situations the original productions' negations
  // excluded. Each negated CE is grounded against the instantiation's actual
  // bindings; identifiers become chunk variables (they already appear in the
  // positive conditions), everything else becomes a constant test.
  std::string neg_signature;
  {
    std::set<std::string> neg_seen;
    for (const Provenance* prov : traced) {
      const Production& tp = *prov->prod;
      const CompiledProduction& cp =
          k_.engine().record(prov->prod).compiled;
      for (const Condition& ce : tp.conditions) {
        if (ce.is_ncc()) return std::nullopt;  // conservative: abandon
        if (!ce.negated) continue;
        Condition neg;
        neg.cls = ce.cls;
        neg.negated = true;
        neg.consts = ce.consts;
        neg.disjs = ce.disjs;
        bool ok = true;
        std::set<uint32_t> locals_used;
        for (const VarTest& vt : ce.vars) {
          const auto& site = cp.bindings[vt.var];
          if (site.ce < 0) {
            // Local to the negated CE: a single occurrence is a wildcard; a
            // repeat would need an intra test we cannot reconstruct soundly.
            if (!locals_used.insert(vt.var).second) {
              ok = false;
              break;
            }
            continue;
          }
          const Value bound =
              prov->token[static_cast<size_t>(site.ce)]->field(site.slot);
          if (is_identifier(bound)) {
            auto vit = var_of.find(bound.sym());
            if (vit == var_of.end()) {
              // References a subgoal-local object: unsound to transfer.
              ok = false;
              break;
            }
            if (vt.pred == Pred::Eq) {
              neg.vars.push_back({vt.slot, Pred::Eq, vit->second});
            } else {
              ok = false;  // ordering predicate on an identifier: give up
              break;
            }
          } else {
            neg.consts.push_back({vt.slot, vt.pred, bound});
          }
        }
        if (!ok) return std::nullopt;
        // Dedup structurally identical transferred negations.
        std::ostringstream key;
        key << neg.cls.raw();
        for (const auto& t : neg.consts) {
          key << '|' << t.slot << pred_name(t.pred) << t.value.hash();
        }
        for (const auto& t : neg.vars) {
          key << '|' << t.slot << 'v' << t.var;
        }
        if (neg_seen.insert(key.str()).second) {
          neg_signature += "-" + key.str();
          chunk.conditions.push_back(std::move(neg));
        }
      }
    }
  }

  // RHS: reconstruct the result.
  Action make;
  make.kind = Action::Kind::Make;
  make.cls = result->cls;
  for (size_t slot = 0; slot < result->fields.size(); ++slot) {
    const Value& v = result->fields[slot];
    if (v.is_nil()) continue;
    RhsAssignment asg;
    asg.slot = static_cast<int>(slot);
    if (is_identifier(v)) {
      auto it = var_of.find(v.sym());
      if (it != var_of.end()) {
        asg.value.kind = RhsValue::Kind::Var;
        asg.value.var = it->second;
      } else {
        // A subgoal-created identifier escaping in the result: mint a fresh
        // one each firing (real Soar promotes the id; this is the documented
        // approximation).
        asg.value.kind = RhsValue::Kind::Gensym;
        asg.value.gensym_prefix = k_.engine().syms().intern("c");
      }
    } else {
      asg.value.kind = RhsValue::Kind::Const;
      asg.value.constant = v;
    }
    make.sets.push_back(std::move(asg));
  }
  chunk.actions.push_back(std::move(make));

  // Canonical signature for duplicate suppression: conditions and action
  // with identifiers replaced by their variable numbers.
  {
    std::ostringstream sig;
    const SymbolTable& syms = k_.engine().syms();
    auto fmt = [&](const Wme* w) {
      sig << '(' << syms.name(w->cls);
      for (const Value& v : w->fields) {
        sig << ' ';
        if (is_identifier(v)) {
          sig << 'v' << var_of[v.sym()];
        } else {
          sig << v.to_string(syms);
        }
      }
      sig << ')';
    };
    for (const Wme* w : ordered) fmt(w);
    sig << neg_signature << "=>";
    fmt(result);
    *signature = sig.str();
  }

  chunk.name = k_.engine().syms().gensym("chunk-");
  return chunk;
}

}  // namespace psme
