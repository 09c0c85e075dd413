#include "rete/builder.h"

#include <algorithm>
#include <stdexcept>

#include "rete/codesize.h"

namespace psme {
namespace {

/// Mirrors an ordering predicate: `w PRED bound` expressed as
/// `bound MIRROR(PRED) w` (join tests evaluate left-PRED-right).
Pred mirror(Pred p) {
  switch (p) {
    case Pred::Lt: return Pred::Gt;
    case Pred::Le: return Pred::Ge;
    case Pred::Gt: return Pred::Lt;
    case Pred::Ge: return Pred::Le;
    default: return p;  // Eq, Ne, SameType are symmetric
  }
}

/// Total order on values for canonical alpha-chain ordering (sharing needs a
/// deterministic test order so equal test sets produce equal chains).
bool value_less(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return a.kind() < b.kind();
  switch (a.kind()) {
    case Value::Kind::Sym: return a.sym() < b.sym();
    case Value::Kind::Int: return a.as_int() < b.as_int();
    case Value::Kind::Float: return a.as_float() < b.as_float();
    case Value::Kind::Nil: return false;
  }
  return false;
}

bool const_test_less(const ConstTest& a, const ConstTest& b) {
  if (a.slot != b.slot) return a.slot < b.slot;
  if (a.pred != b.pred) return a.pred < b.pred;
  return value_less(a.value, b.value);
}

/// The builder's one rejection: a variable tested with a predicate where no
/// Eq test binds it. Checked over the whole production before add_production
/// creates a node or a jumptable slot, with the scoping of the build walk: a
/// positive CE's Eq tests bind for itself and every later CE, a negated CE
/// sees only earlier bindings, and an NCC group's bindings stay in the
/// group. The first CE is checked like the rest: it joins nothing, so a
/// predicate on a variable it does not bind would compile to no test at all.
void check_bindings(const Production& p) {
  auto bind = [](const Condition& ce, std::vector<uint8_t>& bound) {
    for (const VarTest& vt : ce.vars) {
      if (vt.pred == Pred::Eq) bound[vt.var] = 1;
    }
  };
  auto require = [](const Condition& ce, const std::vector<uint8_t>& bound) {
    for (const VarTest& vt : ce.vars) {
      if (vt.pred != Pred::Eq && bound[vt.var] == 0) {
        throw std::runtime_error(
            "variable used with a predicate but never bound");
      }
    }
  };
  std::vector<uint8_t> bound(p.num_vars, 0);
  for (const Condition& ce : p.conditions) {
    if (ce.is_ncc()) {
      auto group = bound;
      for (const Condition& sub : ce.ncc) {
        bind(sub, group);
        require(sub, group);
      }
    } else if (ce.negated) {
      require(ce, bound);
    } else {
      bind(ce, bound);
      require(ce, bound);
    }
  }
}

}  // namespace

void Builder::note_new_node(const Node& n, BuildState& st) {
  st.cp.new_nodes.push_back(n.id);
  generate_code(n, st.cp.code);
}

void Builder::note_shared_beta(uint32_t id, BuildState& st) {
  st.cp.shared_nodes.push_back(id);
  ++beta_shared_;
}

std::vector<Builder::IntraTest> Builder::bind_and_collect_intra(
    const Condition& ce, int token_pos,
    std::vector<CompiledProduction::BindSite>& sites) const {
  std::vector<IntraTest> intras;
  // Pass 1: record the first Eq occurrence of each still-unbound variable.
  // Remember which (var, slot) pair was the binding so pass 2 skips it.
  std::vector<std::pair<uint32_t, int>> bound_here;
  for (const VarTest& vt : ce.vars) {
    if (vt.pred != Pred::Eq) continue;
    auto& site = sites[vt.var];
    if (site.ce == -1) {
      site.ce = token_pos;
      site.slot = vt.slot;
      bound_here.emplace_back(vt.var, vt.slot);
    }
  }
  // Pass 2: occurrences whose binding lives in this same CE become intra
  // (slot-vs-slot) tests evaluated in the alpha part.
  for (const VarTest& vt : ce.vars) {
    const auto& site = sites[vt.var];
    if (site.ce != token_pos) continue;
    const bool is_binding =
        vt.pred == Pred::Eq &&
        std::find(bound_here.begin(), bound_here.end(),
                  std::make_pair(vt.var, vt.slot)) != bound_here.end() &&
        site.slot == vt.slot;
    if (is_binding) continue;
    intras.push_back({vt.slot, site.slot, vt.pred});
  }
  return intras;
}

std::vector<JoinTest> Builder::make_join_tests(
    const Condition& ce, const std::vector<CompiledProduction::BindSite>& sites,
    int current_pos, uint16_t* n_eq) const {
  std::vector<JoinTest> eq, rest;
  for (const VarTest& vt : ce.vars) {
    const auto& site = sites[vt.var];
    // Unbound: an Eq wildcard (check_bindings rejected any other test).
    if (site.ce == -1) continue;
    if (site.ce == current_pos) continue;  // bound here: intra or no test
    JoinTest jt;
    jt.left_ce = static_cast<uint16_t>(site.ce);
    jt.left_slot = static_cast<uint16_t>(site.slot);
    jt.right_slot = static_cast<uint16_t>(vt.slot);
    jt.pred = mirror(vt.pred);
    if (jt.pred == Pred::Eq) {
      eq.push_back(jt);
    } else {
      rest.push_back(jt);
    }
  }
  *n_eq = static_cast<uint16_t>(eq.size());
  eq.insert(eq.end(), rest.begin(), rest.end());
  return eq;
}

uint32_t Builder::build_alpha(const Condition& ce, BuildState& st,
                              const std::vector<IntraTest>& intras) {
  // Canonical chain: class root -> sorted const tests -> sorted disjunction
  // tests -> sorted intra tests -> alpha memory. Equal test sets thus share
  // the whole chain.
  std::vector<ConstTest> consts = ce.consts;
  std::sort(consts.begin(), consts.end(), const_test_less);
  std::vector<DisjTest> disjs = ce.disjs;
  std::sort(disjs.begin(), disjs.end(),
            [](const DisjTest& a, const DisjTest& b) { return a.slot < b.slot; });
  std::vector<IntraTest> sorted_intras = intras;
  std::sort(sorted_intras.begin(), sorted_intras.end(),
            [](const IntraTest& a, const IntraTest& b) {
              if (a.slot_a != b.slot_a) return a.slot_a < b.slot_a;
              if (a.slot_b != b.slot_b) return a.slot_b < b.slot_b;
              return a.pred < b.pred;
            });

  uint32_t cur_slot = net_.root_slot(ce.cls);

  // Frontier tracking: remember how far the chain runs through pre-existing
  // nodes; the first node created (or the first reused node built earlier in
  // this same add) ends the "old prefix". Updates later seed wmes directly
  // at the frontier after evaluating the recorded prefix tests.
  bool entered_new = false;
  AlphaFrontier frontier;
  frontier.cls = ce.cls;
  auto record_frontier = [&](uint32_t entry_node) {
    if (entered_new) return;
    entered_new = true;
    frontier.entry_node = entry_node;
    st.cp.alpha_frontiers.push_back(frontier);
  };

  auto descend = [&](auto&& matches, auto&& create) -> void {
    for (const SuccessorRef& s : net_.jumptable().peek(cur_slot)) {
      Node* cand = net_.node(s.node);
      if (matches(cand)) {
        ++alpha_shared_;
        // Built earlier within this same add: its frontier is recorded.
        if (cand->stamp >= st.cp.first_new_stamp) entered_new = true;
        cur_slot = cand->jt_slot;
        return;
      }
    }
    Node* n = create();
    net_.jumptable().add(cur_slot, SuccessorRef{n->id, Side::Left});
    record_frontier(n->id);
    note_new_node(*n, st);
    cur_slot = n->jt_slot;
  };

  for (const ConstTest& t : consts) {
    descend(
        [&](Node* cand) {
          return cand->type == NodeType::Const &&
                 static_cast<ConstNode*>(cand)->test == t;
        },
        [&]() -> Node* {
          auto* n = net_.make_node<ConstNode>();
          n->test = t;
          return n;
        });
    if (!entered_new) frontier.prefix_consts.push_back(t);
  }
  for (const DisjTest& t : disjs) {
    descend(
        [&](Node* cand) {
          return cand->type == NodeType::Disj &&
                 static_cast<DisjNode*>(cand)->test == t;
        },
        [&]() -> Node* {
          auto* n = net_.make_node<DisjNode>();
          n->test = t;
          return n;
        });
    if (!entered_new) frontier.prefix_disjs.push_back(t);
  }
  for (const IntraTest& t : sorted_intras) {
    descend(
        [&](Node* cand) {
          if (cand->type != NodeType::Intra) return false;
          auto* in = static_cast<IntraNode*>(cand);
          return in->slot_a == t.slot_a && in->slot_b == t.slot_b &&
                 in->pred == t.pred;
        },
        [&]() -> Node* {
          auto* n = net_.make_node<IntraNode>();
          n->slot_a = t.slot_a;
          n->slot_b = t.slot_b;
          n->pred = t.pred;
          return n;
        });
    if (!entered_new) frontier.prefix_intras.push_back(t);
  }

  // Terminal alpha memory.
  for (const SuccessorRef& s : net_.jumptable().peek(cur_slot)) {
    Node* cand = net_.node(s.node);
    if (cand->type == NodeType::AlphaMem) {
      ++alpha_shared_;
      return cand->id;
    }
  }
  auto* am = net_.make_node<AlphaMemNode>();
  net_.jumptable().add(cur_slot, SuccessorRef{am->id, Side::Left});
  record_frontier(am->id);
  note_new_node(*am, st);
  return am->id;
}

uint32_t Builder::attach_two_input(NodeType type, uint32_t pred, uint32_t amem,
                                   std::vector<JoinTest> tests, uint16_t n_eq,
                                   uint32_t left_arity, BuildState& st) {
  const uint32_t pred_slot = net_.node(pred)->jt_slot;
  if (opts_.share_beta && !st.share_broken) {
    for (const SuccessorRef& s : net_.jumptable().peek(pred_slot)) {
      if (s.side != Side::Left) continue;
      Node* cand = net_.node(s.node);
      if (cand->type != type) continue;
      auto* t = static_cast<TwoInputNode*>(cand);
      if (t->alpha_mem == amem && t->n_eq == n_eq && t->tests == tests) {
        note_shared_beta(t->id, st);
        return t->id;
      }
    }
  }
  // No share: create, splice into both parents' jumptable slots.
  if (st.cp.share_point == UINT32_MAX) st.cp.share_point = pred;
  st.share_broken = true;
  TwoInputNode* n = nullptr;
  if (type == NodeType::Join) {
    n = net_.make_node<JoinNode>();
  } else {
    n = net_.make_node<NotNode>();
  }
  n->tests = std::move(tests);
  n->n_eq = n_eq;
  n->left_arity = left_arity;
  n->left_pred = pred;
  n->alpha_mem = amem;
  net_.jumptable().add(pred_slot, SuccessorRef{n->id, Side::Left});
  net_.jumptable().add(net_.node(amem)->jt_slot, SuccessorRef{n->id, Side::Right});
  note_new_node(*n, st);
  return n->id;
}

void Builder::build_positive(const Condition& ce, BuildState& st) {
  const int token_pos = static_cast<int>(st.arity);
  const auto intras = bind_and_collect_intra(ce, token_pos, st.sites);
  const uint32_t amem = build_alpha(ce, st, intras);
  if (st.pred == UINT32_MAX) {
    // First CE: its alpha memory is the beta chain's source.
    st.pred = amem;
    st.arity = 1;
    return;
  }
  uint16_t n_eq = 0;
  auto tests = make_join_tests(ce, st.sites, token_pos, &n_eq);
  st.pred = attach_two_input(NodeType::Join, st.pred, amem, std::move(tests),
                             n_eq, st.arity, st);
  ++st.arity;
}

void Builder::build_negative(const Condition& ce, BuildState& st) {
  // Negated CE variables bind only locally (for intra tests); they are not
  // visible to later CEs. Work on a scoped copy of the sites.
  auto local_sites = st.sites;
  const auto intras = bind_and_collect_intra(ce, /*token_pos=*/-3, local_sites);
  // bind_and_collect_intra records binding site ce = -3 for locally bound
  // vars; make_join_tests must treat those as wildcards, not join tests.
  auto test_sites = local_sites;
  for (auto& site : test_sites) {
    if (site.ce == -3) site.ce = -1;
  }
  // Re-resolve intra tests (they used the -3 sites, which is fine: intra
  // tests are slot-vs-slot and need no CE index).
  const uint32_t amem = build_alpha(ce, st, intras);
  uint16_t n_eq = 0;
  auto tests = make_join_tests(ce, test_sites, /*current_pos=*/-3, &n_eq);
  st.pred = attach_two_input(NodeType::Not, st.pred, amem, std::move(tests),
                             n_eq, st.arity, st);
  // arity unchanged: not-nodes pass tokens through.
}

void Builder::build_ncc(const Condition& group, BuildState& st) {
  // Subnetwork: chains off the same predecessor; its tokens extend the main
  // token, so group CE k sits at token position st.arity + k.
  const uint32_t prefix_len = st.arity;
  auto group_sites = st.sites;  // group-local bindings are scoped
  uint32_t sub_pred = st.pred;
  uint32_t sub_arity = st.arity;
  if (st.cp.share_point == UINT32_MAX) st.cp.share_point = st.pred;
  st.share_broken = true;  // NCC groups are never shared
  for (const Condition& ce : group.ncc) {
    const int token_pos = static_cast<int>(sub_arity);
    const auto intras = bind_and_collect_intra(ce, token_pos, group_sites);
    const uint32_t amem = build_alpha(ce, st, intras);
    uint16_t n_eq = 0;
    auto tests = make_join_tests(ce, group_sites, token_pos, &n_eq);
    sub_pred = attach_two_input(NodeType::Join, sub_pred, amem,
                                std::move(tests), n_eq, sub_arity, st);
    ++sub_arity;
  }
  auto* ncc = net_.make_node<NccNode>();
  ncc->left_arity = prefix_len;
  auto* partner = net_.make_node<NccPartnerNode>();
  partner->owner = ncc->id;
  partner->prefix_len = prefix_len;
  ncc->partner = partner->id;
  // Partner hangs under the subnetwork bottom; owner under the main pred.
  net_.jumptable().add(net_.node(sub_pred)->jt_slot,
                       SuccessorRef{partner->id, Side::Left});
  net_.jumptable().add(net_.node(st.pred)->jt_slot,
                       SuccessorRef{ncc->id, Side::Left});
  note_new_node(*ncc, st);
  note_new_node(*partner, st);
  st.pred = ncc->id;
  // arity unchanged.
}

CompiledProduction Builder::add_production(const Production& p) {
  const auto t0 = std::chrono::steady_clock::now();
  check_bindings(p);
  BuildState st;
  st.cp.ast = &p;
  st.cp.first_new_stamp = net_.next_stamp();
  st.sites.assign(p.num_vars, CompiledProduction::BindSite{});

  for (const Condition& ce : p.conditions) {
    if (ce.is_ncc()) {
      build_ncc(ce, st);
    } else if (ce.negated) {
      build_negative(ce, st);
    } else {
      build_positive(ce, st);
    }
  }

  auto* pn = net_.make_node<ProdNode>();
  pn->prod = &p;
  if (st.cp.share_point == UINT32_MAX) st.cp.share_point = st.pred;
  net_.jumptable().add(net_.node(st.pred)->jt_slot,
                       SuccessorRef{pn->id, Side::Left});
  note_new_node(*pn, st);

  st.cp.pnode = pn->id;
  st.cp.bindings = std::move(st.sites);
  // Drop binding sites that live in negated CEs (they never made it into
  // tokens; sites recorded with negative ce sentinels are already -1/-3 only
  // inside scoped copies, so nothing to do here).
  st.cp.compile_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return std::move(st.cp);
}

}  // namespace psme
