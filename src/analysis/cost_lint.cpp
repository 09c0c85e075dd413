#include "analysis/cost_lint.h"

#include <algorithm>

#include "psim/report.h"

namespace psme::analysis {

namespace {

struct InEdge {
  uint32_t from = 0;
  Side side = Side::Left;
  bool from_root = false;
};

/// Saturating multiply against the token cap.
double sat(double v, double cap) { return std::min(v, cap); }

/// In-edges per node (resolved refs only; the verifier reports dangling).
std::vector<std::vector<InEdge>> build_in_edges(const Network& net) {
  const uint32_t n = net.node_count();
  const Jumptable& jt = net.jumptable();
  std::vector<std::vector<InEdge>> ins(n);
  for (const auto& [cls, slot] : net.roots()) {
    (void)cls;
    if (slot >= jt.size()) continue;
    for (const SuccessorRef& ref : jt.peek(slot)) {
      if (ref.node < n) ins[ref.node].push_back({0, ref.side, true});
    }
  }
  for (uint32_t i = 0; i < n; ++i) {
    const Node* node = net.node(i);
    if (node == nullptr) continue;  // freed id of a removed production
    const uint32_t slot = node->jt_slot;
    if (slot >= jt.size()) continue;
    for (const SuccessorRef& ref : jt.peek(slot)) {
      if (ref.node < n && ref.node != i && net.node(ref.node) != nullptr) {
        ins[ref.node].push_back({i, ref.side, false});
      }
    }
  }
  return ins;
}

/// Orders node ids by creation stamp. A builder-produced network creates
/// predecessors first, so this is a topological order; id order is not,
/// because removal recycles ids.
void sort_by_stamp(const Network& net, std::vector<uint32_t>& ids) {
  std::sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    return net.node(a)->stamp < net.node(b)->stamp;
  });
}

/// Backward walk from `pnode` over `ins` (+ NCC partners of reached owners)
/// into `set`, in creation (= topological) order. `in_set` must be all-zero
/// on entry and is left MARKED for every node in `set` — callers clear it
/// when they are done with membership tests.
void slice_from(const Network& net, const std::vector<std::vector<InEdge>>& ins,
                uint32_t pnode, std::vector<uint8_t>& in_set,
                std::vector<uint32_t>& set, std::vector<uint32_t>& stack) {
  const uint32_t n = net.node_count();
  set.clear();
  stack.assign(1, pnode);
  in_set[pnode] = 1;
  while (!stack.empty()) {
    const uint32_t v = stack.back();
    stack.pop_back();
    set.push_back(v);
    for (const InEdge& e : ins[v]) {
      if (!e.from_root && in_set[e.from] == 0) {
        in_set[e.from] = 1;
        stack.push_back(e.from);
      }
    }
    if (net.node(v)->type == NodeType::Ncc) {
      const auto& ncc = static_cast<const NccNode&>(*net.node(v));
      if (ncc.partner < n && in_set[ncc.partner] == 0) {
        in_set[ncc.partner] = 1;
        stack.push_back(ncc.partner);
      }
    }
  }
  sort_by_stamp(net, set);
}

}  // namespace

LintReport lint_costs(const Network& net,
                      const std::vector<const AddRecord*>& records,
                      const CostModel& cost, const CostBudget& budget) {
  LintReport rep;
  rep.budget = budget;
  const uint32_t n = net.node_count();
  const Jumptable& jt = net.jumptable();
  const double W = budget.wme_bound;
  const double cap = budget.token_cap;

  const std::vector<std::vector<InEdge>> ins = build_in_edges(net);

  auto pred_of = [&](uint32_t i, Side side) -> uint32_t {
    for (const InEdge& e : ins[i]) {
      if (e.side == side && !e.from_root) return e.from;
    }
    return UINT32_MAX;
  };

  // Per-node model, in creation order: topological, so every predecessor's
  // figures are final before a successor reads them. Freed ids cost nothing
  // and are in no slice.
  std::vector<double> pop(n, 1);    // modeled stored population
  std::vector<double> em(n, 1);     // worst emissions per wme change
  std::vector<double> act(n, 0);    // worst single-activation cost, µs
  std::vector<double> total(n, 0);  // total cost charged per wme change, µs
  auto pop_of = [&](uint32_t id) { return id < n ? pop[id] : 1.0; };
  auto em_of = [&](uint32_t id) { return id < n ? em[id] : 1.0; };

  std::vector<uint32_t> order;
  for (uint32_t i = 0; i < n; ++i) {
    if (net.node(i) != nullptr) order.push_back(i);
  }
  sort_by_stamp(net, order);
  for (const uint32_t i : order) {
    const Node* node = net.node(i);
    const uint32_t left = pred_of(i, Side::Left);
    switch (node->type) {
      case NodeType::Const:
      case NodeType::Disj:
      case NodeType::Intra:
        pop[i] = W;
        em[i] = 1;
        act[i] = cost.base_const + cost.per_test;
        total[i] = act[i];
        break;
      case NodeType::AlphaMem: {
        const double fan =
            node->jt_slot < jt.size()
                ? static_cast<double>(jt.peek(node->jt_slot).size())
                : 0;
        pop[i] = W;
        em[i] = 1;
        act[i] = cost.base_alpha + cost.per_insert + cost.per_emit * fan;
        total[i] = act[i];
        break;
      }
      case NodeType::Join:
      case NodeType::Not: {
        const auto& t = static_cast<const TwoInputNode&>(*node);
        const double pop_l = pop_of(t.left_pred < n ? t.left_pred : left);
        const double em_l = em_of(t.left_pred < n ? t.left_pred : left);
        const double tests = static_cast<double>(t.tests.size());
        const double probe = cost.per_probe + cost.per_test * tests;
        const bool is_join = node->type == NodeType::Join;
        // Left arrival: probes the alpha memory (≤ W wmes), emits ≤ W
        // children (a not emits at most its own token). Right arrival:
        // probes the left memory (≤ pop_l tokens), emits ≤ pop_l.
        const double left_act = cost.base_two + cost.per_insert + probe * W +
                                cost.per_emit * (is_join ? W : 1);
        const double right_act = cost.base_two + cost.per_insert +
                                 probe * pop_l + cost.per_emit * pop_l;
        pop[i] = is_join ? sat(pop_l * W, cap) : pop_l;
        em[i] = is_join ? sat(std::max(em_l * W, pop_l), cap)
                        : sat(std::max(em_l, pop_l), cap);
        act[i] = std::max(left_act, right_act);
        total[i] = sat(em_l * left_act + right_act, cap * cost.per_emit);
        break;
      }
      case NodeType::Ncc: {
        const auto& ncc = static_cast<const NccNode&>(*node);
        (void)ncc;
        const double pop_l = pop_of(left);
        const double em_l = em_of(left);
        pop[i] = pop_l;
        em[i] = em_l;
        act[i] = cost.base_ncc + cost.per_probe * pop_l + cost.per_insert +
                 cost.per_emit;
        total[i] = em_l * act[i];
        break;
      }
      case NodeType::NccPartner: {
        const double pop_l = pop_of(left);
        const double em_l = em_of(left);
        pop[i] = pop_l;
        em[i] = sat(em_l, cap);
        act[i] = cost.base_ncc + cost.per_probe * pop_l + cost.per_insert +
                 cost.per_emit;
        total[i] = em_l * act[i];
        break;
      }
      case NodeType::BJoin: {
        const uint32_t right = pred_of(i, Side::Right);
        const double pop_l = pop_of(left), pop_r = pop_of(right);
        const double em_l = em_of(left), em_r = em_of(right);
        const double left_act = cost.base_two + cost.per_insert +
                                cost.per_probe * pop_r +
                                cost.per_emit * pop_r;
        const double right_act = cost.base_two + cost.per_insert +
                                 cost.per_probe * pop_l +
                                 cost.per_emit * pop_l;
        pop[i] = sat(pop_l * pop_r, cap);
        em[i] = sat(std::max(em_l * pop_r, em_r * pop_l), cap);
        act[i] = std::max(left_act, right_act);
        total[i] = sat(em_l * left_act + em_r * right_act,
                       cap * cost.per_emit);
        break;
      }
      case NodeType::Prod: {
        pop[i] = pop_of(left);
        em[i] = 0;
        act[i] = cost.base_prod + cost.per_insert;
        total[i] = em_of(left) * act[i];
        break;
      }
    }
  }

  // Per production: its network slice is everything backward-reachable from
  // its P-node (plus NCC partners of reached owners).
  std::vector<uint8_t> in_set(n, 0);
  std::vector<uint32_t> set, stack;
  std::vector<uint32_t> depth(n, 0);
  std::vector<double> chain(n, 0);
  for (const AddRecord* r : records) {
    if (r == nullptr || r->compiled.pnode >= n ||
        net.node(r->compiled.pnode) == nullptr) {
      continue;  // removed production's record (the verifier flags it)
    }
    const uint32_t pnode = r->compiled.pnode;
    slice_from(net, ins, pnode, in_set, set, stack);

    ProductionCost pc;
    pc.prod = r->ast;
    if (r->ast != nullptr) {
      pc.name = std::string(net.syms().name(r->ast->name));
    }
    pc.pnode = pnode;
    pc.nodes = static_cast<uint32_t>(set.size());
    pc.shared_nodes =
        static_cast<uint32_t>(r->compiled.shared_nodes.size());

    for (const uint32_t v : set) {
      const NodeType t = net.node(v)->type;
      if (t == NodeType::Join || t == NodeType::Not || t == NodeType::Ncc ||
          t == NodeType::BJoin) {
        ++pc.two_input_nodes;
      }
      pc.worst_case_cost_us += total[v];

      // Longest dependent chain within the slice. A predecessor that is an
      // NCC owner also exposes its partner's chain (emissions flow through
      // the owner's slot; the partner is the younger, but both precede
      // every successor of the owner).
      uint32_t d = 0;
      double c = 0;
      for (const InEdge& e : ins[v]) {
        if (e.from_root) {
          d = std::max(d, 1u);
        } else if (in_set[e.from] != 0) {
          uint32_t pd = depth[e.from];
          double pcst = chain[e.from];
          if (net.node(e.from)->type == NodeType::Ncc) {
            const auto& ncc = static_cast<const NccNode&>(*net.node(e.from));
            if (ncc.partner < n && in_set[ncc.partner] != 0) {
              pd = std::max(pd, depth[ncc.partner]);
              pcst = std::max(pcst, chain[ncc.partner]);
            }
          }
          d = std::max(d, pd + 1);
          c = std::max(c, pcst);
        }
      }
      depth[v] = d;
      chain[v] = c + act[v];
    }
    pc.chain_depth = depth[pnode];
    pc.chain_cost_us = chain[pnode];

    if (pc.worst_case_cost_us > budget.max_cost_us) pc.flags.push_back("cost");
    if (pc.chain_depth > budget.max_depth) pc.flags.push_back("depth");
    if (pc.over_budget()) ++rep.flagged;
    rep.productions.push_back(std::move(pc));

    for (const uint32_t v : set) in_set[v] = 0;
  }

  return rep;
}

std::vector<std::vector<uint32_t>> production_slices(
    const Network& net, const std::vector<const AddRecord*>& records) {
  const uint32_t n = net.node_count();
  const std::vector<std::vector<InEdge>> ins = build_in_edges(net);
  std::vector<uint8_t> in_set(n, 0);
  std::vector<uint32_t> set, stack;
  std::vector<std::vector<uint32_t>> out(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const AddRecord* r = records[i];
    if (r == nullptr || r->compiled.pnode >= n ||
        net.node(r->compiled.pnode) == nullptr) {
      continue;  // removed production: empty slice
    }
    slice_from(net, ins, r->compiled.pnode, in_set, set, stack);
    out[i] = set;
    for (const uint32_t v : set) in_set[v] = 0;
  }
  return out;
}

void LintReport::print_table() const {
  TextTable table({"production", "nodes", "2-input", "shared", "depth",
                   "chain µs", "worst µs", "flags"});
  for (const ProductionCost& pc : productions) {
    std::string flags;
    for (const std::string& f : pc.flags) {
      if (!flags.empty()) flags += ",";
      flags += f;
    }
    table.add_row({pc.name, std::to_string(pc.nodes),
                   std::to_string(pc.two_input_nodes),
                   std::to_string(pc.shared_nodes),
                   std::to_string(pc.chain_depth),
                   TextTable::num(pc.chain_cost_us),
                   TextTable::num(pc.worst_case_cost_us),
                   flags.empty() ? "-" : flags});
  }
  table.print();
}

}  // namespace psme::analysis
