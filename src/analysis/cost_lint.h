// Production cost linter: CORGI-style static worst-case bounds per production.
//
// CORGI (see PAPERS.md) showed that the worst-case match cost a production
// can incur per working-memory change is statically boundable from the
// compiled join structure alone. This linter walks each production's node
// set (its AddRecord's new + shared nodes, recovered by a backward walk from
// the P-node) and, using the psim cost model's per-operation constants,
// computes:
//
//   * `worst_case_cost_us` — an upper bound on the match time one wme change
//     can charge to this production. Token arrivals cascade multiplicatively
//     down the join chain (a right activation can emit up to the left
//     population, each emitted token re-probes the next alpha memory, ...),
//     with every modeled population bounded by `wme_bound` wmes per alpha
//     memory and saturated at `token_cap` — the classic product-of-join-
//     sizes bound.
//   * `chain_depth` / `chain_cost_us` — length and cost of the longest
//     dependent activation chain from a class root to the P-node. Chains
//     bound speedup regardless of processor count (the paper's Figures
//     6-6..6-8 long-chain effect); the linter finds them before they burn a
//     benchmark.
//
// Budgets are configurable; productions whose bound exceeds any budget are
// flagged with the budget's name. The model is deliberately simple and
// deterministic — same network, same numbers, on every platform — so the
// JSON report can be golden-file tested.
//
// The linter assumes a structurally valid network (run verify_network
// first); on a malformed network it still terminates (it walks nodes in
// creation-stamp order, which is topological for a builder-produced
// network) but the numbers are meaningless.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/verify.h"
#include "psim/cost_model.h"
#include "rete/add_production.h"
#include "rete/network.h"

namespace psme::analysis {

struct CostBudget {
  double max_cost_us = 1e9;     // worst-case match cost per wme change
  uint32_t max_depth = 64;      // activations on the longest dependent chain
  uint32_t wme_bound = 8;       // modeled wmes per alpha memory
  double token_cap = 1e6;       // saturation for modeled token populations
};

struct ProductionCost {
  const Production* prod = nullptr;
  std::string name;
  uint32_t pnode = 0;
  uint32_t nodes = 0;            // nodes in this production's network slice
  uint32_t two_input_nodes = 0;  // join/not/ncc/bjoin among them
  uint32_t shared_nodes = 0;     // reused from earlier productions
  uint32_t chain_depth = 0;      // longest root -> P-node activation chain
  double chain_cost_us = 0;      // cost-weighted longest chain
  double worst_case_cost_us = 0; // static bound per wme change
  std::vector<std::string> flags;  // exceeded budgets: "cost", "depth"

  [[nodiscard]] bool over_budget() const { return !flags.empty(); }
};

struct LintReport {
  CostBudget budget;
  std::vector<ProductionCost> productions;  // record order (= load order)
  uint32_t flagged = 0;

  [[nodiscard]] bool ok() const { return flagged == 0; }
  /// Human-readable table (psim TextTable) on stdout, flagged productions
  /// marked in the last column.
  void print_table() const;
};

LintReport lint_costs(const Network& net,
                      const std::vector<const AddRecord*>& records,
                      const CostModel& cost = {}, const CostBudget& budget = {});

/// The network slice of every production, parallel to `records`: each entry
/// is the node set backward-reachable from that record's P-node (plus NCC
/// partners of reached owners), in creation order; empty for a removed
/// production's record. This is the same walk lint_costs uses to charge
/// static cost, exported so the measured-profile report
/// (analysis/profile_report.h) attributes runtime node cells to productions
/// through the identical slicing — static and measured tables can then be
/// joined row by row (network_lint --profile).
std::vector<std::vector<uint32_t>> production_slices(
    const Network& net, const std::vector<const AddRecord*>& records);

}  // namespace psme::analysis
