// Measured-cost report: joins a MatchProfiler snapshot against the network's
// production structure, and correlates it with the static cost linter.
//
// The profiler attributes time to (node id, agent id); productions re-enter
// the picture here, at reporting time, through the same backward slice walk
// the cost linter charges static cost with (analysis::production_slices), so
// a production's measured row sums exactly the node set its static row
// modeled. Shared nodes are charged to every sharer — same convention as
// lint_costs — which makes measured rows comparable to static rows but NOT
// disjoint across productions (the per-node table is the disjoint view).
//
// Three deterministic artifacts, same discipline as report_json:
//   * build_profile_report / profile_json — per-production, per-node and
//     per-agent measured tables for one snapshot (bench + demo output,
//     golden-file friendly: same snapshot, same bytes).
//   * parse_profile_json — reads profile_json output back (the subset this
//     module emits; not a general JSON parser) so network_lint can consume a
//     profile file produced by an earlier run.
//   * correlate / correlation_json — joins measured rows against the static
//     LintReport by production name and flags anomalies both directions:
//     "hot" (measured time exceeds the static worst-case bound — the linter
//     under-modeled this production) and "cold" (measured is a vanishing
//     fraction of a large static bound — the bound is too loose to rank
//     restructuring candidates). This is the oracle the CORGI join-ordering
//     work regresses against (ROADMAP).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/cost_lint.h"
#include "obs/profiler.h"
#include "rete/add_production.h"
#include "rete/network.h"

namespace psme::analysis {

struct ProductionProfile {
  std::string name;
  uint32_t pnode = 0;
  uint32_t nodes = 0;         // slice size (nodes with any activity may be fewer)
  uint64_t activations = 0;   // summed over the slice
  uint64_t sampled = 0;
  uint64_t emits = 0;
  double est_us = 0;          // estimated measured time over the slice
};

struct NodeProfile {
  uint32_t node = 0;
  const char* type = "";      // node_type_name; "" for a free id
  uint64_t activations = 0;
  uint64_t emits = 0;
  double est_us = 0;
};

struct AgentProfile {
  uint32_t agent = 0;
  uint64_t activations = 0;
  double est_us = 0;
};

struct ProfileReport {
  uint32_t sample_shift = 0;
  uint64_t total_activations = 0;
  uint64_t total_sampled = 0;
  double total_us = 0;
  std::vector<ProductionProfile> productions;  // record order (= load order)
  std::vector<NodeProfile> nodes;              // id order, active nodes only
  std::vector<AgentProfile> agents;            // id order, active agents only

  /// Human table: the `top_k` hottest productions by est_us (ties broken by
  /// record order), then the per-agent rows when more than one agent ran.
  void print_table(size_t top_k = 10) const;
};

/// Builds the report from a quiescent snapshot. Records must come from the
/// same network the profiler observed (`Engine::all_records()` order).
ProfileReport build_profile_report(const Network& net,
                                   const std::vector<const AddRecord*>& records,
                                   const obs::ProfileSnapshot& snap);

/// Deterministic JSON: same report, same bytes, on every platform.
[[nodiscard]] std::string profile_json(const std::string& name,
                                       const ProfileReport& rep);

// ---- measured-vs-static correlation ---------------------------------------

/// One production row read back from a profile_json file.
struct ParsedProduction {
  std::string name;
  uint64_t activations = 0;
  double est_us = 0;
};

struct ParsedProfile {
  bool ok = false;
  std::string error;          // set when !ok
  std::string network;
  uint32_t sample_shift = 0;
  uint64_t total_activations = 0;
  double total_us = 0;
  std::vector<ParsedProduction> productions;
};

/// Parses profile_json output (the exact subset emitted above — quoted keys
/// in emission order; not a general JSON parser).
ParsedProfile parse_profile_json(const std::string& text);

struct CorrelationRow {
  std::string name;
  double static_us = 0;       // lint worst_case_cost_us
  uint32_t chain_depth = 0;
  uint64_t activations = 0;   // measured
  double measured_us = 0;     // measured estimate
  double ratio = 0;           // measured_us / static_us (0 when unmeasured)
  std::vector<std::string> flags;  // "hot", "cold", "unmeasured"
};

struct CorrelationReport {
  double hot_ratio = 1.0;
  double cold_ratio = 1e-4;
  uint32_t correlated = 0;    // rows with measured activations > 0
  uint32_t flagged = 0;       // rows with hot/cold flags (unmeasured excluded)
  std::vector<CorrelationRow> rows;  // lint order

  void print_table() const;
};

/// Joins lint rows against measured rows by production name. `hot_ratio`:
/// flag when measured_us > hot_ratio * static_us (the static bound was
/// violated). `cold_ratio`: flag when the production matched (activations
/// > 0) yet measured_us < cold_ratio * static_us (bound too loose to rank).
CorrelationReport correlate(const LintReport& lint, const ParsedProfile& prof,
                            double hot_ratio = 1.0, double cold_ratio = 1e-4);

/// Deterministic JSON of the join (network_lint --profile archives this).
[[nodiscard]] std::string correlation_json(const std::string& name,
                                           const CorrelationReport& rep);

}  // namespace psme::analysis
