// Compiles Production ASTs into the Rete network, sharing nodes with the
// existing network exactly where PSM-E did: constant-test chains share
// prefixes in the alpha part, and two-input nodes are shared when an
// existing node has the same left predecessor, the same right alpha memory
// and the same test sequence.
//
// add_production() works identically for the initial production set and for
// chunks added at run time (§5.1): because every new node receives a creation
// stamp greater than all existing stamps (its id may be a recycled one) and
// successor splicing goes through the jumptable, "the process of integration
// of the new code reduces to changing entries in the jumptable".
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "lang/ast.h"
#include "rete/network.h"

namespace psme {

/// One slot-vs-slot test within a wme (same variable twice in one CE).
struct IntraTestSpec {
  int slot_a = 0, slot_b = 0;
  Pred pred = Pred::Eq;
};

/// Entry point of a new alpha-network chain: the first node of the chain
/// that this production created. During the §5.2 update, wmes are seeded
/// directly here after synthetically evaluating the shared prefix tests —
/// the run-time equivalent of the paper's task filter, under which
/// activations of pre-existing nodes are never executed.
struct AlphaFrontier {
  Symbol cls;
  uint32_t entry_node = 0;
  std::vector<ConstTest> prefix_consts;
  std::vector<DisjTest> prefix_disjs;
  std::vector<IntraTestSpec> prefix_intras;
};

/// What a production compiled to. The engine keeps one per production.
struct CompiledProduction {
  const Production* ast = nullptr;
  uint32_t pnode = 0;

  /// Network::next_stamp() when this add began: a node is new to this
  /// production iff its stamp is >= this (Node::stamp). The §5.2 update
  /// filters and seeds by it; node ids say nothing about age.
  uint64_t first_new_stamp = 0;

  /// Left predecessor of the first new beta-level node: "the last shared
  /// node" of §5.2. Its stored PIs are replayed during the update.
  uint32_t share_point = UINT32_MAX;

  std::vector<uint32_t> new_nodes;     // created for this production
  std::vector<uint32_t> shared_nodes;  // reused two-input/alpha nodes
  std::vector<AlphaFrontier> alpha_frontiers;  // new alpha-chain entries

  /// RHS variable binding sites: var id -> (positive-CE index, slot).
  struct BindSite {
    int ce = -1;  // -1: bound only on the RHS (via `bind`) or never
    int slot = 0;
  };
  std::vector<BindSite> bindings;

  /// Generated "machine code" image (run-time compiler emulation; size is the
  /// Table 5-1 bytes/chunk figure, generation time feeds Table 5-2).
  std::vector<uint8_t> code;

  double compile_seconds = 0.0;

  [[nodiscard]] size_t code_bytes() const { return code.size(); }
};

struct BuilderOptions {
  bool share_beta = true;  // two-input node sharing (Table 5-2 ablation)
};

class Builder {
 public:
  explicit Builder(Network& net, BuilderOptions opts = {})
      : net_(net), opts_(opts) {}

  /// Compiles `p` into the network. `p` must outlive the network (the caller
  /// owns production storage). A production it rejects (a variable used
  /// with a predicate but never bound) throws std::runtime_error before the
  /// network is touched.
  CompiledProduction add_production(const Production& p);

  [[nodiscard]] const BuilderOptions& options() const { return opts_; }

  /// Count of two-input nodes reused instead of created, over all calls.
  [[nodiscard]] uint64_t beta_nodes_shared() const { return beta_shared_; }
  [[nodiscard]] uint64_t alpha_nodes_shared() const { return alpha_shared_; }

 private:
  struct BuildState {
    CompiledProduction cp;
    // Binding sites discovered so far: var -> (positive CE index, slot).
    std::vector<CompiledProduction::BindSite> sites;
    uint32_t pred = UINT32_MAX;  // current left predecessor node
    uint32_t arity = 0;          // current token length
    bool share_broken = false;   // sharing has stopped; everything below is new
  };

  /// Records Eq binding sites of `ce`'s variables into `sites` at token
  /// position `token_pos`; returns intra-CE (slot-vs-slot) tests.
  using IntraTest = IntraTestSpec;

  uint32_t build_alpha(const Condition& ce, BuildState& st,
                       const std::vector<IntraTest>& intras);
  void build_positive(const Condition& ce, BuildState& st);
  void build_negative(const Condition& ce, BuildState& st);
  void build_ncc(const Condition& group, BuildState& st);

  /// Collects join tests for `ce` against bindings in `sites` (group-local
  /// sites when inside an NCC subnetwork, where tokens extend past
  /// st.arity). Variables whose binding site is `current_pos` (this CE) are
  /// skipped: the binding itself is no test and repeats within the CE were
  /// already turned into intra tests. Returns tests with Eq tests first;
  /// sets n_eq.
  std::vector<JoinTest> make_join_tests(
      const Condition& ce, const std::vector<CompiledProduction::BindSite>& sites,
      int current_pos, uint16_t* n_eq) const;
  std::vector<IntraTest> bind_and_collect_intra(
      const Condition& ce, int token_pos,
      std::vector<CompiledProduction::BindSite>& sites) const;

  uint32_t attach_two_input(NodeType type, uint32_t pred, uint32_t amem,
                            std::vector<JoinTest> tests, uint16_t n_eq,
                            uint32_t left_arity, BuildState& st);

  void note_new_node(const Node& n, BuildState& st);
  void note_shared_beta(uint32_t id, BuildState& st);

  Network& net_;
  BuilderOptions opts_;
  uint64_t beta_shared_ = 0;
  uint64_t alpha_shared_ = 0;
};

}  // namespace psme
