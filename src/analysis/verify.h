// Static Rete-network verifier.
//
// Walks a compiled network (nodes, jumptable, paired hash tables, production
// records) and checks the catalog of structural invariants the runtime
// silently relies on (DESIGN.md §12). The paper's performance argument rests
// on these properties — node sharing, jumptable indirection integrity,
// bounded activation-chain depth — yet nothing at runtime checks them except
// crashes; the verifier is the safety net that makes network surgery
// (run-time addition and production removal, both in place) shippable.
//
// Invariant catalog (each violation carries the Check that failed):
//   Resolution   — every SuccessorRef in every jumptable slot names an
//                  existing node; every node's jt_slot is in range.
//   SlotOwnership— no two nodes own the same jumptable slot, and no node
//                  owns a class-root slot.
//   Reachability — every node is reachable from the alpha net (a class-root
//                  slot) by following jumptable successors (plus the
//                  NCC owner→partner link).
//   Ownership    — every node is owned by ≥1 production: backward-reachable
//                  from some P-node over the same edges.
//   Acyclicity   — the successor graph is a DAG (activation chains
//                  terminate). Cycles are reported with one witness edge.
//   SideRef      — edge sides are legal for the target node type: alpha-part
//                  nodes (Const/Disj/Intra/AlphaMem) and Ncc/NccPartner/Prod
//                  accept Left only; Join/Not take exactly one Left (their
//                  left_pred) and one Right (their alpha_mem); BJoin takes
//                  exactly one Left and one Right token edge.
//   TwoInputWiring— a Join/Not's left_pred/alpha_mem fields agree with the
//                  actual spliced edges, and alpha_mem names an AlphaMemNode.
//   NegationPair — NccNode.partner names an NccPartnerNode whose owner
//                  points back, with prefix_len == the owner's left_arity.
//   Bindings     — shared nodes agree on variable bindings: token arity is
//                  consistent along every path (left_arity matches the
//                  predecessor's output arity), every JoinTest's left_ce is
//                  within the left token, and the "Eq tests first" layout
//                  (n_eq) holds.
//   LockRank     — memory-node locks carry the rank the lockdep table
//                  assigns them (alpha memories: AlphaMem; table lines:
//                  Bucket; chunk pools: SlabPool). Only checkable when PSME_LOCKDEP
//                  is on (ranks are compiled out otherwise); reported as
//                  skipped when off.
//   ProdRecord   — each production record's pnode is a ProdNode pointing
//                  back at the record's AST, and its new/shared node lists
//                  name existing nodes.
//   JoinLink     — per agent, each join's link state agrees with its
//                  memories (DESIGN.md §16): with right unlinking on, a join
//                  is linked iff it holds a live left entry, and its left
//                  count equals those entries; a linked join holds exactly
//                  one right entry per wme of its alpha memory, an unlinked
//                  one none; in a state that records traces every join is
//                  linked. Needs a state.
//
// The verifier also records per-node activation fan-out and chain depth
// (longest root→node path), the raw material for the Fig 6-7 long-chain
// analysis and the cost linter.
//
// Quiescent-only: reads lock-guarded structure without locks, like the §5.2
// update machinery. Never call concurrently with a match.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rete/add_production.h"
#include "rete/network.h"

// PSME_NET_VERIFY gates the engine's automatic verification after each
// production add and removal (CompiledNetwork::verify_or_abort, abort on
// violation). Default: debug builds, mirroring PSME_LOCKDEP.
// Configure with -DPSME_NET_VERIFY=ON (the tsan preset does) to force it on
// in any build type; the verifier itself is always compiled.
#ifndef PSME_NET_VERIFY
#ifdef NDEBUG
#define PSME_NET_VERIFY 0
#else
#define PSME_NET_VERIFY 1
#endif
#endif

namespace psme::analysis {

enum class Check : uint8_t {
  Resolution,
  SlotOwnership,
  Reachability,
  Ownership,
  Acyclicity,
  SideRef,
  TwoInputWiring,
  NegationPair,
  Bindings,
  LockRank,
  ProdRecord,
  JoinLink,
};

[[nodiscard]] const char* check_name(Check c);

struct Violation {
  Check check;
  uint32_t node = UINT32_MAX;  // offending node id (UINT32_MAX: network-level)
  std::string message;         // precise diagnostic, includes ids/names
};

/// Per-node structural facts recorded during the walk (fan-out, depth).
/// Ids of removed productions' nodes are free (null) until Network::make_node
/// reuses them; their facts carry alive == false and defaulted fields, and
/// every check skips them — except that anything still *referencing* a
/// free id (a jumptable slot, a table entry, a node field, a record) is a
/// violation, which is what makes the verifier the removal oracle.
struct NodeFacts {
  NodeType type = NodeType::Const;
  uint32_t fan_out = 0;    // successor entries in the node's jumptable slot
  uint32_t depth = 0;      // longest root→node path, in activations
  uint32_t out_arity = 0;  // token length this node passes downstream
  bool reachable = false;  // forward-reachable from a class root
  bool owned = false;      // backward-reachable from a P-node
  bool alive = true;       // false: free id of a removed production's node
};

struct VerifyReport {
  std::vector<Violation> violations;
  std::vector<NodeFacts> nodes;  // indexed by node id
  uint32_t max_depth = 0;        // longest activation chain in the network
  uint32_t max_fan_out = 0;
  bool lock_ranks_checked = false;  // false when PSME_LOCKDEP is off

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// Multi-line human-readable summary of all violations (empty when ok).
  [[nodiscard]] std::string to_string() const;
};

/// Verifies `net` against the invariant catalog. `records` lists every
/// production known to the owner (the engine's AddRecords); pass an empty
/// span to skip the ownership and ProdRecord checks (hand-built networks,
/// e.g. the bilinear bench compiler, have no records). `state` is one
/// agent's match state — when non-null the state-dependent checks (stale
/// table entries, LockRank) run against it; a shared network serving N
/// agents is verified once per agent. Null skips those checks (structure
/// only; lock_ranks_checked stays false). The state checks read a
/// quiescent state: a match drain that threw leaves link states unswept.
VerifyReport verify_network(const Network& net, const MatchState* state,
                            const std::vector<const AddRecord*>& records);

/// Structure-only convenience (state = nullptr).
VerifyReport verify_network(const Network& net,
                            const std::vector<const AddRecord*>& records);

/// Convenience for call sites without records.
VerifyReport verify_network(const Network& net);

}  // namespace psme::analysis
