// Rete node types.
//
// Node kinds follow the paper's Figure 2-2: constant test nodes form the
// alpha (discrimination) part; alpha memory nodes hold wme lists; two-input
// nodes (and/not, plus Soar's conjunctive-negation pair) hold the beta state
// in the global paired hash tables; P-nodes terminate each production.
//
// Successor dispatch goes through the Jumptable (§5.1): every node that can
// acquire successors owns a jumptable slot; queuing the activations of a
// slot's successors and then "falling through" is the run-time analogue of
// the paper's indirect jump. Adding a production at run time splices new
// successor entries into existing slots, and removing one erases them; both
// edit the one live table in place while match is quiescent.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/chunk_list.h"
#include "lang/ast.h"
#include "rete/token.h"

namespace psme {

enum class NodeType : uint8_t {
  Const,       // one constant/predicate test on one slot
  Disj,        // << ... >> membership test on one slot
  Intra,       // slot-vs-slot test within one wme (same variable twice in a CE)
  AlphaMem,    // alpha memory: stores matching wmes
  Join,        // two-input and-node
  Not,         // two-input not-node (negated CE)
  Ncc,         // conjunctive negation owner (left input only)
  NccPartner,  // bottom of an NCC subnetwork; feeds counts to its Ncc owner
  BJoin,       // token-x-token join (constrained bilinear organization, §6.2)
  Prod,        // P-node
};

[[nodiscard]] const char* node_type_name(NodeType t);

/// Is this node stateless (pure test, no memory)? Stateless nodes always
/// execute during the §5.2 update; stateful ones are filtered by creation
/// stamp (Node::stamp).
[[nodiscard]] constexpr bool is_stateless(NodeType t) {
  return t == NodeType::Const || t == NodeType::Disj || t == NodeType::Intra;
}

enum class Side : uint8_t { Left, Right };

struct SuccessorRef {
  uint32_t node = 0;
  Side side = Side::Left;

  friend bool operator==(const SuccessorRef&, const SuccessorRef&) = default;
};

/// The jumptable: slot -> list of successor activations to queue.
/// "When there are two or more successors to a node, only one jumptable entry
/// is maintained for all of the successors together."
///
/// One slot array, edited in place. Every edit — a build-time load, a
/// run-time chunk or cue add, a removal's unsplice — happens while match is
/// quiescent (DESIGN.md §7.1): no worker holds a peek() reference across
/// it, because the caller's fork-join drain has joined. An edit may
/// reallocate the outer array or a slot's list, so a reference held across
/// one dangles; ASan reports it.
class Jumptable {
 public:
  uint32_t new_slot() {
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  /// Splices a new successor into an existing slot (run-time production
  /// addition). Mirrors the paper's Jumptable[new] := Jumptable[old] swap.
  void add(uint32_t slot, SuccessorRef s) { slots_[slot].push_back(s); }

  /// A slot's successor list. The match's lookups are counted by the
  /// caller, in its ExecContext (MatchCounters::indirections), not here: a
  /// shared counter would be one locked add per emitting task on a line
  /// every worker writes.
  [[nodiscard]] const std::vector<SuccessorRef>& peek(uint32_t slot) const {
    return slots_[slot];
  }

  [[nodiscard]] size_t size() const { return slots_.size(); }

  /// Production removal's unsplice: erases every successor entry targeting a
  /// node marked in `dead` (indexed by node id) from every slot. Past this
  /// call the victim can never fire. A dead node's own slot ends up empty as
  /// a corollary (its successors are provably dead too), which is what lets
  /// Network::free_node recycle the slot. Returns entries erased.
  size_t erase_refs(const std::vector<uint8_t>& dead) {
    size_t erased = 0;
    for (auto& slot : slots_) {
      auto keep = std::remove_if(
          slot.begin(), slot.end(), [&](const SuccessorRef& r) {
            return r.node < dead.size() && dead[r.node] != 0;
          });
      erased += static_cast<size_t>(slot.end() - keep);
      slot.erase(keep, slot.end());
    }
    return erased;
  }

 private:
  std::vector<std::vector<SuccessorRef>> slots_;
};

struct Node {
  NodeType type;
  uint32_t id = 0;       // index in the network; recycled after removal
  uint32_t jt_slot = 0;  // successors live in Jumptable[jt_slot]
  // Creation order: Network::make_node hands out 1, 2, 3, ... and never
  // repeats a stamp, whereas a removed node's id is reused. Readers that
  // mean "created before" (the §5.2 filter, topological walks, firing
  // tie-breaks) compare stamps, never ids.
  uint64_t stamp = 0;

  explicit Node(NodeType t) : type(t) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
};

struct ConstNode final : Node {
  ConstNode() : Node(NodeType::Const) {}
  ConstTest test;
};

struct DisjNode final : Node {
  DisjNode() : Node(NodeType::Disj) {}
  DisjTest test;
};

struct IntraNode final : Node {
  IntraNode() : Node(NodeType::Intra) {}
  int slot_a = 0;
  int slot_b = 0;
  Pred pred = Pred::Eq;
};

/// Alpha wme lists share one recycled chunk pool (owned by each agent's
/// MatchState): like the right-entry lists, steady-state add/remove churn
/// reuses chunks instead of hitting the heap. Unordered storage
/// (swap-with-last erase).
constexpr size_t kAlphaWmesPerChunk = 16;
using AlphaWmeList = ChunkedList<const Wme*, kAlphaWmesPerChunk>;
using AlphaWmePool = ChunkPool<const Wme*, kAlphaWmesPerChunk>;

struct AlphaMemNode final : Node {
  AlphaMemNode() : Node(NodeType::AlphaMem) {}
  // The wme list itself is per-agent state (AlphaMemState in
  // rete/match_state.h — what §5.2 update replays and what Figure 2-2 draws
  // as the memory under each constant chain); the shared node carries only
  // the dense index of that state slot, assigned by Network::make_node.
  uint32_t mem_index = 0;
};

/// One consistency test at a two-input node: compares a slot of an earlier
/// wme in the left token with a slot of the right wme.
struct JoinTest {
  uint16_t left_ce = 0;    // index into the left token
  uint16_t left_slot = 0;  // slot within that wme
  uint16_t right_slot = 0; // slot within the right wme
  Pred pred = Pred::Eq;

  friend bool operator==(const JoinTest&, const JoinTest&) = default;
};

struct TwoInputNode : Node {
  explicit TwoInputNode(NodeType t) : Node(t) {}
  std::vector<JoinTest> tests;  // Eq tests first (the hash basis), then others
  uint16_t n_eq = 0;            // leading Eq-test count
  uint32_t left_arity = 0;      // incoming left token length
  uint32_t left_pred = 0;       // node id of the left predecessor (sharing key)
  uint32_t alpha_mem = 0;       // node id of the right-input alpha memory

  /// Binding hash of a left token for this node (covers the Eq tests and the
  /// node id, per §6.1).
  [[nodiscard]] uint64_t hash_left(const Token& t) const;

  /// Binding hash of a right wme; equal to hash_left of any joinable token.
  [[nodiscard]] uint64_t hash_right(const Wme* w) const;

  /// Runs all consistency tests.
  [[nodiscard]] bool tests_pass(const Token& t, const Wme* w,
                                uint32_t* tests_run = nullptr) const;
};

struct JoinNode final : TwoInputNode {
  JoinNode() : TwoInputNode(NodeType::Join) {}
};

struct NotNode final : TwoInputNode {
  NotNode() : TwoInputNode(NodeType::Not) {}
};

struct NccNode final : Node {
  NccNode() : Node(NodeType::Ncc) {}
  uint32_t left_arity = 0;
  uint32_t partner = 0;  // NccPartner node id

  /// NCC state is keyed by the token identity (not bindings): owner and
  /// partner activations for the same prefix must land on the same line.
  [[nodiscard]] uint64_t hash_prefix(const Token& t) const;
};

struct NccPartnerNode final : Node {
  NccPartnerNode() : Node(NodeType::NccPartner) {}
  uint32_t owner = 0;       // NccNode id
  uint32_t prefix_len = 0;  // strip subnetwork wmes down to this many
};

/// Token-x-token join for the constrained bilinear organization (§6.2,
/// Figure 6-8): both inputs carry tokens that share the same constraint
/// prefix. The child token is left ++ right[prefix_len:]. Both sides store
/// in the *left* table, distinguished by the entry tag, keyed by the shared
/// prefix identity.
struct BJoinNode final : Node {
  BJoinNode() : Node(NodeType::BJoin) {}
  uint32_t prefix_len = 0;

  [[nodiscard]] uint64_t hash_prefix(const Token& t) const;
};

struct ProdNode final : Node {
  ProdNode() : Node(NodeType::Prod) {}
  const Production* prod = nullptr;
};

}  // namespace psme
