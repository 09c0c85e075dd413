// Run-time production removal: the planning half.
//
// Removal is the dual of the §5.1/§5.2 run-time addition. Where addition
// splices new successor entries into existing jumptable slots, removal
// erases every entry that targets a node only the victim production
// reaches; both edit the live jumptable in place while match is quiescent.
// The hard part is deciding *which* nodes die: productions share
// prefixes (the builder reuses alpha chains, alpha memories, and join
// prefixes across productions), and a production added later may share nodes
// with one added earlier — so the victim's own compile record is not enough
// to tell owned from shared. The planner instead computes the keep-set by a
// backward walk over the live network from every surviving P-node; whatever
// the walk never reaches is owned by the victim alone and dies with it.
//
// The walk costs O(id space), and the id space is the largest the live
// network has been: freed ids are reused by later additions (make_node),
// so resident query traffic does not grow it. The ids a plan frees may be
// handed to the very next production; nothing that outlives the removal
// may key on them (DESIGN.md §14.3).
//
// The planner only reads; Engine::remove_production_runtime sequences the
// actual unsplice/drain/free (see engine/engine.cpp for the protocol and
// DESIGN.md §14 for why the order is what it is).
#pragma once

#include <cstdint>
#include <vector>

#include "rete/network.h"

namespace psme {

/// What dies when one production is removed. Produced by plan_removal from
/// the live network before anything is erased; consumed by
/// Jumptable::erase_refs (the mask), the per-agent memory drains (node list
/// + alpha mem indexes), and Network::free_node (node list).
struct RemovePlan {
  uint32_t pnode = 0;                    // the victim's P-node id
  std::vector<uint32_t> dead_nodes;      // ascending id order; includes pnode
  std::vector<uint8_t> dead_mask;        // indexed by node id, 1 = dies
  std::vector<uint32_t> dead_alpha_mems; // mem_index of each dying alpha mem
};

/// Computes the dead-set for removing the production terminated by
/// `victim_pnode`: a backward BFS over jumptable in-edges (plus the
/// synthetic NCC partner→owner edge, which carries counts outside the
/// jumptable) seeded from every other live P-node marks the keep-set;
/// everything live outside it is dead. The victim's P-node is always dead
/// (P-nodes have no successors, so nothing can keep one alive but itself).
[[nodiscard]] RemovePlan plan_removal(const Network& net,
                                      uint32_t victim_pnode);

}  // namespace psme
