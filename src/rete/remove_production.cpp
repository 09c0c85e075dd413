#include "rete/remove_production.h"

#include <cassert>

namespace psme {

RemovePlan plan_removal(const Network& net, uint32_t victim_pnode) {
  const uint32_t n = net.node_count();
  assert(victim_pnode < n && net.node(victim_pnode) != nullptr &&
         net.node(victim_pnode)->type == NodeType::Prod &&
         "plan_removal: victim is not a live P-node");

  // Reverse adjacency over the live network. Jumptable slots give the
  // forward edges (node -> each SuccessorRef in its slot, covering left
  // chains, alpha->join right inputs, and class-root entries alike); the
  // NCC partner->owner count channel is the one edge that bypasses the
  // jumptable, so it is added explicitly — a kept owner must keep its
  // partner subnetwork.
  std::vector<std::vector<uint32_t>> preds(n);
  const Jumptable& jt = net.jumptable();
  for (uint32_t i = 0; i < n; ++i) {
    const Node* node = net.node(i);
    if (node == nullptr) continue;  // id freed by an earlier removal
    for (const SuccessorRef& ref : jt.peek(node->jt_slot)) {
      preds[ref.node].push_back(i);
    }
    if (node->type == NodeType::NccPartner) {
      preds[static_cast<const NccPartnerNode*>(node)->owner].push_back(i);
    }
  }

  // Keep-set: backward BFS from every surviving P-node.
  std::vector<uint8_t> keep(n, 0);
  std::vector<uint32_t> work;
  for (uint32_t i = 0; i < n; ++i) {
    const Node* node = net.node(i);
    if (node != nullptr && node->type == NodeType::Prod && i != victim_pnode) {
      keep[i] = 1;
      work.push_back(i);
    }
  }
  while (!work.empty()) {
    const uint32_t cur = work.back();
    work.pop_back();
    for (uint32_t p : preds[cur]) {
      if (!keep[p]) {
        keep[p] = 1;
        work.push_back(p);
      }
    }
  }

  RemovePlan plan;
  plan.pnode = victim_pnode;
  plan.dead_mask.assign(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    const Node* node = net.node(i);
    if (node == nullptr || keep[i]) continue;
    plan.dead_mask[i] = 1;
    plan.dead_nodes.push_back(i);
    if (node->type == NodeType::AlphaMem) {
      plan.dead_alpha_mems.push_back(
          static_cast<const AlphaMemNode*>(node)->mem_index);
    }
  }
  assert(plan.dead_mask[victim_pnode] && "victim P-node survived its removal");
  return plan;
}

}  // namespace psme
