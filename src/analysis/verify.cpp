#include "analysis/verify.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "par/lock_order.h"

namespace psme::analysis {

const char* check_name(Check c) {
  switch (c) {
    case Check::Resolution: return "resolution";
    case Check::SlotOwnership: return "slot-ownership";
    case Check::Reachability: return "reachability";
    case Check::Ownership: return "ownership";
    case Check::Acyclicity: return "acyclicity";
    case Check::SideRef: return "side-ref";
    case Check::TwoInputWiring: return "two-input-wiring";
    case Check::NegationPair: return "negation-pair";
    case Check::Bindings: return "bindings";
    case Check::LockRank: return "lock-rank";
    case Check::ProdRecord: return "prod-record";
    case Check::JoinLink: return "join-link";
  }
  return "?";
}

std::string VerifyReport::to_string() const {
  std::ostringstream os;
  os << "network verify: " << violations.size() << " violation(s)\n";
  for (const Violation& v : violations) {
    os << "  [" << check_name(v.check) << "] ";
    if (v.node != UINT32_MAX) os << "node " << v.node << ": ";
    os << v.message << "\n";
  }
  return std::move(os).str();
}

namespace {

/// Does a node of this type pass tokens downstream through its own slot?
/// (NccPartner emits through its owner; Prod terminates.)
bool is_token_source(NodeType t) {
  return t == NodeType::AlphaMem || t == NodeType::Join || t == NodeType::Not ||
         t == NodeType::Ncc || t == NodeType::BJoin;
}

bool is_alpha_part(NodeType t) {
  return t == NodeType::Const || t == NodeType::Disj || t == NodeType::Intra ||
         t == NodeType::AlphaMem;
}

struct InEdge {
  uint32_t from = 0;  // node id; meaningless when from_root
  Side side = Side::Left;
  bool from_root = false;
};

std::string fmt(const char* f, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, args...);
  return buf;
}

}  // namespace

VerifyReport verify_network(const Network& net) {
  return verify_network(net, nullptr, {});
}

VerifyReport verify_network(const Network& net,
                            const std::vector<const AddRecord*>& records) {
  return verify_network(net, nullptr, records);
}

VerifyReport verify_network(const Network& net, const MatchState* state,
                            const std::vector<const AddRecord*>& records) {
  VerifyReport rep;
  const uint32_t n = net.node_count();
  const Jumptable& jt = net.jumptable();
  rep.nodes.assign(n, NodeFacts{});
  // Free ids (removed productions' nodes, not yet reused) keep defaulted
  // facts with alive == false; every check below skips them, but any
  // surviving reference TO one is a violation — the removal oracle.
  uint32_t live_count = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (const Node* node = net.node(i); node != nullptr) {
      rep.nodes[i].type = node->type;
      ++live_count;
    } else {
      rep.nodes[i].alive = false;
    }
  }

  auto bad = [&](Check c, uint32_t node, std::string msg) {
    rep.violations.push_back(Violation{c, node, std::move(msg)});
  };
  auto type_name = [&](uint32_t id) { return node_type_name(rep.nodes[id].type); };
  auto alive = [&](uint32_t id) { return id < n && rep.nodes[id].alive; };

  // ---- Resolution + SlotOwnership: slots resolve and are uniquely owned ----
  std::vector<uint8_t> slot_is_root(jt.size(), 0);
  for (const auto& [cls, slot] : net.roots()) {
    (void)cls;
    if (slot >= jt.size()) {
      bad(Check::Resolution, UINT32_MAX,
          fmt("class-root slot %u out of range (%zu slots)", slot, jt.size()));
      continue;
    }
    slot_is_root[slot] = 1;
  }
  std::vector<uint32_t> slot_owner(jt.size(), UINT32_MAX);
  for (uint32_t i = 0; i < n; ++i) {
    if (!rep.nodes[i].alive) continue;  // freed slot, back in the recycler
    const uint32_t slot = net.node(i)->jt_slot;
    if (slot >= jt.size()) {
      bad(Check::Resolution, i,
          fmt("jt_slot %u out of range (%zu slots)", slot, jt.size()));
      continue;
    }
    if (slot_is_root[slot] != 0) {
      bad(Check::SlotOwnership, i,
          fmt("%s node owns class-root slot %u", type_name(i), slot));
    } else if (slot_owner[slot] != UINT32_MAX) {
      bad(Check::SlotOwnership, i,
          fmt("slot %u owned by both node %u and node %u", slot,
              slot_owner[slot], i));
    } else {
      slot_owner[slot] = i;
    }
  }
  for (uint32_t s = 0; s < jt.size(); ++s) {
    for (const SuccessorRef& ref : jt.peek(s)) {
      if (ref.node >= n) {
        bad(Check::Resolution, slot_owner[s],
            fmt("slot %u references nonexistent node %u (network has %u)", s,
                ref.node, n));
      } else if (!rep.nodes[ref.node].alive) {
        bad(Check::Resolution, slot_owner[s],
            fmt("slot %u references removed node %u (dangling unsplice)", s,
                ref.node));
      }
    }
  }

  // Stale match-state entries referencing reclaimed/nonexistent nodes: the
  // correctness oracle for production removal (ROADMAP) — unsplicing a node
  // must purge its memories first. State checks run per agent: a shared
  // network serving N agents is verified once structurally (state ==
  // nullptr) and once against each agent's MatchState.
  if (state != nullptr) {
    state->tables.for_each_entry([&](uint32_t node_id, bool left) {
      if (node_id >= n) {
        bad(Check::Resolution, UINT32_MAX,
            fmt("stale %s-table entry references nonexistent node %u",
                left ? "left" : "right", node_id));
      } else if (!rep.nodes[node_id].alive) {
        bad(Check::Resolution, UINT32_MAX,
            fmt("stale %s-table entry references removed node %u "
                "(memory not drained before removal)",
                left ? "left" : "right", node_id));
      }
    });
  }

  // ---- Edge collection (resolved refs only; dangling reported above) ----
  std::vector<std::vector<SuccessorRef>> outs(n);
  std::vector<std::vector<InEdge>> ins(n);
  for (const auto& [cls, slot] : net.roots()) {
    (void)cls;
    if (slot >= jt.size()) continue;
    for (const SuccessorRef& ref : jt.peek(slot)) {
      if (alive(ref.node)) ins[ref.node].push_back({0, ref.side, true});
    }
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (!rep.nodes[i].alive) continue;
    const uint32_t slot = net.node(i)->jt_slot;
    if (slot >= jt.size()) continue;
    rep.nodes[i].fan_out = static_cast<uint32_t>(jt.peek(slot).size());
    rep.max_fan_out = std::max(rep.max_fan_out, rep.nodes[i].fan_out);
    for (const SuccessorRef& ref : jt.peek(slot)) {
      if (!alive(ref.node)) continue;
      outs[i].push_back(ref);
      ins[ref.node].push_back({i, ref.side, false});
    }
  }
  // NCC emission path: a partner's emissions flow through its owner's slot,
  // so for dependency purposes (cycles, depth) the owner depends on the
  // partner. Kept out of `ins` so side/arity checks see only real splices.
  std::vector<std::pair<uint32_t, uint32_t>> synthetic;  // (partner, owner)
  for (uint32_t i = 0; i < n; ++i) {
    if (!rep.nodes[i].alive || rep.nodes[i].type != NodeType::NccPartner)
      continue;
    const auto& p = static_cast<const NccPartnerNode&>(*net.node(i));
    if (alive(p.owner) && rep.nodes[p.owner].type == NodeType::Ncc) {
      synthetic.emplace_back(i, p.owner);
    }
  }

  // ---- Reachability: forward BFS from the class roots ----
  {
    std::vector<uint32_t> stack;
    for (uint32_t i = 0; i < n; ++i) {
      for (const InEdge& e : ins[i]) {
        if (e.from_root && !rep.nodes[i].reachable) {
          rep.nodes[i].reachable = true;
          stack.push_back(i);
        }
      }
    }
    while (!stack.empty()) {
      const uint32_t v = stack.back();
      stack.pop_back();
      for (const SuccessorRef& ref : outs[v]) {
        if (!rep.nodes[ref.node].reachable) {
          rep.nodes[ref.node].reachable = true;
          stack.push_back(ref.node);
        }
      }
    }
    for (uint32_t i = 0; i < n; ++i) {
      if (rep.nodes[i].alive && !rep.nodes[i].reachable) {
        bad(Check::Reachability, i,
            fmt("%s node unreachable from the alpha network", type_name(i)));
      }
    }
  }

  // ---- Ownership: backward BFS from every P-node ----
  {
    std::vector<uint32_t> stack;
    auto own = [&](uint32_t id) {
      if (!rep.nodes[id].owned) {
        rep.nodes[id].owned = true;
        stack.push_back(id);
      }
    };
    for (uint32_t i = 0; i < n; ++i) {
      if (rep.nodes[i].alive && rep.nodes[i].type == NodeType::Prod) own(i);
    }
    while (!stack.empty()) {
      const uint32_t v = stack.back();
      stack.pop_back();
      for (const InEdge& e : ins[v]) {
        if (!e.from_root) own(e.from);
      }
      // An owned NCC owns its partner (and thus the whole subnetwork).
      if (rep.nodes[v].type == NodeType::Ncc) {
        const auto& ncc = static_cast<const NccNode&>(*net.node(v));
        if (alive(ncc.partner)) own(ncc.partner);
      }
    }
    for (uint32_t i = 0; i < n; ++i) {
      if (rep.nodes[i].alive && !rep.nodes[i].owned) {
        bad(Check::Ownership, i,
            fmt("%s node not owned by any production (no P-node downstream)",
                type_name(i)));
      }
    }
  }

  // ---- Acyclicity: Kahn over real + synthetic edges ----
  bool acyclic = true;
  std::vector<uint32_t> topo;
  {
    std::vector<uint32_t> indeg(n, 0);
    for (uint32_t i = 0; i < n; ++i) {
      for (const SuccessorRef& ref : outs[i]) ++indeg[ref.node];
    }
    for (const auto& [partner, owner] : synthetic) {
      (void)partner;
      ++indeg[owner];
    }
    topo.reserve(live_count);
    for (uint32_t i = 0; i < n; ++i) {
      if (rep.nodes[i].alive && indeg[i] == 0) topo.push_back(i);
    }
    for (size_t head = 0; head < topo.size(); ++head) {
      const uint32_t v = topo[head];
      for (const SuccessorRef& ref : outs[v]) {
        if (--indeg[ref.node] == 0) topo.push_back(ref.node);
      }
      for (const auto& [partner, owner] : synthetic) {
        if (partner == v && --indeg[owner] == 0) topo.push_back(owner);
      }
    }
    if (topo.size() != live_count) {
      acyclic = false;
      for (uint32_t i = 0; i < n; ++i) {
        if (rep.nodes[i].alive && indeg[i] > 0) {
          bad(Check::Acyclicity, i,
              fmt("successor graph has a cycle through %s node %u",
                  type_name(i), i));
          break;  // one witness; the cycle set is usually one splice error
        }
      }
    }
  }

  // ---- SideRef / TwoInputWiring / NegationPair (per-node, order-free) ----
  for (uint32_t i = 0; i < n; ++i) {
    const Node* node = net.node(i);
    if (node == nullptr) continue;
    uint32_t lefts = 0, rights = 0;
    const InEdge* left_in = nullptr;
    const InEdge* right_in = nullptr;
    for (const InEdge& e : ins[i]) {
      if (e.side == Side::Left) {
        ++lefts;
        left_in = &e;
      } else {
        ++rights;
        right_in = &e;
      }
    }
    switch (node->type) {
      case NodeType::Const:
      case NodeType::Disj:
      case NodeType::Intra:
      case NodeType::AlphaMem: {
        if (rights != 0) {
          bad(Check::SideRef, i,
              fmt("alpha-part %s node has %u Right-side predecessor(s)",
                  type_name(i), rights));
        }
        if (lefts > 1) {
          bad(Check::SideRef, i,
              fmt("alpha-part %s node has %u predecessors (chains are trees)",
                  type_name(i), lefts));
        }
        if (left_in != nullptr && !left_in->from_root &&
            is_alpha_part(rep.nodes[left_in->from].type) &&
            rep.nodes[left_in->from].type == NodeType::AlphaMem) {
          bad(Check::SideRef, i,
              fmt("alpha-part %s node hangs under an alpha memory",
                  type_name(i)));
        }
        if (left_in != nullptr && !left_in->from_root &&
            !is_alpha_part(rep.nodes[left_in->from].type)) {
          bad(Check::SideRef, i,
              fmt("alpha-part %s node fed by beta-part %s node %u",
                  type_name(i), type_name(left_in->from), left_in->from));
        }
        break;
      }
      case NodeType::Join:
      case NodeType::Not: {
        const auto& t = static_cast<const TwoInputNode&>(*node);
        if (lefts != 1) {
          bad(Check::TwoInputWiring, i,
              fmt("two-input node has %u Left predecessors (want 1)", lefts));
        } else if (left_in->from_root || left_in->from != t.left_pred) {
          bad(Check::TwoInputWiring, i,
              fmt("Left edge comes from node %u but left_pred says %u",
                  left_in->from_root ? UINT32_MAX : left_in->from,
                  t.left_pred));
        } else if (!is_token_source(rep.nodes[left_in->from].type)) {
          bad(Check::SideRef, i,
              fmt("Left input fed by non-token %s node %u",
                  type_name(left_in->from), left_in->from));
        }
        if (rights != 1) {
          bad(Check::TwoInputWiring, i,
              fmt("two-input node has %u Right predecessors (want 1)",
                  rights));
        } else if (right_in->from_root || right_in->from != t.alpha_mem) {
          bad(Check::TwoInputWiring, i,
              fmt("Right edge comes from node %u but alpha_mem says %u",
                  right_in->from_root ? UINT32_MAX : right_in->from,
                  t.alpha_mem));
        }
        if (t.alpha_mem >= n) {
          bad(Check::TwoInputWiring, i,
              fmt("alpha_mem %u does not exist", t.alpha_mem));
        } else if (!rep.nodes[t.alpha_mem].alive) {
          bad(Check::TwoInputWiring, i,
              fmt("alpha_mem %u is a removed node", t.alpha_mem));
        } else if (rep.nodes[t.alpha_mem].type != NodeType::AlphaMem) {
          bad(Check::TwoInputWiring, i,
              fmt("alpha_mem %u is a %s node, not an alpha memory",
                  t.alpha_mem, type_name(t.alpha_mem)));
        }
        break;
      }
      case NodeType::BJoin: {
        if (lefts != 1 || rights != 1) {
          bad(Check::SideRef, i,
              fmt("bilinear join has %u Left / %u Right predecessors "
                  "(want 1/1)",
                  lefts, rights));
        }
        for (const InEdge& e : ins[i]) {
          if (!e.from_root && !is_token_source(rep.nodes[e.from].type)) {
            bad(Check::SideRef, i,
                fmt("bilinear join fed by non-token %s node %u",
                    type_name(e.from), e.from));
          }
        }
        break;
      }
      case NodeType::Ncc: {
        const auto& ncc = static_cast<const NccNode&>(*node);
        if (lefts != 1 || rights != 0) {
          bad(Check::SideRef, i,
              fmt("NCC owner has %u Left / %u Right predecessors (want 1/0)",
                  lefts, rights));
        }
        if (ncc.partner >= n) {
          bad(Check::NegationPair, i,
              fmt("partner %u does not exist", ncc.partner));
        } else if (!rep.nodes[ncc.partner].alive) {
          bad(Check::NegationPair, i,
              fmt("partner %u is a removed node (removal split the pair)",
                  ncc.partner));
        } else if (rep.nodes[ncc.partner].type != NodeType::NccPartner) {
          bad(Check::NegationPair, i,
              fmt("partner %u is a %s node, not an NCC partner", ncc.partner,
                  type_name(ncc.partner)));
        } else {
          const auto& p =
              static_cast<const NccPartnerNode&>(*net.node(ncc.partner));
          if (p.owner != i) {
            bad(Check::NegationPair, i,
                fmt("partner %u points back at node %u, not its owner",
                    ncc.partner, p.owner));
          }
          if (p.prefix_len != ncc.left_arity) {
            bad(Check::NegationPair, i,
                fmt("partner prefix_len %u != owner left_arity %u",
                    p.prefix_len, ncc.left_arity));
          }
        }
        break;
      }
      case NodeType::NccPartner: {
        const auto& p = static_cast<const NccPartnerNode&>(*node);
        if (lefts != 1 || rights != 0) {
          bad(Check::SideRef, i,
              fmt("NCC partner has %u Left / %u Right predecessors "
                  "(want 1/0)",
                  lefts, rights));
        }
        if (p.owner < n && !rep.nodes[p.owner].alive) {
          bad(Check::NegationPair, i,
              fmt("owner %u is a removed node (orphaned NCC partner)",
                  p.owner));
        } else if (p.owner >= n || rep.nodes[p.owner].type != NodeType::Ncc) {
          bad(Check::NegationPair, i,
              fmt("owner %u is not an NCC node", p.owner));
        }
        if (net.node(i)->jt_slot < jt.size() &&
            !jt.peek(net.node(i)->jt_slot).empty()) {
          bad(Check::SideRef, i,
              "NCC partner slot must be empty (emissions flow through its "
              "owner)");
        }
        break;
      }
      case NodeType::Prod: {
        const auto& pn = static_cast<const ProdNode&>(*node);
        if (lefts != 1 || rights != 0) {
          bad(Check::SideRef, i,
              fmt("P-node has %u Left / %u Right predecessors (want 1/0)",
                  lefts, rights));
        } else if (!left_in->from_root &&
                   !is_token_source(rep.nodes[left_in->from].type)) {
          bad(Check::SideRef, i,
              fmt("P-node fed by non-token %s node %u",
                  type_name(left_in->from), left_in->from));
        }
        if (pn.prod == nullptr) {
          bad(Check::ProdRecord, i, "P-node has a null production pointer");
        }
        break;
      }
    }
  }

  // ---- Static test-layout invariants of two-input nodes (order-free) ----
  for (uint32_t i = 0; i < n; ++i) {
    if (!rep.nodes[i].alive) continue;
    if (rep.nodes[i].type != NodeType::Join && rep.nodes[i].type != NodeType::Not)
      continue;
    const auto& t = static_cast<const TwoInputNode&>(*net.node(i));
    if (t.n_eq > t.tests.size()) {
      bad(Check::Bindings, i,
          fmt("n_eq %u exceeds test count %zu", t.n_eq, t.tests.size()));
      continue;
    }
    for (size_t k = 0; k < t.tests.size(); ++k) {
      const bool is_eq = t.tests[k].pred == Pred::Eq;
      if (k < t.n_eq && !is_eq) {
        bad(Check::Bindings, i,
            fmt("test %zu inside the Eq prefix (n_eq=%u) is not Eq", k,
                t.n_eq));
      }
      if (k >= t.n_eq && is_eq) {
        bad(Check::Bindings, i,
            fmt("Eq test %zu after the Eq prefix (n_eq=%u) breaks the hash "
                "basis",
                k, t.n_eq));
      }
      if (t.tests[k].left_ce >= t.left_arity) {
        bad(Check::Bindings, i,
            fmt("test %zu references left CE %u but the left token has "
                "arity %u",
                k, t.tests[k].left_ce, t.left_arity));
      }
    }
  }

  // ---- Depth + arity agreement along the DAG (needs the topo order) ----
  if (acyclic) {
    for (const uint32_t v : topo) {
      NodeFacts& f = rep.nodes[v];
      uint32_t depth = 0;
      uint32_t left_arity_in = 0;
      bool have_left = false;
      for (const InEdge& e : ins[v]) {
        const uint32_t d = e.from_root ? 1 : rep.nodes[e.from].depth + 1;
        depth = std::max(depth, d);
        if (e.side == Side::Left && !e.from_root) {
          left_arity_in = rep.nodes[e.from].out_arity;
          have_left = true;
        } else if (e.side == Side::Left && e.from_root) {
          left_arity_in = 1;
          have_left = true;
        }
      }
      for (const auto& [partner, owner] : synthetic) {
        if (owner == v) depth = std::max(depth, rep.nodes[partner].depth + 1);
      }
      f.depth = depth;
      rep.max_depth = std::max(rep.max_depth, depth);
      switch (f.type) {
        case NodeType::Const:
        case NodeType::Disj:
        case NodeType::Intra:
        case NodeType::AlphaMem:
          f.out_arity = 1;
          break;
        case NodeType::Join: {
          const auto& t = static_cast<const TwoInputNode&>(*net.node(v));
          if (have_left && left_arity_in != t.left_arity) {
            bad(Check::Bindings, v,
                fmt("left predecessor emits arity-%u tokens but left_arity "
                    "says %u (shared nodes must agree on bindings)",
                    left_arity_in, t.left_arity));
          }
          f.out_arity = t.left_arity + 1;
          break;
        }
        case NodeType::Not: {
          const auto& t = static_cast<const TwoInputNode&>(*net.node(v));
          if (have_left && left_arity_in != t.left_arity) {
            bad(Check::Bindings, v,
                fmt("left predecessor emits arity-%u tokens but left_arity "
                    "says %u (shared nodes must agree on bindings)",
                    left_arity_in, t.left_arity));
          }
          f.out_arity = t.left_arity;  // not-nodes pass tokens through
          break;
        }
        case NodeType::Ncc: {
          const auto& ncc = static_cast<const NccNode&>(*net.node(v));
          if (have_left && left_arity_in != ncc.left_arity) {
            bad(Check::Bindings, v,
                fmt("left predecessor emits arity-%u tokens but left_arity "
                    "says %u",
                    left_arity_in, ncc.left_arity));
          }
          f.out_arity = ncc.left_arity;
          break;
        }
        case NodeType::NccPartner: {
          const auto& p = static_cast<const NccPartnerNode&>(*net.node(v));
          if (have_left && left_arity_in <= p.prefix_len) {
            bad(Check::Bindings, v,
                fmt("subnetwork bottom emits arity-%u tokens but prefix_len "
                    "is %u (the group must extend the prefix)",
                    left_arity_in, p.prefix_len));
          }
          f.out_arity = p.prefix_len;  // emits stripped prefixes via owner
          break;
        }
        case NodeType::BJoin: {
          const auto& bj = static_cast<const BJoinNode&>(*net.node(v));
          uint32_t la = 0, ra = 0;
          for (const InEdge& e : ins[v]) {
            if (e.from_root) continue;
            (e.side == Side::Left ? la : ra) = rep.nodes[e.from].out_arity;
          }
          if (la < bj.prefix_len || ra < bj.prefix_len) {
            bad(Check::Bindings, v,
                fmt("prefix_len %u exceeds an input arity (left %u, "
                    "right %u)",
                    bj.prefix_len, la, ra));
          }
          f.out_arity = la + (ra > bj.prefix_len ? ra - bj.prefix_len : 0);
          break;
        }
        case NodeType::Prod: {
          const auto& pn = static_cast<const ProdNode&>(*net.node(v));
          if (pn.prod != nullptr && have_left) {
            const auto want =
                static_cast<uint32_t>(pn.prod->positive_ce_count());
            if (left_arity_in != want) {
              bad(Check::Bindings, v,
                  fmt("P-node receives arity-%u tokens but the production "
                      "has %u positive CEs",
                      left_arity_in, want));
            }
          }
          f.out_arity = left_arity_in;
          break;
        }
      }
    }
  }

  // ---- LockRank: memory-state locks agree with the lockdep table ----
  // All match-time locks live in the per-agent MatchState now (the compiled
  // network itself is lock-free), so this section needs a state to inspect.
#if PSME_LOCKDEP
  if (state != nullptr) {
    rep.lock_ranks_checked = true;
    for (uint32_t i = 0; i < n; ++i) {
      if (rep.nodes[i].type != NodeType::AlphaMem) continue;
      const auto& am = static_cast<const AlphaMemNode&>(*net.node(i));
      if (am.mem_index >= state->alpha_count()) continue;  // not materialized
      const Spinlock& lk = state->alpha(am.mem_index).lock;
      if (lk.rank() != LockRank::AlphaMem) {
        bad(Check::LockRank, i,
            fmt("alpha-memory lock ranks %s, lockdep table says %s",
                lockdep::rank_name(lk.rank()),
                lockdep::rank_name(LockRank::AlphaMem)));
      }
    }
    for (size_t li = 0; li < state->tables.line_count(); ++li) {
      if (state->tables.line_at(li).lock.rank() != LockRank::Bucket) {
        bad(Check::LockRank, UINT32_MAX,
            fmt("table line %zu lock ranks %s, lockdep table says %s", li,
                lockdep::rank_name(state->tables.line_at(li).lock.rank()),
                lockdep::rank_name(LockRank::Bucket)));
      }
    }
    if (state->tables.right_pool().lock_rank() != LockRank::SlabPool) {
      bad(Check::LockRank, UINT32_MAX,
          fmt("right-entry chunk pool ranks %s, lockdep table says %s",
              lockdep::rank_name(state->tables.right_pool().lock_rank()),
              lockdep::rank_name(LockRank::SlabPool)));
    }
    if (state->alpha_pool.lock_rank() != LockRank::SlabPool) {
      bad(Check::LockRank, UINT32_MAX,
          fmt("alpha-wme chunk pool ranks %s, lockdep table says %s",
              lockdep::rank_name(state->alpha_pool.lock_rank()),
              lockdep::rank_name(LockRank::SlabPool)));
    }
  }
#endif

  // ---- JoinLink: each join's link state agrees with its memories ----
  if (state != nullptr) {
    std::vector<uint32_t> live_left(n, 0);
    std::vector<uint32_t> right(n, 0);
    state->tables.for_each_left([&](const LeftEntry& e) {
      if (e.node_id < n && e.anti == 0) ++live_left[e.node_id];
    });
    state->tables.for_each_entry([&](uint32_t node_id, bool left) {
      if (!left && node_id < n) ++right[node_id];
    });
    for (uint32_t i = 0; i < n; ++i) {
      if (rep.nodes[i].type != NodeType::Join || !rep.nodes[i].alive) continue;
      const auto& j = static_cast<const JoinNode&>(*net.node(i));
      const bool linked = state->linked(i);
      if (!state->unlinking && !linked) {
        bad(Check::JoinLink, i,
            "join is unlinked in a state that keeps every join linked");
      }
      if (state->unlinking && linked != (live_left[i] != 0)) {
        bad(Check::JoinLink, i,
            linked ? std::string("linked join holds no live left entry")
                   : fmt("unlinked join holds %u live left entries",
                         live_left[i]));
      }
      if (state->left_count(i) != live_left[i]) {
        bad(Check::JoinLink, i,
            fmt("left count reads %u, the join holds %u live left entries",
                state->left_count(i), live_left[i]));
      }
      const Node* am = net.node(j.alpha_mem);
      if (!linked) {
        if (right[i] != 0) {
          bad(Check::JoinLink, i,
              fmt("unlinked join holds %u right entries", right[i]));
        }
        continue;
      }
      if (am == nullptr || am->type != NodeType::AlphaMem) continue;
      const uint32_t mi = static_cast<const AlphaMemNode*>(am)->mem_index;
      if (mi >= state->alpha_count()) continue;  // not materialized
      uint32_t wmes = 0;
      const AlphaMemState& ams = state->alpha(mi);
      SpinGuard g(ams.lock);
      for (const Wme* w : ams.wmes) {
        ++wmes;
        uint32_t copies = 0;
        state->tables.for_each_right_at(i, j.hash_right(w),
                                        [&](const RightEntry& r) {
                                          if (r.wme == w) ++copies;
                                        });
        if (copies != 1) {
          bad(Check::JoinLink, i,
              fmt("linked join holds %u right entries for alpha wme #%llu "
                  "(want 1)",
                  copies, static_cast<unsigned long long>(w->timetag)));
        }
      }
      if (right[i] != wmes) {
        bad(Check::JoinLink, i,
            fmt("linked join holds %u right entries for %u alpha wmes",
                right[i], wmes));
      }
    }
  }

  // ---- ProdRecord: production records agree with the network ----
  for (const AddRecord* r : records) {
    if (r == nullptr) continue;
    const CompiledProduction& cp = r->compiled;
    if (cp.pnode >= n) {
      bad(Check::ProdRecord, UINT32_MAX,
          fmt("record's pnode %u does not exist", cp.pnode));
      continue;
    }
    if (!rep.nodes[cp.pnode].alive) {
      bad(Check::ProdRecord, cp.pnode,
          fmt("record's pnode %u is a removed node (record outlived its "
              "removal)",
              cp.pnode));
      continue;
    }
    if (rep.nodes[cp.pnode].type != NodeType::Prod) {
      bad(Check::ProdRecord, cp.pnode,
          fmt("record's pnode is a %s node", type_name(cp.pnode)));
      continue;
    }
    const auto& pn = static_cast<const ProdNode&>(*net.node(cp.pnode));
    if (pn.prod != r->ast) {
      bad(Check::ProdRecord, cp.pnode,
          "P-node's production pointer does not match the record's AST");
    }
    for (const uint32_t id : cp.new_nodes) {
      if (id >= n) {
        bad(Check::ProdRecord, cp.pnode,
            fmt("record lists nonexistent new node %u", id));
      } else if (!rep.nodes[id].alive) {
        bad(Check::ProdRecord, cp.pnode,
            fmt("record lists removed node %u as a new node", id));
      }
    }
    for (const uint32_t id : cp.shared_nodes) {
      if (id >= n) {
        bad(Check::ProdRecord, cp.pnode,
            fmt("record lists nonexistent shared node %u", id));
      } else if (!rep.nodes[id].alive) {
        bad(Check::ProdRecord, cp.pnode,
            fmt("record lists removed node %u as a shared node", id));
      }
    }
  }

  return rep;
}

}  // namespace psme::analysis
