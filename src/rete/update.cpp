#include "rete/update.h"

namespace psme {
namespace {

bool prefix_passes(const AlphaFrontier& f, const Wme* w) {
  for (const ConstTest& t : f.prefix_consts) {
    if (!eval_pred(t.pred, w->field(t.slot), t.value)) return false;
  }
  for (const DisjTest& t : f.prefix_disjs) {
    bool any = false;
    for (const Value& opt : t.options) any |= w->field(t.slot) == opt;
    if (!any) return false;
  }
  for (const IntraTestSpec& t : f.prefix_intras) {
    if (!eval_pred(t.pred, w->field(t.slot_a), w->field(t.slot_b))) {
      return false;
    }
  }
  return true;
}

/// Was node `id` created by the add that compiled `cp`? Ids are recycled,
/// so this reads the creation stamp, never the id.
bool is_new(const Network& net, const CompiledProduction& cp, uint32_t id) {
  return net.node(id)->stamp >= cp.first_new_stamp;
}

/// Phase A seeds: for each new alpha-network chain, every wme of the right
/// class that passes the shared prefix tests is seeded at the chain's entry
/// node. Evaluating the prefix synthetically is the run-time equivalent of
/// the paper's queue filter, under which activations of pre-existing nodes
/// are never executed.
void update_alpha_seeds_into(const CompiledProduction& cp,
                             const std::vector<const Wme*>& wm,
                             std::vector<Activation>& out, uint32_t agent) {
  for (const AlphaFrontier& f : cp.alpha_frontiers) {
    for (const Wme* w : wm) {
      if (w->cls != f.cls) continue;
      if (!prefix_passes(f, w)) continue;
      out.push_back(
          Activation{f.entry_node, Side::Left, true, Token{w}, agent});
    }
  }
}

/// Phase C seeds, valid only after phases A and B have fully drained: the
/// share point's stored outputs land in `scratch.outputs`, the seeds in
/// `scratch.seeds` (both cleared first, capacity retained).
void update_left_seeds_into(Network& net, const MatchState& ms,
                            const CompiledProduction& cp,
                            UpdateScratch& scratch, uint32_t agent) {
  scratch.seeds.clear();
  scratch.outputs.clear();
  net.node_outputs_into(cp.share_point, ms, scratch.outputs);
  const uint32_t slot = net.node(cp.share_point)->jt_slot;
  for (const SuccessorRef& s : net.jumptable().peek(slot)) {
    if (s.side != Side::Left || !is_new(net, cp, s.node)) continue;
    for (const Token& t : scratch.outputs) {
      scratch.seeds.push_back(Activation{s.node, Side::Left, true, t, agent});
    }
  }
}

}  // namespace

void update_right_seeds_into(Network& net, const MatchState& ms,
                             const CompiledProduction& cp,
                             std::vector<Activation>& out, uint32_t agent) {
  for (const uint32_t id : cp.new_nodes) {
    const Node* n = net.node(id);
    if (n->type != NodeType::Join && n->type != NodeType::Not) continue;
    // An unlinked join takes no right entries: phase C's first left token
    // relinks it from the alpha memory (DESIGN.md §16).
    if (n->type == NodeType::Join && !ms.linked(id)) continue;
    const auto* t = static_cast<const TwoInputNode*>(n);
    if (is_new(net, cp, t->alpha_mem)) continue;  // phase A fed a new amem
    const auto* am = static_cast<const AlphaMemNode*>(net.node(t->alpha_mem));
    for (const Wme* w : ms.alpha(am->mem_index).wmes) {
      out.push_back(Activation{id, Side::Right, true, Token{w}, agent});
    }
  }
}

UpdateTasks run_update(Drain& drain, Network& net, const MatchState& ms,
                       const CompiledProduction& cp,
                       const std::vector<const Wme*>& wm, uint32_t agent,
                       UpdateScratch& scratch, obs::Tracer* tracer,
                       size_t track) {
  UpdateTasks n;
  {
    obs::Span span(tracer, track, obs::EventKind::UpdateA, cp.pnode);
    scratch.seeds.clear();
    update_alpha_seeds_into(cp, wm, scratch.seeds, agent);
    n.ab += drain.drain(scratch.seeds, {cp.first_new_stamp, true});
  }
  {
    obs::Span span(tracer, track, obs::EventKind::UpdateB, cp.pnode);
    scratch.seeds.clear();
    update_right_seeds_into(net, ms, cp, scratch.seeds, agent);
    n.ab += drain.drain(scratch.seeds, {cp.first_new_stamp, false});
  }
  {
    obs::Span span(tracer, track, obs::EventKind::UpdateC, cp.pnode);
    update_left_seeds_into(net, ms, cp, scratch, agent);
    n.c = drain.drain(scratch.seeds, {cp.first_new_stamp, false});
  }
  return n;
}

}  // namespace psme
