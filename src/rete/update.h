// Run-time update of state for a newly added production (§5.2).
//
// The update re-runs working memory through the normal network under the
// task filter (activations of stateful nodes older than the first new node
// are ignored; see UpdateFilter and Network::should_execute), then specially
// executes the last shared node, replaying the partial instantiations it
// stores down to the new nodes only. Because it reuses the ordinary task
// machinery — run_update drains every phase through the same executor that
// runs ordinary match cycles — the full parallelism of the match is
// available to the update, and this is what Figure 6-9 measures.
//
// Phase order matters and is run_update's contract:
//   A. alpha seeds, drained with suppress_alpha_left set: fills new alpha
//      memories and the right memories of new two-input nodes fed by them.
//   B. right seeds, drained: fills right memories of new two-input nodes fed
//      by *old* (shared) alpha memories.
//   C. left seeds (computed only after A and B have drained), drained: the
//      last-shared-node replay. Left tokens now meet fully-populated right
//      memories, so no match can be missed and no duplicate state is added.
// Under right unlinking (DESIGN.md §16) a new join starts unlinked, so A
// and B leave its right memory empty and C's first left token relinks it
// from the (by then full) alpha memory; Not nodes fill as above.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/tracer.h"
#include "rete/builder.h"
#include "rete/network.h"

namespace psme {

/// Reusable buffers for the three-phase update. A system that chunks
/// continuously (the paper's whole premise) runs the §5.2 update once per
/// chunk; holding one of these per engine keeps the seed vector and the
/// phase-C output buffer at their high-water capacity instead of
/// reallocating them per addition (the regression test in
/// tests/rete_update_test.cpp asserts the allocation count stays flat).
struct UpdateScratch {
  std::vector<Activation> seeds;
  std::vector<Token> outputs;  // phase-C node_outputs_into target
};

/// Phase B seeds: a right activation of every new linked two-input node fed
/// by an old (shared) alpha memory, for each wme that memory holds. Appends into
/// `out`. Quiescent-only: reads `ms`'s alpha memories without their locks
/// (the §5.2 contract — structural add and seeding happen while match is
/// quiescent). The update fills one agent's memories from that agent's WM;
/// a shared network with N attached agents runs it once per agent.
void update_right_seeds_into(Network& net, const MatchState& ms,
                             const CompiledProduction& cp,
                             std::vector<Activation>& out, uint32_t agent)
    PSME_NO_THREAD_SAFETY_ANALYSIS;

/// Executed-task counts of one update, split where Figure 6-9 splits it:
/// the alpha and right fills (A, B), which may run concurrently, and the
/// replay (C), which must follow them.
struct UpdateTasks {
  uint64_t ab = 0;
  uint64_t c = 0;
  [[nodiscard]] uint64_t total() const { return ab + c; }
};

/// The §5.2 update of agent `agent`'s memories (`ms`, working memory `wm`)
/// for the newly compiled `cp`: phases A, B and C in order, each seeded into
/// `scratch.seeds` and drained through `drain` under the task filter. A
/// non-null `tracer` records one update.A/B/C span per phase on `track`.
UpdateTasks run_update(Drain& drain, Network& net, const MatchState& ms,
                       const CompiledProduction& cp,
                       const std::vector<const Wme*>& wm, uint32_t agent,
                       UpdateScratch& scratch, obs::Tracer* tracer = nullptr,
                       size_t track = 0);

}  // namespace psme
