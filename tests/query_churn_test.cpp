// Churn soak: 10^4 transient-query add/match/remove cycles across two agent
// sessions over one shared CompiledNetwork, with every allocator's
// high-water mark asserted FLAT after warmup and the verifier run clean at
// the end. This is the leak/fragmentation oracle for run-time removal:
//
//   * node_count (the id space), live_node_count, alpha_mem_count,
//     jumptable size, symbol table — flat (ids, slots and mem-indexes are
//     recycled, and a session interns one query name, not one per ask: the
//     network's footprint must not grow with query traffic);
//   * token-arena live chunks, conflict-set slab allocations, alpha-wme and
//     right-entry pool chunk allocations — flat after warmup (every drained
//     entry's storage is recycled, never strand-allocated);
//   * zero verifier findings per agent (no dangling refs, no stale entries).
//
// Runs under the tsan preset too (stress label): the drains and the
// in-place network edits are exercised with a threaded steal matcher
// underneath.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "analysis/verify.h"
#include "engine/agent_group.h"
#include "engine/engine.h"
#include "query/query.h"

namespace psme {
namespace {

// 10^4 cycles total across both sessions in release-style runs; the
// sanitizer/debug lanes get a reduced-but-still-soaking count so the suite
// stays inside CI budgets (PSME_NET_VERIFY re-verifies the network on every
// one of the 2 * cycles add/remove publishes).
#if PSME_NET_VERIFY
constexpr int kCyclesPerAgent = 1250;  // 2500 queries = 5000 publishes
#else
constexpr int kCyclesPerAgent = 5000;  // 10^4 queries
#endif

const char* cue_for(int cycle) {
  switch (cycle % 4) {
    case 0:
      return "(block ^name <b> ^color blue) (block ^on <b> ^name <t>)";
    case 1:
      return "(block ^name <b> ^color blue) (block ^on <b> ^name <t>) "
             "(gripper ^holding <t>)";
    case 2:
      return "(gripper ^state free) (block ^name <b>)";
    default:
      return "(pyramid ^name <p>) (slab ^under <p>)";
  }
}

TEST(QueryChurn, TenThousandCyclesStayFlat) {
  AgentGroupOptions gopts;
  gopts.workers = 2;
  AgentGroup group(gopts);
  Engine& a0 = group.add_agent();
  Engine& a1 = group.add_agent();
  group.load(
      "(p resident1 (block ^name <b> ^color blue) (block ^on <b>) "
      "--> (halt))"
      "(p resident2 (gripper ^state free) (block ^name <b>) --> (halt))");

  for (int a = 0; a < 2; ++a) {
    Engine& e = group.agent(static_cast<size_t>(a));
    const std::string off = std::to_string(a * 100);
    e.add_wme_text("(block ^name b" + off + " ^color blue)");
    e.add_wme_text("(block ^name c" + off + " ^color red ^on b" + off + ")");
    e.add_wme_text("(block ^name d" + off + " ^color green ^on c" + off +
                   ")");
    e.add_wme_text("(gripper ^name g" + off + " ^state free)");
  }
  group.step_all();

  QuerySession q0(a0), q1(a1);

  // Warmup: one full cue rotation per agent, so every pool/slab/slot the
  // steady state needs has been allocated once.
  for (int c = 0; c < 8; ++c) {
    q0.ask(cue_for(c));
    q1.ask(cue_for(c + 1));
  }

  const uint32_t live_nodes = a0.net().live_node_count();
  const uint32_t alpha_mems = a0.net().alpha_mem_count();
  const size_t jt_slots = a0.net().jumptable().size();
  const uint32_t node_ids = a0.net().node_count();
  const size_t symbols = a0.syms().size();
  const uint64_t arena0 = a0.state().arena.stats().chunks_live;
  const uint64_t arena1 = a1.state().arena.stats().chunks_live;
  const uint64_t slab0 = a0.cs().slab_allocs();
  const uint64_t slab1 = a1.cs().slab_allocs();
  const uint64_t alpha_pool0 = a0.state().alpha_pool.chunk_allocs();
  const uint64_t alpha_pool1 = a1.state().alpha_pool.chunk_allocs();
  const uint64_t right0 = a0.state().tables.right_pool().chunk_allocs();
  const uint64_t right1 = a1.state().tables.right_pool().chunk_allocs();

  for (int c = 0; c < kCyclesPerAgent; ++c) {
    const QueryResult r0 = q0.ask(cue_for(c));
    const QueryResult r1 = q1.ask(cue_for(c + 1));
    // Spot-check semantics stay right under churn (both episodes hold a
    // full stack, so the rotation's full cue always matches).
    if (c % 4 == 0) {
      ASSERT_TRUE(r0.full());
      ASSERT_EQ(r1.score, 2u);
    }
  }

  // Network footprint: exactly flat.
  EXPECT_EQ(a0.net().live_node_count(), live_nodes);
  EXPECT_EQ(a0.net().alpha_mem_count(), alpha_mems);
  EXPECT_EQ(a0.net().jumptable().size(), jt_slots);
  EXPECT_EQ(a0.net().node_count(), node_ids);
  EXPECT_EQ(a0.syms().size(), symbols);

  // Per-agent allocators: no growth past the warmed-up high-water mark.
  EXPECT_EQ(a0.state().arena.stats().chunks_live, arena0);
  EXPECT_EQ(a1.state().arena.stats().chunks_live, arena1);
  EXPECT_EQ(a0.cs().slab_allocs(), slab0);
  EXPECT_EQ(a1.cs().slab_allocs(), slab1);
  EXPECT_EQ(a0.state().alpha_pool.chunk_allocs(), alpha_pool0);
  EXPECT_EQ(a1.state().alpha_pool.chunk_allocs(), alpha_pool1);
  EXPECT_EQ(a0.state().tables.right_pool().chunk_allocs(), right0);
  EXPECT_EQ(a1.state().tables.right_pool().chunk_allocs(), right1);

  // The removal oracle, per agent.
  const auto rep0 = a0.verify_network();
  EXPECT_TRUE(rep0.ok()) << rep0.to_string();
  const auto rep1 = a1.verify_network();
  EXPECT_TRUE(rep1.ok()) << rep1.to_string();

  // Residents still work after 10^4 unsplice/publish cycles around them.
  a0.add_wme_text("(block ^name fresh ^color blue)");
  a0.add_wme_text("(block ^name topper ^on fresh)");
  a0.match();
  bool resident_fired = false;
  for (const Instantiation* inst : a0.cs().all()) {
    const auto name = a0.syms().name(inst->pnode->prod->name);
    if (name == "resident1") resident_fired = true;
  }
  EXPECT_TRUE(resident_fired);
}

}  // namespace
}  // namespace psme
