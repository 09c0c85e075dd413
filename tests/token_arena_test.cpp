// Token/arena memory discipline:
//
//   * steady-state match activations on a join chain perform ZERO
//     per-activation heap allocations (the tentpole's headline property) —
//     checked with a counting global operator new;
//   * long tokens spill into the arena, short ones stay inline;
//   * sealed chunks are reclaimed exactly one drain after sealing (epoch
//     deferral), and pinned chunks survive until unpinned;
//   * reclamation runs live under the Steal scheduler without corrupting the
//     match (serial equivalence) while actually freeing chunks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alloc_probe.h"
#include "engine/engine.h"
#include "par/parallel_match.h"
#include "rete/network.h"
#include "rete/token.h"
#include "test_util.h"

namespace psme {
namespace {

using test::cs_fingerprint;
using test::heap_allocs;

// ---- token representation --------------------------------------------------

TEST(Token, InlineTokensTouchNoAllocator) {
  Wme ws[4];
  TokenArena arena;
  const uint64_t before = heap_allocs();
  Token t;
  for (auto& w : ws) t = token_extend(t, &w, arena, 0);
  EXPECT_EQ(heap_allocs() - before, 0u);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_FALSE(t.spilled());
  for (uint32_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], &ws[i]);
  EXPECT_EQ(arena.stats().spill_allocs, 0u);
}

TEST(Token, LongTokensSpillToArena) {
  Wme ws[6];
  TokenArena arena;
  Token t;
  for (auto& w : ws) t = token_extend(t, &w, arena, 0);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_TRUE(t.spilled());
  for (uint32_t i = 0; i < 6; ++i) EXPECT_EQ(t[i], &ws[i]);

  const MatchStats ms = arena.stats();
  // Sizes 5 and 6 both spill: two payloads, 5+6 pointers.
  EXPECT_EQ(ms.spill_allocs, 2u);
  EXPECT_EQ(ms.spill_bytes, 11 * sizeof(const Wme*));
  EXPECT_EQ(ms.chunks_allocated, 1u);

  // Spilling never mutates an existing payload (I1): a prefix copy taken
  // before further extension stays intact.
  const Token five = token_prefix(t, 5, arena, 0);
  const Token seven = token_extend(t, &ws[0], arena, 0);
  EXPECT_EQ(five.size(), 5u);
  EXPECT_EQ(seven.size(), 7u);
  for (uint32_t i = 0; i < 5; ++i) EXPECT_EQ(five[i], &ws[i]);
  EXPECT_EQ(seven[6], &ws[0]);
}

// ---- chunk lifecycle -------------------------------------------------------

// 5-pointer spills into 256-byte chunks: 6 spills fill a chunk.
Token spill5(TokenArena& arena, const Wme* w) {
  const Wme* ptrs[5] = {w, w, w, w, w};
  return token_make(ptrs, 5, nullptr, 0, arena, 0);
}

TEST(TokenArena, SealedChunksReclaimOneDrainLater) {
  TokenArena arena(1, 256);
  Wme w;

  arena.begin_drain();
  for (int i = 0; i < 13; ++i) spill5(arena, &w);  // seals 2 chunks
  EXPECT_EQ(arena.sealed_pending(), 2u);
  arena.reclaim_at_quiescence();
  // Epoch deferral: chunks sealed during drain E survive drain E's own
  // reclaim — transient copies may still be read until the next quiescence.
  EXPECT_EQ(arena.stats().chunks_freed, 0u);
  EXPECT_EQ(arena.sealed_pending(), 2u);

  arena.begin_drain();
  arena.reclaim_at_quiescence();
  EXPECT_EQ(arena.stats().chunks_freed, 2u);
  EXPECT_EQ(arena.sealed_pending(), 0u);
}

TEST(TokenArena, PinnedChunksSurviveUntilUnpinned) {
  TokenArena arena(1, 256);
  Wme w;

  arena.begin_drain();
  const Token held = spill5(arena, &w);  // lands in chunk 1
  held.pin();
  for (int i = 0; i < 12; ++i) spill5(arena, &w);  // fills chunks 1 and 2
  ASSERT_EQ(arena.sealed_pending(), 2u);
  arena.reclaim_at_quiescence();

  arena.begin_drain();
  arena.reclaim_at_quiescence();
  // Chunk 2 is old enough and unpinned; chunk 1 is held by `held`.
  EXPECT_EQ(arena.stats().chunks_freed, 1u);
  EXPECT_EQ(arena.sealed_pending(), 1u);
  EXPECT_EQ(held[0], &w);  // payload still readable through the pin

  held.unpin();
  arena.begin_drain();
  arena.reclaim_at_quiescence();
  EXPECT_EQ(arena.stats().chunks_freed, 2u);
  EXPECT_EQ(arena.sealed_pending(), 0u);
}

// ---- steady-state zero-allocation match ------------------------------------

TEST(TokenArena, SteadyStateActivationsAreHeapFree) {
  Engine e;
  e.load("(p chain (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))");
  for (int i = 0; i < 8; ++i) {
    const std::string v = std::to_string(i % 4);
    e.add_wme_text("(a ^v " + v + ")");
    e.add_wme_text("(b ^v " + v + ")");
    e.add_wme_text("(c ^v " + v + ")");
  }
  e.match();

  Network& net = e.net();
  // Detach the conflict set to isolate the match-network path; the full
  // engine cycle (CS included) is covered by engine_alloc_test.
  e.state().sink = nullptr;

  const Wme* toggle = nullptr;
  for (const Wme* w : e.wm().live()) toggle = w;  // any live wme
  ASSERT_NE(toggle, nullptr);

  // A FIFO drain of the context's own `out`: after warm-up the vector has
  // capacity and drains allocate nothing (std::deque would allocate a block
  // per refill).
  ExecContext ex;
  ex.state = &e.state();
  auto drain = [&] {
    for (size_t head = 0; head < ex.out.size(); ++head) {
      const Activation a = ex.out[head];  // copy: out grows during execute
      net.execute(a, ex);
    }
    ex.out.clear();
  };
  auto cycle = [&] {
    e.state().arena.begin_drain();
    net.inject(toggle, false, 0, ex.out);
    drain();
    net.inject(toggle, true, 0, ex.out);
    drain();
    e.state().arena.reclaim_at_quiescence();
  };

  for (int i = 0; i < 16; ++i) cycle();  // warm-up: queue + line capacity

  const uint64_t before = heap_allocs();
  for (int i = 0; i < 1000; ++i) cycle();
  EXPECT_EQ(heap_allocs() - before, 0u)
      << "steady-state activations must not touch the heap";
}

// ---- reclamation under the Steal scheduler ---------------------------------

std::string long_chain_productions() {
  // Six CEs: every full PI spills (sizes 5 and 6 exceed kInlineCap).
  return "(p long (a ^v <x>) (b ^v <x>) (c ^v <x>) (d ^v <x>) (e ^v <x>)"
         " (f ^v <x>) --> (halt))";
}

void add_chain_wmes(Engine& e) {
  for (const char* cls : {"a", "b", "c", "d", "e", "f"}) {
    for (int k = 0; k < 2; ++k) {
      for (int i = 0; i < 3; ++i) {
        e.add_wme_text("(" + std::string(cls) + " ^v " + std::to_string(k) +
                       ")");
      }
    }
  }
}

TEST(TokenArena, StealReclaimsWhileMatching) {
  EngineOptions popts;
  popts.match_workers = 8;
  Engine par(popts);
  Engine serial;
  for (Engine* e : {&par, &serial}) {
    e->load(long_chain_productions());
    add_chain_wmes(*e);
    e->match();
  }

  // Toggle one `a` wme repeatedly: each direction rebuilds/retracts ~3^4
  // five-wme PIs and ~3^5 six-wme PIs, all spilled — enough churn to seal
  // and reclaim chunks while 8 workers race the epoch machinery.
  for (int round = 0; round < 40; ++round) {
    for (Engine* e : {&par, &serial}) {
      const Wme* victim = nullptr;
      for (const Wme* w : e->wm().live()) {
        if (w->cls == e->syms().intern("a")) {
          victim = w;
          break;
        }
      }
      ASSERT_NE(victim, nullptr);
      const Symbol cls = victim->cls;
      const auto fields = victim->fields;
      e->remove_wme(victim);
      e->match();
      e->add_wme(cls, fields);
      e->match();
    }
  }

  EXPECT_EQ(cs_fingerprint(par), cs_fingerprint(serial));
  EXPECT_EQ(par.state().tables.total_left_entries(),
            serial.state().tables.total_left_entries());

  const MatchStats ms = par.state().arena.stats();
  EXPECT_GT(ms.spill_allocs, 0u);
  EXPECT_GT(ms.chunks_freed, 0u) << "epoch reclamation never freed a chunk";
  EXPECT_EQ(ms.chunks_live, ms.chunks_allocated - ms.chunks_freed);
  // Footprint is bounded: live chunks are the per-worker currents plus the
  // one-epoch deferral window, not the whole history.
  EXPECT_LT(ms.chunks_live, ms.chunks_allocated);
}

}  // namespace
}  // namespace psme
