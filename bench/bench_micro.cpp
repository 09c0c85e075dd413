// Microbenchmarks (google-benchmark) of the core operations: symbol
// interning, value hashing, token extension, spinlock acquire, wme
// add/remove matching, run-time production addition, and psim scheduling.
#include <benchmark/benchmark.h>

#include "engine/engine.h"
#include "lang/parser.h"
#include "psim/sim.h"
#include "tasks/registry.h"

namespace psme {
namespace {

void BM_SymbolIntern(benchmark::State& state) {
  SymbolTable syms;
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(syms.intern("symbol-" + std::to_string(i % 512)));
    ++i;
  }
}
BENCHMARK(BM_SymbolIntern);

void BM_ValueHash(benchmark::State& state) {
  const Value v(int64_t{123456});
  for (auto _ : state) benchmark::DoNotOptimize(v.hash());
}
BENCHMARK(BM_ValueHash);

// Arg = length of the extended token: 4 stays inline, 16 and 43 spill into
// the arena. The arena runs an empty drain every 1024 extends so the sealed
// chunks are reclaimed, as a real match's quiescence points would.
void BM_TokenExtend(benchmark::State& state) {
  Wme w;
  TokenArena arena;
  Token t;
  for (int i = 1; i < static_cast<int>(state.range(0)); ++i) {
    t = token_extend(t, &w, arena, 0);
  }
  t.pin();  // the base token outlives every reclamation below
  uint32_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(token_extend(t, &w, arena, 0));
    if (++n % 1024 == 0) {
      arena.begin_drain(1);
      arena.reclaim_at_quiescence();
    }
  }
  t.unpin();
}
BENCHMARK(BM_TokenExtend)->Arg(4)->Arg(16)->Arg(43);

void BM_SpinlockUncontended(benchmark::State& state) {
  Spinlock lock;
  for (auto _ : state) {
    SpinGuard g(lock);
    benchmark::DoNotOptimize(g.spins());
  }
}
BENCHMARK(BM_SpinlockUncontended);

void BM_WmeAddRemoveMatch(benchmark::State& state) {
  Engine e;
  e.load("(p j (a ^v <x>) (b ^v <x>) --> (halt))");
  for (int i = 0; i < 32; ++i) {
    e.add_wme(e.syms().intern("b"), {Value(static_cast<int64_t>(i))});
  }
  e.match();
  int64_t i = 0;
  for (auto _ : state) {
    const Wme* w = e.add_wme(e.syms().intern("a"), {Value(i % 32)});
    e.match();
    e.remove_wme(w);
    e.match();
    ++i;
  }
}
BENCHMARK(BM_WmeAddRemoveMatch);

void BM_AddProductionRuntime(benchmark::State& state) {
  // Compile-and-update cost of adding one chunk-sized production to a
  // network holding a realistic WM.
  Engine e;
  e.load("(p base (a ^v <x>) (b ^v <x>) --> (halt))");
  for (int i = 0; i < 64; ++i) {
    e.add_wme(e.syms().intern("a"), {Value(static_cast<int64_t>(i))});
    e.add_wme(e.syms().intern("b"), {Value(static_cast<int64_t>(i))});
  }
  e.match();
  RhsArena arena;
  Parser parser(e.syms(), e.schemas(), arena);
  uint64_t n = 0;
  for (auto _ : state) {
    const std::string name = "bench-chunk-" + std::to_string(n++);
    Production p = parser.parse_production(
        "(p " + name + " (a ^v <x>) (b ^v <x>) (a ^v <x>) --> (halt))");
    benchmark::DoNotOptimize(e.add_production_runtime(std::move(p)));
  }
}
BENCHMARK(BM_AddProductionRuntime)->Iterations(200);

void BM_SimulateCycle(benchmark::State& state) {
  // Discrete-event scheduling throughput on a mid-size cycle.
  CycleTrace trace;
  for (uint32_t i = 0; i < 512; ++i) {
    TaskRecord r;
    r.parent = i < 16 ? UINT32_MAX : (i - 16);
    r.type = NodeType::Join;
    r.stats.probes = 2;
    r.stats.emits = 1;
    trace.tasks.push_back(r);
  }
  SimOptions opts;
  opts.processors = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_cycle(trace, opts));
  }
}
BENCHMARK(BM_SimulateCycle)->Arg(1)->Arg(8)->Arg(13);

}  // namespace
}  // namespace psme

BENCHMARK_MAIN();
