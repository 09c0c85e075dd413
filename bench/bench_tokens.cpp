// Token memory: heap allocations and bytes per activation of the
// inline/arena Token, measured with a counting global operator new.
//
// Three levels:
//
//   * token layer — the exact allocation cost of building PIs along a 6-CE
//     join chain: nothing inline (≤4 wmes), amortized arena chunks beyond.
//
//   * engine — the bench_scheduler wave workload drained through the real
//     ParallelMatcher at 1 and 8 workers, counting every operator-new during
//     the measured drains (arena chunk mallocs are reported separately from
//     MatchStats).
//
//   * chunk-size sweep — EngineOptions::arena_chunk_bytes on a spill-heavy
//     chain.
//
// Output: BENCH_tokens.json on stdout (captured by tools/bench_json.sh),
// human tables on stderr. The retired vector-token comparison (about 140x
// fewer allocations per activation at 8 workers) is recorded in the
// committed BENCH_tokens.json and EXPERIMENTS.md.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "harness.h"
#include "par/parallel_match.h"
#include "rete/token.h"

// ---- counting global allocator --------------------------------------------
namespace {
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_bytes{0};

void* counted(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  const std::size_t al = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(al, (n + al - 1) & ~(al - 1))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return operator new(n, a);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace psme;
using namespace psme::bench;

namespace {

struct AllocWindow {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};

uint64_t allocs_now() { return g_allocs.load(std::memory_order_relaxed); }
uint64_t bytes_now() { return g_bytes.load(std::memory_order_relaxed); }

// ---- token layer -----------------------------------------------------------

struct TokenLayer {
  uint64_t ops = 0;  // token builds (extends)
  AllocWindow heap;
  MatchStats arena;  // arena-side traffic
};

TokenLayer token_layer(int iters) {
  TokenLayer out;
  Wme ws[6];
  constexpr int kChain = 6;
  out.ops = static_cast<uint64_t>(iters) * kChain;

  TokenArena arena;
  const uint64_t a0 = allocs_now(), b0 = bytes_now();
  for (int i = 0; i < iters; ++i) {
    Token t;
    for (const auto& w : ws) t = token_extend(t, &w, arena, 0);
  }
  out.heap = {allocs_now() - a0, bytes_now() - b0};
  out.arena = arena.stats();
  return out;
}

// ---- engine level ----------------------------------------------------------
// Same productions/wave script as bench_scheduler so the headline is "on the
// bench_scheduler workload".

class SeedCollector final : public ExecContext {
 public:
  void emit(Activation&& a) override { seeds.push_back(std::move(a)); }
  std::vector<Activation> seeds;
};

std::string bench_productions() {
  return "(p j2 (a ^v <x>) (b ^v <x>) --> (halt))"
         "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))"
         "(p neg (a ^v <x>) -(blocker ^v <x>) --> (halt))"
         "(p cross (a ^v <x>) (c ^w <y>) --> (halt))";
}

void add_wave(Engine& e, int n, int salt) {
  for (int i = 0; i < n; ++i) {
    const std::string v = std::to_string((i + salt) % 7);
    e.add_wme_text("(a ^v " + v + ")");
    if (i % 2 == 0) e.add_wme_text("(b ^v " + v + ")");
    if (i % 3 == 0) e.add_wme_text("(c ^v " + v + " ^w " + v + ")");
    if (i % 5 == 0) e.add_wme_text("(blocker ^v " + v + ")");
  }
}

struct EngineRecord {
  size_t workers = 0;
  uint64_t tasks = 0;       // measured rounds only
  AllocWindow heap;         // operator-new traffic during measured drains
  MatchStats arena_delta;   // arena traffic during measured drains
  uint64_t pool_slabs = 0;  // ActivationPool slab mallocs (lifetime)
};

EngineRecord run_config(size_t workers, int rounds, int warmup, int wave) {
  EngineRecord r;
  r.workers = workers;

  Engine e;
  e.load(bench_productions());
  // The conflict set allocates per production match by design (list/index
  // nodes), independent of the token representation; detach it so the
  // window measures the match/token layer.
  e.state().sink = nullptr;
  ParallelMatcher matcher(e.net(), workers);
  matcher.register_agent(e.state());

  uint64_t pool_slabs = 0;
  auto one_round = [&](int round, bool measured) {
    std::vector<const Wme*> before = e.wm().live();
    add_wave(e, wave, round);
    SeedCollector sc;
    for (const Wme* w : e.wm().live()) {
      bool is_new = true;
      for (const Wme* b : before) {
        if (b == w) {
          is_new = false;
          break;
        }
      }
      if (is_new) e.net().inject(w, true, sc);
    }
    ParallelStats st = matcher.run_cycle(sc.seeds);
    if (measured) r.tasks += st.tasks;
    e.wm().end_cycle();

    if (round % 3 == 2) {
      SeedCollector del;
      int i = 0;
      for (const Wme* w : before) {
        if (e.syms().name(w->cls) == "a" && ++i % 4 == 0) {
          e.net().inject(w, false, del);
          e.wm().remove(w);
        }
      }
      st = matcher.run_cycle(del.seeds);
      if (measured) r.tasks += st.tasks;
      e.wm().end_cycle();
    }
    pool_slabs = st.pool_slabs;
  };

  // Warm-up rounds populate line/scratch capacities and the ActivationPool
  // slabs; the measured window is the steady state.
  for (int round = 0; round < warmup; ++round) one_round(round, false);
  const MatchStats arena0 = e.state().arena.stats();
  const uint64_t a0 = allocs_now(), b0 = bytes_now();
  for (int round = warmup; round < warmup + rounds; ++round) {
    one_round(round, true);
  }
  r.heap = {allocs_now() - a0, bytes_now() - b0};
  r.arena_delta = e.state().arena.stats().delta(arena0);
  r.pool_slabs = pool_slabs;
  return r;
}

double per_task(uint64_t n, uint64_t tasks) {
  return tasks != 0 ? static_cast<double>(n) / static_cast<double>(tasks) : 0;
}

// ---- arena chunk-size sweep ------------------------------------------------
// EngineOptions::arena_chunk_bytes, exercised on a spill-heavy workload: a
// six-CE chain whose full PIs all exceed the inline cap, toggled under the
// parallel scheduler so chunks seal and reclaim continuously. Small chunks seal
// (and mmap) often; large chunks amortize but hold more idle memory.

struct SweepRecord {
  uint32_t chunk_bytes = 0;
  uint64_t tasks = 0;
  double wall_seconds = 0;
  MatchStats arena;  // lifetime arena traffic at the given chunk size
};

SweepRecord run_chunk_sweep(uint32_t chunk_bytes, int rounds) {
  SweepRecord r;
  r.chunk_bytes = chunk_bytes;

  EngineOptions opts;
  opts.record_traces = false;
  opts.match_workers = 8;
  opts.arena_chunk_bytes = chunk_bytes;
  Engine e(opts);
  e.load("(p long (a ^v <x>) (b ^v <x>) (c ^v <x>) (d ^v <x>) (e ^v <x>)"
         " (f ^v <x>) --> (halt))");
  for (const char* cls : {"a", "b", "c", "d", "e", "f"}) {
    for (int k = 0; k < 2; ++k) {
      for (int i = 0; i < 3; ++i) {
        e.add_wme_text("(" + std::string(cls) + " ^v " + std::to_string(k) +
                       ")");
      }
    }
  }
  e.match();

  for (int round = 0; round < rounds; ++round) {
    const Wme* victim = nullptr;
    for (const Wme* w : e.wm().live()) {
      if (e.syms().name(w->cls) == "a") {
        victim = w;
        break;
      }
    }
    const Symbol cls = victim->cls;
    const auto fields = victim->fields;
    e.remove_wme(victim);
    e.match();
    r.tasks += e.last_parallel_stats().tasks;
    r.wall_seconds += e.last_parallel_stats().wall_seconds;
    e.add_wme(cls, fields);
    e.match();
    r.tasks += e.last_parallel_stats().tasks;
    r.wall_seconds += e.last_parallel_stats().wall_seconds;
  }
  r.arena = e.state().arena.stats();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 12;
  const int wave = argc > 2 ? std::atoi(argv[2]) : 24;
  const int warmup = 4;
  const int token_iters = 200000;

  const TokenLayer tl = token_layer(token_iters);
  std::fprintf(stderr,
               "token layer (%llu extends, 6-CE chain): %.3f heap allocs/op, "
               "%.1f heap bytes/op, %.3f spill allocs/op, %.1f spill "
               "bytes/op, %llu chunks\n",
               static_cast<unsigned long long>(tl.ops),
               per_task(tl.heap.allocs, tl.ops),
               per_task(tl.heap.bytes, tl.ops),
               per_task(tl.arena.spill_allocs, tl.ops),
               per_task(tl.arena.spill_bytes, tl.ops),
               static_cast<unsigned long long>(tl.arena.chunks_allocated));

  std::fprintf(stderr,
               "\nengine (%d measured rounds, wave %d, %d warm-up):\n"
               "%7s %9s %12s %12s\n",
               rounds, wave, warmup, "workers", "tasks", "allocs/act",
               "bytes/act");
  std::vector<EngineRecord> records;
  for (const size_t workers : {size_t{1}, size_t{8}}) {
    EngineRecord r = run_config(workers, rounds, warmup, wave);
    std::fprintf(stderr, "%7zu %9llu %12.4f %12.1f\n", r.workers,
                 static_cast<unsigned long long>(r.tasks),
                 per_task(r.heap.allocs, r.tasks),
                 per_task(r.heap.bytes, r.tasks));
    records.push_back(std::move(r));
  }

  const std::vector<uint32_t> chunk_sizes = {4096, 16384, 65536, 262144};
  const int sweep_rounds = 30;
  std::fprintf(stderr,
               "\narena chunk-size sweep (6-CE spill chain, 8 workers,"
               " %d toggle rounds):\n%-12s %9s %10s %12s %12s %12s\n",
               sweep_rounds, "chunk_bytes", "tasks", "wall_ms",
               "chunk_mmaps", "chunks_freed", "chunks_live");
  std::vector<SweepRecord> sweep;
  for (uint32_t cb : chunk_sizes) {
    SweepRecord s = run_chunk_sweep(cb, sweep_rounds);
    std::fprintf(stderr, "%-12u %9llu %10.2f %12llu %12llu %12llu\n",
                 s.chunk_bytes, static_cast<unsigned long long>(s.tasks),
                 s.wall_seconds * 1e3,
                 static_cast<unsigned long long>(s.arena.chunks_allocated),
                 static_cast<unsigned long long>(s.arena.chunks_freed),
                 static_cast<unsigned long long>(s.arena.chunks_live));
    sweep.push_back(s);
  }

  JsonWriter j(stdout);
  j.begin_object();
  j.field("bench", "tokens");
  j.field("workload", "bench_scheduler wme waves; counting operator new");
  j.field("rounds", static_cast<uint64_t>(rounds));
  j.field("wave", static_cast<uint64_t>(wave));

  j.begin_object("token_layer");
  j.field("ops", tl.ops);
  j.field("allocs_per_op", per_task(tl.heap.allocs, tl.ops));
  j.field("bytes_per_op", per_task(tl.heap.bytes, tl.ops));
  j.field("spill_allocs_per_op", per_task(tl.arena.spill_allocs, tl.ops));
  j.field("spill_bytes_per_op", per_task(tl.arena.spill_bytes, tl.ops));
  j.field("chunk_mallocs", tl.arena.chunks_allocated);
  j.end_object();

  j.begin_array("engine");
  for (const EngineRecord& r : records) {
    j.begin_object();
    j.field("workers", static_cast<uint64_t>(r.workers));
    j.field("tasks", r.tasks);
    j.field("heap_allocs", r.heap.allocs);
    j.field("heap_bytes", r.heap.bytes);
    j.field("allocs_per_activation", per_task(r.heap.allocs, r.tasks));
    j.field("bytes_per_activation", per_task(r.heap.bytes, r.tasks));
    j.field("spill_allocs", r.arena_delta.spill_allocs);
    j.field("spill_bytes", r.arena_delta.spill_bytes);
    j.field("chunk_mallocs", r.arena_delta.chunks_allocated);
    j.field("chunks_freed", r.arena_delta.chunks_freed);
    j.field("chunks_live", r.arena_delta.chunks_live);
    j.field("pool_slabs", r.pool_slabs);
    j.end_object();
  }
  j.end_array();

  j.begin_array("chunk_size_sweep");
  for (const SweepRecord& s : sweep) {
    j.begin_object();
    j.field("chunk_bytes", static_cast<uint64_t>(s.chunk_bytes));
    j.field("tasks", s.tasks);
    j.field("wall_seconds", s.wall_seconds);
    j.field("spill_allocs", s.arena.spill_allocs);
    j.field("spill_bytes", s.arena.spill_bytes);
    j.field("chunk_mallocs", s.arena.chunks_allocated);
    j.field("chunks_freed", s.arena.chunks_freed);
    j.field("chunks_live", s.arena.chunks_live);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  j.finish();
  return 0;
}
