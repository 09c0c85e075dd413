// Differential test across the match executors: a seeded, randomized stream
// of wme adds, wme removes, run-time production additions (the chunking
// path's §5.2 state update), and run-time production REMOVALS (the
// unsplice + drain path) is applied identically to four engines — serial
// and three scheduler tunings (2 workers each): the default (no forced
// split; private work is published only to a hungry peer), a forced split
// at every activation (chain_split_depth 1, with the backoff ladder disabled
// so every failed sweep goes straight to the park ticket), and a forced
// split every 8 activations (chain_split_depth 8). After every match the
// engines must agree on:
//
//   * the conflict set, compared content-by-content (production name + wme
//     contents per CE) so timetag/arrival tie-breaks and threaded insertion
//     order normalize away;
//   * the total left-memory population of the paired hash tables;
//   * working-memory contents;
//   * the production count (chunk set).
//
// On divergence the harness shrinks: it replays ever-shorter prefixes of the
// same seed's op stream and reports the minimal failing length, so the
// printed reproducer (seed + op count) is as small as the failure allows.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "lang/parser.h"
#include "par/parallel_match.h"
#include "test_util.h"

namespace psme {
namespace {

using test::cs_fingerprint;
using test::test_rhs_arena;

// splitmix64: tiny, deterministic, seedable — the whole op stream derives
// from the seed alone, so a failure line "seed S, N ops" fully reproduces.
struct Rng {
  uint64_t state;
  uint64_t next() {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint32_t below(uint32_t n) { return static_cast<uint32_t>(next() % n); }
};

constexpr const char* kBaseProductions =
    "(p base-join (a ^v <x>) (b ^v <x>) --> (halt))\n"
    "(p base-neg (a ^v <x>) -(b ^v <x>) --> (halt))\n"
    "(p base-three (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))";

constexpr std::array<const char*, 4> kEngineNames = {
    "serial", "steal", "steal-splitall", "steal-split8"};
using Engines = std::array<std::unique_ptr<Engine>, kEngineNames.size()>;

/// Scheduler tuning for engine index 1..3: default, split at every
/// activation with the backoff ladder off (parks immediately after one
/// failed sweep — maximal park/unpark churn), split every 8.
StealTuning steal_tuning(size_t i) {
  StealTuning t;
  if (i == 2) {
    t.chain_split_depth = 1;
    t.backoff_park_sweeps = 0;
  } else if (i == 3) {
    t.chain_split_depth = 8;
  }
  return t;
}

/// Run-time production templates: a plain join, a triple, a negation, and a
/// six-CE chain whose full tokens spill to the arena.
std::string chunk_text(uint32_t which, const std::string& name) {
  switch (which % 4) {
    case 0: return "(p " + name + " (a ^v <x>) (b ^v <x>) --> (halt))";
    case 1:
      return "(p " + name + " (b ^v <x>) (c ^v <x>) (a ^v <x>) --> (halt))";
    case 2: return "(p " + name + " (c ^v <x>) -(a ^v <x>) --> (halt))";
    default:
      return "(p " + name +
             " (a ^v <x>) (b ^v <x>) (c ^v <x>)"
             " (a ^v <y>) (b ^v <y>) (c ^v <y>) --> (halt))";
  }
}

std::multiset<std::string> wm_fingerprint(Engine& e) {
  std::multiset<std::string> out;
  for (const Wme* w : e.wm().live()) {
    out.insert(w->to_string(e.syms(), e.schemas()));
  }
  return out;
}

/// Compares the engines; empty string means they agree.
std::string compare_engines(Engines& es) {
  const auto cs0 = cs_fingerprint(*es[0]);
  const auto wm0 = wm_fingerprint(*es[0]);
  const size_t left0 = es[0]->state().tables.total_left_entries();
  const size_t prods0 = es[0]->productions().size();
  for (size_t i = 1; i < es.size(); ++i) {
    if (cs_fingerprint(*es[i]) != cs0) {
      return std::string("conflict set of ") + kEngineNames[i] +
             " diverges from serial (" +
             std::to_string(cs_fingerprint(*es[i]).size()) + " vs " +
             std::to_string(cs0.size()) + " instantiations)";
    }
    if (es[i]->state().tables.total_left_entries() != left0) {
      return std::string("left-memory population of ") + kEngineNames[i] +
             " diverges from serial (" +
             std::to_string(es[i]->state().tables.total_left_entries()) +
             " vs " + std::to_string(left0) + ")";
    }
    if (wm_fingerprint(*es[i]) != wm0) {
      return std::string("working memory of ") + kEngineNames[i] +
             " diverges from serial";
    }
    if (es[i]->productions().size() != prods0) {
      return std::string("chunk set of ") + kEngineNames[i] +
             " diverges from serial";
    }
  }
  return "";
}

/// Replays the first `max_ops` ops of `seed`'s stream. Returns "" on
/// agreement; otherwise a description, with *fail_op set to the op index at
/// which the divergence was observed.
std::string run_seed(uint64_t seed, size_t max_ops, size_t* fail_op,
                     size_t* activity = nullptr) {
  Engines es;
  for (size_t i = 0; i < es.size(); ++i) {
    EngineOptions opts;
    opts.record_traces = false;
    if (i > 0) {
      opts.match_workers = 2;
      opts.steal = steal_tuning(i);
    }
    es[i] = std::make_unique<Engine>(opts);
    es[i]->load(kBaseProductions);
  }

  constexpr std::array<const char*, 3> kClasses = {"a", "b", "c"};
  Rng rng{seed};
  size_t chunks = 0;

  for (size_t op = 0; op < max_ops; ++op) {
    const uint32_t kind = rng.below(100);
    if (kind < 40) {
      const std::string text = std::string("(") + kClasses[rng.below(3)] +
                               " ^v " + std::to_string(rng.below(4)) + ")";
      for (auto& e : es) e->add_wme_text(text);
    } else if (kind < 65) {
      // Remove the k-th live wme. live() is timetag-ordered and the engines
      // share the op history, so index k names the same wme in all four.
      const size_t n_live = es[0]->wm().live().size();
      if (n_live == 0) continue;
      const uint32_t k = rng.below(static_cast<uint32_t>(n_live));
      for (auto& e : es) e->remove_wme(e->wm().live()[k]);
    } else if (kind < 75) {
      // Run-time production addition. Flush pending changes first so the
      // §5.2 update sees a WM the network has already matched.
      const std::string text = chunk_text(
          rng.below(4), "chunk-" + std::to_string(seed) + "-" +
                            std::to_string(chunks++));
      for (auto& e : es) {
        e->match();
        Parser parser(e->syms(), e->schemas(), test_rhs_arena());
        auto parsed = parser.parse_file(text);
        e->add_production_runtime(std::move(parsed[0]));
      }
      const std::string diff = compare_engines(es);
      if (!diff.empty()) {
        *fail_op = op;
        return diff;
      }
    } else if (kind < 85) {
      // Run-time production removal: unsplice the k-th production (base and
      // run-time-added ones alike — productions() is in identical order on
      // every engine). The drain must leave all engines agreeing on CS,
      // left-memory population, WM and production set.
      const size_t n_prods = es[0]->productions().size();
      if (n_prods == 0) continue;
      const uint32_t k = rng.below(static_cast<uint32_t>(n_prods));
      for (auto& e : es) {
        e->match();
        e->remove_production_runtime(e->productions()[k]);
      }
      const std::string diff = compare_engines(es);
      if (!diff.empty()) {
        *fail_op = op;
        return diff;
      }
    } else {
      for (auto& e : es) e->match();
      const std::string diff = compare_engines(es);
      if (!diff.empty()) {
        *fail_op = op;
        return diff;
      }
    }
  }

  for (auto& e : es) e->match();
  const std::string diff = compare_engines(es);
  if (!diff.empty()) *fail_op = max_ops;
  if (activity != nullptr) *activity += cs_fingerprint(*es[0]).size();
  return diff;
}

TEST(PolicyDifferential, AllPoliciesAgreeAcrossSeeds) {
  constexpr uint64_t kSeeds = 220;
  constexpr size_t kOpsPerSeed = 30;
  size_t activity = 0;  // total instantiations seen (harness sanity)
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    size_t fail_op = 0;
    const std::string what = run_seed(seed, kOpsPerSeed, &fail_op, &activity);
    if (what.empty()) continue;

    // Shrink: find the shortest prefix of this seed's stream that fails.
    size_t min_len = fail_op + 1;
    std::string min_what = what;
    for (size_t len = 1; len <= fail_op; ++len) {
      size_t ignored = 0;
      const std::string w = run_seed(seed, len, &ignored);
      if (!w.empty()) {
        min_len = len;
        min_what = w;
        break;
      }
    }
    FAIL() << "policy divergence: seed " << seed << ", minimal prefix "
           << min_len << " ops: " << min_what;
  }
  // The streams must actually produce matches; an all-empty comparison
  // would pass vacuously and test nothing.
  EXPECT_GT(activity, 100u);
}

}  // namespace
}  // namespace psme
