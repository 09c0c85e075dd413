// Differential test across the match executors: a seeded, randomized stream
// of wme adds, wme removes, run-time production additions (the chunking
// path's §5.2 state update), and run-time production REMOVALS (the
// unsplice + drain path) is applied identically to five engines — the
// linked reference (the trace recorder, record_traces: every join stays
// linked), and with right unlinking on, the matcher at 1 (the default
// engine), 2, 4 and 8 workers. After every op each engine's conflict set
// must equal the independent oracle's matches (tests/oracle.h), and after
// every match the engines must agree on:
//
//   * the conflict set, compared content-by-content (production name + wme
//     contents per CE) so timetag/arrival tie-breaks and threaded insertion
//     order normalize away;
//   * the total left-memory population of the paired hash tables, and each
//     join's live left entries;
//   * working-memory contents;
//   * the production count (chunk set);
//
// and the network verifier, its link-state check included, must pass for
// every engine.
//
// On divergence the harness shrinks: it replays ever-shorter prefixes of the
// same seed's op stream and reports the minimal failing length, so the
// printed reproducer (seed + op count) is as small as the failure allows.
// Each threaded engine must also have shared work with a hungry peer at
// least once over the corpus, so the publish path is part of what agrees;
// its matches yield after every conflict-set insert (test::YieldingSink) so
// that helpers run mid-cycle however few cores the host has. Each unlinked
// engine must have executed fewer tasks than the linked one over the
// corpus: right unlinking skipped work, and the agreement covers that.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/verify.h"
#include "engine/engine.h"
#include "lang/parser.h"
#include "oracle.h"
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

// Engine 0, the linked reference, is what the others are compared with.
constexpr std::array<const char*, 5> kEngineNames = {
    "linked", "steal-w1", "steal-w2", "steal-w4", "steal-w8"};
constexpr std::array<size_t, 5> kEngineWorkers = {1, 1, 2, 4, 8};
using Engines = std::array<std::unique_ptr<Engine>, kEngineNames.size()>;

/// What a corpus run did beyond agreeing: instantiations seen, each
/// engine's activations shared with a hungry peer by its matches, and each
/// engine's executed tasks (matches and §5.2 updates).
struct Tally {
  size_t activity = 0;
  std::array<uint64_t, kEngineNames.size()> shares{};
  std::array<uint64_t, kEngineNames.size()> tasks{};
};

/// Drains every engine's pending changes and, when `tally` is given, adds
/// up each engine's shares and tasks.
void match_all(Engines& es, Tally* tally) {
  for (size_t i = 0; i < es.size(); ++i) {
    es[i]->match();
    if (tally != nullptr) {
      tally->shares[i] += es[i]->last_parallel_stats().shares;
      tally->tasks[i] += es[i]->last_match_tasks();
    }
  }
}

/// Each join's live left entries, counted in the tables (not read from the
/// link state's counters), by node id.
std::map<uint32_t, size_t> join_left_counts(Engine& e) {
  std::map<uint32_t, size_t> out;
  e.state().tables.for_each_left([&](const LeftEntry& l) {
    const Node* n = e.net().node(l.node_id);
    if (l.anti == 0 && n != nullptr && n->type == NodeType::Join) {
      ++out[l.node_id];
    }
  });
  return out;
}

/// Compares every engine's conflict set with the oracle's matches; empty
/// string means they all agree.
std::string check_oracle(Engines& es) {
  for (size_t i = 0; i < es.size(); ++i) {
    const std::string diff = test::oracle_diff(*es[i]);
    if (!diff.empty()) {
      return std::string(kEngineNames[i]) + " disagrees with the oracle:\n" +
             diff;
    }
  }
  return "";
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

/// Compares the engines with the linked reference and runs the verifier on
/// each; empty string means they agree.
std::string compare_engines(Engines& es) {
  const auto cs0 = cs_fingerprint(*es[0]);
  const auto wm0 = wm_fingerprint(*es[0]);
  const size_t left0 = es[0]->state().tables.total_left_entries();
  const auto joins0 = join_left_counts(*es[0]);
  const size_t prods0 = es[0]->productions().size();
  for (size_t i = 0; i < es.size(); ++i) {
    const analysis::VerifyReport rep = es[i]->verify_network();
    if (!rep.ok()) {
      return std::string("verifier on ") + kEngineNames[i] + ":\n" +
             rep.to_string();
    }
    if (i == 0) continue;
    if (cs_fingerprint(*es[i]) != cs0) {
      return std::string("conflict set of ") + kEngineNames[i] +
             " diverges from linked (" +
             std::to_string(cs_fingerprint(*es[i]).size()) + " vs " +
             std::to_string(cs0.size()) + " instantiations)";
    }
    if (es[i]->state().tables.total_left_entries() != left0) {
      return std::string("left-memory population of ") + kEngineNames[i] +
             " diverges from linked (" +
             std::to_string(es[i]->state().tables.total_left_entries()) +
             " vs " + std::to_string(left0) + ")";
    }
    if (join_left_counts(*es[i]) != joins0) {
      return std::string("a join's live left entries in ") + kEngineNames[i] +
             " diverge from linked";
    }
    if (wm_fingerprint(*es[i]) != wm0) {
      return std::string("working memory of ") + kEngineNames[i] +
             " diverges from linked";
    }
    if (es[i]->productions().size() != prods0) {
      return std::string("chunk set of ") + kEngineNames[i] +
             " diverges from linked";
    }
  }
  return "";
}

/// Replays the first `max_ops` ops of `seed`'s stream. Returns "" on
/// agreement; otherwise a description, with *fail_op set to the op index at
/// which the divergence was observed.
std::string run_seed(uint64_t seed, size_t max_ops, size_t* fail_op,
                     Tally* tally = nullptr) {
  // Declared first: the sinks must outlive the engines that call them.
  std::array<std::unique_ptr<test::YieldingSink>, kEngineNames.size()> sinks;
  Engines es;
  for (size_t i = 0; i < es.size(); ++i) {
    EngineOptions opts;
    opts.record_traces = i == 0;  // the linked reference
    opts.match_workers = kEngineWorkers[i];
    es[i] = std::make_unique<Engine>(opts);
    if (kEngineWorkers[i] > 1) {
      sinks[i] = std::make_unique<test::YieldingSink>(*es[i]->state().sink);
      es[i]->state().sink = sinks[i].get();
    }
    es[i]->load(kBaseProductions);
  }

  constexpr std::array<const char*, 3> kClasses = {"a", "b", "c"};
  Rng rng{seed};
  size_t chunks = 0;

  for (size_t op = 0; op < max_ops; ++op) {
    bool matched = true;  // the op drained every engine
    const uint32_t kind = rng.below(100);
    if (kind < 40) {
      const std::string text = std::string("(") + kClasses[rng.below(3)] +
                               " ^v " + std::to_string(rng.below(4)) + ")";
      for (auto& e : es) e->add_wme_text(text);
      matched = false;
    } else if (kind < 65) {
      // Remove the k-th live wme. live() is timetag-ordered and the engines
      // share the op history, so index k names the same wme in all five.
      const size_t n_live = es[0]->wm().live().size();
      if (n_live == 0) continue;
      const uint32_t k = rng.below(static_cast<uint32_t>(n_live));
      for (auto& e : es) e->remove_wme(e->wm().live()[k]);
      matched = false;
    } else if (kind < 75) {
      // Run-time production addition. Flush pending changes first so the
      // §5.2 update sees a WM the network has already matched.
      const std::string text = chunk_text(
          rng.below(4), "chunk-" + std::to_string(seed) + "-" +
                            std::to_string(chunks++));
      match_all(es, tally);
      for (size_t i = 0; i < es.size(); ++i) {
        Parser parser(es[i]->syms(), es[i]->schemas(), test_rhs_arena());
        auto parsed = parser.parse_file(text);
        const uint64_t n =
            es[i]->add_production_runtime(std::move(parsed[0])).update_tasks;
        if (tally != nullptr) tally->tasks[i] += n;
      }
    } else if (kind < 85) {
      // Run-time production removal: unsplice the k-th production (base and
      // run-time-added ones alike — productions() is in identical order on
      // every engine). The drain must leave all engines agreeing on CS,
      // left-memory population, WM and production set.
      const size_t n_prods = es[0]->productions().size();
      if (n_prods == 0) continue;
      const uint32_t k = rng.below(static_cast<uint32_t>(n_prods));
      match_all(es, tally);
      for (auto& e : es) e->remove_production_runtime(e->productions()[k]);
    } else {
      match_all(es, tally);
    }
    // The oracle first: it names the production and the tuple that differ.
    std::string diff = check_oracle(es);
    if (diff.empty() && matched) diff = compare_engines(es);
    if (!diff.empty()) {
      *fail_op = op;
      return diff;
    }
  }

  match_all(es, tally);
  std::string diff = check_oracle(es);
  if (diff.empty()) diff = compare_engines(es);
  if (!diff.empty()) *fail_op = max_ops;
  if (tally != nullptr) tally->activity += cs_fingerprint(*es[0]).size();
  return diff;
}

TEST(PolicyDifferential, AllPoliciesAgreeAcrossSeeds) {
  constexpr uint64_t kSeeds = 220;
  constexpr size_t kOpsPerSeed = 30;
  Tally tally;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    size_t fail_op = 0;
    const std::string what = run_seed(seed, kOpsPerSeed, &fail_op, &tally);
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
  EXPECT_GT(tally.activity, 100u);
  for (size_t i = 1; i < kEngineNames.size(); ++i) {
    if (kEngineWorkers[i] > 1) {
      EXPECT_GT(tally.shares[i], 0u) << kEngineNames[i] << " never shared";
    }
    EXPECT_LT(tally.tasks[i], tally.tasks[0])
        << kEngineNames[i] << " skipped no right activation";
  }
}

}  // namespace
}  // namespace psme
