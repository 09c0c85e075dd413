// Property-based sweeps over randomized workloads:
//  * Rete invariant: after any sequence of adds/deletes, the conflict set
//    equals the from-scratch match of the surviving wmes;
//  * incremental production addition == rebuild, under random batches;
//  * serial == parallel for random workloads.
// After each case's final match, every engine it built must also agree with
// the independent matcher of tests/oracle.h.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "engine/engine.h"
#include "lang/parser.h"
#include "oracle.h"
#include "par/parallel_match.h"
#include "test_util.h"

namespace psme {
namespace {

using test::cs_fingerprint;

const char* kProductions =
    "(p r1 (a ^v <x>) (b ^v <x>) --> (halt))"
    "(p r2 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))"
    "(p r3 (a ^v <x>) -(b ^v <x>) --> (halt))"
    "(p r4 (b ^v <x>) (c ^w <x>) --> (halt))"
    "(p r5 (a ^v <x>) -{ (b ^v <x>) (c ^v <x>) } --> (halt))"
    "(p r6 (c ^v <x> ^w <x>) --> (halt))"
    "(p r7 (a ^v { > 2 <x> }) (b ^v < <x>) --> (halt))";

struct Op {
  bool add;
  std::string cls;
  int64_t v, w;
};

std::vector<Op> random_ops(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Op> ops;
  for (int i = 0; i < n; ++i) {
    Op op;
    op.add = ops.empty() || rng.chance(0.7);
    op.cls = std::array<const char*, 3>{"a", "b", "c"}[rng.below(3)];
    op.v = rng.range(0, 6);
    op.w = rng.range(0, 6);
    ops.push_back(op);
  }
  return ops;
}

/// Applies ops to an engine: adds create wmes; deletes remove a random live
/// wme (deterministically chosen).
void apply_ops(Engine& e, const std::vector<Op>& ops, uint64_t seed,
               bool match_each_step) {
  Rng rng(seed ^ 0xabcdef);
  for (const Op& op : ops) {
    if (op.add) {
      const Symbol cls = e.syms().intern(op.cls);
      // Schema: ensure slots v (0) and w (1) exist for class c.
      e.schemas().slot(cls, e.syms().intern("v"));
      if (op.cls == "c") e.schemas().slot(cls, e.syms().intern("w"));
      std::vector<Value> fields{Value(op.v)};
      if (op.cls == "c") fields.push_back(Value(op.w));
      e.add_wme(cls, std::move(fields));
    } else {
      const auto live = e.wm().live();
      if (!live.empty()) {
        e.remove_wme(live[rng.below(live.size())]);
      }
    }
    if (match_each_step) e.match();
  }
  e.match();
}

class ReteInvariant : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReteInvariant, IncrementalEqualsFromScratch) {
  const uint64_t seed = GetParam();
  const auto ops = random_ops(seed, 40);

  Engine inc;
  inc.load(kProductions);
  apply_ops(inc, ops, seed, /*match_each_step=*/true);

  // From scratch: replay only the surviving wmes into a fresh engine.
  Engine scratch;
  scratch.load(kProductions);
  for (const Wme* w : inc.wm().live()) {
    scratch.add_wme(w->cls.valid()
                        ? scratch.syms().intern(inc.syms().name(w->cls))
                        : Symbol(),
                    w->fields);
  }
  scratch.match();

  EXPECT_EQ(cs_fingerprint(inc), cs_fingerprint(scratch)) << "seed " << seed;
  // Memory-state sanity: there are no leaked right entries for dead wmes.
  EXPECT_EQ(inc.state().tables.total_right_entries(),
            scratch.state().tables.total_right_entries());
  EXPECT_EQ(test::oracle_diff(inc), "") << "seed " << seed;
  EXPECT_EQ(test::oracle_diff(scratch), "") << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReteInvariant,
                         ::testing::Range<uint64_t>(1, 13));

class IncrementalAddProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalAddProperty, AddAfterWmesEqualsBefore) {
  const uint64_t seed = GetParam();
  const auto ops = random_ops(seed, 30);
  const std::vector<std::string> prods = {
      "(p r1 (a ^v <x>) (b ^v <x>) --> (halt))",
      "(p r2 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))",
      "(p r3 (a ^v <x>) -(b ^v <x>) --> (halt))",
      "(p r5 (a ^v <x>) -{ (b ^v <x>) (c ^v <x>) } --> (halt))",
  };

  Engine ref;
  for (const auto& p : prods) ref.load(p);
  apply_ops(ref, ops, seed, false);

  Engine inc;
  inc.load(prods[0]);  // only the first production up front
  apply_ops(inc, ops, seed, false);
  for (size_t i = 1; i < prods.size(); ++i) {
    Parser parser(inc.syms(), inc.schemas(), test::test_rhs_arena());
    inc.add_production_runtime(parser.parse_production(prods[i]));
  }
  EXPECT_EQ(cs_fingerprint(ref), cs_fingerprint(inc)) << "seed " << seed;
  EXPECT_EQ(test::oracle_diff(ref), "") << "seed " << seed;
  EXPECT_EQ(test::oracle_diff(inc), "") << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalAddProperty,
                         ::testing::Range<uint64_t>(100, 110));

class SerialParallelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerialParallelProperty, ParallelMatchesSerial) {
  const uint64_t seed = GetParam();
  const auto ops = random_ops(seed, 30);

  Engine serial;
  serial.load(kProductions);
  apply_ops(serial, ops, seed, false);

  Engine par;
  par.load(kProductions);
  // Apply the same surviving wmes, then run one big parallel cycle.
  struct Collector final : ExecContext {
    void emit(Activation&& a) override { seeds.push_back(std::move(a)); }
    std::vector<Activation> seeds;
  } collector;
  for (const Wme* w : serial.wm().live()) {
    const Wme* nw = par.wm().add(par.syms().intern(serial.syms().name(w->cls)),
                                 w->fields);
    par.net().inject(nw, true, collector);
  }
  ParallelMatcher matcher(par.net(), 1 + seed % 6);
  matcher.register_agent(par.state());
  matcher.run_cycle(collector.seeds);

  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(par)) << "seed " << seed;
  EXPECT_EQ(test::oracle_diff(serial), "") << "seed " << seed;
  EXPECT_EQ(test::oracle_diff(par), "") << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerialParallelProperty,
                         ::testing::Range<uint64_t>(200, 212));

}  // namespace
}  // namespace psme
