// group_wave: 16 agent sessions over one AgentGroup (1 worker, steal
// executor) running bench_multiagent's join/negation/cross productions.
// Each step, for every agent: removal of every third of its live wmes, then
// one seeded wave over a small key range, both through the public Engine
// calls (span form of add_wme, remove_wme); then one step_all. op = one
// step. A block is kSteps steps on a freshly built group; set-up is the
// group's construction.
//
// After the timed blocks, each agent of the last block must hold the same
// conflict set as a standalone serial Engine fed the same waves, and the
// first block replayed on a fresh group must give the same exact counts.
#include <memory>
#include <set>
#include <string>

#include "bench.h"
#include "engine/agent_group.h"

namespace pb {
namespace {

using psme::AgentGroup;
using psme::Engine;
using psme::Symbol;
using psme::Value;
using psme::Wme;

constexpr size_t kAgents = 16;
constexpr int kSteps = 250;
constexpr int kWaveKeys = 6;
constexpr uint32_t kKeyRange = 13;

const char* const kProductions =
    "(p j2 (a ^v <x>) (b ^v <x>) --> (halt))"
    "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))"
    "(p neg (a ^v <x>) -(blocker ^v <x>) --> (halt))"
    "(p cross (a ^v <x>) (c ^w <y>) --> (halt))";

enum Cls : uint8_t { kA, kB, kC, kBlocker, kClasses };

struct Add {
  uint8_t cls = kA;
  uint8_t v = 0;
  uint8_t w = 0;
};

/// Waves of one block: adds[step * kAgents + agent].
struct BlockInputs {
  std::vector<std::vector<Add>> adds;
};

BlockInputs make_block(uint64_t seed, uint64_t block) {
  Rng rng(seed, 0xb10c000 + block);
  BlockInputs in;
  in.adds.resize(static_cast<size_t>(kSteps) * kAgents);
  for (auto& wave : in.adds) {
    for (int i = 0; i < kWaveKeys; ++i) {
      const auto v = static_cast<uint8_t>(rng.below(kKeyRange));
      wave.push_back({kA, v, 0});
      if (rng.below(2) == 0) wave.push_back({kB, v, 0});
      if (rng.below(3) == 0) {
        wave.push_back({kC, v, static_cast<uint8_t>(rng.below(kKeyRange))});
      }
      if (rng.below(8) == 0) wave.push_back({kBlocker, v, 0});
    }
  }
  return in;
}

/// Class symbols and slots, resolved once per network at set-up.
struct Classes {
  Symbol cls[kClasses];
  int arity[kClasses] = {};
  int slot_v[kClasses] = {};
  int slot_w = 0;
};

Classes bind(Engine& e) {
  static const char* const names[kClasses] = {"a", "b", "c", "blocker"};
  Classes c;
  const Symbol v = e.syms().intern("v");
  for (int k = 0; k < kClasses; ++k) {
    c.cls[k] = e.syms().intern(names[k]);
    c.slot_v[k] = e.schemas().slot(c.cls[k], v);
  }
  c.slot_w = e.schemas().slot(c.cls[kC], e.syms().intern("w"));
  for (int k = 0; k < kClasses; ++k) c.arity[k] = e.schemas().arity(c.cls[k]);
  return c;
}

/// One agent's part of a step: remove every third live wme, then add the
/// wave. `live` mirrors the agent's working memory in timetag order.
void apply_step(Engine& e, const Classes& c, std::vector<const Wme*>& live,
                const std::vector<Add>& adds) {
  size_t keep = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    if ((i + 1) % 3 == 0) {
      e.remove_wme(live[i]);
    } else {
      live[keep++] = live[i];
    }
  }
  live.resize(keep);
  Value f[4];
  for (const Add& a : adds) {
    for (Value& x : f) x = Value();
    f[c.slot_v[a.cls]] = Value(static_cast<int64_t>(a.v));
    if (a.cls == kC) f[c.slot_w] = Value(static_cast<int64_t>(a.w));
    live.push_back(e.add_wme(c.cls[a.cls], f, static_cast<size_t>(c.arity[a.cls])));
  }
}

std::multiset<std::string> cs_fingerprint(Engine& e) {
  std::multiset<std::string> out;
  for (const psme::Instantiation* inst : e.cs().all()) {
    std::string s(e.syms().name(inst->pnode->prod->name));
    for (const Wme* w : inst->token) {
      s += '|';
      s += w->to_string(e.syms(), e.schemas());
    }
    out.insert(std::move(s));
  }
  return out;
}

struct BlockCounts {
  uint64_t tasks = 0, chain_inline = 0, pool_slabs = 0, cs_size = 0;
  bool operator==(const BlockCounts&) const = default;
};

struct SpanNames {
  uint32_t step, wm_change, step_all;
};

struct LayerSamples {
  std::vector<double> wm_change_us, step_all_us, drain_us, overhead_us;
  uint64_t tasks = 0, chain_inline = 0;
};

struct Block {
  std::unique_ptr<AgentGroup> group;
  std::vector<std::vector<const Wme*>> live;
  BlockCounts counts;
};

Block run_block(const BlockInputs& in, PassResult& r, SpanLog* log,
                const SpanNames& nm, uint64_t& op_seq, LayerSamples& ls,
                bool timed) {
  Block b;
  const uint64_t t0 = now_ns();
  psme::AgentGroupOptions go;
  go.workers = 1;
  go.policy = psme::TaskQueueSet::Policy::Steal;
  b.group = std::make_unique<AgentGroup>(go);
  for (size_t a = 0; a < kAgents; ++a) b.group->add_agent();
  b.group->load(kProductions);
  const Classes cls = bind(b.group->agent(0));
  const uint64_t t1 = now_ns();
  if (timed) r.setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  b.live.resize(kAgents);

  uint64_t loop_ns = 0;
  for (int s = 0; s < kSteps; ++s) {
    ++op_seq;
    const uint32_t step = log != nullptr ? log->open(nm.step, kNoSpan, op_seq) : kNoSpan;
    const uint64_t s0 = now_ns();
    uint64_t wm_ns = 0;
    for (size_t a = 0; a < kAgents; ++a) {
      const uint64_t w0 = log != nullptr ? now_ns() : 0;
      const uint32_t wm = log != nullptr ? log->open(nm.wm_change, step, op_seq) : kNoSpan;
      apply_step(b.group->agent(a), cls, b.live[a],
                 in.adds[static_cast<size_t>(s) * kAgents + a]);
      if (log != nullptr) {
        const uint64_t w1 = now_ns();
        log->close(wm, w1);
        wm_ns += w1 - w0;
      }
    }
    const uint32_t sa = log != nullptr ? log->open(nm.step_all, step, op_seq) : kNoSpan;
    const uint64_t a0 = log != nullptr ? now_ns() : 0;
    const psme::ParallelStats st = b.group->step_all();
    const uint64_t s1 = now_ns();
    if (log != nullptr) {
      log->close(sa, s1);
      log->close(step, s1);
      const double all_us = static_cast<double>(s1 - a0) / 1e3;
      ls.wm_change_us.push_back(static_cast<double>(wm_ns) / 1e3);
      ls.step_all_us.push_back(all_us);
      ls.drain_us.push_back(st.wall_seconds * 1e6);
      ls.overhead_us.push_back(all_us - st.wall_seconds * 1e6);
      ls.tasks += st.tasks;
      ls.chain_inline += st.chain_inline;
    }
    loop_ns += s1 - s0;
    if (timed) {
      r.op_ms.push_back(static_cast<double>(s1 - s0) / 1e6);
      ++r.attempted;
    }
    b.counts.tasks += st.tasks;
    b.counts.chain_inline += st.chain_inline;
    b.counts.pool_slabs = st.pool_slabs;
  }
  if (timed) r.windows.push_back({kSteps, static_cast<double>(loop_ns) / 1e9});
  for (size_t a = 0; a < kAgents; ++a) b.counts.cs_size += b.group->agent(a).cs().size();
  return b;
}

/// Feeds a block's waves to standalone serial engines and compares every
/// agent's conflict set with the group's. Returns the agents that differ.
size_t check_against_serial(const BlockInputs& in, Block& b) {
  size_t bad = 0;
  for (size_t a = 0; a < kAgents; ++a) {
    Engine e;
    e.load(kProductions);
    const Classes cls = bind(e);
    std::vector<const Wme*> live;
    for (int s = 0; s < kSteps; ++s) {
      apply_step(e, cls, live, in.adds[static_cast<size_t>(s) * kAgents + a]);
      e.match();
    }
    if (cs_fingerprint(e) != cs_fingerprint(b.group->agent(a))) ++bad;
  }
  return bad;
}

}  // namespace

PassResult run_group_wave(const Config& cfg) {
  PassResult r;
  SpanLog* log = cfg.spans;
  SpanNames nm{};
  if (log != nullptr) {
    nm = {log->name_id("wave.step"), log->name_id("engine.wm_change"),
          log->name_id("par.step_all")};
  }
  uint64_t op_seq = 0;
  LayerSamples ls;

  {  // Warm-up block on inputs no timed block uses.
    PassResult scratch;
    LayerSamples unused;
    run_block(make_block(cfg.seed, ~0ull), scratch, nullptr, SpanNames{}, op_seq,
              unused, false);
  }

  BlockCounts first;
  Block last;
  BlockInputs last_in;
  CpuRotation cpus;  // one CPU per block
  const uint64_t start = now_ns();
  uint64_t block = 0;
  while (static_cast<double>(now_ns() - start) / 1e9 < cfg.seconds ||
         r.op_ms.size() < kMinOps) {
    cpus.next();
    last = Block{};  // tear the previous group down before building the next
    last_in = make_block(cfg.seed, block);
    last = run_block(last_in, r, log, nm, op_seq, ls, true);
    if (block == 0) first = last.counts;
    ++block;
  }
  r.threads = thread_count();
  r.peak_rss_mb = peak_rss_mb();

  if (const size_t bad = check_against_serial(last_in, last); bad > 0) {
    r.failed += kSteps;
    r.errors.push_back("group_wave: " + std::to_string(bad) +
                       " agents' conflict sets differ from a serial Engine");
  }
  last = Block{};
  {
    PassResult scratch;
    LayerSamples unused;
    const Block again = run_block(make_block(cfg.seed, 0), scratch, nullptr,
                                  SpanNames{}, op_seq, unused, false);
    if (!(again.counts == first)) {
      r.errors.push_back("group_wave: replaying block 0 changed its exact counts");
    }
  }

  r.counts["par.tasks"] = static_cast<double>(first.tasks);

  if (log != nullptr) {
    const auto layers = layer_totals(*log);
    const auto& step = layers.at("wave.step");
    auto& L = r.layers;
    L["engine.wm_change_us"] = median(ls.wm_change_us);
    L["par.step_all_us"] = median(ls.step_all_us);
    L["par.drain_us"] = median(ls.drain_us);
    L["par.overhead_us"] = median(ls.overhead_us);
    L["par.tasks"] = static_cast<double>(first.tasks) / kSteps;
    L["par.chain_inline_frac"] =
        ls.tasks > 0 ? static_cast<double>(ls.chain_inline) / static_cast<double>(ls.tasks)
                     : 0;
    L["par.pool_slabs"] = static_cast<double>(first.pool_slabs);
    // The step time its wm_change/step_all spans cover.
    r.accounted = step.total_ns > 0 ? 1.0 - static_cast<double>(step.self_ns) /
                                                static_cast<double>(step.total_ns)
                                    : 0;
  }
  return r;
}

}  // namespace pb
