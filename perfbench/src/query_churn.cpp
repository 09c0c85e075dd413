// query_churn: two agent sessions over one AgentGroup (1 worker), each
// holding a seeded block-world episode of 24-48 blocks. Asks alternate
// between the sessions. op = one ask: QuerySession::begin + score + matches
// + end. After kAsksPerSession asks the benchmark builds a fresh group, so
// node-id history (ids are never reused) stays bounded per session.
//
// Every ask's score and full-match count is checked against values computed
// here from the generated episode, and every session must end with the
// network's live node count and the jumptable slots its nodes hold back where
// they were before its first ask.
#include <memory>
#include <string>

#include "bench.h"
#include "engine/agent_group.h"
#include "lang/parser.h"
#include "query/query.h"

namespace pb {
namespace {

using psme::AgentGroup;
using psme::Engine;
using psme::QuerySession;

constexpr int kAgents = 2;
constexpr int kAsksPerSession = 1000;
const char* const kColors[] = {"blue", "red", "green", "purple"};  // purple: never present

const char* const kResidents =
    "(p stack2 (block ^name <b> ^color blue) (block ^on <b>) --> (halt))"
    "(p stack3 (block ^name <b>) (block ^on <b> ^name <m>) (block ^on <m>) "
    "--> (halt))"
    "(p holder (gripper ^state free) (block ^name <b>) --> (halt))";

/// One agent's block world. Blocks form a forest: a block sits on an
/// earlier block, on a pyramid, or on nothing; the gripper is free or holds
/// one block.
struct Episode {
  std::vector<int> color;     // index into kColors (never purple)
  std::vector<int> on_block;  // -1: not on a block
  std::vector<int> on_pyr;    // -1: not on a pyramid
  int pyramids = 0;
  int holding = -1;
  std::vector<std::string> wmes;
};

std::string block_name(int agent, int i) {
  std::string s = "b";
  s += std::to_string(agent * 1000 + i);
  return s;
}

Episode make_episode(Rng& rng, int agent) {
  Episode ep;
  const int n = 24 + static_cast<int>(rng.below(25));
  ep.pyramids = rng.below(2) == 0 ? 0 : 1 + static_cast<int>(rng.below(3));
  for (int i = 0; i < n; ++i) {
    ep.color.push_back(static_cast<int>(rng.below(3)));
    int ob = -1, op = -1;
    if (i > 0 && rng.below(4) != 0) {
      ob = static_cast<int>(rng.below(static_cast<uint32_t>(i)));
    } else if (ep.pyramids > 0 && rng.below(2) == 0) {
      op = static_cast<int>(rng.below(static_cast<uint32_t>(ep.pyramids)));
    }
    ep.on_block.push_back(ob);
    ep.on_pyr.push_back(op);
  }
  if (rng.below(2) == 0) ep.holding = static_cast<int>(rng.below(static_cast<uint32_t>(n)));

  for (int j = 0; j < ep.pyramids; ++j) {
    ep.wmes.push_back("(pyramid ^name p" + std::to_string(agent * 100 + j) + ")");
  }
  for (int i = 0; i < n; ++i) {
    std::string w = "(block ^name " + block_name(agent, i) + " ^color " +
                    kColors[ep.color[static_cast<size_t>(i)]];
    if (ep.on_block[static_cast<size_t>(i)] >= 0) {
      w += " ^on " + block_name(agent, ep.on_block[static_cast<size_t>(i)]);
    } else if (ep.on_pyr[static_cast<size_t>(i)] >= 0) {
      w += " ^on p" + std::to_string(agent * 100 + ep.on_pyr[static_cast<size_t>(i)]);
    }
    ep.wmes.push_back(w + ")");
  }
  ep.wmes.push_back("(gripper ^name g" + std::to_string(agent) +
                    (ep.holding >= 0 ? " ^state busy ^holding " + block_name(agent, ep.holding)
                                     : std::string(" ^state free")) +
                    ")");
  return ep;
}

/// A cue with the answer the episode implies.
struct Cue {
  std::string text;
  uint32_t score = 0;  // longest CE prefix with a joint match
  uint32_t full = 0;   // full matches
};

/// Fills score/full from the number of joint matches of each CE prefix.
Cue answer(std::string text, const std::vector<uint64_t>& prefix_matches) {
  Cue c;
  c.text = std::move(text);
  for (const uint64_t m : prefix_matches) {
    if (m == 0) break;
    ++c.score;
  }
  c.full = static_cast<uint32_t>(prefix_matches.back());
  return c;
}

/// Five templates: two share prefixes with stack2 (when the colour is
/// blue), one with stack3, two build alpha structure no resident has.
/// Colour purple never occurs, so every template also yields misses.
Cue make_cue(Rng& rng, const Episode& ep) {
  const int c = static_cast<int>(rng.below(4));
  const std::string col = kColors[c];
  const int n = static_cast<int>(ep.color.size());
  auto color_of = [&](int i) { return ep.color[static_cast<size_t>(i)]; };
  auto on_of = [&](int i) { return ep.on_block[static_cast<size_t>(i)]; };
  uint64_t with_color = 0, on_colored = 0, on_block = 0, chain3 = 0, on_pyr = 0;
  for (int y = 0; y < n; ++y) {
    if (color_of(y) == c) ++with_color;
    const int x = on_of(y);
    if (x >= 0) {
      ++on_block;
      if (color_of(x) == c) ++on_colored;
    }
    if (ep.on_pyr[static_cast<size_t>(y)] >= 0) ++on_pyr;
  }
  for (int z = 0; z < n; ++z) {
    const int y = on_of(z);
    if (y >= 0 && on_of(y) >= 0 && color_of(z) == c) ++chain3;
  }
  const int h = ep.holding;
  switch (rng.below(5)) {
    case 0:
      return answer("(block ^name <b> ^color " + col + ") (block ^on <b> ^name <t>)",
                    {with_color, on_colored});
    case 1: {
      const uint64_t held = h >= 0 && on_of(h) >= 0 && color_of(on_of(h)) == c;
      return answer("(block ^name <b> ^color " + col +
                        ") (block ^on <b> ^name <t>) (gripper ^holding <t>)",
                    {with_color, on_colored, held});
    }
    case 2:
      return answer("(block ^name <b>) (block ^on <b> ^name <m>) (block ^on <m> ^color " +
                        col + ")",
                    {static_cast<uint64_t>(n), on_block, chain3});
    case 3:
      return answer("(pyramid ^name <p>) (block ^on <p>)",
                    {static_cast<uint64_t>(ep.pyramids), on_pyr});
    default:
      // A free gripper has no ^holding value, and a variable binds that nil
      // too: the first CE always matches the one gripper.
      return answer("(gripper ^holding <h>) (block ^name <h> ^color " + col + ")",
                    {1u, h >= 0 && color_of(h) == c ? 1u : 0u});
  }
}

struct SessionInputs {
  Episode ep[kAgents];
  std::vector<Cue> cues;  // ask i goes to agent i % kAgents
};

SessionInputs make_session(uint64_t seed, uint64_t session) {
  Rng rng(seed, 0x5e55000 + session);
  SessionInputs in;
  for (int a = 0; a < kAgents; ++a) in.ep[a] = make_episode(rng, a);
  in.cues.reserve(kAsksPerSession);
  for (int i = 0; i < kAsksPerSession; ++i) {
    in.cues.push_back(make_cue(rng, in.ep[i % kAgents]));
  }
  return in;
}

/// Exact counts of one session (the guard compares two sessions that got
/// the same inputs).
struct SessionCounts {
  uint64_t update_tasks = 0, remove_nodes = 0, remove_refs = 0,
           drain_entries = 0, node_ids = 0, live_nodes = 0;
  bool operator==(const SessionCounts&) const = default;
};

struct SpanNames {
  uint32_t cue_parse, ask, begin, read, end;
};

/// Per-ask layer samples of the traced pass.
struct LayerSamples {
  std::vector<double> cue_parse_us, compile_us;
  uint64_t shared = 0, fresh = 0;
};

SessionCounts run_session(const SessionInputs& in, PassResult& r, SpanLog* log,
                          const SpanNames& nm, uint64_t& op_seq,
                          LayerSamples& ls, bool timed) {
  const uint64_t t0 = now_ns();
  psme::AgentGroupOptions go;
  go.workers = 1;
  go.policy = psme::TaskQueueSet::Policy::Steal;
  auto group = std::make_unique<AgentGroup>(go);
  for (int a = 0; a < kAgents; ++a) group->add_agent();
  group->load(kResidents);
  for (int a = 0; a < kAgents; ++a) {
    for (const std::string& w : in.ep[a].wmes) group->agent(static_cast<size_t>(a)).add_wme_text(w);
  }
  group->step_all();
  std::unique_ptr<QuerySession> qs[kAgents];
  for (int a = 0; a < kAgents; ++a) {
    qs[a] = std::make_unique<QuerySession>(group->agent(static_cast<size_t>(a)));
  }
  const uint64_t t1 = now_ns();
  if (timed) r.setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);

  const psme::Network& net = group->network().net();
  const uint32_t live0 = net.live_node_count();
  // Jumptable slots held by nodes: class roots (made once per class, e.g.
  // by the first cue naming a class the episode lacks) are not nodes.
  auto node_slots = [&net] {
    return net.jumptable().size() - net.free_slot_count() - net.roots().size();
  };
  const size_t slots0 = node_slots();

  // The traced pass times the cue parse on its own tables, outside any op.
  psme::SymbolTable syms;
  psme::ClassSchemas schemas;
  psme::RhsArena arena;
  psme::Parser parser(syms, schemas, arena);

  SessionCounts sc;
  uint64_t loop_ns = 0;
  for (int i = 0; i < kAsksPerSession; ++i) {
    const Cue& cue = in.cues[static_cast<size_t>(i)];
    QuerySession& q = *qs[i % kAgents];
    if (log != nullptr) {
      const std::string src = "(p cue " + cue.text + "\n --> (halt))";
      Scope s(log, nm.cue_parse, kNoSpan, 0);
      const uint64_t p0 = now_ns();
      [[maybe_unused]] const psme::Production p = parser.parse_production(src);
      ls.cue_parse_us.push_back(static_cast<double>(now_ns() - p0) / 1e3);
    }
    ++op_seq;
    const uint32_t ask = log != nullptr ? log->open(nm.ask, kNoSpan, op_seq) : kNoSpan;
    const uint64_t a0 = now_ns();
    Engine::RuntimeAddResult add;
    {
      Scope s(log, nm.begin, ask, op_seq);
      add = q.begin(cue.text);
    }
    if (log != nullptr) {
      const auto& cp = group->agent(static_cast<size_t>(i % kAgents)).record(add.prod).compiled;
      ls.shared += cp.shared_nodes.size();
      ls.fresh += cp.new_nodes.size();
    }
    uint32_t score = 0;
    size_t full = 0;
    {
      Scope s(log, nm.read, ask, op_seq);
      score = q.score();
      full = q.matches().size();
    }
    Engine::RuntimeRemoveResult rem;
    {
      Scope s(log, nm.end, ask, op_seq);
      rem = q.end();
    }
    const uint64_t a1 = now_ns();
    if (log != nullptr) log->close(ask, a1);
    loop_ns += a1 - a0;

    if (timed) {
      r.op_ms.push_back(static_cast<double>(a1 - a0) / 1e6);
      ++r.attempted;
    }
    if (score != cue.score || full != cue.full) {
      if (timed) ++r.failed;
      if (r.errors.size() < 20) {
        r.errors.push_back("query_churn: cue \"" + cue.text + "\" gave score " +
                           std::to_string(score) + " / " + std::to_string(full) +
                           " matches, expected " + std::to_string(cue.score) +
                           " / " + std::to_string(cue.full));
      }
    }
    if (log != nullptr) ls.compile_us.push_back(add.compile_seconds * 1e6);
    sc.update_tasks += add.update_tasks;
    sc.remove_nodes += rem.nodes_removed;
    sc.remove_refs += rem.refs_unspliced;
    sc.drain_entries +=
        rem.left_entries + rem.right_entries + rem.alpha_wmes + rem.instantiations;
  }
  if (timed) r.windows.push_back({kAsksPerSession, static_cast<double>(loop_ns) / 1e9});

  sc.node_ids = net.node_count();
  sc.live_nodes = net.live_node_count();
  const size_t slots1 = node_slots();
  if (sc.live_nodes != live0 || slots1 != slots0) {
    r.errors.push_back("query_churn: session left residue: live nodes " +
                       std::to_string(live0) + " -> " + std::to_string(sc.live_nodes) +
                       ", node jumptable slots " + std::to_string(slots0) + " -> " +
                       std::to_string(slots1));
  }
  return sc;
}

}  // namespace

PassResult run_query_churn(const Config& cfg) {
  PassResult r;
  SpanLog* log = cfg.spans;
  SpanNames nm{};
  if (log != nullptr) {
    nm = {log->name_id("lang.parse_production"), log->name_id("query.ask"),
          log->name_id("query.begin"), log->name_id("query.read"),
          log->name_id("query.end")};
  }
  uint64_t op_seq = 0;
  LayerSamples ls;

  {  // Warm-up session on inputs no timed session uses.
    PassResult scratch;
    LayerSamples unused;
    run_session(make_session(cfg.seed, ~0ull), scratch, nullptr, SpanNames{},
                op_seq, unused, false);
    r.errors.insert(r.errors.end(), scratch.errors.begin(), scratch.errors.end());
  }

  SessionCounts first;
  CpuRotation cpus;  // one CPU per session
  const uint64_t start = now_ns();
  uint64_t session = 0;
  while (static_cast<double>(now_ns() - start) / 1e9 < cfg.seconds ||
         r.op_ms.size() < kMinOps) {
    cpus.next();
    const SessionInputs in = make_session(cfg.seed, session);
    const SessionCounts sc = run_session(in, r, log, nm, op_seq, ls, true);
    if (session == 0) first = sc;
    ++session;
  }
  r.threads = thread_count();
  r.peak_rss_mb = peak_rss_mb();

  // The first session again, untimed: same inputs must give the same counts.
  {
    PassResult scratch;
    LayerSamples unused;
    const SessionCounts again = run_session(make_session(cfg.seed, 0), scratch, nullptr,
                                            SpanNames{}, op_seq, unused, false);
    r.errors.insert(r.errors.end(), scratch.errors.begin(), scratch.errors.end());
    if (!(again == first)) {
      r.errors.push_back("query_churn: replaying session 0 changed its exact counts");
    }
  }

  r.counts["rete.cue_update_tasks"] = static_cast<double>(first.update_tasks);
  r.counts["rete.remove_nodes"] = static_cast<double>(first.remove_nodes);
  r.counts["rete.node_ids"] = static_cast<double>(first.node_ids);

  if (log != nullptr) {
    const auto layers = layer_totals(*log);
    auto& L = r.layers;
    const auto& begin = layers.at("query.begin");
    const auto& read = layers.at("query.read");
    const auto& end = layers.at("query.end");
    const auto& ask = layers.at("query.ask");
    L["lang.cue_parse_us"] = median(ls.cue_parse_us);
    L["rete.cue_compile_us"] = median(ls.compile_us);
    L["rete.cue_update_tasks"] = static_cast<double>(first.update_tasks);
    L["rete.cue_shared_frac"] =
        ls.shared + ls.fresh > 0
            ? static_cast<double>(ls.shared) / static_cast<double>(ls.shared + ls.fresh)
            : 0;
    L["rete.remove_nodes"] = static_cast<double>(first.remove_nodes);
    L["rete.remove_refs"] = static_cast<double>(first.remove_refs);
    L["rete.node_ids"] = static_cast<double>(first.node_ids);
    L["rete.live_nodes"] = static_cast<double>(first.live_nodes);
    L["engine.drain_entries"] = static_cast<double>(first.drain_entries);
    L["query.begin_us"] = median(begin.dur_us);
    L["query.read_us"] = median(read.dur_us);
    L["query.end_us"] = median(end.dur_us);
    L["query.end_us_p99"] = percentile(end.dur_us, 0.99);
    // The ask time its begin/read/end spans cover.
    r.accounted = ask.total_ns > 0 ? 1.0 - static_cast<double>(ask.self_ns) /
                                               static_cast<double>(ask.total_ns)
                                   : 0;
  }
  return r;
}

}  // namespace pb
