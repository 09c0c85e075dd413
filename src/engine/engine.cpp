#include "engine/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "analysis/verify.h"

namespace psme {
namespace {

class CollectCtx final : public ExecContext {
 public:
  CollectCtx(std::vector<Activation>& out, uint32_t agent_tag) : out_(out) {
    agent = agent_tag;
  }
  void emit(Activation&& a) override { out_.push_back(std::move(a)); }

 private:
  std::vector<Activation>& out_;
};

}  // namespace

Engine::Engine(EngineOptions opts)
    : Engine(std::make_shared<CompiledNetwork>(
                 CompiledNetworkOptions{opts.builder}),
             opts, nullptr) {}

Engine::Engine(std::shared_ptr<CompiledNetwork> cnet, EngineOptions opts,
               ParallelMatcher* shared_matcher)
    : opts_(opts),
      cnet_(std::move(cnet)),
      state_(opts.hash_lines, opts.arena_chunk_bytes),
      rhs_(cnet_->syms(), cnet_->schemas()),
      external_matcher_(shared_matcher),
      serial_exec_(cnet_->net(), state_, opts.record_traces) {
  state_.sink = &cs_;
  state_.ensure_alpha(net().alpha_mem_count());
  if (opts_.trace.enabled) {
    tracer_ = std::make_unique<obs::Tracer>(opts_.trace);
    trace_sink_ = tracer_.get();
    serial_exec_.set_tracer(trace_sink_, 0);
  }
  if (opts_.profile && external_matcher_ == nullptr) {
    // Attach mode leaves profiling to the group's shared profiler
    // (set_profiler): the shared matcher's workers can't write into a
    // per-agent profiler's shards without racing the other sessions.
    profiler_ = std::make_unique<obs::MatchProfiler>(opts_.profile_sample_shift);
    serial_exec_.set_profiler(profiler_.get());
  }
  if (external_matcher_ != nullptr) {
    agent_ = external_matcher_->register_agent(state_);
  }
  cnet_->attach(this);
}

Engine::~Engine() { cnet_->detach(this); }

void Engine::set_trace_sink(obs::Tracer* t, size_t track) {
  trace_sink_ = t != nullptr ? t : tracer_.get();
  trace_track_ = t != nullptr ? static_cast<uint32_t>(track) : 0;
  serial_exec_.set_tracer(trace_sink_, trace_track_);
}

std::vector<const Production*> Engine::load(std::string_view src) {
  auto out = cnet_->load(src);
  // §5.2 memory update for every attached agent that already holds wmes
  // (the common build-time load on empty WMs skips straight through).
  for (const Production* p : out) {
    const CompiledProduction& cp = cnet_->record(p).compiled;
    for (Engine* agent : cnet_->agents()) {
      const auto snapshot = agent->wm_.live();
      if (snapshot.empty()) continue;
      run_update_serial(net(), agent->state_, cp, snapshot,
                        agent->update_scratch_, agent->trace_sink_,
                        agent->trace_track_);
    }
#if PSME_NET_VERIFY
    debug_verify_after_add(p);
#endif
  }
  return out;
}

analysis::VerifyReport Engine::verify_network() const {
  return analysis::verify_network(cnet_->net(), &state_, cnet_->all_records());
}

void Engine::debug_verify_after_add(const Production* p) const {
  const analysis::VerifyReport rep = verify_network();
  if (rep.ok()) return;
  std::fprintf(stderr,
               "PSME_NET_VERIFY: invariant violation after adding '%s'\n%s",
               std::string(cnet_->syms().name(p->name)).c_str(),
               rep.to_string().c_str());
  std::abort();
}

ParallelMatcher& Engine::matcher() {
  if (external_matcher_ != nullptr) return *external_matcher_;
  if (!matcher_) {
    matcher_ = std::make_unique<ParallelMatcher>(
        net(), opts_.match_workers, tracer_.get(), opts_.steal,
        profiler_.get());
    matcher_->register_agent(state_);  // agent 0
  }
  return *matcher_;
}

Engine::RuntimeAddResult Engine::add_production_runtime(Production&& ast) {
  RuntimeAddResult res;
  const Production* p = cnet_->adopt(std::move(ast));
  obs::Span compile_span(trace_sink_, trace_track_,
                          obs::EventKind::ChunkCompile);
  // Copy-on-write splice + publish; the publish is this call's quiescent
  // safe point (no agent has a cycle in flight — quiescent-only contract).
  const CompiledProduction& cp = cnet_->compile_cow(p).compiled;
  compile_span.set_node(cp.first_new_id);
  compile_span.end();
  res.prod = p;
  res.compile_seconds = cp.compile_seconds;
  res.code_bytes = cp.code_bytes();
#if PSME_NET_VERIFY
  // compile_cow already verified the structure; re-verify against this
  // agent's state (stale-entry and lock-rank checks).
  debug_verify_after_add(p);
#endif
  // §5.2 state update for every attached agent, the learning agent first so
  // the returned traces are its own. A learning agent therefore never
  // blocks a peer's *matching* (the publish is the only shared mutation);
  // peers pay only their own memory fill, at their next safe point — here,
  // since the whole group is quiescent during a runtime add.
  res.update_tasks += apply_runtime_update(cp, &res);
  for (Engine* agent : cnet_->agents()) {
    if (agent == this) continue;
    res.update_tasks += agent->apply_runtime_update(cp, nullptr);
  }
  return res;
}

uint64_t Engine::apply_runtime_update(const CompiledProduction& cp,
                                      RuntimeAddResult* res) {
  const auto wm_snapshot = wm_.live();
  std::vector<Activation> seeds;
  uint64_t tasks = 0;
  if (parallel()) {
    // The §5.2 state update with full match parallelism (Figure 6-9's
    // regime): phases A and B under the task filter, then the
    // last-shared-node replay once both have drained.
    ParallelMatcher& m = matcher();
    {
      obs::Span span(trace_sink_, trace_track_, obs::EventKind::UpdateA,
                     cp.first_new_id);
      seeds = update_alpha_seeds(net(), cp, wm_snapshot, agent_);
      tasks += m.run_update(seeds, {cp.first_new_id, true}).tasks;
    }
    {
      obs::Span span(trace_sink_, trace_track_, obs::EventKind::UpdateB,
                     cp.first_new_id);
      seeds = update_right_seeds(net(), state_, cp, agent_);
      tasks += m.run_update(seeds, {cp.first_new_id, false}).tasks;
    }
    {
      obs::Span span(trace_sink_, trace_track_, obs::EventKind::UpdateC,
                     cp.first_new_id);
      seeds = update_left_seeds(net(), state_, cp, agent_);
      tasks += m.run_update(seeds, {cp.first_new_id, false}).tasks;
    }
  } else {
    TraceExecutor ex(net(), state_, opts_.record_traces);
    ex.set_tracer(trace_sink_, trace_track_);
    // The §5.2 update IS the evaluation for a transient query: without the
    // profiler, a cue's new-node activations would be invisible to the
    // per-CE costing (query_demo --profile / bench_query).
    ex.set_profiler(profiler());
    ex.update_mode = true;
    ex.min_node_id = cp.first_new_id;

    ex.suppress_alpha_left = true;
    CycleTrace ab, c;
    {
      obs::Span span(trace_sink_, trace_track_, obs::EventKind::UpdateA,
                     cp.first_new_id);
      seeds = update_alpha_seeds(net(), cp, wm_snapshot, agent_);
      ab = ex.run_to_quiescence(seeds);
    }
    ex.suppress_alpha_left = false;
    {
      obs::Span span(trace_sink_, trace_track_, obs::EventKind::UpdateB,
                     cp.first_new_id);
      seeds = update_right_seeds(net(), state_, cp, agent_);
      ab.append(ex.run_to_quiescence(seeds));
    }
    {
      obs::Span span(trace_sink_, trace_track_, obs::EventKind::UpdateC,
                     cp.first_new_id);
      seeds = update_left_seeds(net(), state_, cp, agent_);
      c = ex.run_to_quiescence(seeds);
    }
    tasks = ex.executed();
    if (res != nullptr) {
      res->ab = std::move(ab);
      res->c = std::move(c);
    }
  }
  return tasks;
}

Engine::RuntimeRemoveResult Engine::remove_production_runtime(
    const Production* p) {
  RuntimeRemoveResult res;
#if PSME_NET_VERIFY
  // The AST dies in finish_removal; keep the name for diagnostics.
  const std::string name(cnet_->syms().name(p->name));
#endif
  obs::Span remove_span(trace_sink_, trace_track_,
                        obs::EventKind::ProdRemove);
  // Plan + unsplice under COW; the publish inside is the safe point. Past
  // it the victim can never fire, but its nodes are still alive — agents
  // drain their state against them before anything is freed.
  const RemovePlan plan = cnet_->unsplice_cow(p, &res.refs_unspliced);
  remove_span.set_node(plan.pnode);
  const auto* pnode = static_cast<const ProdNode*>(net().node(plan.pnode));
  for (Engine* agent : cnet_->agents()) {
    // Beta memories: erase_left unpins each drained token, which is what
    // lets the next epoch boundary reclaim the dead partial instantiations.
    const auto counts = agent->state_.tables.purge_nodes(plan.dead_mask);
    res.left_entries += counts.left;
    res.right_entries += counts.right;
    for (uint32_t mi : plan.dead_alpha_mems) {
      // An agent that never matched since the add may not have grown its
      // alpha array to cover this index yet — nothing to drain then.
      if (mi >= agent->state_.alpha_count()) continue;
      AlphaMemState& ams = agent->state_.alpha(mi);
      SpinGuard g(ams.lock);
      res.alpha_wmes += ams.wmes.size();
      ams.wmes.clear(agent->state_.alpha_pool);
    }
    res.instantiations += agent->cs_.purge_production(pnode);
  }
  res.nodes_removed = plan.dead_nodes.size();
  cnet_->finish_removal(plan, p);
  remove_span.end();
#if PSME_NET_VERIFY
  debug_verify_after_remove(name);
#endif
  return res;
}

void Engine::debug_verify_after_remove(const std::string& name) const {
  // The drain touched every attached agent's state, so every agent's view
  // must be clean — not just the remover's (contrast debug_verify_after_add,
  // where only the compile structure and the caller's state changed).
  for (Engine* agent : cnet_->agents()) {
    const analysis::VerifyReport rep = agent->verify_network();
    if (rep.ok()) continue;
    std::fprintf(stderr,
                 "PSME_NET_VERIFY: invariant violation after removing '%s' "
                 "(agent %u)\n%s",
                 name.c_str(), agent->agent_id(), rep.to_string().c_str());
    std::abort();
  }
}

const Wme* Engine::add_wme(Symbol cls, const Value* fields, size_t n) {
  const Wme* w = wm_.add(cls, fields, n);
  pending_adds_.push_back(w);
  return w;
}

const Wme* Engine::add_wme_text(std::string_view text) {
  const auto toks = lex(text);
  size_t i = 0;
  auto expect = [&](Tok k, const char* what) {
    if (toks[i].kind != k) {
      throw ParseError(std::string("wme literal: expected ") + what,
                       toks[i].line);
    }
    return toks[i++];
  };
  expect(Tok::LParen, "'('");
  const LexToken cls_tok = expect(Tok::Sym, "class name");
  const Symbol cls = syms().intern(cls_tok.text);
  std::vector<Value> fields(static_cast<size_t>(schemas().arity(cls)));
  while (toks[i].kind == Tok::Hat) {
    const Symbol attr = syms().intern(toks[i++].text);
    const int slot = schemas().slot(cls, attr);
    if (slot >= static_cast<int>(fields.size())) {
      fields.resize(static_cast<size_t>(slot) + 1);
    }
    Value v;
    switch (toks[i].kind) {
      case Tok::Sym: v = Value(syms().intern(toks[i].text)); break;
      case Tok::Int: v = Value(toks[i].int_val); break;
      case Tok::Float: v = Value(toks[i].float_val); break;
      default:
        throw ParseError("wme literal: expected constant value", toks[i].line);
    }
    ++i;
    fields[static_cast<size_t>(slot)] = v;
  }
  expect(Tok::RParen, "')'");
  return add_wme(cls, std::move(fields));
}

void Engine::remove_wme(const Wme* w) {
  if (!wm_.remove(w)) return;
  // A wme added and removed within the same batch never reaches the network:
  // cancel the pending add instead of queuing a retraction that would be
  // injected before the add.
  auto it = std::find(pending_adds_.begin(), pending_adds_.end(), w);
  if (it != pending_adds_.end()) {
    pending_adds_.erase(it);
    return;
  }
  pending_removes_.push_back(w);
}

void Engine::collect_seeds(bool adds, std::vector<Activation>& out) {
  CollectCtx cc(out, agent_);
  const auto& pend = adds ? pending_adds_ : pending_removes_;
  for (const Wme* w : pend) net().inject(w, adds, cc);
}

void Engine::end_group_cycle() {
  pending_removes_.clear();
  pending_adds_.clear();
  wm_.end_cycle();
}

CycleTrace Engine::match() {
  CycleTrace trace;
  obs::Span cycle_span(trace_sink_, trace_track_,
                       obs::EventKind::MatchCycle);
  std::vector<Activation>& seeds = seed_scratch_;  // capacity reused per cycle
  seeds.clear();
  if (parallel()) {
    // Threaded drain on the persistent matcher; no per-task trace. The
    // cycle's removals drain to quiescence before its additions: a delete
    // token racing a sibling addition is order-dependent (a join can install
    // a new PI behind a delete token that already passed that memory), so
    // each threaded drain gets a homogeneous seed batch. Serial injection
    // order (removes first) makes the final state identical.
    CollectCtx cc(seeds, agent_);
    for (const Wme* w : pending_removes_) net().inject(w, false, cc);
    ParallelStats total;
    if (!seeds.empty() || pending_adds_.empty()) {
      obs::Span span(trace_sink_, trace_track_,
                     obs::EventKind::DrainRemoves);
      total = matcher().run_cycle(seeds);
      seeds.clear();
    }
    if (!pending_adds_.empty()) {
      obs::Span span(trace_sink_, trace_track_,
                     obs::EventKind::DrainAdds);
      for (const Wme* w : pending_adds_) net().inject(w, true, cc);
      total.accumulate(matcher().run_cycle(seeds));
    }
    last_parallel_stats_ = total;
  } else {
    CollectCtx cc(seeds, agent_);
    for (const Wme* w : pending_removes_) net().inject(w, false, cc);
    for (const Wme* w : pending_adds_) net().inject(w, true, cc);
    state_.arena.begin_drain(1);
    trace = serial_exec_.run_to_quiescence(seeds);
    state_.arena.reclaim_at_quiescence();
  }
  pending_removes_.clear();
  pending_adds_.clear();
  wm_.end_cycle();
  return trace;
}

void Engine::apply_delta(const WmeDelta& delta, bool dedup_adds) {
  for (const auto& add : delta.adds) {
    if (dedup_adds &&
        wm_.find(add.cls, add.fields.data(), add.fields.size()) != nullptr) {
      continue;
    }
    add_wme(add.cls, add.fields.data(), add.fields.size());
  }
  for (const Wme* w : delta.removes) remove_wme(w);
  for (const auto& s : delta.writes) output_.push_back(s);
}

WmeDelta Engine::evaluate(const Instantiation* inst) {
  const CompiledProduction& cp = record(inst->pnode->prod).compiled;
  WmeDelta delta;
  rhs_.fire(cp, inst->token, delta);
  return delta;
}

bool Engine::fire(const Instantiation* inst, bool remove_after_fire,
                  bool dedup_adds) {
  const CompiledProduction& cp = record(inst->pnode->prod).compiled;
  fire_delta_.reset();  // persistent delta: slot capacity reused every fire
  rhs_.fire(cp, inst->token, fire_delta_);
  cs_.mark_fired(inst);
  if (remove_after_fire) cs_.remove(inst);
  apply_delta(fire_delta_, dedup_adds);
  return fire_delta_.halt;
}

void Engine::collect_metrics(obs::MetricsRegistry& m) const {
  if (parallel()) {
    // Includes the arena snapshot taken at the end of the last cycle.
    obs::collect(m, last_parallel_stats_);
  } else {
    obs::collect(m, state_.arena.stats());
  }
  if (tracer_ != nullptr) obs::collect(m, *tracer_);
  // Own profiler only: a group-shared profiler holds every session's cells
  // and is collected once by the group, not once per agent.
  if (profiler_ != nullptr) obs::collect(m, *profiler_);
}

Engine::RunResult Engine::run(uint64_t max_cycles) {
  RunResult res;
  match();
  while (res.cycles < max_cycles) {
    const Instantiation* inst = cs_.select_lex();
    if (inst == nullptr) break;
    ++res.cycles;
    const bool halted = fire(inst, /*remove_after_fire=*/true,
                             /*dedup_adds=*/false);
    if (halted) {
      res.halted = true;
      break;
    }
    match();
  }
  return res;
}

}  // namespace psme
