#include "engine/engine.h"

#include <algorithm>
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
    : Engine(std::make_shared<CompiledNetwork>(opts.builder), opts, nullptr) {}

// Attach mode never owns an instrument: the shared matcher's workers can't
// write into a per-agent tracer or profiler without racing the other
// sessions, so the engine borrows the matcher's and ignores its options.
Engine::Engine(std::shared_ptr<CompiledNetwork> cnet, EngineOptions opts,
               ParallelMatcher* shared_matcher)
    : opts_(opts),
      cnet_(std::move(cnet)),
      state_(/*unlink_joins=*/!opts.record_traces),
      rhs_(cnet_->syms(), cnet_->schemas()),
      external_matcher_(shared_matcher),
      agent_(shared_matcher != nullptr ? shared_matcher->register_agent(state_)
                                       : 0),
      tracer_(shared_matcher == nullptr && opts.trace.enabled
                  ? std::make_unique<obs::Tracer>(opts.trace)
                  : nullptr),
      profiler_(shared_matcher == nullptr && opts.profile
                    ? std::make_unique<obs::MatchProfiler>(
                          opts.profile_sample_shift)
                    : nullptr),
      recorder_(cnet_->net(), state_,
                obs::TaskObserver(tracer(), track(), profiler(), 0)) {
  state_.sink = &cs_;
  state_.ensure_alpha(net().alpha_mem_count());
  state_.ensure_links(net().node_count());
  cnet_->attach(this);
}

Engine::~Engine() { cnet_->detach(this); }

std::vector<const Production*> Engine::load(std::string_view src) {
  return cnet_->load(src);
}

analysis::VerifyReport Engine::verify_network() const {
  return analysis::verify_network(cnet_->net(), &state_, cnet_->all_records());
}

ParallelMatcher& Engine::matcher() {
  if (external_matcher_ != nullptr) return *external_matcher_;
  if (!matcher_) {
    matcher_ = std::make_unique<ParallelMatcher>(
        net(), opts_.match_workers, tracer_.get(), profiler_.get());
    matcher_->register_agent(state_);  // agent 0
  }
  return *matcher_;
}

Engine::RuntimeAddResult Engine::add_production_runtime(Production&& ast) {
  RuntimeAddResult res;
  obs::Span compile_span(tracer(), track(), obs::EventKind::ChunkCompile);
  // Spliced into the live network in place: no agent has a cycle in flight
  // (quiescent-only contract), so no match task sees the edit.
  const AddRecord& rec = cnet_->compile(std::move(ast));
  const CompiledProduction& cp = rec.compiled;
  compile_span.set_node(cp.pnode);
  compile_span.end();
  res.prod = rec.ast;
  res.compile_seconds = cp.compile_seconds;
  res.code_bytes = cp.code_bytes();
  // §5.2 state update for every attached agent, the learning agent first so
  // the returned traces are its own; the whole group is quiescent during a
  // runtime add, so each peer fills its own memories here.
  res.update_tasks += apply_runtime_update(cp, &res);
  for (Engine* agent : cnet_->agents()) {
    if (agent == this) continue;
    res.update_tasks += agent->apply_runtime_update(cp, nullptr);
  }
#if PSME_NET_VERIFY
  cnet_->verify_or_abort("adding", rec.ast->name);
#endif
  return res;
}

uint64_t Engine::apply_runtime_update(const CompiledProduction& cp,
                                      RuntimeAddResult* res) {
  // The §5.2 state update drains through the same executor as this
  // session's match cycles — with full match parallelism on a wide matcher
  // (Figure 6-9's regime).
  const auto wm_snapshot = wm_.live();
  Drain& drain =
      records_traces() ? static_cast<Drain&>(recorder_) : matcher();
  const UpdateTasks n = run_update(drain, net(), state_, cp, wm_snapshot,
                                   agent_, update_scratch_, tracer(), track());
  if (records_traces()) {
    // Always taken, so a peer's update DAG never leaks into its next cycle.
    CycleTrace dag = recorder_.take_trace();
    if (res != nullptr) {
      res->c = dag.split_off(n.ab);
      res->ab = std::move(dag);
    }
  }
  return n.total();
}

Engine::RuntimeRemoveResult Engine::remove_production_runtime(
    const Production* p) {
  RuntimeRemoveResult res;
#if PSME_NET_VERIFY
  const Symbol name = p->name;  // the AST dies in finish_removal
#endif
  obs::Span remove_span(tracer(), track(), obs::EventKind::ProdRemove);
  // Plan + unsplice in place. Past it the victim can never fire, but its
  // nodes are still alive — agents drain their state against them before
  // anything is freed.
  const RemovePlan plan = cnet_->unsplice(p, &res.refs_unspliced);
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
    for (uint32_t id : plan.dead_nodes) agent->state_.reset_link(id);
    // The dead ids are about to be recycled; a reused id's cell starts at
    // zero. (Agents of one group share a profiler: zeroing twice is fine.)
    if (obs::MatchProfiler* prof = agent->profiler()) {
      prof->forget_nodes(plan.dead_nodes);
    }
  }
  res.nodes_removed = plan.dead_nodes.size();
  cnet_->finish_removal(plan, p);
  remove_span.end();
#if PSME_NET_VERIFY
  cnet_->verify_or_abort("removing", name);
#endif
  return res;
}

const Wme* Engine::add_wme(Symbol cls, const Value* fields, size_t n) {
  const Wme* w = wm_.add(cls, fields, n);
  pending_adds_.push_back(w);
  return w;
}

const Wme* Engine::add_wme_text(std::string_view text) {
  Lexer lx(text);
  LexToken t = lx.next();
  auto expect = [&](Tok k, const char* what) {
    if (t.kind != k) {
      throw ParseError(std::string("wme literal: expected ") + what, t.line);
    }
    const LexToken got = t;
    t = lx.next();
    return got;
  };
  expect(Tok::LParen, "'('");
  const Symbol cls = syms().intern(expect(Tok::Sym, "class name").text);
  std::vector<Value>& fields = text_fields_;
  fields.assign(static_cast<size_t>(schemas().arity(cls)), Value());
  while (t.kind == Tok::Hat) {
    const Symbol attr = syms().intern(t.text);
    const int slot = schemas().slot(cls, attr);
    if (slot >= static_cast<int>(fields.size())) {
      fields.resize(static_cast<size_t>(slot) + 1);
    }
    t = lx.next();
    Value v;
    switch (t.kind) {
      case Tok::Sym: v = Value(syms().intern(t.text)); break;
      case Tok::Int: v = Value(t.int_val); break;
      case Tok::Float: v = Value(t.float_val); break;
      default:
        throw ParseError("wme literal: expected constant value", t.line);
    }
    t = lx.next();
    fields[static_cast<size_t>(slot)] = v;
  }
  expect(Tok::RParen, "')'");
  // One literal per call: a second one would otherwise be dropped unseen.
  if (t.kind != Tok::End) {
    throw ParseError("wme literal: unexpected text after ')'", t.line);
  }
  return add_wme(cls, fields);
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
  counters_.accumulate(cc.counters);
}

void Engine::end_cycle() {
  pending_removes_.clear();
  pending_adds_.clear();
  wm_.end_cycle();
}

ParallelStats Engine::drain_on_matcher(ParallelMatcher& m,
                                       std::span<Engine* const> agents,
                                       std::vector<Activation>& seeds,
                                       size_t track) {
  // The removals drain to quiescence before the additions: a delete token
  // racing a sibling addition is order-dependent (a join can install a new
  // PI behind a delete token that already passed that memory), so each
  // drain gets a homogeneous seed batch. The recorder's injection order
  // (removes first) makes the final state identical. Seeds may mix agents:
  // each tagged task touches only its own agent's state.
  seeds.clear();
  for (Engine* a : agents) a->collect_seeds(false, seeds);
  const size_t n_removes = seeds.size();
  for (Engine* a : agents) a->collect_seeds(true, seeds);
  const ParallelStats total = m.run_match(seeds, n_removes, track);
  for (Engine* a : agents) {
    a->end_cycle();
    a->last_parallel_stats_ = total;
    a->counters_.accumulate(total.counters);
  }
  return total;
}

CycleTrace Engine::match() {
  obs::Span cycle_span(tracer(), track(), obs::EventKind::MatchCycle);
  std::vector<Activation>& seeds = seed_scratch_;  // capacity reused per cycle
  if (!records_traces()) {
    Engine* self = this;
    last_match_tasks_ =
        drain_on_matcher(matcher(), {&self, 1}, seeds, track()).tasks;
    return {};
  }
  seeds.clear();
  collect_seeds(false, seeds);
  collect_seeds(true, seeds);
  last_match_tasks_ = recorder_.drain(seeds, {});
  end_cycle();
  return recorder_.take_trace();
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

void Engine::evaluate(const Instantiation* inst, WmeDelta& delta) {
  const CompiledProduction& cp = record(inst->pnode->prod).compiled;
  delta.reset();
  rhs_.fire(cp, inst->token, delta);
}

bool Engine::fire(const Instantiation* inst, bool remove_after_fire,
                  bool dedup_adds) {
  evaluate(inst, fire_delta_);  // persistent delta: slot capacity reused
  cs_.mark_fired(inst);
  if (remove_after_fire) cs_.remove(inst);
  apply_delta(fire_delta_, dedup_adds);
  return fire_delta_.halt;
}

void Engine::collect_metrics(obs::MetricsRegistry& m) const {
  if (!records_traces()) obs::collect(m, last_parallel_stats_);
  obs::collect(m, state_.arena.stats());
  obs::collect(m, match_counters());
  if (tracer_ != nullptr) obs::collect(m, *tracer_);
  // Own profiler only: a group-shared profiler holds every session's cells
  // and is collected once by the group, not once per agent.
  if (profiler_ != nullptr) obs::collect(m, *profiler_);
}

MatchCounters Engine::match_counters() const {
  MatchCounters c = counters_;
  c.accumulate(recorder_.counters);
  return c;
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
