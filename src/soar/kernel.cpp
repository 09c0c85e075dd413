#include "soar/kernel.h"

#include <algorithm>

#include "lang/print.h"
#include "obs/tracer.h"
#include "soar/chunker.h"

namespace psme {

SoarKernel::SoarKernel(SoarOptions opts) : opts_(opts), engine_(opts.engine) {
  init();
}

SoarKernel::SoarKernel(SoarOptions opts, std::shared_ptr<CompiledNetwork> cnet,
                       ParallelMatcher* shared_matcher)
    : opts_(opts), engine_(std::move(cnet), opts.engine, shared_matcher) {
  // Interning is idempotent, so N sessions sharing one symbol table all
  // resolve the same architectural symbols and slot layouts.
  init();
}

void SoarKernel::init() {
  SymbolTable& syms = engine_.syms();
  ClassSchemas& sch = engine_.schemas();
  cls_wme_ = syms.intern("wme");
  cls_pref_ = syms.intern("pref");
  attr_id_ = syms.intern("id");
  attr_attr_ = syms.intern("attr");
  attr_value_ = syms.intern("value");
  attr_gid_ = syms.intern("gid");
  attr_sid_ = syms.intern("sid");
  attr_role_ = syms.intern("role");
  attr_kind_ = syms.intern("kind");
  attr_ref_ = syms.intern("ref");
  // Pin slot layouts: (wme id attr value), (pref gid sid role value kind ref).
  sch.slot(cls_wme_, attr_id_);
  sch.slot(cls_wme_, attr_attr_);
  sch.slot(cls_wme_, attr_value_);
  sch.slot(cls_pref_, attr_gid_);
  sch.slot(cls_pref_, attr_sid_);
  sch.slot(cls_pref_, attr_role_);
  sch.slot(cls_pref_, attr_value_);
  sch.slot(cls_pref_, attr_kind_);
  sch.slot(cls_pref_, attr_ref_);

  sym_ps_ = syms.intern("problem-space");
  sym_state_ = syms.intern("state");
  sym_op_ = syms.intern("operator");
  sym_acceptable_ = syms.intern("acceptable");
  sym_best_ = syms.intern("best");
  sym_reject_ = syms.intern("reject");
  sym_better_ = syms.intern("better");
  sym_indiff_ = syms.intern("indifferent");
  sym_tie_ = syms.intern("tie");
  sym_nochange_ = syms.intern("no-change");
  sym_done_ = syms.intern("done");
  sym_yes_ = syms.intern("yes");
  sym_prev_ = syms.intern("prev");

  engine_.set_gensym_hook(
      [this](Symbol s) { register_id(s, current_fire_level_); });
  // Removed wmes stay allocated: chunking's provenance records may still
  // point at garbage-collected wmes (their contents are patterns, not live
  // state).
  engine_.wm().set_retain_removed(true);
}

void SoarKernel::load_productions(std::string_view src) {
  engine_.load(src);
}

Symbol SoarKernel::make_id(std::string_view prefix, int level) {
  const Symbol s = engine_.syms().gensym(prefix);
  register_id(s, level);
  return s;
}

void SoarKernel::register_id(Symbol s, int level) {
  const uint32_t i = s.raw();
  if (i >= id_level_.size()) {
    // Symbols are dense intern indexes: cover every symbol interned so far.
    id_level_.resize(std::max<size_t>(i + 1, engine_.syms().size()), 0);
  }
  if (id_level_[i] == 0) id_level_[i] = level;
}

SoarKernel::WmeEntry& SoarKernel::entry(const Wme* w) {
  const uint32_t i = WorkingMemory::record_index(w);
  if (i >= wme_entries_.size()) {
    wme_entries_.resize(engine_.wm().record_capacity());
  }
  return wme_entries_[i];
}

const SoarKernel::WmeEntry* SoarKernel::find_entry(const Wme* w) const {
  const uint32_t i = WorkingMemory::record_index(w);
  return i < wme_entries_.size() ? &wme_entries_[i] : nullptr;
}

const Provenance* SoarKernel::provenance(const Wme* w) const {
  const WmeEntry* e = find_entry(w);
  return e != nullptr && e->prov.prod != nullptr ? &e->prov : nullptr;
}

int SoarKernel::wme_level(const Wme* w) const {
  const WmeEntry* e = find_entry(w);
  return e != nullptr && e->level > 0 ? e->level : 1;
}

const Wme* SoarKernel::add_triple(Symbol id, std::string_view attr, Value v) {
  return add_triple(id, engine_.syms().intern(attr), v);
}

const Wme* SoarKernel::add_triple(Symbol id, Symbol attr, Value v) {
  const Value fields[] = {Value(id), Value(attr), v};
  if (const Wme* existing = engine_.wm().find(cls_wme_, fields, 3)) {
    return existing;
  }
  const Wme* w = engine_.add_wme(cls_wme_, fields, 3);
  const int lvl = id_level(id);
  entry(w).level = lvl > 0 ? lvl : 1;
  return w;
}

void SoarKernel::remove_triple(Symbol id, Symbol attr, Value v) {
  const Value fields[] = {Value(id), Value(attr), v};
  const Wme* w = engine_.wm().find(cls_wme_, fields, 3);
  if (w == nullptr) return;
  retract(w);
}

Symbol SoarKernel::create_top_goal(Symbol problem_space, Symbol initial_state) {
  const Symbol g = make_id("g", 1);
  GoalEntry e;
  e.id = g;
  e.level = 1;
  e.problem_space = problem_space;
  e.state = initial_state;
  stack_.push_back(e);
  add_triple(g, sym_ps_, Value(problem_space));
  add_triple(g, sym_state_, Value(initial_state));
  return g;
}

bool SoarKernel::has_triple_attr(std::string_view attr,
                                 std::string_view value) {
  const Symbol a = engine_.syms().find(attr);
  const Symbol v = engine_.syms().find(value);
  if (!a.valid() || !v.valid()) return false;
  bool found = false;
  engine_.wm().for_each_live([&](const Wme* w) {
    found = found || (w->cls == cls_wme_ && w->field(1) == Value(a) &&
                      w->field(2) == Value(v));
  });
  return found;
}

void SoarKernel::set_provenance(const Wme* w, const Production* prod,
                                const Token& tok, int level) {
  Provenance& slot = entry(w).prov;
  slot.token.unpin();  // no-op for an empty slot
  slot = Provenance{prod, tok, level};
  slot.token.pin();
}

void SoarKernel::retract(const Wme* w) {
  const uint32_t i = WorkingMemory::record_index(w);
  if (i < wme_entries_.size()) {
    WmeEntry& e = wme_entries_[i];
    e.prov.token.unpin();  // no-op for an empty slot
    e = WmeEntry{};
  }
  engine_.remove_wme(w);
}

int SoarKernel::instantiation_level(const Token& token) const {
  int lvl = 1;
  for (const Wme* w : token) {
    for (const Value& v : w->fields) {
      if (v.is_sym()) lvl = std::max(lvl, id_level(v.sym()));
    }
  }
  return lvl;
}

void SoarKernel::apply_fire_delta(const Instantiation* inst,
                                  SoarRunStats& stats) {
  (void)stats;
  const Production* prod = inst->pnode->prod;
  const int lvl = instantiation_level(inst->token);
  current_fire_level_ = lvl;
  engine_.evaluate(inst, fire_delta_);
  const WmeDelta& delta = fire_delta_;
  engine_.cs().mark_fired(inst);

  for (const auto& add : delta.adds) {
    if (engine_.wm().find(add.cls, add.fields.data(), add.fields.size()) !=
        nullptr) {
      continue;  // dedup
    }
    const Wme* w =
        engine_.add_wme(add.cls, add.fields.data(), add.fields.size());
    int wl = lvl;
    if (!add.fields.empty() && add.fields[0].is_sym()) {
      const int l0 = id_level(add.fields[0].sym());
      if (l0 > 0) wl = l0;
    }
    entry(w).level = wl;
    set_provenance(w, prod, inst->token, lvl);
    if (opts_.learning && lvl > 1 && wl < lvl) {
      // Indifference results are deliberately not chunked: an over-general
      // indifference chunk would fire at the top level and mask the tie
      // impasse in situations where deliberate evaluation would have found a
      // best candidate — the classic over-general-chunk hazard ("Why Some
      // Chunks Are Expensive" discusses related pathologies). Only
      // substantive evaluations (best / reject / better) become chunks.
      const bool indifferent_pref =
          w->cls == cls_pref_ && w->field(4) == Value(sym_indiff_);
      if (!indifferent_pref) pending_results_.push_back({w, wl});
    }
  }
  for (const Wme* rm : delta.removes) retract(rm);
}

void SoarKernel::flush_chunks(SoarRunStats& stats) {
  if (pending_results_.empty()) return;
  if (!opts_.learning) {
    pending_results_.clear();
    return;
  }
  Chunker chunker(*this);
  for (const PendingResult& pr : pending_results_) {
    if (!engine_.wm().is_live(pr.wme)) continue;
    std::string sig;
    obs::Span build_span(engine_.tracer(), engine_.track(),
                         obs::EventKind::ChunkBuild);
    auto chunk = chunker.build_chunk(pr.wme, pr.result_level, &sig);
    build_span.end();
    if (!chunk) continue;
    // Network-wide dedup: a signature any attached agent already compiled
    // into the shared Rete is skipped here too.
    if (!engine_.network().note_chunk_signature(sig)) continue;
    stats.chunk_texts.push_back(
        production_to_text(*chunk, engine_.syms(), engine_.schemas()));
    auto res = engine_.add_production_runtime(std::move(*chunk));
    chunk_sigs_.emplace(res.prod, std::move(sig));
    ++stats.chunks_built;
    SoarRunStats::ChunkCost cost;
    cost.compile_seconds = res.compile_seconds;
    cost.code_bytes = res.code_bytes;
    cost.total_ces = res.prod->total_ce_count();
    const CompiledProduction& cp = engine_.record(res.prod).compiled;
    for (const uint32_t id : cp.new_nodes) {
      const NodeType t = engine_.net().node(id)->type;
      if (t == NodeType::Join || t == NodeType::Not) ++cost.new_two_input_nodes;
    }
    stats.chunk_costs.push_back(cost);
    stats.update_tasks += res.update_tasks;
    if (engine_.records_traces()) {
      stats.update_ab.push_back(std::move(res.ab));
      stats.update_c.push_back(std::move(res.c));
    }
  }
  pending_results_.clear();
}

Engine::RuntimeRemoveResult SoarKernel::excise(const Production* p) {
  // Provenance first: the table holds pinned tokens whose nodes the removal
  // drain is about to make reclaimable. The wmes keep their level and stay
  // live — only the backtrace trail to this production is severed.
  for (WmeEntry& e : wme_entries_) {
    if (e.prov.prod == p) {
      e.prov.token.unpin();
      e.prov = Provenance{};
    }
  }
  const auto sig = chunk_sigs_.find(p);
  if (sig != chunk_sigs_.end()) {
    engine_.network().forget_chunk_signature(sig->second);
    chunk_sigs_.erase(sig);
  }
  return engine_.remove_production_runtime(p);
}

void SoarKernel::elaborate(SoarRunStats& stats) {
  uint64_t guard = 0;
  for (;;) {
    if (++guard > opts_.max_elab_cycles) break;
    if (engine_.has_pending_changes()) {
      CycleTrace trace = engine_.match();
      stats.match_tasks += engine_.last_match_tasks();
      if (engine_.records_traces()) stats.traces.push_back(std::move(trace));
      ++stats.elab_cycles;
    }
    // The match is quiescent and WM is consistent with the network: chunks
    // created by the previous firing batch are compiled and updated now
    // ("Soar adds chunks only at the end of an elaboration cycle").
    flush_chunks(stats);
    engine_.cs().unfired_into(unfired_scratch_);
    const auto& insts = unfired_scratch_;
    if (insts.empty()) {
      if (!engine_.has_pending_changes()) break;
      continue;
    }
    for (const Instantiation* inst : insts) {
      apply_fire_delta(inst, stats);
    }
  }
}

SoarRunStats SoarKernel::run() {
  SoarRunStats stats;
  // Flight recorder: armed by options or by PSME_FLIGHT (which defaults the
  // cadence to every decision). The ring is preallocated once and survives
  // across run() calls; snapshot capture is reporting-time work at the
  // quiescent decision boundary (the kernel's own bookkeeping allocates
  // there anyway — see ROADMAP's heap-free-the-kernel item).
  const char* flight_path = obs::env_flight_path();
  uint64_t flight_every = opts_.flight_every;
  if (flight_every == 0 && flight_path != nullptr) flight_every = 1;
  if (flight_every != 0 && flight_ == nullptr) {
    flight_ = std::make_unique<obs::FlightRecorder>(opts_.flight_capacity);
  }
  for (;;) {
    {
      obs::Span span(engine_.tracer(), engine_.track(),
                     obs::EventKind::Elaborate);
      const uint64_t t0 = obs::profile_now_ns();
      elaborate(stats);
      stats.elaborate_ns += obs::profile_now_ns() - t0;
    }
    if (goal_test_ && goal_test_(*this)) {
      stats.goal_achieved = true;
      break;
    }
    if (stats.decisions >= opts_.max_decisions) {
      stats.halted_on_limit = true;
      break;
    }
    ++stats.decisions;
    bool changed = false;
    {
      obs::Span span(engine_.tracer(), engine_.track(),
                     obs::EventKind::Decide);
      const uint64_t t0 = obs::profile_now_ns();
      changed = decide(stats);
      stats.decide_ns += obs::profile_now_ns() - t0;
    }
    if (changed) {
      obs::Span span(engine_.tracer(), engine_.track(),
                     obs::EventKind::Gc);
      const uint64_t t0 = obs::profile_now_ns();
      gc_unreachable();
      stats.gc_ns += obs::profile_now_ns() - t0;
    }
    if (flight_ != nullptr && stats.decisions % flight_every == 0) {
      obs::MetricsRegistry m;
      obs::collect(m, stats);
      engine_.collect_metrics(m);
      flight_->snapshot(m, engine_.profiler(), stats.decisions);
    }
    if (on_decision_) on_decision_(*this);
    if (!changed) break;  // fully quiescent: nothing can change
  }
  if (flight_ != nullptr && flight_path != nullptr) {
    flight_->dump(flight_path);
  }
  return stats;
}

void SoarKernel::pop_goals_below(int level) {
  if (stack_.empty() || stack_.back().level <= level) return;
  gc_wmes_above(level);
  while (!stack_.empty() && stack_.back().level > level) stack_.pop_back();
}

void SoarKernel::sort_by_timetag(std::vector<const Wme*>& wmes) {
  std::sort(wmes.begin(), wmes.end(), [](const Wme* a, const Wme* b) {
    return a->timetag < b->timetag;
  });
}

void SoarKernel::gc_unreachable() {
  // Reachable identifiers: start from the context stack (goal ids and slot
  // values), follow wme triples id -> value, and let preferences scoped to a
  // *current* state keep their operator objects alive. A mark is the
  // call's epoch stored at the identifier's index, so no call clears or
  // allocates a set.
  if (++gc_epoch_ == 0) {  // wrapped: a stale mark could read as current
    std::fill(gc_marks_.begin(), gc_marks_.end(), 0);
    gc_epoch_ = 1;
  }
  if (gc_marks_.size() < id_level_.size()) {
    gc_marks_.resize(id_level_.size(), 0);
  }
  const uint32_t epoch = gc_epoch_;
  auto reachable = [&](Symbol s) {
    return s.raw() < gc_marks_.size() && gc_marks_[s.raw()] == epoch;
  };
  auto mark = [&](Symbol s) -> bool {
    if (id_level(s) == 0) return false;  // constants need no marking
    uint32_t& m = gc_marks_[s.raw()];
    if (m == epoch) return false;
    m = epoch;
    return true;
  };
  for (const GoalEntry& g : stack_) {
    mark(g.id);
    if (g.problem_space.valid()) mark(g.problem_space);
    if (g.state.valid()) mark(g.state);
    if (g.op.valid()) mark(g.op);
  }
  // Only triples and preferences can be collected or extend reachability.
  std::vector<const Wme*>& live = wm_scratch_;
  live.clear();
  engine_.wm().for_each_live([&](const Wme* w) {
    if (w->cls == cls_wme_ || w->cls == cls_pref_) live.push_back(w);
  });
  auto current_state = [&](const Value& sid) {
    if (sid.is_nil()) return true;
    if (!sid.is_sym()) return false;
    for (const GoalEntry& g : stack_) {
      if (g.state == sid.sym()) return true;
    }
    return false;
  };
  // The fixpoint does not depend on the order of `live`.
  bool grew = true;
  while (grew) {
    grew = false;
    for (const Wme* w : live) {
      if (w->cls == cls_wme_) {
        // ^prev links are weak references (a state's pointer to the state it
        // was derived from); following them would keep every superseded
        // state alive forever.
        if (w->field(1) == Value(sym_prev_)) continue;
        const Value id = w->field(0);
        const Value v = w->field(2);
        if (id.is_sym() && reachable(id.sym()) && v.is_sym()) {
          grew |= mark(v.sym());
        }
      } else {
        const Value gid = w->field(0);
        if (gid.is_sym() && reachable(gid.sym()) &&
            current_state(w->field(1))) {
          if (w->field(3).is_sym()) grew |= mark(w->field(3).sym());
          if (w->field(5).is_sym()) grew |= mark(w->field(5).sym());
        }
      }
    }
  }
  // Retract everything inaccessible from the context stack, in timetag
  // order.
  auto keep = [&](const Wme* w) {
    if (w->cls == cls_wme_) {
      const Value id = w->field(0);
      return !id.is_sym() || id_level(id.sym()) == 0 || reachable(id.sym());
    }
    if (!current_state(w->field(1))) return false;
    const Value v = w->field(3);
    return !v.is_sym() || id_level(v.sym()) == 0 || reachable(v.sym());
  };
  live.erase(std::remove_if(live.begin(), live.end(), keep), live.end());
  sort_by_timetag(live);
  for (const Wme* w : live) retract(w);
}

void SoarKernel::gc_wmes_above(int level) {
  std::vector<const Wme*>& victims = wm_scratch_;
  victims.clear();
  engine_.wm().for_each_live([&](const Wme* w) {
    if (wme_level(w) > level) victims.push_back(w);
  });
  sort_by_timetag(victims);
  for (const Wme* w : victims) retract(w);
}

}  // namespace psme
