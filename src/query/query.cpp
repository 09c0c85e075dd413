#include "query/query.h"

#include <algorithm>
#include <stdexcept>

#include "lang/parser.h"

namespace psme {

QuerySession::QuerySession(Engine& e)
    : engine_(e),
      head_("(p query-a" + std::to_string(e.agent_id()) + " "),
      parser_(e.syms(), e.schemas(), e.network().ast_arena()) {}

QuerySession::~QuerySession() {
  if (prod_ == nullptr) return;
  try {
    engine_.remove_production_runtime(prod_);
  } catch (...) {
    // Destructor teardown is best-effort; the engine may be gone first.
  }
}

Engine::RuntimeAddResult QuerySession::begin(std::string_view cue_ces) {
  if (prod_ != nullptr) {
    throw std::logic_error("QuerySession::begin: a cue is already active");
  }
  // The add/remove machinery is quiescent-only; flush this agent's pending
  // wme changes so the query evaluates against settled working memory.
  if (engine_.has_pending_changes()) engine_.match();

  // The transient production: the cue as the LHS, `(halt)` as the RHS.
  // (halt) is deliberate — it is the one action that stores nothing in the
  // shared RhsArena, so query churn never grows the arena the ASTs point
  // into. The name carries the agent id, so query productions from
  // different sessions over one shared network do not collide in
  // diagnostics, but nothing per ask: the parser interns every production
  // name, and one name per session keeps the symbol table flat under
  // resident query traffic.
  src_.assign(head_);
  src_.append(cue_ces);
  src_ += "\n --> (halt))";
  Production ast = parser_.parse_production(src_);
  for (const Condition& ce : ast.conditions) {
    if (ce.negated || ce.is_ncc()) {
      throw std::invalid_argument(
          "QuerySession: cues are positive CEs only (a cue describes what "
          "should be present; negation has no retrieval-depth semantics)");
    }
  }
  // The §5.2 update this triggers IS the evaluation: phases A/B fill the
  // cue's alpha and right memories from WM, phase C replays the share
  // point — partial instantiations land in the beta memories, full ones in
  // the conflict set.
  Engine::RuntimeAddResult res = engine_.add_production_runtime(std::move(ast));
  prod_ = res.prod;
  return res;
}

uint32_t QuerySession::positive_ces() const {
  if (prod_ == nullptr) return 0;
  return static_cast<uint32_t>(prod_->positive_ce_count());
}

uint32_t QuerySession::score() const {
  if (prod_ == nullptr) return 0;
  const Network& net = engine_.network().net();

  // Full instantiation in the conflict set: every CE matched.
  for (const Instantiation* inst : engine_.cs().all()) {
    if (inst->pnode != nullptr && inst->pnode->prod == prod_) {
      return positive_ces();
    }
  }

  // Otherwise: deepest join in the cue's chain whose left memory holds a
  // live token. A token waiting at a join's left input means left_arity
  // leading CEs are jointly satisfied. Walk left_pred from the P-node's
  // feeder toward the alpha network (cues are positive-only, so the chain
  // is pure Join).
  const MatchState& ms = engine_.state();
  const Node* cur = pnode_feeder();
  while (cur != nullptr &&
         (cur->type == NodeType::Join || cur->type == NodeType::Not)) {
    const auto& join = static_cast<const TwoInputNode&>(*cur);
    uint32_t live = 0;
    ms.tables.for_each_left_of(join.id, [&](const LeftEntry& e) {
      if (e.anti == 0) ++live;
    });
    if (live > 0) return join.left_arity;
    cur = net.node(join.left_pred);
  }

  // No join holds a token (or the cue has a single CE): the first CE's
  // alpha memory decides between "one CE matches something" and nothing.
  if (cur != nullptr && cur->type == NodeType::AlphaMem) {
    const auto& am = static_cast<const AlphaMemNode&>(*cur);
    if (am.mem_index < ms.alpha_count()) {
      const AlphaMemState& ams = ms.alpha(am.mem_index);
      SpinGuard g(ams.lock);
      if (ams.wmes.size() > 0) return 1;
    }
  }
  return 0;
}

std::vector<uint32_t> QuerySession::ce_join_nodes() const {
  std::vector<uint32_t> out;
  if (prod_ == nullptr) return out;
  const Network& net = engine_.network().net();
  out.assign(positive_ces(), UINT32_MAX);

  // Walk the pure-Join chain toward the alpha network: the join that takes
  // an i-wme left token handles CE i; the chain bottoms out at CE 0's alpha
  // memory (also the whole cue, for a single-CE cue).
  const Node* cur = pnode_feeder();
  while (cur != nullptr &&
         (cur->type == NodeType::Join || cur->type == NodeType::Not)) {
    const auto& join = static_cast<const TwoInputNode&>(*cur);
    if (join.left_arity < out.size()) out[join.left_arity] = join.id;
    cur = net.node(join.left_pred);
  }
  if (cur != nullptr && cur->type == NodeType::AlphaMem && !out.empty()) {
    out[0] = cur->id;
  }
  return out;
}

const Node* QuerySession::pnode_feeder() const {
  const CompiledProduction& cp = engine_.record(prod_).compiled;
  const Network& net = engine_.network().net();
  const Jumptable& jt = net.jumptable();
  for (const auto* ids : {&cp.new_nodes, &cp.shared_nodes}) {
    for (const uint32_t id : *ids) {
      const Node* node = net.node(id);
      for (const SuccessorRef& ref : jt.peek(node->jt_slot)) {
        if (ref.node == cp.pnode && ref.side == Side::Left) return node;
      }
    }
  }
  return nullptr;
}

std::vector<QueryMatch> QuerySession::matches() const {
  std::vector<QueryMatch> out;
  if (prod_ == nullptr) return out;
  for (const Instantiation* inst : engine_.cs().all()) {
    if (inst->pnode == nullptr || inst->pnode->prod != prod_) continue;
    QueryMatch m;
    m.wmes.reserve(inst->token.size());
    for (const Wme* w : inst->token) m.wmes.push_back(w);
    out.push_back(std::move(m));
  }
  // CS arrival order is schedule-dependent under the threaded match; order
  // by wme timetags so query results are worker-count-invariant.
  std::sort(out.begin(), out.end(),
            [](const QueryMatch& a, const QueryMatch& b) {
              if (a.wmes.size() != b.wmes.size()) {
                return a.wmes.size() < b.wmes.size();
              }
              for (size_t i = 0; i < a.wmes.size(); ++i) {
                if (a.wmes[i]->timetag != b.wmes[i]->timetag) {
                  return a.wmes[i]->timetag < b.wmes[i]->timetag;
                }
              }
              return false;
            });
  return out;
}

Engine::RuntimeRemoveResult QuerySession::end() {
  if (prod_ == nullptr) {
    throw std::logic_error("QuerySession::end: no cue is active");
  }
  const Production* p = prod_;
  prod_ = nullptr;
  return engine_.remove_production_runtime(p);
}

QueryResult QuerySession::ask(std::string_view cue_ces) {
  QueryResult r;
  r.add = begin(cue_ces);
  r.positive_ces = positive_ces();
  r.score = score();
  r.matches = matches();
  r.remove = end();
  return r;
}

}  // namespace psme
