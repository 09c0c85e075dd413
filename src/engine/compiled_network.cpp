#include "engine/compiled_network.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "analysis/verify.h"
#include "engine/engine.h"
#include "lang/parser.h"

namespace psme {

std::vector<const Production*> CompiledNetwork::load(std::string_view src) {
  Parser parser(syms_, schemas_, ast_arena_);
  auto parsed = parser.parse_file(src);
  std::vector<const Production*> out;
  out.reserve(parsed.size());
  for (Production& ast : parsed) {
    const AddRecord& rec = compile(std::move(ast));
    // §5.2 memory update for every attached agent that already holds wmes
    // (the common build-time load on empty WMs skips straight through),
    // before the next production is compiled.
    for (Engine* agent : agents_) {
      if (agent->wm().size() != 0) {
        agent->apply_runtime_update(rec.compiled, nullptr);
      }
    }
#if PSME_NET_VERIFY
    verify_or_abort("adding", rec.ast->name);
#endif
    out.push_back(rec.ast);
  }
  return out;
}

const AddRecord& CompiledNetwork::compile(Production&& ast) {
  // Adopted first: the builder stores the AST's address in the P-node.
  const Production* p = store_.adopt(std::move(ast));
  CompiledProduction cp;
  try {
    cp = builder_.add_production(*p);
  } catch (...) {
    store_.release(p);  // rejected before anything was spliced
    throw;
  }
  productions_.push_back(p);
  // Per-node agent state grows with the structure, so the §5.2 update that
  // follows finds the new joins' link states in place (DESIGN.md §16).
  for (Engine* agent : agents_) agent->state().ensure_links(net_.node_count());
  return records_.emplace(p, AddRecord{p, std::move(cp)}).first->second;
}

RemovePlan CompiledNetwork::unsplice(const Production* p,
                                     size_t* refs_unspliced) {
  const AddRecord& rec = record(p);  // throws for an unknown production
  RemovePlan plan = plan_removal(net_, rec.compiled.pnode);
  const size_t erased = net_.jumptable().erase_refs(plan.dead_mask);
  if (refs_unspliced != nullptr) *refs_unspliced = erased;
  return plan;
}

void CompiledNetwork::finish_removal(const RemovePlan& plan,
                                     const Production* p) {
  for (uint32_t id : plan.dead_nodes) net_.free_node(id);
  records_.erase(p);
  productions_.erase(
      std::remove(productions_.begin(), productions_.end(), p),
      productions_.end());
  store_.release(p);
  ++removals_;
}

void CompiledNetwork::verify_or_abort(const char* edit, Symbol name) const {
  // One pass per attached agent (the structure plus that agent's state);
  // the structure alone when none is attached.
  const size_t passes = std::max<size_t>(agents_.size(), 1);
  for (size_t i = 0; i < passes; ++i) {
    const Engine* agent = agents_.empty() ? nullptr : agents_[i];
    const analysis::VerifyReport rep =
        agent != nullptr ? agent->verify_network()
                         : analysis::verify_network(net_, all_records());
    if (rep.ok()) continue;
    std::fprintf(stderr, "PSME_NET_VERIFY: invariant violation after %s '%s'",
                 edit, std::string(syms_.name(name)).c_str());
    if (agent != nullptr) {
      std::fprintf(stderr, " (agent %u)", agent->agent_id());
    }
    std::fprintf(stderr, "\n%s", rep.to_string().c_str());
    std::abort();
  }
}

const AddRecord& CompiledNetwork::record(const Production* p) const {
  auto it = records_.find(p);
  if (it == records_.end()) {
    throw std::out_of_range("CompiledNetwork::record: unknown production");
  }
  return it->second;
}

std::vector<const AddRecord*> CompiledNetwork::all_records() const {
  std::vector<const AddRecord*> recs;
  recs.reserve(productions_.size());
  for (const Production* p : productions_) {
    auto it = records_.find(p);
    if (it != records_.end()) recs.push_back(&it->second);
  }
  return recs;
}

void CompiledNetwork::detach(Engine* e) {
  agents_.erase(std::remove(agents_.begin(), agents_.end(), e), agents_.end());
}

}  // namespace psme
