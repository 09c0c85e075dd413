// The immutable-at-match-time half of the engine split: one CompiledNetwork
// holds everything that is a function of the production set alone — symbol
// table, class schemas, the Rete node graph and jumptable, the builder, the
// adopted ASTs and their compilation records — and N Agent sessions (Engine
// instances) share it read-only while matching. Everything a wme ever
// touches (hash-table lines, alpha-memory lists, token arenas, the conflict
// set) lives in each agent's MatchState instead (rete/match_state.h).
//
// The network changes only between match cycles, as in PSM-E (§5.1): a
// load, a run-time chunk or cue add (compile) and a removal (unsplice,
// finish_removal) all edit the one live node graph and jumptable in place,
// at a point where the caller guarantees no match cycle is in flight. Builds
// with PSME_NET_VERIFY re-verify the network and every attached agent's
// state after each add and each removal (verify_or_abort).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lang/ast.h"
#include "rete/add_production.h"
#include "rete/builder.h"
#include "rete/network.h"
#include "rete/remove_production.h"

namespace psme {

class Engine;

class CompiledNetwork {
 public:
  explicit CompiledNetwork(BuilderOptions opts = {})
      : net_(syms_, schemas_), builder_(net_, opts) {}
  CompiledNetwork(const CompiledNetwork&) = delete;
  CompiledNetwork& operator=(const CompiledNetwork&) = delete;

  SymbolTable& syms() { return syms_; }
  ClassSchemas& schemas() { return schemas_; }
  RhsArena& ast_arena() { return ast_arena_; }
  Network& net() { return net_; }
  [[nodiscard]] const Network& net() const { return net_; }
  Builder& builder() { return builder_; }

  /// Parses a source string (literalize forms + productions) and adds each
  /// production in source order: compile() it, then bring every attached
  /// agent that already holds wmes up to date (§5.2). A production the
  /// builder rejects throws; the ones before it stay added, the network is
  /// otherwise as it was. Returns the adopted productions.
  std::vector<const Production*> load(std::string_view src);

  /// Adopts `ast` and splices it into the live network in place: new nodes,
  /// their jumptable slots, and new successor entries in existing slots.
  /// Quiescent-only, like every network edit: the caller guarantees no match
  /// cycle is in flight (the §5.2 update that must follow is the caller's —
  /// load() runs it, Engine::add_production_runtime runs it per agent). A
  /// production the builder rejects throws before anything is spliced, and
  /// its AST is not kept.
  const AddRecord& compile(Production&& ast);

  /// Run-time removal, unsplice half: plans the dead-set (backward
  /// reachability from every surviving P-node — the victim's own compile
  /// record can't tell owned from shared, see rete/remove_production.h) and
  /// erases the dead nodes' successor entries from the live jumptable. Same
  /// quiescent-only contract as compile(); on return the production can
  /// never fire again. The dead nodes themselves are still alive — every
  /// attached agent must drain its state for them before finish_removal
  /// frees them (the engine sequences this; see
  /// Engine::remove_production_runtime). Throws std::out_of_range for a
  /// production this network never compiled. `refs_unspliced`, when
  /// non-null, receives the erased entry count.
  RemovePlan unsplice(const Production* p, size_t* refs_unspliced = nullptr);

  /// Run-time removal, reclaim half: frees the dead nodes (their ids,
  /// jumptable slots and alpha mem indexes return to the recycling pools),
  /// then drops the record, the production-list entry, and the adopted AST.
  void finish_removal(const RemovePlan& plan, const Production* p);

  /// The PSME_NET_VERIFY hook, run once after each add (after every agent's
  /// §5.2 update) and once after each removal (after every agent's drain and
  /// finish_removal): verifies the structure against every attached agent's
  /// state (the structure alone when none is attached) and aborts with the
  /// full report on a violation. After a removal the verifier's stale-entry
  /// sweep, Resolution and Ownership checks are the removal oracle. `edit`
  /// and `name` ("adding", the production) label the report.
  void verify_or_abort(const char* edit, Symbol name) const;

  /// Productions removed at run time since load (diagnostics).
  [[nodiscard]] uint64_t removals() const { return removals_; }

  [[nodiscard]] const AddRecord& record(const Production* p) const;
  [[nodiscard]] const std::vector<const Production*>& productions() const {
    return productions_;
  }
  /// All records in load order (what verify_network and the linter consume).
  [[nodiscard]] std::vector<const AddRecord*> all_records() const;

  /// Registers a chunk signature; false when an identical chunk — learned
  /// by ANY attached agent — was already compiled into the shared network,
  /// so sessions don't install duplicate productions of each other's
  /// chunks. (The signature is the chunker's canonical text; see
  /// SoarKernel::flush_chunks.)
  bool note_chunk_signature(std::string sig) {
    return chunk_signatures_.insert(std::move(sig)).second;
  }

  /// Drops a chunk signature when its production is excised, so any agent
  /// can relearn an identical chunk later (SoarKernel::excise).
  bool forget_chunk_signature(const std::string& sig) {
    return chunk_signatures_.erase(sig) > 0;
  }

  /// Attached agent sessions. Engine registers itself at construction and
  /// deregisters at destruction; every add walks this list to bring each
  /// agent's memories up to date (§5.2) after the splice. Quiescent-only,
  /// like everything else on the compile side.
  void attach(Engine* e) { agents_.push_back(e); }
  void detach(Engine* e);
  [[nodiscard]] const std::vector<Engine*>& agents() const { return agents_; }

 private:
  SymbolTable syms_;
  ClassSchemas schemas_;
  RhsArena ast_arena_;  // parsed RHS expression storage; ASTs point into it
  Network net_;
  Builder builder_;
  ProductionStore store_;
  std::vector<const Production*> productions_;
  std::unordered_map<const Production*, AddRecord> records_;
  std::unordered_set<std::string> chunk_signatures_;  // network-wide dedup
  std::vector<Engine*> agents_;
  uint64_t removals_ = 0;
};

}  // namespace psme
