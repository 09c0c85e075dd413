// The immutable-at-match-time half of the engine split: one CompiledNetwork
// holds everything that is a function of the production set alone — symbol
// table, class schemas, the Rete node graph and jumptable, the builder, the
// adopted ASTs and their compilation records — and N Agent sessions (Engine
// instances) share it read-only while matching. Everything a wme ever
// touches (hash-table lines, alpha-memory lists, token arenas, the conflict
// set) lives in each agent's MatchState instead (rete/match_state.h).
//
// Run-time production addition (the chunking path) is the one mutation the
// shared half sees after load. It is copy-on-write on the jumptable:
// compile_cow() clones the successor table, splices the new production into
// the clone, and publishes the clone at the caller's quiescent safe point —
// the same epoch boundary the token arenas reclaim at — so a learning agent
// never blocks matching peers on a half-spliced dispatch table. Builds with
// PSME_NET_VERIFY re-verify the whole network after every publish.
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

struct CompiledNetworkOptions {
  BuilderOptions builder;
};

class CompiledNetwork {
 public:
  explicit CompiledNetwork(CompiledNetworkOptions opts = {})
      : net_(syms_, schemas_), builder_(net_, opts.builder) {}
  CompiledNetwork(const CompiledNetwork&) = delete;
  CompiledNetwork& operator=(const CompiledNetwork&) = delete;

  SymbolTable& syms() { return syms_; }
  ClassSchemas& schemas() { return schemas_; }
  RhsArena& ast_arena() { return ast_arena_; }
  Network& net() { return net_; }
  [[nodiscard]] const Network& net() const { return net_; }
  Builder& builder() { return builder_; }

  /// Parses and compiles a source string (literalize forms + productions).
  /// Build-time path: no COW (no agent is matching yet by contract), no
  /// per-agent state update — callers with live working memories run the
  /// §5.2 update themselves (Engine::load does, for every attached agent).
  std::vector<const Production*> load(std::string_view src);

  /// Adopts a run-time AST (chunk) into the store without compiling it.
  const Production* adopt(Production&& ast) { return store_.adopt(std::move(ast)); }

  /// Run-time compile: splices `p` into a copy-on-write clone of the
  /// jumptable and publishes the clone (this call IS the safe point — the
  /// caller guarantees no match cycle is in flight, the same quiescent-only
  /// contract as the §5.2 update). Under PSME_NET_VERIFY the network is
  /// re-verified immediately after the swap.
  const AddRecord& compile_cow(const Production* p);

  /// Run-time removal, unsplice half: plans the dead-set (backward
  /// reachability from every surviving P-node — the victim's own compile
  /// record can't tell owned from shared, see rete/remove_production.h) and
  /// erases the dead nodes' successor entries under a COW edit. The publish
  /// inside this call is the safe point: the same quiescent-only contract as
  /// compile_cow, and the instant the production stops matching. The dead
  /// nodes themselves are still alive on return — every attached agent must
  /// drain its state for them before finish_removal frees them (the engine
  /// sequences this; see Engine::remove_production_runtime). Throws
  /// std::out_of_range for a production this network never compiled.
  /// `refs_unspliced`, when non-null, receives the erased entry count.
  RemovePlan unsplice_cow(const Production* p,
                          size_t* refs_unspliced = nullptr);

  /// Run-time removal, reclaim half: frees the dead nodes (their ids,
  /// jumptable slots and alpha mem indexes return to the recycling pools),
  /// then drops the record, the production-list entry, and the adopted AST.
  /// Under PSME_NET_VERIFY the whole network is re-verified afterward —
  /// the verifier's stale-entry sweep, Resolution, and Ownership checks are
  /// the removal oracle.
  void finish_removal(const RemovePlan& plan, const Production* p);

  /// Productions removed at run time since load (diagnostics).
  [[nodiscard]] uint64_t removals() const { return removals_; }

  [[nodiscard]] const AddRecord& record(const Production* p) const;
  [[nodiscard]] const std::vector<const Production*>& productions() const {
    return productions_;
  }
  /// All records in load order (what verify_network and the linter consume).
  [[nodiscard]] std::vector<const AddRecord*> all_records() const;

  /// How many COW jumptable publishes have happened (0 = the successor
  /// table is still the build-time original). network_lint reports shared-
  /// node statistics as "from a COW snapshot" when this is non-zero.
  [[nodiscard]] uint64_t cow_publishes() const {
    return net_.jumptable().cow_publishes();
  }

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
  /// deregisters at destruction; run-time production addition walks this
  /// list to bring every agent's memories up to date (§5.2) after the COW
  /// publish. Quiescent-only, like everything else on the compile side.
  void attach(Engine* e) { agents_.push_back(e); }
  void detach(Engine* e);
  [[nodiscard]] const std::vector<Engine*>& agents() const { return agents_; }

 private:
  const AddRecord& finish(const Production* p, CompiledProduction&& cp);
  /// PSME_NET_VERIFY hooks: abort with the full report on violation.
  void debug_verify_after_add(const Production* p) const;
  void debug_verify_after_remove(const std::string& name) const;

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
