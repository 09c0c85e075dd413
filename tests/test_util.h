// Shared test helpers.
#pragma once

#include <algorithm>
#include <exception>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "lang/ast.h"

namespace psme::test {

/// fn(worker_index) is called once per worker, concurrently, each on a
/// fresh std::thread (n <= 1 runs inline); rethrows the first worker
/// exception after joining them all.
inline void run_workers(size_t n, const std::function<void(size_t)>& fn) {
  if (n <= 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(n);
  std::exception_ptr first_error;
  std::mutex error_mu;
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lk(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

/// Forwards to another sink (an engine's conflict set) and yields the CPU
/// after every change. A drain through it gives the matcher's helpers a
/// turn mid-cycle even on a loaded or one-core host, so they fail a sweep
/// and go hungry while the caller still holds work: the tests that must see
/// work shared install it instead of relying on the host's spare cores.
class YieldingSink final : public MatchSink {
 public:
  explicit YieldingSink(MatchSink& to) : to_(to) {}
  void on_insert(const ProdNode& p, const Token& t) override {
    to_.on_insert(p, t);
    std::this_thread::yield();
  }
  void on_retract(const ProdNode& p, const Token& t) override {
    to_.on_retract(p, t);
    std::this_thread::yield();
  }

 private:
  MatchSink& to_;
};

/// Arena for RHS actions of productions parsed outside an Engine::load.
/// Static so it outlives every Production that references its nodes (tests
/// used to `new` one per parse and leak it, which LeakSanitizer flags).
inline RhsArena& test_rhs_arena() {
  static RhsArena arena;
  return arena;
}

/// Engine options whose serial cycles return their recorded task DAG.
inline EngineOptions recorded() {
  EngineOptions opts;
  opts.record_traces = true;
  return opts;
}

/// Id of the one node of `type` in `net` (0 with a test failure when there
/// is not exactly one).
inline uint32_t only_node(const Network& net, NodeType type) {
  uint32_t found = 0;
  int count = 0;
  for (uint32_t id = 0; id < net.node_count(); ++id) {
    const Node* n = net.node(id);
    if (n != nullptr && n->type == type) {
      found = id;
      ++count;
    }
  }
  EXPECT_EQ(count, 1) << "nodes of the requested type";
  return found;
}

/// Left-table entries, live or anti, that `ms` holds for `node`; with
/// `tag` >= 0 only those carrying that entry tag (a BJoin's side).
inline size_t left_entries_of(const MatchState& ms, uint32_t node,
                              int tag = -1) {
  size_t n = 0;
  ms.tables.for_each_left_of(node, [&](const LeftEntry& e) {
    if (tag < 0 || e.tag == tag) ++n;
  });
  return n;
}

/// A plain ExecContext bound to one engine's match state: it executes single
/// activations and keeps their children (its `out`) instead of running them,
/// so a test can deliver the halves of a conjugate pair in either order. sweep()
/// unlinks the joins the activations left empty, as the end of a drain does.
class CollectingCtx {
 public:
  explicit CollectingCtx(Engine& e) : net_(e.net()), ms_(e.state()) {
    ctx_.state = &ms_;
    ms_.ensure_alpha(net_.alpha_mem_count());
    ms_.ensure_links(net_.node_count());
  }

  void run(uint32_t node, Side side, bool add, const Token& token) {
    net_.execute(Activation{node, side, add, token}, ctx_);
  }
  void sweep() {
    for (const EmptiedJoin& j : ctx_.emptied) {
      net_.unlink_if_empty(j.join, ms_, ctx_.counters);
    }
    ctx_.emptied.clear();
  }

  [[nodiscard]] const std::vector<Activation>& emitted() const {
    return ctx_.out;
  }

 private:
  Network& net_;
  MatchState& ms_;
  ExecContext ctx_;
};

/// Names of productions with at least one instantiation in the CS.
inline std::multiset<std::string> matched_productions(Engine& e) {
  std::multiset<std::string> out;
  for (const Instantiation* inst : e.cs().all()) {
    out.insert(std::string(e.syms().name(inst->pnode->prod->name)));
  }
  return out;
}

/// Number of instantiations of production `name` currently in the CS.
inline int instantiation_count(Engine& e, const std::string& name) {
  int n = 0;
  for (const Instantiation* inst : e.cs().all()) {
    if (e.syms().name(inst->pnode->prod->name) == name) ++n;
  }
  return n;
}

/// A canonical dump of the CS: production name + wme contents (in CE order).
/// Content-based so it is comparable across engines with different timetags
/// and symbol tables. Used for serial-vs-parallel and incremental-vs-rebuild
/// equivalence checks.
inline std::multiset<std::string> cs_fingerprint(Engine& e) {
  std::multiset<std::string> out;
  for (const Instantiation* inst : e.cs().all()) {
    std::string s(e.syms().name(inst->pnode->prod->name));
    for (const Wme* w : inst->token) {
      s += "|" + w->to_string(e.syms(), e.schemas());
    }
    out.insert(s);
  }
  return out;
}

}  // namespace psme::test
