#include "par/lock_order.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

namespace psme::lockdep {
namespace {

constexpr size_t kMaxHeld = 32;

struct HeldStack {
  LockInfo entries[kMaxHeld];
  size_t n = 0;
};

thread_local HeldStack tls_held;

std::atomic<FailureHandler> g_handler{nullptr};

std::vector<LockInfo> snapshot_held() {
  return {tls_held.entries, tls_held.entries + tls_held.n};
}

void report(Violation::Kind kind, const LockInfo& attempted) {
  Violation v{kind, attempted, snapshot_held()};
  if (FailureHandler h = g_handler.load(std::memory_order_acquire)) {
    h(v);
    return;
  }
  const std::string text = format_report(v);
  std::fwrite(text.data(), 1, text.size(), stderr);
  std::fflush(stderr);
  std::abort();
}

}  // namespace

const char* rank_name(LockRank r) noexcept {
  switch (r) {
    case LockRank::Unranked: return "unranked";
    case LockRank::AlphaMem: return "alpha-mem";
    case LockRank::Bucket: return "bucket";
    case LockRank::SlabPool: return "slab-pool";
    case LockRank::ConflictSet: return "conflict-set";
  }
  return "?";
}

const char* kind_name(Violation::Kind k) noexcept {
  switch (k) {
    case Violation::Kind::SelfDeadlock: return "self-deadlock";
    case Violation::Kind::RankInversion: return "rank inversion";
    case Violation::Kind::UnheldRelease: return "release of unheld lock";
    case Violation::Kind::Overflow: return "held-lock stack overflow";
  }
  return "?";
}

void on_acquire(const void* lock, LockRank rank, const char* name) {
  const LockInfo attempted{lock, rank, name};
  HeldStack& hs = tls_held;

  // At most one report per acquire; self-deadlock takes precedence (a
  // re-entered ranked lock would otherwise also trip the >= rank check).
  bool self_deadlock = false;
  for (size_t i = 0; i < hs.n; ++i) {
    if (hs.entries[i].addr == lock) {
      self_deadlock = true;
      report(Violation::Kind::SelfDeadlock, attempted);
      break;
    }
  }
  if (!self_deadlock && rank != LockRank::Unranked) {
    for (size_t i = 0; i < hs.n; ++i) {
      const LockRank held = hs.entries[i].rank;
      if (held != LockRank::Unranked && held >= rank) {
        report(Violation::Kind::RankInversion, attempted);
        break;
      }
    }
  }
  if (hs.n >= kMaxHeld) {
    report(Violation::Kind::Overflow, attempted);
    return;  // cannot record; only reachable with a handler installed
  }
  hs.entries[hs.n++] = attempted;
}

void on_release(const void* lock) {
  HeldStack& hs = tls_held;
  // Out-of-order release is legal; search from the top (common case: LIFO).
  for (size_t i = hs.n; i > 0; --i) {
    if (hs.entries[i - 1].addr == lock) {
      for (size_t j = i - 1; j + 1 < hs.n; ++j) {
        hs.entries[j] = hs.entries[j + 1];
      }
      --hs.n;
      return;
    }
  }
  report(Violation::Kind::UnheldRelease, {lock, LockRank::Unranked, nullptr});
}

size_t held_count() noexcept { return tls_held.n; }

FailureHandler set_failure_handler(FailureHandler h) noexcept {
  return g_handler.exchange(h, std::memory_order_acq_rel);
}

std::string format_report(const Violation& v) {
  std::ostringstream os;
  auto put = [&os](const LockInfo& li) {
    os << (li.name != nullptr ? li.name : rank_name(li.rank)) << " (rank "
       << rank_name(li.rank) << ", " << li.addr << ")";
  };
  os << "psme lockdep: " << kind_name(v.kind) << " in thread "
     << std::this_thread::get_id() << "\n  attempted acquire: ";
  put(v.attempted);
  os << "\n  held-lock chain (" << v.held.size() << ", oldest first):\n";
  if (v.held.empty()) os << "    <none>\n";
  for (const LockInfo& li : v.held) {
    os << "    ";
    put(li);
    os << "\n";
  }
  return std::move(os).str();
}

}  // namespace psme::lockdep
