// The lockdep checker: the rank discipline (alpha-mem < bucket < slab-pool
// < conflict-set) is enforced, rank inversions and self-deadlocks are caught
// with the full held-lock chain, and legal acquisition orders pass silently.
// The checker core is exercised directly so these tests run in every build
// configuration; the Spinlock integration (hooks active only when
// PSME_LOCKDEP=1, e.g. the tsan preset or Debug builds) has its own gated
// tests at the bottom.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "par/lock_order.h"
#include "par/spinlock.h"

namespace psme {
namespace {

using lockdep::Violation;

/// Captures violations instead of aborting, for the duration of a test.
class CaptureViolations {
 public:
  CaptureViolations() {
    captured().clear();
    prev_ = lockdep::set_failure_handler(&CaptureViolations::record);
  }
  ~CaptureViolations() { lockdep::set_failure_handler(prev_); }

  static std::vector<Violation>& captured() {
    static std::vector<Violation> v;
    return v;
  }

 private:
  static void record(const Violation& v) { captured().push_back(v); }
  lockdep::FailureHandler prev_ = nullptr;
};

/// Drains any locks a test left recorded so tests stay independent.
void release_all(std::initializer_list<const void*> locks) {
  for (const void* l : locks) lockdep::on_release(l);
}

TEST(LockOrder, InOrderAcquisitionIsClean) {
  CaptureViolations cap;
  int alpha = 0, bucket = 0, pool = 0, cs = 0;
  // A join's relink: alpha memory, then a line, then a storage chunk.
  lockdep::on_acquire(&alpha, LockRank::AlphaMem, "alpha-mem");
  lockdep::on_acquire(&bucket, LockRank::Bucket, "line");
  lockdep::on_acquire(&pool, LockRank::SlabPool, "slab-pool");
  lockdep::on_acquire(&cs, LockRank::ConflictSet, "cs");
  EXPECT_EQ(lockdep::held_count(), 4u);
  EXPECT_TRUE(CaptureViolations::captured().empty());
  release_all({&cs, &pool, &bucket, &alpha});
  EXPECT_EQ(lockdep::held_count(), 0u);
  EXPECT_TRUE(CaptureViolations::captured().empty());
}

// A relink must take the alpha-memory lock before any line lock: the
// reverse order could deadlock against a relink of another join.
TEST(LockOrder, AlphaMemUnderLineLockIsAnInversion) {
  CaptureViolations cap;
  int bucket = 0, alpha = 0;
  lockdep::on_acquire(&bucket, LockRank::Bucket, "line");
  lockdep::on_acquire(&alpha, LockRank::AlphaMem, "alpha-mem");
  ASSERT_EQ(CaptureViolations::captured().size(), 1u);
  const Violation& v = CaptureViolations::captured()[0];
  EXPECT_EQ(v.kind, Violation::Kind::RankInversion);
  EXPECT_EQ(v.attempted.rank, LockRank::AlphaMem);
  release_all({&alpha, &bucket});
}

TEST(LockOrder, RankInversionIsCaught) {
  CaptureViolations cap;
  int cs = 0, bucket = 0;
  lockdep::on_acquire(&cs, LockRank::ConflictSet, "cs");
  lockdep::on_acquire(&bucket, LockRank::Bucket, "line");  // inversion
  ASSERT_EQ(CaptureViolations::captured().size(), 1u);
  const Violation& v = CaptureViolations::captured().front();
  EXPECT_EQ(v.kind, Violation::Kind::RankInversion);
  EXPECT_EQ(v.attempted.addr, &bucket);
  EXPECT_EQ(v.attempted.rank, LockRank::Bucket);
  // The held chain names the already-held conflict-set lock.
  ASSERT_EQ(v.held.size(), 1u);
  EXPECT_EQ(v.held[0].addr, &cs);
  EXPECT_EQ(v.held[0].rank, LockRank::ConflictSet);
  release_all({&bucket, &cs});
}

TEST(LockOrder, EqualRankIsAnInversion) {
  // At most one bucket lock may be held: equal ranks violate the strict
  // ordering. This is the line-lock discipline that makes insert-then-probe
  // atomic.
  CaptureViolations cap;
  int line_a = 0, line_b = 0;
  lockdep::on_acquire(&line_a, LockRank::Bucket, "line-a");
  lockdep::on_acquire(&line_b, LockRank::Bucket, "line-b");
  ASSERT_EQ(CaptureViolations::captured().size(), 1u);
  EXPECT_EQ(CaptureViolations::captured().front().kind,
            Violation::Kind::RankInversion);
  release_all({&line_b, &line_a});
}

TEST(LockOrder, SelfDeadlockIsCaught) {
  CaptureViolations cap;
  int lock = 0;
  lockdep::on_acquire(&lock, LockRank::ConflictSet, "cs");
  lockdep::on_acquire(&lock, LockRank::ConflictSet, "cs");  // re-entry
  ASSERT_EQ(CaptureViolations::captured().size(), 1u);
  EXPECT_EQ(CaptureViolations::captured().front().kind,
            Violation::Kind::SelfDeadlock);
  release_all({&lock, &lock});
}

TEST(LockOrder, UnrankedLocksSkipRankChecksButNotSelfDeadlock) {
  CaptureViolations cap;
  int cs = 0, unranked = 0;
  lockdep::on_acquire(&cs, LockRank::ConflictSet, "cs");
  lockdep::on_acquire(&unranked, LockRank::Unranked, "ad-hoc");
  EXPECT_TRUE(CaptureViolations::captured().empty());
  lockdep::on_acquire(&unranked, LockRank::Unranked, "ad-hoc");
  ASSERT_EQ(CaptureViolations::captured().size(), 1u);
  EXPECT_EQ(CaptureViolations::captured().front().kind,
            Violation::Kind::SelfDeadlock);
  release_all({&unranked, &unranked, &cs});
}

TEST(LockOrder, OutOfOrderReleaseIsLegal) {
  CaptureViolations cap;
  int bucket = 0, cs = 0;
  lockdep::on_acquire(&bucket, LockRank::Bucket, "line");
  lockdep::on_acquire(&cs, LockRank::ConflictSet, "cs");
  lockdep::on_release(&bucket);  // not LIFO
  lockdep::on_release(&cs);
  EXPECT_EQ(lockdep::held_count(), 0u);
  EXPECT_TRUE(CaptureViolations::captured().empty());
}

TEST(LockOrder, UnheldReleaseIsCaught) {
  CaptureViolations cap;
  int never_held = 0;
  lockdep::on_release(&never_held);
  ASSERT_EQ(CaptureViolations::captured().size(), 1u);
  EXPECT_EQ(CaptureViolations::captured().front().kind,
            Violation::Kind::UnheldRelease);
}

TEST(LockOrder, HeldSetsArePerThread) {
  // A lock held on this thread does not constrain another thread.
  CaptureViolations cap;
  int cs = 0, bucket = 0;
  lockdep::on_acquire(&cs, LockRank::ConflictSet, "cs");
  std::thread other([&] {
    EXPECT_EQ(lockdep::held_count(), 0u);
    lockdep::on_acquire(&bucket, LockRank::Bucket, "line");
    lockdep::on_release(&bucket);
  });
  other.join();
  EXPECT_TRUE(CaptureViolations::captured().empty());
  release_all({&cs});
}

TEST(LockOrder, ReportNamesChainAndAttempt) {
  Violation v;
  v.kind = Violation::Kind::RankInversion;
  int a = 0, b = 0;
  v.held.push_back({&a, LockRank::ConflictSet, "conflict-set"});
  v.attempted = {&b, LockRank::Bucket, "rete-line"};
  const std::string text = lockdep::format_report(v);
  EXPECT_NE(text.find("rank inversion"), std::string::npos);
  EXPECT_NE(text.find("conflict-set"), std::string::npos);
  EXPECT_NE(text.find("rete-line"), std::string::npos);
  EXPECT_NE(text.find("held-lock chain (1"), std::string::npos);
}

#if defined(GTEST_HAS_DEATH_TEST) && !defined(__SANITIZE_THREAD__)
void provoke_inversion() {
  int cs = 0;
  int bucket = 0;
  lockdep::on_acquire(&cs, LockRank::ConflictSet, "conflict-set");
  lockdep::on_acquire(&bucket, LockRank::Bucket, "rete-line");
}

TEST(LockOrderDeathTest, DefaultHandlerAbortsWithChain) {
  EXPECT_DEATH(provoke_inversion(), "rank inversion");
}
#endif

#if PSME_LOCKDEP
// Integration: real Spinlocks report through the same checker. Active in
// Debug and sanitizer builds (the tsan preset sets PSME_LOCKDEP=ON).
TEST(LockOrderIntegration, SpinlockHooksCatchInjectedInversion) {
  CaptureViolations cap;
  Spinlock cs(LockRank::ConflictSet, "conflict-set");
  Spinlock line(LockRank::Bucket, "rete-line");
  {
    SpinGuard gc(cs);
    SpinGuard gl(line);  // injected rank inversion: CS held, bucket wanted
  }
  ASSERT_EQ(CaptureViolations::captured().size(), 1u);
  const Violation& v = CaptureViolations::captured().front();
  EXPECT_EQ(v.kind, Violation::Kind::RankInversion);
  EXPECT_EQ(v.attempted.addr, &line);
  ASSERT_EQ(v.held.size(), 1u);
  EXPECT_EQ(v.held[0].addr, &cs);
}

TEST(LockOrderIntegration, SpinlockHooksTrackNormalUse) {
  CaptureViolations cap;
  Spinlock line(LockRank::Bucket, "rete-line");
  Spinlock cs(LockRank::ConflictSet, "conflict-set");
  {
    SpinGuard gl(line);
    EXPECT_EQ(lockdep::held_count(), 1u);
    SpinGuard gc(cs);  // bucket -> conflict-set is the legal order
    EXPECT_EQ(lockdep::held_count(), 2u);
  }
  EXPECT_EQ(lockdep::held_count(), 0u);
  EXPECT_TRUE(CaptureViolations::captured().empty());
}
#endif  // PSME_LOCKDEP

}  // namespace
}  // namespace psme
