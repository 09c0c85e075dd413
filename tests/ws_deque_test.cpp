// Chase–Lev deque: single-threaded semantics (LIFO owner end, FIFO steal
// end, growth from tiny capacities with index wraparound), and owner/thief
// storms asserting conservation — every pushed item is taken exactly once,
// across pops, steals and the final drain. The storms are what the `tsan`
// preset chews on; the single-threaded cases pin the algorithm's contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "par/ws_deque.h"
#include "test_util.h"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PSME_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define PSME_SANITIZED_BUILD 1
#endif
#endif
#ifndef PSME_SANITIZED_BUILD
#define PSME_SANITIZED_BUILD 0
#endif

namespace psme {
namespace {

struct Item {
  explicit Item(uint64_t v) : value(v) {}
  uint64_t value;
};

TEST(WsDeque, OwnerPopsLifoThiefStealsFifo) {
  WsDeque<Item> d;
  Item a{1}, b{2}, c{3};
  d.push(&a);
  d.push(&b);
  d.push(&c);
  EXPECT_EQ(d.size(), 3u);

  // Thief takes the oldest.
  Item* s = d.steal();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->value, 1u);

  // Owner takes the newest.
  Item* p = d.pop();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->value, 3u);

  p = d.pop();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->value, 2u);

  EXPECT_EQ(d.pop(), nullptr);
  EXPECT_EQ(d.steal(), nullptr);
  EXPECT_TRUE(d.empty());
}

TEST(WsDeque, GrowsFromTinyCapacityPreservingContents) {
  WsDeque<Item> d(2);
  EXPECT_EQ(d.capacity(), 2u);
  std::vector<std::unique_ptr<Item>> items;
  constexpr uint64_t kN = 1000;
  for (uint64_t i = 0; i < kN; ++i) {
    items.push_back(std::make_unique<Item>(i));
    d.push(items.back().get());
  }
  EXPECT_GE(d.capacity(), kN);
  EXPECT_GT(d.ring_count(), 1u);  // growth actually happened
  EXPECT_EQ(d.size(), kN);
  // Steal end sees the original FIFO order across every ring boundary.
  for (uint64_t i = 0; i < kN / 2; ++i) {
    Item* s = d.steal();
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->value, i);
  }
  // Owner end sees LIFO for the rest.
  for (uint64_t i = kN; i > kN / 2; --i) {
    Item* p = d.pop();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->value, i - 1);
  }
  EXPECT_TRUE(d.empty());
}

TEST(WsDeque, WraparoundAtSmallCapacity) {
  // Repeated push/pop/steal cycles drive the 64-bit indices far past the
  // ring capacity, exercising the mask arithmetic (the wraparound half of
  // the ABA question; the top counter itself is monotone and cannot ABA).
  WsDeque<Item> d(2);
  Item cell{0};
  for (int round = 0; round < 5000; ++round) {
    d.push(&cell);
    d.push(&cell);
    if (round % 2 == 0) {
      EXPECT_NE(d.pop(), nullptr);
      EXPECT_NE(d.steal(), nullptr);
    } else {
      EXPECT_NE(d.steal(), nullptr);
      EXPECT_NE(d.pop(), nullptr);
    }
  }
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.capacity(), 2u);  // never needed to grow
}

// Owner + thieves hammering one deque. Conservation: every item is claimed
// exactly once (atomic claim counters), and pushed == claimed at the end.
void owner_thief_storm(size_t n_thieves, size_t items_per_wave, int waves) {
  WsDeque<Item> d(2);  // force growth under fire
  const uint64_t total = items_per_wave * static_cast<uint64_t>(waves);
  std::vector<std::unique_ptr<Item>> items;
  items.reserve(total);
  for (uint64_t i = 0; i < total; ++i) {
    items.push_back(std::make_unique<Item>(i));
  }
  std::vector<std::atomic<uint32_t>> claims(total);
  std::atomic<uint64_t> taken{0};
  std::atomic<bool> done{false};

  auto claim = [&](Item* it) {
    ASSERT_NE(it, nullptr);
    claims[it->value].fetch_add(1, std::memory_order_relaxed);
    taken.fetch_add(1, std::memory_order_relaxed);
  };

  test::run_workers(n_thieves + 1, [&](size_t worker) {
    if (worker == 0) {
      // Owner: pushes in waves, pops between waves.
      uint64_t next = 0;
      for (int wv = 0; wv < waves; ++wv) {
        for (size_t i = 0; i < items_per_wave; ++i) {
          d.push(items[next++].get());
        }
        // Pop about half of what was just pushed.
        for (size_t i = 0; i < items_per_wave / 2; ++i) {
          if (Item* p = d.pop()) claim(p);
        }
      }
      // Drain the rest; thieves may still be racing us for the last items.
      while (taken.load(std::memory_order_acquire) < total) {
        if (Item* p = d.pop()) {
          claim(p);
        }
      }
      done.store(true, std::memory_order_release);
    } else {
      while (!done.load(std::memory_order_acquire)) {
        if (Item* s = d.steal()) claim(s);
      }
    }
  });

  EXPECT_EQ(taken.load(), total);
  for (uint64_t i = 0; i < total; ++i) {
    EXPECT_EQ(claims[i].load(), 1u) << "item " << i;
  }
  EXPECT_TRUE(d.empty());
}

TEST(WsDequeStress, OwnerAndOneThief) {
  owner_thief_storm(1, 64, PSME_SANITIZED_BUILD ? 40 : 300);
}

TEST(WsDequeStress, OwnerAndManyThieves) {
  owner_thief_storm(7, 32, PSME_SANITIZED_BUILD ? 40 : 300);
}

TEST(WsDequeStress, ThievesOnTinyDeque) {
  // Capacity-2 deque, single-item waves: maximizes top/bottom CAS collisions
  // on the "last element" race between pop and steal.
  owner_thief_storm(3, 2, PSME_SANITIZED_BUILD ? 200 : 2000);
}

}  // namespace
}  // namespace psme
