// Tests for the allocation-free containers: SmallVector (inline storage +
// growth), InlineFunction (SBO callbacks, heap fallback, recycling),
// FlatHashMap (open addressing with backward-shift deletion) and SlotPool.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/flat_map.h"
#include "util/inline_function.h"
#include "util/rng.h"
#include "util/slot_pool.h"
#include "util/small_vector.h"

namespace mecdns::util {
namespace {

// --- SmallVector ------------------------------------------------------------

/// Counts constructions/destructions so leaks and double-destroys surface
/// even without ASan.
struct Tracked {
  static int live;
  explicit Tracked(int v = 0) : value(v) { ++live; }
  Tracked(const Tracked& o) : value(o.value) { ++live; }
  Tracked(Tracked&& o) noexcept : value(o.value) { ++live; }
  Tracked& operator=(const Tracked&) = default;
  Tracked& operator=(Tracked&&) = default;
  ~Tracked() { --live; }
  int value;
};
int Tracked::live = 0;

TEST(SmallVector, StaysInlineUpToCapacity) {
  SmallVector<int, 4> v;
  const int* inline_data = v.data();
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.data(), inline_data);  // no heap spill yet
  v.push_back(4);
  EXPECT_EQ(v.size(), 5u);
  EXPECT_NE(v.data(), inline_data);  // grew to the heap
  for (int i = 0; i < 5; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVector, GrowthPreservesElementsAcrossManyDoublings) {
  SmallVector<std::string, 2> v;
  for (int i = 0; i < 100; ++i) {
    const std::string n = std::to_string(i);
    v.push_back("s" + n);
  }
  ASSERT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    const std::string n = std::to_string(i);
    EXPECT_EQ(v[static_cast<std::size_t>(i)], "s" + n);
  }
}

TEST(SmallVector, NonTrivialDestructorsRunExactlyOnce) {
  ASSERT_EQ(Tracked::live, 0);
  {
    SmallVector<Tracked, 2> v;
    for (int i = 0; i < 10; ++i) v.emplace_back(i);  // spills to heap
    EXPECT_EQ(Tracked::live, 10);
    v.pop_back();
    EXPECT_EQ(Tracked::live, 9);
    v.clear();
    EXPECT_EQ(Tracked::live, 0);
    for (int i = 0; i < 3; ++i) v.emplace_back(i);  // reuse after clear
    EXPECT_EQ(Tracked::live, 3);
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(SmallVector, MoveStealsHeapAndCopiesInline) {
  SmallVector<int, 2> small{1, 2};
  SmallVector<int, 2> small_moved(std::move(small));
  EXPECT_EQ(small_moved.size(), 2u);
  EXPECT_EQ(small_moved[0], 1);

  SmallVector<int, 2> big{1, 2, 3, 4, 5};
  const int* heap_data = big.data();
  SmallVector<int, 2> big_moved(std::move(big));
  EXPECT_EQ(big_moved.size(), 5u);
  EXPECT_EQ(big_moved.data(), heap_data);  // heap buffer stolen, not copied
  EXPECT_EQ(big_moved[4], 5);
}

TEST(SmallVector, InteropWithStdVector) {
  const std::vector<int> src{7, 8, 9};
  SmallVector<int, 2> from_copy(src);
  EXPECT_EQ(from_copy.size(), 3u);
  EXPECT_EQ(from_copy[2], 9);

  std::vector<int> movable{1, 2, 3, 4};
  SmallVector<int, 2> from_move(std::move(movable));
  EXPECT_EQ(from_move.size(), 4u);

  SmallVector<int, 2> assigned;
  assigned = src;
  EXPECT_EQ(assigned, from_copy);
  EXPECT_NE(assigned, from_move);
}

TEST(SmallVector, InsertAndErase) {
  SmallVector<int, 4> v{1, 4};
  const int mid[] = {2, 3};
  v.insert(v.begin() + 1, mid, mid + 2);
  EXPECT_EQ(v, (SmallVector<int, 4>{1, 2, 3, 4}));
  v.erase(v.begin() + 2);
  EXPECT_EQ(v, (SmallVector<int, 4>{1, 2, 4}));
}

// --- InlineFunction ---------------------------------------------------------

TEST(InlineFunction, InvokesSmallCallableInline) {
  int hits = 0;
  InlineFunction<void()> fn([&hits] { ++hits; });
  ASSERT_TRUE(fn);
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, MoveTransfersOwnership) {
  int hits = 0;
  InlineFunction<void()> a([&hits] { ++hits; });
  InlineFunction<void()> b(std::move(a));
  EXPECT_FALSE(a);
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(hits, 1);
  InlineFunction<void()> c;
  EXPECT_FALSE(c);
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, CapturedStateDestroyedExactlyOnce) {
  ASSERT_EQ(Tracked::live, 0);
  {
    Tracked t(42);
    InlineFunction<int()> fn([t] { return t.value; });
    EXPECT_EQ(Tracked::live, 2);  // t + the capture
    EXPECT_EQ(fn(), 42);
    InlineFunction<int()> moved(std::move(fn));
    EXPECT_EQ(Tracked::live, 2);  // move, not copy
    EXPECT_EQ(moved(), 42);
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFunction, LargeCallableFallsBackToHeap) {
  // A capture bigger than any reasonable SBO buffer still works.
  struct Big {
    char payload[1024];
  };
  Big big{};
  big.payload[0] = 'x';
  big.payload[1023] = 'y';
  InlineFunction<char()> fn(
      [big] { return static_cast<char>(big.payload[0] ^ big.payload[1023]); });
  ASSERT_TRUE(fn);
  EXPECT_EQ(fn(), 'x' ^ 'y');
  InlineFunction<char()> moved(std::move(fn));
  EXPECT_EQ(moved(), 'x' ^ 'y');
}

TEST(InlineFunction, ArgumentsAndReturnValues) {
  InlineFunction<int(int, int)> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(2, 3), 5);
}

TEST(InlineFunction, WrapNestsInPlaceAndCallsInnerOnce) {
  using Fn = InlineFunction<int(int), 96>;
  std::vector<std::string> order;
  Fn fn([&order](int x) {
    order.push_back("base");
    return x + 1;
  });
  fn.wrap([&order](Fn::Inner inner, int x) {
    order.push_back("outer");
    return inner(x * 10);
  });
  fn.wrap([&order](Fn::Inner inner, int x) {
    order.push_back("outermost");
    return inner(x) * 2;
  });
  EXPECT_EQ(fn(3), 62);  // ((3 * 10) + 1) * 2
  EXPECT_EQ(order,
            (std::vector<std::string>{"outermost", "outer", "base"}));
  // A relocated wrapper keeps its nesting.
  Fn moved(std::move(fn));
  EXPECT_FALSE(fn);
  EXPECT_EQ(moved(1), 22);
}

TEST(InlineFunction, WrapDestroysEveryLayerOnceAndSpillsWhenFull) {
  ASSERT_EQ(Tracked::live, 0);
  {
    using Small = InlineFunction<int(), 48>;
    Small fn([t = Tracked(5)] { return t.value; });
    fn.wrap([t = Tracked(7)](Small::Inner inner) { return inner() + t.value; });
    EXPECT_EQ(Tracked::live, 2);
    EXPECT_EQ(fn(), 12);
    // A third layer cannot fit 48 octets: the pair moves to one heap node
    // and still works, moves and dies exactly once.
    struct Pad {
      char bytes[40];
    };
    fn.wrap([pad = Pad{}](Small::Inner inner) {
      return inner() + static_cast<int>(sizeof(pad.bytes));
    });
    EXPECT_EQ(Tracked::live, 2);
    Small moved(std::move(fn));
    EXPECT_EQ(moved(), 52);
    EXPECT_EQ(Tracked::live, 2);
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFunction, StoresInlineMatchesCapacity) {
  struct Forty {
    char bytes[40];
  };
  auto small = [f = Forty{}] { return f.bytes[0]; };
  EXPECT_TRUE((InlineFunction<char(), 48>::stores_inline<decltype(small)>));
  EXPECT_FALSE((InlineFunction<char(), 32>::stores_inline<decltype(small)>));
}

// --- FlatHashMap ------------------------------------------------------------

TEST(FlatHashMap, BasicInsertFindErase) {
  FlatHashMap<std::string, int> m;
  EXPECT_TRUE(m.empty());
  m["one"] = 1;
  m["two"] = 2;
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at("one"), 1);
  EXPECT_EQ(m.count("three"), 0u);
  EXPECT_THROW(m.at("three"), std::out_of_range);
  EXPECT_EQ(m.erase("one"), 1u);
  EXPECT_EQ(m.erase("one"), 0u);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.find("one") == m.end());
  EXPECT_TRUE(m.find("two") != m.end());
}

TEST(FlatHashMap, EmplaceReportsExisting) {
  FlatHashMap<int, std::string> m;
  auto [it1, fresh1] = m.emplace(7, "seven");
  EXPECT_TRUE(fresh1);
  EXPECT_EQ(it1->second, "seven");
  auto [it2, fresh2] = m.emplace(7, "SEVEN");
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(it2->second, "seven");  // first value wins
  EXPECT_EQ(m.size(), 1u);
}

/// Pathological hash forcing every key into one cluster: exercises linear
/// probing and backward-shift deletion harder than a good hash ever would.
struct CollidingHash {
  std::size_t operator()(int) const { return 0; }
};

TEST(FlatHashMap, BackwardShiftDeletionKeepsClusterReachable) {
  FlatHashMap<int, int, CollidingHash> m;
  for (int i = 0; i < 6; ++i) m[i] = i * 10;
  // Delete from the middle of the probe chain; everything behind the hole
  // must shift back and stay findable.
  EXPECT_EQ(m.erase(2), 1u);
  EXPECT_EQ(m.erase(0), 1u);
  for (int i : {1, 3, 4, 5}) {
    ASSERT_TRUE(m.find(i) != m.end()) << "lost key " << i;
    EXPECT_EQ(m.at(i), i * 10);
  }
  EXPECT_EQ(m.size(), 4u);
}

TEST(FlatHashMap, RandomChurnMatchesStdMap) {
  // Model check against std::map under seeded random insert/erase/lookup.
  FlatHashMap<std::uint32_t, std::uint64_t> flat;
  std::map<std::uint32_t, std::uint64_t> reference;
  Rng rng(1234);
  for (int step = 0; step < 20000; ++step) {
    const std::uint32_t key =
        static_cast<std::uint32_t>(rng.uniform_int(0, 255));
    const int op = static_cast<int>(rng.uniform_int(0, 2));
    if (op == 0) {
      flat[key] = step;
      reference[key] = step;
    } else if (op == 1) {
      EXPECT_EQ(flat.erase(key), reference.erase(key));
    } else {
      const auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_TRUE(flat.find(key) == flat.end());
      } else {
        ASSERT_TRUE(flat.find(key) != flat.end());
        EXPECT_EQ(flat.at(key), it->second);
      }
    }
    ASSERT_EQ(flat.size(), reference.size());
  }
  // Final sweep: both maps hold exactly the same pairs.
  std::size_t seen = 0;
  for (const auto& [k, v] : flat) {
    const auto it = reference.find(k);
    ASSERT_TRUE(it != reference.end());
    EXPECT_EQ(v, it->second);
    ++seen;
  }
  EXPECT_EQ(seen, reference.size());
}

TEST(FlatHashMap, GrowthRehashesEverything) {
  FlatHashMap<int, int> m;
  for (int i = 0; i < 1000; ++i) m[i] = -i;
  EXPECT_EQ(m.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(m.at(i), -i);
}

TEST(FlatHashMap, NonTrivialValuesDestroyed) {
  ASSERT_EQ(Tracked::live, 0);
  {
    FlatHashMap<int, Tracked> m;
    for (int i = 0; i < 50; ++i) m.emplace(i, Tracked(i));
    EXPECT_EQ(Tracked::live, 50);
    for (int i = 0; i < 25; ++i) m.erase(i * 2);
    EXPECT_EQ(Tracked::live, 25);
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(FlatHashMap, CopyAndMove) {
  FlatHashMap<int, std::string> a;
  a[1] = "one";
  a[2] = "two";
  FlatHashMap<int, std::string> b(a);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.at(1), "one");
  b[3] = "three";
  EXPECT_EQ(a.count(3), 0u);  // deep copy

  FlatHashMap<int, std::string> c(std::move(b));
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.at(3), "three");
  a = std::move(c);
  EXPECT_EQ(a.size(), 3u);
}

// --- SlotPool ---------------------------------------------------------------

TEST(SlotPool, RecyclesReleasedSlotsAndNeverMovesRecords) {
  SlotPool<std::string> pool;
  const std::uint32_t a = pool.acquire();
  pool[a] = "first";
  const std::string* first = &pool[a];
  // Growing well past one deque block leaves the first record in place.
  for (int i = 0; i < 1000; ++i) pool[pool.acquire()] = "filler";
  EXPECT_EQ(&pool[a], first);
  EXPECT_EQ(pool[a], "first");
  // A released slot comes back before any new one, as its user left it.
  pool.release(a);
  EXPECT_EQ(pool.acquire(), a);
  EXPECT_EQ(pool[a], "first");
  EXPECT_EQ(pool.acquire(), 1001u);
}

}  // namespace
}  // namespace mecdns::util
