// Unit tests for the shard runner (src/runner) and the FlatMap that backs
// the netsim hot paths: FlatMap must behave exactly like std::map for the
// operations the simulator uses, and shard_map must produce results in item
// order regardless of the job count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runner/runner.h"
#include "util/flat_map.h"
#include "util/rng.h"

namespace tspu {
namespace {

// ---------------------------------------------------------------------------
// FlatMap
// ---------------------------------------------------------------------------

TEST(FlatMap, InsertLookupEraseMatchesStdMap) {
  util::FlatMap<int, std::string> flat;
  std::map<int, std::string> ref;
  util::Rng rng(42);

  for (int step = 0; step < 2000; ++step) {
    const int key = static_cast<int>(rng.below(200));
    const int op = static_cast<int>(rng.below(4));
    switch (op) {
      case 0:  // operator[] insert-or-overwrite
        flat[key] = std::to_string(step);
        ref[key] = std::to_string(step);
        break;
      case 1: {  // find
        auto* fe = flat.find(key);
        auto ri = ref.find(key);
        ASSERT_EQ(fe != nullptr, ri != ref.end()) << "key " << key;
        if (fe != nullptr) {
          ASSERT_EQ(fe->second, ri->second);
        }
        break;
      }
      case 2:  // erase
        ASSERT_EQ(flat.erase(key), ref.erase(key)) << "key " << key;
        break;
      case 3:  // count/contains
        ASSERT_EQ(flat.count(key), ref.count(key));
        ASSERT_EQ(flat.contains(key), ref.count(key) == 1);
        break;
    }
    ASSERT_EQ(flat.size(), ref.size());
    ASSERT_EQ(flat.empty(), ref.empty());
  }
}

TEST(FlatMap, IterationIsKeyOrdered) {
  util::FlatMap<int, int> flat;
  std::map<int, int> ref;
  util::Rng rng(7);
  // Enough churn to force several tail consolidations.
  for (int step = 0; step < 500; ++step) {
    const int key = static_cast<int>(rng.below(1000));
    flat[key] = step;
    ref[key] = step;
  }
  std::vector<std::pair<int, int>> flat_items(flat.begin(), flat.end());
  std::vector<std::pair<int, int>> ref_items(ref.begin(), ref.end());
  EXPECT_EQ(flat_items, ref_items);
}

TEST(FlatMap, AtThrowsOnMissingKey) {
  util::FlatMap<int, int> flat;
  flat[3] = 30;
  EXPECT_EQ(flat.at(3), 30);
  EXPECT_THROW(flat.at(4), std::out_of_range);
  const auto& cflat = flat;
  EXPECT_EQ(cflat.at(3), 30);
  EXPECT_THROW(cflat.at(4), std::out_of_range);
}

TEST(FlatMap, SupportsMoveOnlyValues) {
  // Host keeps its TcpClients in a FlatMap<FlowKey, unique_ptr<TcpClient>>.
  util::FlatMap<int, std::unique_ptr<int>> flat;
  for (int i = 0; i < 100; ++i) flat[i] = std::make_unique<int>(i * 10);
  for (int i = 0; i < 100; i += 2) EXPECT_EQ(flat.erase(i), 1u);
  ASSERT_EQ(flat.size(), 50u);
  for (int i = 1; i < 100; i += 2) {
    auto* e = flat.find(i);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(*e->second, i * 10);
  }
  EXPECT_EQ(flat.find(2), nullptr);
}

TEST(FlatMap, OperatorBracketDefaultConstructs) {
  util::FlatMap<int, int> flat;
  EXPECT_EQ(flat[5], 0);
  flat[5] += 3;
  EXPECT_EQ(flat.at(5), 3);
  EXPECT_EQ(flat.size(), 1u);
}

TEST(FlatMap, TransparentLookupMatchesOwningKey) {
  // With std::less<>, every lookup entry point accepts a string_view probe
  // and must answer exactly like the same probe converted to std::string —
  // including keys parked in the unsorted insertion tail.
  util::FlatMap<std::string, int, std::less<>> flat;
  std::map<std::string, int, std::less<>> ref;
  const char* hosts[] = {"facebook.com", "instagram.com", "twitter.com",
                         "rutracker.org", "blog.example.com"};
  int v = 0;
  for (const char* h : hosts) {
    flat[std::string(h)] = v;
    ref[std::string(h)] = v;
    ++v;
  }
  for (const std::string_view probe :
       {std::string_view("facebook.com"), std::string_view("twitter.com"),
        std::string_view("absent.example"), std::string_view("")}) {
    SCOPED_TRACE(std::string(probe));
    const auto ri = ref.find(probe);
    const auto* fe = flat.find(probe);
    ASSERT_EQ(fe != nullptr, ri != ref.end());
    if (fe != nullptr) {
      EXPECT_EQ(fe->second, ri->second);
    }
    EXPECT_EQ(flat.contains(probe), ref.count(probe) == 1);
    EXPECT_EQ(flat.count(probe), ref.count(probe));
  }
  EXPECT_EQ(flat.at(std::string_view("rutracker.org")), 3);
  EXPECT_THROW(flat.at(std::string_view("absent.example")), std::out_of_range);
  // Ordered probes: same position as the reference map, by key.
  EXPECT_EQ(flat.lower_bound(std::string_view("i"))->first, "instagram.com");
  EXPECT_EQ(flat.upper_bound(std::string_view("instagram.com"))->first,
            "rutracker.org");
  // Heterogeneous erase, including a tail-resident key.
  flat[std::string("tail.example")] = 99;
  EXPECT_EQ(flat.erase(std::string_view("tail.example")), 1u);
  EXPECT_EQ(flat.erase(std::string_view("facebook.com")), 1u);
  EXPECT_EQ(flat.erase(std::string_view("facebook.com")), 0u);
  EXPECT_EQ(flat.size(), 4u);
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

TEST(Runner, ItemSeedIsStableAndDistinct) {
  // Pinned values: the sharded benches' results depend on this mapping, so
  // changing it is a breaking change that must be deliberate.
  EXPECT_EQ(runner::item_seed(0, 0), runner::item_seed(0, 0));
  EXPECT_NE(runner::item_seed(0, 0), runner::item_seed(0, 1));
  EXPECT_NE(runner::item_seed(0, 0), runner::item_seed(1, 0));
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i)
    seeds.push_back(runner::item_seed(0xabc, i));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
}

TEST(Runner, EffectiveJobs) {
  EXPECT_GE(runner::hardware_jobs(), 1);
  EXPECT_EQ(runner::effective_jobs(3), 3);
  EXPECT_EQ(runner::effective_jobs(0), runner::hardware_jobs());
  EXPECT_EQ(runner::effective_jobs(-5), runner::hardware_jobs());
}

TEST(Runner, ParallelMapPreservesItemOrder) {
  for (int jobs : {1, 2, 3, 7, 64}) {
    auto out = runner::parallel_map(100, jobs, [](std::size_t i) {
      return static_cast<int>(i * i);
    });
    ASSERT_EQ(out.size(), 100u) << "jobs " << jobs;
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], static_cast<int>(i * i)) << "jobs " << jobs;
  }
}

TEST(Runner, ShardMapBuildsOneContextPerShard) {
  std::atomic<int> contexts{0};
  auto out = runner::shard_map(
      20, 4,
      [&contexts](int shard) {
        ++contexts;
        return shard;
      },
      [](int& shard, std::size_t i) {
        // Round-robin assignment: item i runs on shard i % jobs.
        return std::make_pair(shard, i);
      });
  EXPECT_EQ(contexts.load(), 4);
  ASSERT_EQ(out.size(), 20u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, static_cast<int>(i % 4));
    EXPECT_EQ(out[i].second, i);
  }
}

TEST(Runner, ShardMapClampsJobsToItems) {
  std::atomic<int> contexts{0};
  auto out = runner::shard_map(
      2, 16,
      [&contexts](int) {
        ++contexts;
        return 0;
      },
      [](int&, std::size_t i) { return i; });
  EXPECT_EQ(contexts.load(), 2);
  EXPECT_EQ(out.size(), 2u);
}

TEST(Runner, EmptyInputBuildsNothing) {
  std::atomic<int> contexts{0};
  auto out = runner::shard_map(
      0, 4, [&contexts](int) { ++contexts; return 0; },
      [](int&, std::size_t i) { return i; });
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(contexts.load(), 0);
}

TEST(Runner, WorkerExceptionPropagates) {
  EXPECT_THROW(
      runner::parallel_map(10, 4,
                           [](std::size_t i) -> int {
                             if (i == 7) throw std::runtime_error("item 7");
                             return 0;
                           }),
      std::runtime_error);
}

TEST(Runner, SupportsMoveOnlyContextAndResult) {
  auto out = runner::shard_map(
      10, 3,
      [](int shard) { return std::make_unique<int>(shard); },
      [](std::unique_ptr<int>& ctx, std::size_t i) {
        return std::make_unique<std::size_t>(i + static_cast<std::size_t>(0 * *ctx));
      });
  ASSERT_EQ(out.size(), 10u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(*out[i], i);
}

}  // namespace
}  // namespace tspu
