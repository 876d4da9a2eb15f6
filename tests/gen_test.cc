// Tests for the synthetic and Meetup-like workload generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gen/meetup.h"
#include "gen/synthetic.h"
#include "test_util.h"

namespace dasc::gen {
namespace {

SyntheticParams SmallSynthetic(uint64_t seed = 42) {
  SyntheticParams params;
  params.seed = seed;
  params.num_workers = 60;
  params.num_tasks = 80;
  params.num_skills = 12;
  params.dependency_size = {0, 6};
  params.worker_skills = {1, 4};
  return params;
}

MeetupParams SmallMeetup(uint64_t seed = 42) {
  MeetupParams params;
  params.seed = seed;
  params.num_workers = 120;
  params.num_tasks = 60;
  params.num_groups = 8;
  params.num_skills = 40;
  return params;
}

// --------------------------------------------------------------- Synthetic ---

TEST(SyntheticTest, ProducesRequestedCounts) {
  auto instance = GenerateSynthetic(SmallSynthetic());
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  EXPECT_EQ(instance->num_workers(), 60);
  EXPECT_EQ(instance->num_tasks(), 80);
  EXPECT_EQ(instance->num_skills(), 12);
}

TEST(SyntheticTest, Deterministic) {
  auto a = GenerateSynthetic(SmallSynthetic(7));
  auto b = GenerateSynthetic(SmallSynthetic(7));
  ASSERT_TRUE(a.ok() && b.ok());
  for (int i = 0; i < a->num_workers(); ++i) {
    EXPECT_EQ(a->worker(i).location, b->worker(i).location);
    EXPECT_EQ(a->worker(i).skills, b->worker(i).skills);
  }
  for (int t = 0; t < a->num_tasks(); ++t) {
    EXPECT_EQ(a->task(t).dependencies, b->task(t).dependencies);
  }
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  auto a = GenerateSynthetic(SmallSynthetic(1));
  auto b = GenerateSynthetic(SmallSynthetic(2));
  ASSERT_TRUE(a.ok() && b.ok());
  bool any_diff = false;
  for (int i = 0; i < a->num_workers() && !any_diff; ++i) {
    any_diff = !(a->worker(i).location == b->worker(i).location);
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticTest, ValuesWithinConfiguredRanges) {
  const SyntheticParams params = SmallSynthetic();
  auto instance = GenerateSynthetic(params);
  ASSERT_TRUE(instance.ok());
  for (const auto& w : instance->workers()) {
    EXPECT_GE(w.location.x, 0.0);
    EXPECT_LE(w.location.x, params.area_side);
    EXPECT_GE(w.start_time, params.start_time.lo);
    EXPECT_LE(w.start_time, params.start_time.hi);
    EXPECT_GE(w.velocity, params.velocity.lo);
    EXPECT_LE(w.velocity, params.velocity.hi);
    EXPECT_GE(w.max_distance, params.max_distance.lo);
    EXPECT_LE(w.max_distance, params.max_distance.hi);
    EXPECT_GE(static_cast<int>(w.skills.size()), 1);
    EXPECT_LE(static_cast<int>(w.skills.size()), params.worker_skills.hi);
  }
  for (const auto& t : instance->tasks()) {
    EXPECT_GE(t.required_skill, 0);
    EXPECT_LT(t.required_skill, params.num_skills);
    EXPECT_GE(t.wait_time, params.wait_time.lo);
    EXPECT_LE(t.wait_time, params.wait_time.hi);
  }
}

TEST(SyntheticTest, DependenciesPointBackwardsAndAreClosed) {
  auto instance = GenerateSynthetic(SmallSynthetic(3));
  ASSERT_TRUE(instance.ok());
  for (const auto& t : instance->tasks()) {
    for (core::TaskId d : t.dependencies) {
      EXPECT_LT(d, t.id);  // generation order guarantees acyclicity
    }
    // The generator stores transitively closed sets: the stored direct list
    // equals the instance's computed closure.
    EXPECT_EQ(t.dependencies,
              testing::RowOf(instance->DepClosure(t.id)));
  }
}

TEST(SyntheticTest, DependencySizeRangeRoughlyRespected) {
  SyntheticParams params = SmallSynthetic(4);
  params.num_tasks = 400;
  params.dependency_size = {0, 10};
  auto instance = GenerateSynthetic(params);
  ASSERT_TRUE(instance.ok());
  int64_t total = 0;
  for (const auto& t : instance->tasks()) {
    total += static_cast<int64_t>(instance->DepClosure(t.id).size());
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(params.num_tasks);
  // Target mean is ~5; union overshoot can push it somewhat higher.
  EXPECT_GT(mean, 2.0);
  EXPECT_LT(mean, 14.0);
}

TEST(SyntheticTest, ZeroDependencyRangeMeansNoDeps) {
  SyntheticParams params = SmallSynthetic(5);
  params.dependency_size = {0, 0};
  auto instance = GenerateSynthetic(params);
  ASSERT_TRUE(instance.ok());
  for (const auto& t : instance->tasks()) {
    EXPECT_TRUE(t.dependencies.empty());
  }
}

TEST(SyntheticTest, RejectsBadParams) {
  SyntheticParams params = SmallSynthetic();
  params.num_skills = 0;
  EXPECT_FALSE(GenerateSynthetic(params).ok());
  params = SmallSynthetic();
  params.worker_skills = {0, 3};
  EXPECT_FALSE(GenerateSynthetic(params).ok());
  params = SmallSynthetic();
  params.num_workers = -1;
  EXPECT_FALSE(GenerateSynthetic(params).ok());
}

TEST(SyntheticTest, EmptyWorkloadAllowed) {
  SyntheticParams params = SmallSynthetic();
  params.num_workers = 0;
  params.num_tasks = 0;
  auto instance = GenerateSynthetic(params);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->num_workers(), 0);
}

// ----------------------------------------------------------------- Meetup ---

TEST(MeetupTest, ProducesRequestedCounts) {
  auto instance = GenerateMeetup(SmallMeetup());
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  EXPECT_EQ(instance->num_workers(), 120);
  EXPECT_EQ(instance->num_tasks(), 60);
}

TEST(MeetupTest, Deterministic) {
  auto a = GenerateMeetup(SmallMeetup(9));
  auto b = GenerateMeetup(SmallMeetup(9));
  ASSERT_TRUE(a.ok() && b.ok());
  for (int t = 0; t < a->num_tasks(); ++t) {
    EXPECT_EQ(a->task(t).location, b->task(t).location);
    EXPECT_EQ(a->task(t).dependencies, b->task(t).dependencies);
  }
}

TEST(MeetupTest, LocationsInsideHongKongBox) {
  const MeetupParams params = SmallMeetup();
  auto instance = GenerateMeetup(params);
  ASSERT_TRUE(instance.ok());
  for (const auto& w : instance->workers()) {
    EXPECT_GE(w.location.x, params.lon_min);
    EXPECT_LE(w.location.x, params.lon_max);
    EXPECT_GE(w.location.y, params.lat_min);
    EXPECT_LE(w.location.y, params.lat_max);
  }
  for (const auto& t : instance->tasks()) {
    EXPECT_GE(t.location.x, params.lon_min);
    EXPECT_LE(t.location.x, params.lon_max);
  }
}

TEST(MeetupTest, TagPopularityIsSkewed) {
  MeetupParams params = SmallMeetup(11);
  params.num_workers = 800;
  auto instance = GenerateMeetup(params);
  ASSERT_TRUE(instance.ok());
  std::vector<int> frequency(static_cast<size_t>(params.num_skills), 0);
  for (const auto& w : instance->workers()) {
    for (core::SkillId s : w.skills) ++frequency[static_cast<size_t>(s)];
  }
  std::sort(frequency.rbegin(), frequency.rend());
  // Zipf: the top decile of tags should dominate the bottom half.
  int top = 0, bottom = 0;
  for (size_t i = 0; i < frequency.size() / 10; ++i) top += frequency[i];
  for (size_t i = frequency.size() / 2; i < frequency.size(); ++i) {
    bottom += frequency[i];
  }
  EXPECT_GT(top, bottom);
}

TEST(MeetupTest, DependenciesStayWithinTaskGroupAndAreClosed) {
  auto instance = GenerateMeetup(SmallMeetup(13));
  ASSERT_TRUE(instance.ok());
  int with_deps = 0;
  for (const auto& t : instance->tasks()) {
    for (core::TaskId d : t.dependencies) EXPECT_LT(d, t.id);
    EXPECT_EQ(t.dependencies,
              testing::RowOf(instance->DepClosure(t.id)));
    if (!t.dependencies.empty()) ++with_deps;
  }
  EXPECT_GT(with_deps, 0);
}

TEST(MeetupTest, WorkersSometimesShareSkillWithTasks) {
  // The whole point of group-structured skills: a decent fraction of tasks
  // must have at least one skill-compatible worker.
  auto instance = GenerateMeetup(SmallMeetup(17));
  ASSERT_TRUE(instance.ok());
  int coverable = 0;
  for (const auto& t : instance->tasks()) {
    for (const auto& w : instance->workers()) {
      if (w.HasSkill(t.required_skill)) {
        ++coverable;
        break;
      }
    }
  }
  EXPECT_GT(coverable, instance->num_tasks() / 2);
}

TEST(MeetupTest, RejectsBadParams) {
  MeetupParams params = SmallMeetup();
  params.num_groups = 0;
  EXPECT_FALSE(GenerateMeetup(params).ok());
  params = SmallMeetup();
  params.group_tags = {0, 5};
  EXPECT_FALSE(GenerateMeetup(params).ok());
  params = SmallMeetup();
  params.num_skills = 0;
  EXPECT_FALSE(GenerateMeetup(params).ok());
}

}  // namespace
}  // namespace dasc::gen
