// Tests of the benchmark's own helpers: percentile choice, span self time,
// metric names, and the determinism of the simulated-results digest.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/spans.h"
#include "src/stats.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

TEST(TailPercentileTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_FALSE(TailPercentile(0).has_value());
  EXPECT_FALSE(TailPercentile(19).has_value());
  EXPECT_EQ(TailPercentile(20), 0.5);
  EXPECT_EQ(TailPercentile(99), 0.5);
  EXPECT_EQ(TailPercentile(100), 0.9);
  EXPECT_EQ(TailPercentile(999), 0.9);
  EXPECT_EQ(TailPercentile(1000), 0.99);
  EXPECT_EQ(TailPercentile(10000), 0.999);
  EXPECT_EQ(TailPercentile(1000000), 0.9999);
}

TEST(QuantileTest, InterpolatesBetweenOrderStatistics) {
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_EQ(Quantile({3, 1, 2}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_EQ(Quantile({5, 1}, 1.0), 5.0);
  EXPECT_EQ(Quantile({5, 1}, 0.0), 1.0);
}

TEST(HistogramQuantileTest, InterpolatesInsideTheBucketAndClampsToObserved) {
  itc::rpc::LatencyHistogram empty;
  EXPECT_EQ(HistogramQuantile(empty, 0.5), 0.0);

  itc::rpc::LatencyHistogram one_value;
  for (int i = 0; i < 50; ++i) one_value.Record(100);
  EXPECT_EQ(HistogramQuantile(one_value, 0.5), 100.0);  // bucket [64, 127], clamped
  EXPECT_EQ(HistogramQuantile(one_value, 0.99), 100.0);

  itc::rpc::LatencyHistogram spread;
  for (int v = 1; v <= 1000; ++v) spread.Record(v);
  const double p50 = HistogramQuantile(spread, 0.5);
  const double p99 = HistogramQuantile(spread, 0.99);
  EXPECT_GE(p50, 256.0);  // the 500th sample lies in bucket [256, 511]
  EXPECT_LE(p50, 511.0);
  EXPECT_GE(p99, 512.0);  // the 990th lies in [512, 1023], clamped to max 1000
  EXPECT_LE(p99, 1000.0);
  EXPECT_LT(p50, p99);
  EXPECT_EQ(HistogramQuantile(spread, 1.0), 1000.0);
}

Span MakeSpan(uint64_t id, uint64_t parent, uint32_t thread, int64_t begin, int64_t end,
              SpanKind kind = SpanKind::kStep) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.thread = thread;
  s.kind = kind;
  s.host_begin_ns = begin;
  s.host_end_ns = end;
  return s;
}

TEST(SelfTimeTest, OverlappingChildrenOnShardThreadsCountOnce) {
  // A RunAll-like parent on thread 0; its children ran on two shard threads
  // and overlap each other; one child outlives the parent's interval.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 0, 100),
      MakeSpan(2, 1, 1, 10, 50),
      MakeSpan(3, 1, 2, 30, 70),
      MakeSpan(4, 1, 2, 90, 120),
      MakeSpan(5, 2, 1, 20, 40),  // grandchild: covers only its own parent
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - (60 + 10));
  EXPECT_EQ(self[1], 40 - 20);
  EXPECT_EQ(self[2], 40);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 20);
}

TEST(SelfTimeTest, UnionLengthMergesTouchingAndNestedIntervals) {
  EXPECT_EQ(UnionLength({}), 0);
  EXPECT_EQ(UnionLength({{0, 10}, {10, 20}}), 20);
  EXPECT_EQ(UnionLength({{0, 30}, {5, 10}, {40, 41}}), 31);
  EXPECT_EQ(UnionLength({{5, 5}, {7, 3}}), 0);
}

TEST(SelfTimeTest, ThreadUnionSumsPerThread) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 0, 10),
      MakeSpan(2, 0, 0, 5, 15),   // overlaps on the same thread: counted once
      MakeSpan(3, 0, 1, 0, 10),   // another thread: thread-seconds add up
      MakeSpan(4, 0, 1, 0, 50, SpanKind::kRead),
  };
  EXPECT_EQ(ThreadUnionNs(spans, SpanKind::kStep), 15 + 10);
}

TEST(SelfTimeTest, SharedLeafTimesSplitInterleavedCalls) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 0, 10),
      MakeSpan(2, 0, 0, 5, 15),
      MakeSpan(3, 0, 1, 0, 8),
      MakeSpan(4, 0, 0, 0, 100),  // not a leaf
  };
  const std::vector<double> shared = SharedLeafTimes(spans, {true, true, true, false});
  EXPECT_DOUBLE_EQ(shared[0], 5 + 2.5);
  EXPECT_DOUBLE_EQ(shared[1], 2.5 + 5);
  EXPECT_DOUBLE_EQ(shared[2], 8);
  EXPECT_DOUBLE_EQ(shared[3], 0);
}

TEST(SpanRecorderTest, CollectsFromEveryThreadAndBoundsBuffers) {
  SpanRecorder recorder(2);
  for (int i = 0; i < 3; ++i) {
    ScopedSpan s(&recorder, SpanKind::kStat, 0, i);
    s.Close(i + 1);
  }
  EXPECT_EQ(recorder.Collect().size(), 2u);
  EXPECT_EQ(recorder.dropped(), 1u);
  ScopedSpan off(nullptr, SpanKind::kStat, 0, 0);
  EXPECT_EQ(off.id(), 0u);
}

TEST(ChromeTraceTest, WritesAtMostTheBound) {
  std::vector<Span> spans;
  for (uint64_t i = 1; i <= 10; ++i) spans.push_back(MakeSpan(i, 0, 0, 100 - i, 200));
  const std::string path = ::testing::TempDir() + "perfbench_trace_test.json";
  ASSERT_TRUE(WriteChromeTrace(path, spans, 4));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  size_t events = 0;
  for (size_t at = json.find("\"ph\""); at != std::string::npos; at = json.find("\"ph\"", at + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 4u);
  EXPECT_NE(json.find("\"spans\": 10"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricNameTest, AcceptsOnlyTheMetricAlphabet) {
  EXPECT_TRUE(ValidMetricName("setup_s"));
  EXPECT_TRUE(ValidMetricName("virtue.read.host_us_p99"));
  EXPECT_TRUE(ValidMetricName("9-lives"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("_x"));
  EXPECT_FALSE(ValidMetricName("rpc/fetch"));
  EXPECT_FALSE(ValidMetricName("a b"));
  EXPECT_FALSE(ValidMetricName("p\xc3\xa9"));
}

TEST(DigestTest, DependsOnValuesAndTheirOrder) {
  Digest a, b, c;
  a.Add(uint64_t{1});
  a.Add(uint64_t{2});
  b.Add(uint64_t{1});
  b.Add(uint64_t{2});
  c.Add(uint64_t{2});
  c.Add(uint64_t{1});
  EXPECT_EQ(a.Hex(), b.Hex());
  EXPECT_NE(a.Hex(), c.Hex());
  EXPECT_EQ(a.Hex().size(), 16u);

  Digest s1, s2;
  s1.Add("ab");
  s1.Add("c");
  s2.Add("a");
  s2.Add("bc");
  EXPECT_NE(s1.Hex(), s2.Hex());
}

// A miniature of each workload shape: a day with Andrew users on the solo
// kernel, and days on the kernel group with and without encryption.
WorkloadSpec Tiny(bool sharded, bool encrypt) {
  WorkloadSpec s;
  s.name = "tiny";
  s.clusters = 2;
  s.per_cluster = 3;
  s.encrypt = encrypt;
  s.sharded = sharded;
  s.andrew_every = 3;
  s.day_ops = 6;
  s.mean_think = itc::Seconds(2);
  return s;
}

class DigestDeterminismTest : public ::testing::TestWithParam<std::pair<bool, bool>> {};

TEST_P(DigestDeterminismTest, RepeatedAndTracedRunsAgree) {
  const WorkloadSpec spec = Tiny(GetParam().first, GetParam().second);
  const IterationResult first = RunIteration(spec, 7, /*traced=*/false);
  const IterationResult again = RunIteration(spec, 7, /*traced=*/false);
  const IterationResult traced = RunIteration(spec, 7, /*traced=*/true);
  const IterationResult other_seed = RunIteration(spec, 8, /*traced=*/false);

  EXPECT_GT(first.attempted, 0u);
  EXPECT_EQ(first.failed, 0u);
  EXPECT_TRUE(first.errors.empty()) << first.errors.front();
  EXPECT_EQ(first.digest, again.digest);
  EXPECT_EQ(first.digest, traced.digest);
  EXPECT_EQ(first.summary, traced.summary);
  EXPECT_NE(first.digest, other_seed.digest);
  EXPECT_FALSE(traced.spans.empty());
  EXPECT_TRUE(first.spans.empty());

  size_t traced_only = 0;
  for (const Metric& m : traced.metrics) {
    EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
    traced_only += m.traced_only ? 1 : 0;
  }
  EXPECT_GT(traced_only, 0u);
  for (const Metric& m : first.metrics) EXPECT_FALSE(m.traced_only) << m.name;
}

INSTANTIATE_TEST_SUITE_P(Shapes, DigestDeterminismTest,
                         ::testing::Values(std::pair{false, false}, std::pair{true, true},
                                           std::pair{true, false}));

}  // namespace
}  // namespace perfbench
