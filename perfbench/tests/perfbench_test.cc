// Tests of the benchmark's own helpers, and of the property the benchmark
// rests on: a run's work and quality numbers are fixed by its seed.

#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "fixture.h"
#include "gtest/gtest.h"
#include "report.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace lte::perfbench {
namespace {

std::vector<double> Iota(int64_t n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentileTest, PicksHighestRungWithTenBeyond) {
  const Tail t1000 = TailPercentile(Iota(1000));
  EXPECT_EQ(t1000.percentile, 99.0);
  EXPECT_EQ(t1000.value, 990.0);
  EXPECT_EQ(t1000.beyond, 10);
  EXPECT_EQ(t1000.samples, 1000);

  const Tail t100 = TailPercentile(Iota(100));
  EXPECT_EQ(t100.percentile, 90.0);
  EXPECT_EQ(t100.value, 90.0);
  EXPECT_EQ(t100.beyond, 10);

  // Between rungs the tail keeps the lower rung and more samples beyond.
  const Tail t5000 = TailPercentile(Iota(5000));
  EXPECT_EQ(t5000.percentile, 99.0);
  EXPECT_EQ(t5000.beyond, 50);

  const Tail t11000 = TailPercentile(Iota(11000));
  EXPECT_EQ(t11000.percentile, 99.9);
  EXPECT_EQ(t11000.beyond, 11);
}

TEST(TailPercentileTest, UnorderedInputAndSmallSamples) {
  std::vector<double> shuffled = Iota(21);
  std::reverse(shuffled.begin(), shuffled.end());
  const Tail t21 = TailPercentile(shuffled);
  EXPECT_EQ(t21.percentile, 50.0);
  EXPECT_EQ(t21.value, 11.0);
  EXPECT_EQ(t21.beyond, 10);

  // Too few samples for any rung: the maximum, flagged by nothing beyond.
  const Tail t11 = TailPercentile(Iota(11));
  EXPECT_EQ(t11.percentile, 100.0);
  EXPECT_EQ(t11.value, 11.0);
  EXPECT_EQ(t11.beyond, 0);
  EXPECT_EQ(t11.samples, 11);

  const Tail empty = TailPercentile({});
  EXPECT_EQ(empty.samples, 0);
  EXPECT_EQ(empty.value, 0.0);
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile(Iota(10), 50.0), 5.0);
  EXPECT_EQ(Percentile(Iota(10), 100.0), 10.0);
  EXPECT_EQ(Percentile(Iota(10), 0.0), 1.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
}

TEST(WindowStatsTest, OneBurstMovesNeitherRateNorTail) {
  // 2000 sequential requests of 10 ms, except a burst of 30 requests of
  // 1 s in the middle: the run's own p99 would land in the burst.
  std::vector<int64_t> ends;
  std::vector<double> latency;
  int64_t t = 0;
  for (int i = 0; i < 2000; ++i) {
    const double ms =
        (i >= 1000 && i < 1030) ? 1000.0 : 10.0 + (i % 100) * 0.01;
    t += static_cast<int64_t>(ms * 1e6);
    ends.push_back(t);
    latency.push_back(ms);
  }
  EXPECT_EQ(TailPercentile(latency).value, 1000.0);
  std::reverse(ends.begin(), ends.end());  // Any order, pairs kept.
  std::reverse(latency.begin(), latency.end());
  const WindowStats ws = SummarizeWindows(ends, latency, 0, 20);
  EXPECT_NEAR(ws.rate, 1000.0 / 10.5, 1.0);
  EXPECT_LT(ws.tail.value, 11.0);
  EXPECT_EQ(ws.tail.percentile, 90.0);  // 100 requests per window.
  EXPECT_EQ(ws.tail.beyond, 10);
  EXPECT_EQ(ws.tail.samples, 2000);

  const WindowStats one = SummarizeWindows(ends, latency, 0, 1);
  EXPECT_EQ(one.tail.value, 1000.0);
  EXPECT_NEAR(one.rate, 2000.0 / (static_cast<double>(t) * 1e-9), 1e-9);
  EXPECT_EQ(SummarizeWindows({}, {}, 0, 20).tail.samples, 0);
}

Span MakeSpan(int64_t parent, int64_t start, int64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, NestedAndOverlappingChildren) {
  const std::vector<Span> spans = {
      MakeSpan(-1, 0, 100),  // 0: root.
      MakeSpan(0, 10, 40),   // 1: child.
      MakeSpan(0, 30, 60),   // 2: child overlapping 1 on [30, 40).
      MakeSpan(1, 15, 20),   // 3: grandchild under 1.
      MakeSpan(0, 50, 55),   // 4: child inside 2's interval.
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - 50);  // Union of children is [10, 60).
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
  EXPECT_EQ(self[4], 5);
}

TEST(SelfTimeTest, ChildrenClippedToParent) {
  const std::vector<Span> spans = {MakeSpan(-1, 100, 200),
                                   MakeSpan(0, 50, 120),
                                   MakeSpan(0, 190, 260)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 20 - 10);
}

TEST(TraceBufferTest, ScopesNestAndMerge) {
  std::vector<TraceBuffer> buffers(2);
  {
    SpanScope outer(&buffers[0], SpanKind::kRequest, 7);
    SpanScope inner(&buffers[0], SpanKind::kSuggest, 7);
  }
  {
    SpanScope other(&buffers[1], SpanKind::kRequest, 8);
    SpanScope child(&buffers[1], SpanKind::kContinue, 8);
    child.SetTag(3);
  }
  SpanScope untraced(nullptr, SpanKind::kRequest, 9);
  const std::vector<Span> merged = MergeBuffers(buffers);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[1].parent, 0);
  EXPECT_EQ(merged[3].parent, 2);  // Rebased past the first buffer.
  EXPECT_EQ(merged[3].tag, 3);
  EXPECT_EQ(merged[3].request, 8);
  for (const Span& s : merged) {
    EXPECT_LE(s.start_ns, s.end_ns);
  }
  EXPECT_EQ(DurationsMs(merged, SpanKind::kRequest).size(), 2u);
  EXPECT_EQ(DurationsMs(merged, SpanKind::kContinue, 3).size(), 1u);
  EXPECT_EQ(DurationsMs(merged, SpanKind::kContinue, 4).size(), 0u);
}

TEST(ZipfSamplerTest, ProbabilitiesAndFrequencies) {
  const ZipfSampler zipf(50, 1.0);
  double total = 0.0;
  for (int64_t k = 0; k < zipf.size(); ++k) {
    total += zipf.Probability(k);
    if (k > 0) {
      EXPECT_LT(zipf.Probability(k), zipf.Probability(k - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(zipf.Probability(0) / zipf.Probability(1), 2.0, 1e-9);

  Rng rng(5);
  std::vector<int64_t> hits(50, 0);
  const int64_t draws = 200000;
  for (int64_t i = 0; i < draws; ++i) {
    const int64_t k = zipf.Sample(&rng);
    ASSERT_GE(k, 0);
    ASSERT_LT(k, 50);
    ++hits[static_cast<size_t>(k)];
  }
  for (const int64_t k : {0, 1, 9}) {
    EXPECT_NEAR(static_cast<double>(hits[static_cast<size_t>(k)]) / draws,
                zipf.Probability(k), 0.01);
  }
}

TEST(ZipfSamplerTest, SameStreamSameSequence) {
  const ZipfSampler zipf(64, 0.9);
  Rng a = Stream(3, kTrafficStream, 0);
  Rng b = Stream(3, kTrafficStream, 0);
  Rng c = Stream(4, kTrafficStream, 0);
  int64_t differ = 0;
  for (int i = 0; i < 100; ++i) {
    const int64_t x = zipf.Sample(&a);
    EXPECT_EQ(x, zipf.Sample(&b));
    differ += x != zipf.Sample(&c) ? 1 : 0;
  }
  EXPECT_GT(differ, 0);
}

TEST(ShardingTest, EveryUserHasExactlyOneOwner) {
  for (const int64_t shards : {1, 2, 3, 7}) {
    std::set<int64_t> seen;
    for (int64_t shard = 0; shard < shards; ++shard) {
      const std::vector<int64_t> users = UsersOfShard(24, shard, shards);
      EXPECT_TRUE(std::is_sorted(users.begin(), users.end()));
      for (const int64_t u : users) {
        EXPECT_EQ(u % shards, shard);
        EXPECT_TRUE(seen.insert(u).second);
      }
    }
    EXPECT_EQ(seen.size(), 24u);
  }
}

TEST(SeededSubsetTest, DependsOnSeedAlone) {
  const std::vector<int64_t> a = SeededSubset(64, 6, 11);
  EXPECT_EQ(a, SeededSubset(64, 6, 11));
  EXPECT_NE(a, SeededSubset(64, 6, 12));
  ASSERT_EQ(a.size(), 6u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(std::set<int64_t>(a.begin(), a.end()).size(), 6u);
  EXPECT_EQ(SeededSubset(4, 10, 11).size(), 4u);
}

TEST(ReportTest, PipelineJson) {
  Result r;
  r.attempted = 12;
  r.failed = 0;
  r.metrics = {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.5, "s"}};
  EXPECT_EQ(ToJson(r),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

TEST(ReportTest, AllDigitsAndNonFinite) {
  Result r;
  r.attempted = 1;
  r.metrics = {{"x", 0.1, "s"}};
  EXPECT_NE(ToJson(r).find("0.10000000000000001"), std::string::npos);
  r.metrics.push_back({"y", std::numeric_limits<double>::quiet_NaN(), "ms"});
  const std::string json = ToJson(r);
  EXPECT_NE(json.find("\"correct\": false"), std::string::npos);
  EXPECT_NE(json.find("{\"value\": null"), std::string::npos);
  EXPECT_EQ(JsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
}

// One tiny fixture shared by the determinism tests.
class RunDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new Fixture;
    FixtureOptions options;
    options.table_rows = 4096;
    options.eval_rows = 512;
    options.threads = 2;
    ASSERT_TRUE(BuildFixture(17, options, fixture_).ok());
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  // Relative to the working directory (run.py runs the tests from the
  // build directory).
  static std::string WorkDir() { return "perfbench_test_work"; }
  static Fixture* fixture_;
};

Fixture* RunDeterminismTest::fixture_ = nullptr;

void ExpectSameWork(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.request_ms.size(), b.request_ms.size());
  EXPECT_EQ(a.start_ms.size(), b.start_ms.size());
  EXPECT_EQ(a.attempted, b.attempted);
  EXPECT_EQ(a.failed_total(), 0);
  EXPECT_EQ(b.failed_total(), 0);
  uint64_t fa = 0;
  uint64_t fb = 0;
  std::memcpy(&fa, &a.f1, sizeof(fa));
  std::memcpy(&fb, &b.f1, sizeof(fb));
  EXPECT_EQ(fa, fb) << a.f1 << " vs " << b.f1;
  EXPECT_GT(a.f1, 0.0);
}

// One id per request in the written trace: every id's top-level spans are a
// single span, or the Acquire + StartExploration pair of one churn fleet
// user. Two requests that shared an id would show as two top-level spans of
// the same kind, or a request root beside other top-level spans.
void ExpectOneRequestPerId(const Outcome& traced) {
  std::map<int64_t, std::multiset<SpanKind>> roots;
  for (const Span& span : MergeBuffers(traced.traces)) {
    if (span.parent < 0) roots[span.request].insert(span.kind);
  }
  ASSERT_FALSE(roots.empty());
  const std::multiset<SpanKind> prep = {SpanKind::kStart, SpanKind::kAcquire};
  for (const auto& [id, kinds] : roots) {
    EXPECT_TRUE(kinds.size() == 1 || kinds == prep) << "request id " << id;
  }
}

TEST_F(RunDeterminismTest, RetrieveRepeats) {
  RetrieveConfig config;
  config.fleet = 6;
  config.clients = 2;
  config.lanes = 2;
  config.requests_per_client = 10;
  config.warmup_per_client = 1;
  config.arrivals = 3;
  Outcome one;
  Outcome two;
  ASSERT_TRUE(RunRetrieve(*fixture_, config, false, &one).ok());
  ASSERT_TRUE(RunRetrieve(*fixture_, config, true, &two).ok());
  ExpectSameWork(one, two);
  EXPECT_EQ(one.scheduler.requests, 20);
  EXPECT_EQ(two.scheduler.requests, 20);
  EXPECT_EQ(one.start_ms.size(), 3u);
  ExpectOneRequestPerId(two);
}

TEST_F(RunDeterminismTest, ChurnRepeatsWithExactSessionCounts) {
  ChurnConfig config;
  config.users = 10;
  config.resident = 3;
  config.requests = 40;
  config.warmup = 4;
  config.replay_users = 3;
  config.arrivals = 4;
  config.checkpoint_dir = WorkDir() + "/churn";
  Outcome one;
  Outcome two;
  ASSERT_TRUE(RunChurn(*fixture_, config, false, &one).ok());
  ASSERT_TRUE(RunChurn(*fixture_, config, true, &two).ok());
  ExpectSameWork(one, two);
  EXPECT_EQ(one.sessions.hits, two.sessions.hits);
  EXPECT_EQ(one.sessions.restores, two.sessions.restores);
  EXPECT_EQ(one.sessions.evictions, two.sessions.evictions);
  EXPECT_EQ(one.sessions.creates, 0);  // Every user was created in set-up.
  EXPECT_GT(one.sessions.restores, 0);
  EXPECT_EQ(one.checkpoint_bytes_mean, two.checkpoint_bytes_mean);
  ExpectOneRequestPerId(two);
  // The run cleans up after itself.
  EXPECT_FALSE(std::filesystem::exists(config.checkpoint_dir));
}

}  // namespace
}  // namespace lte::perfbench
