// Unit tests for the stats module: fairness, percentiles, FCT summaries
// and throughput meters.
#include <gtest/gtest.h>

#include <vector>

#include "stats/fairness.hpp"
#include "stats/fct_recorder.hpp"
#include "stats/percentile.hpp"
#include "stats/throughput_meter.hpp"

namespace dynaq {
namespace {

// ------------------------------------------------------------ fairness --

TEST(JainIndex, PerfectlyFairIsOne) {
  const std::vector<double> x{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(stats::jain_index(x), 1.0);
}

TEST(JainIndex, MonopolyIsOneOverN) {
  const std::vector<double> x{10.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(stats::jain_index(x), 0.25);
}

TEST(JainIndex, ScaleInvariant) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(stats::jain_index(a), stats::jain_index(b));
}

TEST(JainIndex, EmptyAndAllZeroAreFair) {
  EXPECT_DOUBLE_EQ(stats::jain_index({}), 1.0);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_DOUBLE_EQ(stats::jain_index(zeros), 1.0);
}

TEST(JainIndex, KnownTwoMemberValue) {
  // (1+3)^2 / (2*(1+9)) = 16/20 = 0.8
  const std::vector<double> x{1.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::jain_index(x), 0.8);
}

TEST(ShareOf, BasicShares) {
  const std::vector<double> x{1.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::share_of(x, 0), 0.25);
  EXPECT_DOUBLE_EQ(stats::share_of(x, 1), 0.75);
  EXPECT_DOUBLE_EQ(stats::share_of(x, 2), 0.0);  // out of range
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_DOUBLE_EQ(stats::share_of(zeros, 0), 0.0);
}

// ---------------------------------------------------------- percentile --

TEST(Percentile, MedianOfOddSet) {
  const std::vector<double> x{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(stats::percentile(x, 50.0), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(stats::percentile(x, 50.0), 2.5);
}

TEST(Percentile, Extremes) {
  const std::vector<double> x{5.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(stats::percentile(x, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::percentile(x, 100.0), 9.0);
}

TEST(Percentile, EmptyAndSingle) {
  EXPECT_DOUBLE_EQ(stats::percentile({}, 50.0), 0.0);
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(stats::percentile(one, 99.0), 7.0);
}

TEST(Percentile, P99OfUniformRamp) {
  std::vector<double> x;
  for (int i = 1; i <= 100; ++i) x.push_back(static_cast<double>(i));
  EXPECT_NEAR(stats::percentile(x, 99.0), 99.01, 0.011);
}

TEST(Percentile, InplaceMatchesCopying) {
  std::vector<double> x{9.0, 3.0, 7.0, 1.0, 5.0};
  const double expected50 = stats::percentile(x, 50.0);
  const double expected90 = stats::percentile(x, 90.0);
  const std::vector<double> ps{50.0, 90.0};
  const auto got = stats::percentiles_inplace(x, ps);
  EXPECT_DOUBLE_EQ(got[0], expected50);
  EXPECT_DOUBLE_EQ(got[1], expected90);
  EXPECT_TRUE(std::is_sorted(x.begin(), x.end()));
}

TEST(Mean, BasicAndEmpty) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::mean(x), 2.0);
  EXPECT_DOUBLE_EQ(stats::mean({}), 0.0);
}

// -------------------------------------------------------- FctRecorder --

TEST(FctRecorder, BucketsBySize) {
  stats::FctRecorder rec;
  // small (<= 100 KB), medium, large (> 10 MB)
  rec.record(1, 50'000, 0, milliseconds(std::int64_t{2}));
  rec.record(2, 1'000'000, 0, milliseconds(std::int64_t{10}));
  rec.record(3, 20'000'000, 0, milliseconds(std::int64_t{200}));
  const auto s = rec.summarize();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.small_count, 1u);
  EXPECT_EQ(s.large_count, 1u);
  EXPECT_DOUBLE_EQ(s.avg_small_ms, 2.0);
  EXPECT_DOUBLE_EQ(s.avg_medium_ms, 10.0);
  EXPECT_DOUBLE_EQ(s.avg_large_ms, 200.0);
  EXPECT_NEAR(s.avg_overall_ms, (2.0 + 10.0 + 200.0) / 3.0, 1e-9);
}

TEST(FctRecorder, BoundarySizesClassify) {
  stats::FctRecorder rec;
  rec.record(1, stats::kSmallFlowBytes, 0, milliseconds(std::int64_t{1}));      // small
  rec.record(2, stats::kSmallFlowBytes + 1, 0, milliseconds(std::int64_t{1}));  // medium
  rec.record(3, stats::kLargeFlowBytes, 0, milliseconds(std::int64_t{1}));      // medium
  rec.record(4, stats::kLargeFlowBytes + 1, 0, milliseconds(std::int64_t{1}));  // large
  const auto s = rec.summarize();
  EXPECT_EQ(s.small_count, 1u);
  EXPECT_EQ(s.large_count, 1u);
}

TEST(FctRecorder, P99TracksTail) {
  stats::FctRecorder rec;
  for (int i = 0; i < 99; ++i) rec.record(i, 1000, 0, milliseconds(std::int64_t{1}));
  rec.record(99, 1000, 0, milliseconds(std::int64_t{100}));
  const auto s = rec.summarize();
  EXPECT_GT(s.p99_small_ms, 1.0);
  EXPECT_LE(s.p99_small_ms, 100.0);
}

TEST(FctRecorder, EmptySummary) {
  stats::FctRecorder rec;
  const auto s = rec.summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.avg_overall_ms, 0.0);
}

TEST(FctRecorder, FctIsFinishMinusStart) {
  stats::FlowRecord r{1, 1000, milliseconds(std::int64_t{5}), milliseconds(std::int64_t{9})};
  EXPECT_EQ(r.fct(), milliseconds(std::int64_t{4}));
}

// ----------------------------------------------------- ThroughputMeter --

TEST(ThroughputMeter, BinsBytesIntoWindows) {
  stats::ThroughputMeter m(2, milliseconds(std::int64_t{100}));
  m.record(0, 1'250'000, milliseconds(std::int64_t{50}));   // window 0: 0.1 Gbps
  m.record(1, 2'500'000, milliseconds(std::int64_t{150}));  // window 1: 0.2 Gbps
  EXPECT_NEAR(m.gbps(0, 0), 0.1, 1e-9);
  EXPECT_NEAR(m.gbps(0, 1), 0.0, 1e-9);
  EXPECT_NEAR(m.gbps(1, 1), 0.2, 1e-9);
  EXPECT_NEAR(m.aggregate_gbps(1), 0.2, 1e-9);
}

TEST(ThroughputMeter, WindowBoundaryGoesToLaterWindow) {
  stats::ThroughputMeter m(1, milliseconds(std::int64_t{100}));
  m.record(0, 1000, milliseconds(std::int64_t{100}));  // exactly at boundary
  EXPECT_EQ(m.num_windows(), 2u);
  EXPECT_GT(m.gbps(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.gbps(0, 0), 0.0);
}

TEST(ThroughputMeter, MeanOverRange) {
  stats::ThroughputMeter m(1, milliseconds(std::int64_t{100}));
  m.record(0, 1'250'000, milliseconds(std::int64_t{50}));
  m.record(0, 2'500'000, milliseconds(std::int64_t{150}));
  EXPECT_NEAR(m.mean_gbps(0, 0, 2), 0.15, 1e-9);
  EXPECT_DOUBLE_EQ(m.mean_gbps(0, 2, 2), 0.0);
}

TEST(ThroughputMeter, OutOfRangeWindowIsZero) {
  stats::ThroughputMeter m(1, milliseconds(std::int64_t{100}));
  EXPECT_DOUBLE_EQ(m.gbps(5, 0), 0.0);
}

}  // namespace
}  // namespace dynaq
