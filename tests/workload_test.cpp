// Unit and property tests for flow-size distributions and the Poisson
// open-loop generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>

#include "sim/random.hpp"
#include "workload/flow_generator.hpp"
#include "workload/flow_size_distribution.hpp"

namespace dynaq {
namespace workload {

// gtest prints a pointer parameter as its address, which changes on every
// build and would end up in the BuiltinWorkloads ctest names. Print the
// workload's name instead (found by ADL).
void PrintTo(const FlowSizeDistribution* d, std::ostream* os) { *os << d->name(); }

}  // namespace workload
namespace {

using workload::CdfPoint;
using workload::FlowSizeDistribution;

TEST(FlowSizeDistribution, RejectsMalformedTables) {
  EXPECT_THROW(FlowSizeDistribution("x", {{100, 1.0}}), std::invalid_argument);
  EXPECT_THROW(FlowSizeDistribution("x", {{100, 0.5}, {50, 1.0}}), std::invalid_argument);
  EXPECT_THROW(FlowSizeDistribution("x", {{10, 0.0}, {100, 0.9}}), std::invalid_argument);
  EXPECT_THROW(FlowSizeDistribution("x", {{10, 0.5}, {100, 0.2}}), std::invalid_argument);
}

TEST(FlowSizeDistribution, QuantileInterpolatesLinearly) {
  FlowSizeDistribution d("x", {{0, 0.0}, {100, 1.0}});
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 100.0);
}

TEST(FlowSizeDistribution, CdfIsInverseOfQuantile) {
  const FlowSizeDistribution& d = workload::web_search_workload();
  for (double u : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    EXPECT_NEAR(d.cdf(d.quantile(u)), u, 1e-9) << "u=" << u;
  }
}

TEST(FlowSizeDistribution, MeanOfUniformSegment) {
  FlowSizeDistribution d("x", {{0, 0.0}, {100, 1.0}});
  EXPECT_DOUBLE_EQ(d.mean_bytes(), 50.0);
}

TEST(FlowSizeDistribution, MeanOfTwoSegmentTable) {
  // Half the mass uniform on [0,10], half on [10,100]:
  // mean = 0.5*5 + 0.5*55 = 30.
  FlowSizeDistribution d("x", {{0, 0.0}, {10, 0.5}, {100, 1.0}});
  EXPECT_DOUBLE_EQ(d.mean_bytes(), 30.0);
}

TEST(FlowSizeDistribution, SampleMeanConvergesToAnalyticMean) {
  const FlowSizeDistribution& d = workload::web_search_workload();
  sim::Rng rng(42);
  double sum = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(d.sample(rng));
  EXPECT_NEAR(sum / n / d.mean_bytes(), 1.0, 0.03);
}

TEST(FlowSizeDistribution, SamplesAreAtLeastOneByte) {
  FlowSizeDistribution d("x", {{0, 0.0}, {2, 1.0}});
  sim::Rng rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(d.sample(rng), 1);
}

// Property sweep over all four built-in workloads.
class BuiltinWorkloads : public ::testing::TestWithParam<const FlowSizeDistribution*> {};

TEST_P(BuiltinWorkloads, TableIsValidCdf) {
  const auto& d = *GetParam();
  const auto table = d.table();
  ASSERT_GE(table.size(), 2u);
  EXPECT_DOUBLE_EQ(table.back().cum_prob, 1.0);
  for (std::size_t i = 1; i < table.size(); ++i) {
    EXPECT_GE(table[i].cum_prob, table[i - 1].cum_prob);
    EXPECT_GE(table[i].bytes, table[i - 1].bytes);
  }
}

TEST_P(BuiltinWorkloads, HeavyTailed) {
  // The paper's Fig. 2 point: flow-size distributions are heavy-tailed —
  // the median flow is far below the mean.
  const auto& d = *GetParam();
  EXPECT_LT(d.quantile(0.5), d.mean_bytes() * 0.5) << d.name();
}

TEST_P(BuiltinWorkloads, QuantileMonotone) {
  const auto& d = *GetParam();
  double prev = -1.0;
  for (int i = 0; i <= 100; ++i) {
    const double q = d.quantile(i / 100.0);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST_P(BuiltinWorkloads, SamplesWithinTableRange) {
  const auto& d = *GetParam();
  sim::Rng rng(7);
  const double max_bytes = d.table().back().bytes;
  for (int i = 0; i < 10'000; ++i) {
    const auto s = d.sample(rng);
    EXPECT_GE(s, 1);
    EXPECT_LE(static_cast<double>(s), max_bytes + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, BuiltinWorkloads,
                         ::testing::Values(&workload::web_search_workload(),
                                           &workload::data_mining_workload(),
                                           &workload::cache_workload(),
                                           &workload::hadoop_workload()),
                         [](const auto& info) { return info.param->name(); });

TEST(Workloads, WebSearchMatchesPaperQuote) {
  // "roughly 50% of flows are 1KB while 90% of bytes are from flows larger
  // than 100MB" describes data mining; web search's median is ~30-80 KB.
  const auto& ws = workload::web_search_workload();
  EXPECT_GT(ws.quantile(0.5), 10'000.0);
  EXPECT_LT(ws.quantile(0.5), 200'000.0);
  const auto& dm = workload::data_mining_workload();
  EXPECT_LE(dm.quantile(0.5), 2'000.0);
}

TEST(Workloads, AllWorkloadsSpanExposesFour) {
  EXPECT_EQ(workload::all_workloads().size(), 4u);
}

// ---------------------------------------------------------- generator --

TEST(FlowGenerator, ArrivalRateForLoadFormula) {
  // load 0.5 on 1 Gbps with mean 1 MB flows: 0.5 * 1e9 / (8 * 1e6) = 62.5/s
  EXPECT_DOUBLE_EQ(workload::arrival_rate_for_load(0.5, 1e9, 1e6), 62.5);
  EXPECT_THROW(workload::arrival_rate_for_load(0.0, 1e9, 1e6), std::invalid_argument);
  EXPECT_THROW(workload::arrival_rate_for_load(0.5, 0.0, 1e6), std::invalid_argument);
}

TEST(FlowGenerator, ProducesSortedStartsAtExpectedRate) {
  sim::Rng rng(3);
  const auto flows = workload::generate_poisson_flows(
      5000, 1000.0, workload::web_search_workload(), rng,
      [](std::size_t i, workload::FlowRequest& req) {
        req.src_host = static_cast<int>(i % 4);
        req.dst_host = 9;
      });
  ASSERT_EQ(flows.size(), 5000u);
  EXPECT_TRUE(std::is_sorted(flows.begin(), flows.end(),
                             [](const auto& a, const auto& b) { return a.start < b.start; }));
  // 5000 arrivals at 1000/s should span ~5 s.
  EXPECT_NEAR(to_seconds(flows.back().start), 5.0, 0.5);
  EXPECT_EQ(flows.back().dst_host, 9);
}

TEST(FlowGenerator, OfferedLoadMatchesTarget) {
  // Generated bytes / duration should approximate load * capacity.
  sim::Rng rng(11);
  const auto& dist = workload::web_search_workload();
  const double load = 0.6;
  const double cap = 1e9;
  const double rate = workload::arrival_rate_for_load(load, cap, dist.mean_bytes());
  const auto flows = workload::generate_poisson_flows(
      20'000, rate, dist, rng, [](std::size_t, workload::FlowRequest&) {});
  double total_bytes = 0.0;
  for (const auto& f : flows) total_bytes += static_cast<double>(f.size_bytes);
  const double duration = to_seconds(flows.back().start);
  EXPECT_NEAR(total_bytes * 8.0 / duration / cap, load, 0.05);
}

}  // namespace
}  // namespace dynaq
