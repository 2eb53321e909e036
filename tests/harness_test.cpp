// Harness tests: CLI parsing, table rendering, CSV output, experiment
// driver validation and measurement plumbing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness/cli.hpp"
#include "harness/dynamic_experiment.hpp"
#include "harness/static_experiment.hpp"
#include "harness/table.hpp"
#include "stats/csv_writer.hpp"
#include "workload/flow_size_distribution.hpp"

namespace dynaq {
namespace {

// ---------------------------------------------------------------- CLI --

harness::Cli make_cli(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  static std::vector<char*> argv;
  argv.clear();
  for (auto& s : storage) argv.push_back(s.data());
  return harness::Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const auto cli = make_cli({"--flows=500", "--load", "0.7"});
  EXPECT_EQ(cli.integer("flows", 0), 500);
  EXPECT_DOUBLE_EQ(cli.real("load", 0.0), 0.7);
}

TEST(Cli, BooleanFlags) {
  const auto cli = make_cli({"--full", "--verbose=false"});
  EXPECT_TRUE(cli.flag("full"));
  EXPECT_FALSE(cli.flag("verbose"));
  EXPECT_FALSE(cli.flag("absent"));
  EXPECT_TRUE(cli.flag("absent", true));
}

TEST(Cli, FallbacksWhenMissing) {
  const auto cli = make_cli({});
  EXPECT_EQ(cli.integer("n", 42), 42);
  EXPECT_EQ(cli.text("name", "dflt"), "dflt");
  EXPECT_FALSE(cli.has("n"));
}

TEST(Cli, CommaSeparatedReals) {
  const auto cli = make_cli({"--loads=0.3,0.5,0.8"});
  const auto loads = cli.reals("loads", {});
  ASSERT_EQ(loads.size(), 3u);
  EXPECT_DOUBLE_EQ(loads[1], 0.5);
  const auto fallback = cli.reals("other", {1.0});
  ASSERT_EQ(fallback.size(), 1u);
}

TEST(Cli, CommaSeparatedStrings) {
  const auto cli = make_cli({"--schemes=DynaQ,PQL"});
  const auto schemes = cli.list("schemes", {});
  ASSERT_EQ(schemes.size(), 2u);
  EXPECT_EQ(schemes[0], "DynaQ");
  EXPECT_EQ(schemes[1], "PQL");
  EXPECT_EQ(cli.list("absent", {"x"}).size(), 1u);
}

TEST(Cli, UnknownFlagsAreTheOnesNeverQueried) {
  const auto cli = make_cli({"--seeed=3", "--flows=10", "--full"});
  EXPECT_EQ(cli.integer("flows", 0), 10);
  EXPECT_TRUE(cli.flag("full"));
  const auto bad = cli.unknown();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], "seeed");  // the typo --seed would have been silently ignored
}

TEST(Cli, NoUnknownFlagsWhenAllQueried) {
  const auto cli = make_cli({"--flows=10"});
  EXPECT_EQ(cli.integer("flows", 0), 10);
  EXPECT_TRUE(cli.unknown().empty());
  cli.reject_unknown();  // nothing to reject: returns
}

// A flag no accessor read (a typo, --help, or a flag read only under
// another flag) stops the binary before it runs anything: exit 2 naming
// the flag and listing the flags the binary reads.
TEST(CliDeathTest, UnknownFlagExitsListingTheKnownFlags) {
  const auto usage_error = ::testing::ExitedWithCode(2);
  const auto cli = make_cli({"--seeed=3", "--flows=10"});
  EXPECT_EQ(cli.integer("flows", 0), 10);
  EXPECT_EQ(cli.natural("seed", 1), 1);
  EXPECT_EXIT(cli.reject_unknown(), usage_error,
              "error: unrecognized flag --seeed\nknown flags: --flows --seed\n");
  EXPECT_EXIT(make_cli({"--help"}).reject_unknown(), usage_error,
              "error: unrecognized flag --help\nknown flags: none\n");
}

// An argument that is neither a flag nor a flag's value (the 7 in
// --seconds 1 7) used to be skipped; it stops the binary like an unknown
// flag. The 1 stays the value of --seconds.
TEST(CliDeathTest, StrayArgumentExitsNamingIt) {
  const auto usage_error = ::testing::ExitedWithCode(2);
  const auto cli = make_cli({"--seconds", "1", "7"});
  EXPECT_EQ(cli.positive("seconds", 10), 1);
  EXPECT_EXIT(cli.reject_unknown(), usage_error,
              "error: unexpected argument '7'\nknown flags: --seconds\n");
}

// A numeric value that does not parse completely must not run as its
// parsed prefix or as 0: the binary exits with status 2 and names the flag.
TEST(CliDeathTest, MalformedNumbersExitNamingTheFlag) {
  const auto usage_error = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(make_cli({"--flows=4x"}).integer("flows", 1), usage_error,
              "--flows: '4x' is not an integer");
  EXPECT_EXIT(make_cli({"--flows"}).integer("flows", 1), usage_error,
              "--flows: 'true' is not an integer");
  EXPECT_EXIT(make_cli({"--seed=1.5"}).integer("seed", 1), usage_error, "--seed");
  EXPECT_EXIT(make_cli({"--load=abc"}).real("load", 0.5), usage_error,
              "--load: 'abc' is not a finite number");
  EXPECT_EXIT(make_cli({"--load=nan"}).real("load", 0.5), usage_error, "--load");
  EXPECT_EXIT(make_cli({"--seeds=1,abc"}).reals("seeds", {}), usage_error,
              "--seeds: 'abc' is not a finite number");
  EXPECT_EXIT(make_cli({"--seeds=1,,2"}).reals("seeds", {}), usage_error, "--seeds: ''");
}

// Every real-valued flag is a load, rate, weight, count or duration: zero
// or a negative value used to abort the binary (--load=0, --rate-gbps=0) or
// fail every job (--loads=0).
TEST(CliDeathTest, NonPositiveRealExitsNamingTheFlag) {
  const auto usage_error = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(make_cli({"--load=0"}).real("load", 0.5), usage_error,
              "--load: '0' is not a positive number");
  EXPECT_EXIT(make_cli({"--rate-gbps", "-1"}).real("rate-gbps", 1.0), usage_error,
              "--rate-gbps: '-1' is not a positive number");
  EXPECT_EXIT(make_cli({"--load=-0"}).real("load", 0.5), usage_error,
              "--load: '-0' is not a positive number");
  EXPECT_DOUBLE_EQ(make_cli({"--load=1e-9"}).real("load", 0.5), 1e-9);
  EXPECT_DOUBLE_EQ(make_cli({}).real("load", 0.5), 0.5);
}

TEST(CliDeathTest, NonPositiveRealInAListExitsNamingTheFlag) {
  const auto usage_error = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(make_cli({"--loads=0"}).reals("loads", {}), usage_error,
              "--loads: '0' is not a positive number");
  EXPECT_EXIT(make_cli({"--loads=0.5,-0.5"}).reals("loads", {}), usage_error,
              "--loads: '-0.5' is not a positive number");
  EXPECT_EQ(make_cli({"--weights=4,0.5"}).reals("weights", {}), (std::vector<double>{4, 0.5}));
  EXPECT_EQ(make_cli({}).reals("loads", {0.3}), std::vector<double>{0.3});
}

// A seed axis takes non-negative integers only: --seeds=1.5 used to be
// recorded as 1.5 but run as seed 1, and a negative seed is undefined once
// cast to an unsigned seed.
TEST(CliDeathTest, FractionalOrNegativeSeedsExitNamingTheFlag) {
  const auto usage_error = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(make_cli({"--seeds=1.5"}).naturals("seeds", {}), usage_error,
              "--seeds: '1.5' is not an integer");
  EXPECT_EXIT(make_cli({"--seeds=1,-1"}).naturals("seeds", {}), usage_error,
              "--seeds: '-1' is not a non-negative integer");
  EXPECT_EXIT(make_cli({"--seed=-2"}).natural("seed", 1), usage_error,
              "--seed: '-2' is not a non-negative integer");
  const auto cli = make_cli({"--seeds=0,2,3"});
  EXPECT_EQ(cli.naturals("seeds", {}), (std::vector<double>{0, 2, 3}));
  EXPECT_EQ(cli.naturals("absent", {7}), std::vector<double>{7});
}

// A text flag given without a value used to read as "true" (--csv wrote
// into a directory named true after the whole run).
TEST(CliDeathTest, BareTextFlagExitsNamingTheFlag) {
  const auto usage_error = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(make_cli({"--csv"}).text("csv", ""), usage_error, "--csv needs a value");
  EXPECT_EXIT(make_cli({"--json", "--full"}).text("json", ""), usage_error,
              "--json needs a value");
  EXPECT_EQ(make_cli({"--csv", "out"}).text("csv", ""), "out");
  EXPECT_TRUE(make_cli({"--full"}).flag("full"));
}

// An empty text value is refused like a bare one: read as "not given",
// --json= would run the sweep and exit 0 without writing its artifact.
TEST(CliDeathTest, EmptyTextFlagExitsNamingTheFlag) {
  const auto usage_error = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(make_cli({"--json="}).text("json", ""), usage_error, "--json needs a value");
  EXPECT_EXIT(make_cli({"--csv", ""}).text("csv", ""), usage_error, "--csv needs a value");
}

// A boolean flag takes no value but true, false, 1 or 0, so --full=off
// cannot read as true and --full 7 cannot swallow the 7.
TEST(CliDeathTest, NonBooleanFlagValueExitsNamingTheFlag) {
  const auto usage_error = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(make_cli({"--full=off"}).flag("full"), usage_error,
              "--full: 'off' is not a boolean \\(true, false, 1 or 0\\)");
  EXPECT_EXIT(make_cli({"--full", "7"}).flag("full"), usage_error, "--full: '7' is not a boolean");
  EXPECT_EXIT(make_cli({"--full="}).flag("full"), usage_error, "--full: '' is not a boolean");
  const auto cli = make_cli({"--a=true", "--b=1", "--c=false", "--d", "0"});
  EXPECT_TRUE(cli.flag("a"));
  EXPECT_TRUE(cli.flag("b"));
  EXPECT_FALSE(cli.flag("c"));
  EXPECT_FALSE(cli.flag("d", true));
}

// -------------------------------------------------------------- Table --

TEST(Table, AlignsColumns) {
  harness::Table t({"a", "long_header"});
  t.row({"xxxx", "1"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Three lines: header, rule, row.
  EXPECT_NE(out.find("a     long_header"), std::string::npos);
  EXPECT_NE(out.find("xxxx  1"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(harness::Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(harness::Table::num(2.0, 0), "2");
}

// ---------------------------------------------------------- CsvWriter --

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string path = "/tmp/dynaq_csv_test.csv";
  {
    stats::CsvWriter csv(path);
    ASSERT_TRUE(csv.ok());
    csv.header({"t", "gbps"});
    csv.row({0.5, 1.25});
    csv.row({1.0, 2.5});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "t,gbps");
  std::getline(in, line);
  EXPECT_EQ(line, "0.5,1.25");
  std::remove(path.c_str());
}

// ------------------------------------------------ experiment drivers --

TEST(StaticExperiment, RejectsUnknownQueue) {
  harness::StaticExperimentConfig cfg;
  cfg.star.queue_weights = {1, 1};
  cfg.groups = {{.queue = 5, .num_flows = 1, .first_src_host = 1, .num_src_hosts = 1,
                 .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno}};
  EXPECT_THROW(harness::run_static_experiment(cfg), std::invalid_argument);
}

TEST(StaticExperiment, MeterWindowsCoverDuration) {
  harness::StaticExperimentConfig cfg;
  cfg.star.num_hosts = 3;
  cfg.groups = {{.queue = 0, .num_flows = 1, .first_src_host = 1, .num_src_hosts = 1,
                 .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno}};
  cfg.duration = seconds(std::int64_t{1});
  cfg.meter_window = milliseconds(std::int64_t{100});
  const auto r = harness::run_static_experiment(cfg);
  EXPECT_GE(r.meter.num_windows(), 9u);
  EXPECT_LE(r.meter.num_windows(), 11u);
  EXPECT_GT(r.events, 1000u);
}

TEST(StaticExperiment, DeterministicAcrossRuns) {
  harness::StaticExperimentConfig cfg;
  cfg.star.num_hosts = 4;
  cfg.groups = {
      {.queue = 0, .num_flows = 3, .first_src_host = 1, .num_src_hosts = 2,
       .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno},
      {.queue = 1, .num_flows = 5, .first_src_host = 1, .num_src_hosts = 2,
       .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno},
  };
  cfg.duration = seconds(std::int64_t{1});
  cfg.seed = 77;
  const auto a = harness::run_static_experiment(cfg);
  const auto b = harness::run_static_experiment(cfg);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.telemetry.drops_by_reason, b.telemetry.drops_by_reason);
  for (std::size_t w = 0; w < a.meter.num_windows(); ++w) {
    EXPECT_DOUBLE_EQ(a.meter.gbps(w, 0), b.meter.gbps(w, 0));
  }
}

TEST(StaticExperiment, SeedChangesJitterOnly) {
  harness::StaticExperimentConfig cfg;
  cfg.star.num_hosts = 3;
  cfg.groups = {{.queue = 0, .num_flows = 4, .first_src_host = 1, .num_src_hosts = 1,
                 .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno}};
  cfg.duration = seconds(std::int64_t{1});
  cfg.seed = 1;
  const auto a = harness::run_static_experiment(cfg);
  cfg.seed = 2;
  const auto b = harness::run_static_experiment(cfg);
  EXPECT_NE(a.events, b.events) << "different jitter should perturb the trajectory";
  // But both saturate the link.
  EXPECT_NEAR(a.meter.mean_gbps(0, 5, a.meter.num_windows()),
              b.meter.mean_gbps(0, 5, b.meter.num_windows()), 0.05);
}

TEST(DynamicStarExperiment, RequiresDistribution) {
  harness::DynamicStarConfig cfg;
  cfg.dist = nullptr;
  EXPECT_THROW(harness::run_dynamic_star_experiment(cfg), std::invalid_argument);
}

TEST(DynamicStarExperiment, RequiresDedicatedQueues) {
  harness::DynamicStarConfig cfg;
  cfg.dist = &workload::web_search_workload();
  cfg.star.queue_weights = {1};
  cfg.first_service_queue = 1;
  EXPECT_THROW(harness::run_dynamic_star_experiment(cfg), std::invalid_argument);
}

TEST(DynamicStarExperiment, RecordsEveryFlowOnce) {
  harness::DynamicStarConfig cfg;
  cfg.star.num_hosts = 5;
  cfg.star.queue_weights = {1, 1, 1, 1, 1};
  cfg.star.scheduler = topo::SchedulerKind::kSpqOverDrr;
  cfg.num_flows = 300;
  cfg.load = 0.4;
  cfg.dist = &workload::web_search_workload();
  cfg.seed = 9;
  const auto r = harness::run_dynamic_star_experiment(cfg);
  EXPECT_EQ(r.incomplete, 0u);
  ASSERT_EQ(r.fcts.count(), 300u);
  std::set<std::uint64_t> ids;
  for (const auto& rec : r.fcts.records()) {
    EXPECT_GT(rec.finish, rec.start);
    EXPECT_GT(rec.size_bytes, 0);
    ids.insert(rec.flow_id);
  }
  EXPECT_EQ(ids.size(), 300u) << "every flow id recorded exactly once";
}

TEST(DynamicLeafSpineExperiment, RejectsTooManyServices) {
  harness::DynamicLeafSpineConfig cfg;
  cfg.fabric.queue_weights = {1, 1, 1};
  cfg.num_services = 7;
  EXPECT_THROW(harness::run_dynamic_leaf_spine_experiment(cfg), std::invalid_argument);
}

TEST(DynamicLeafSpineExperiment, LoadScalesDuration) {
  // Same flows at half the load should take roughly twice the time span.
  harness::DynamicLeafSpineConfig cfg;
  cfg.fabric.num_leaves = 3;
  cfg.fabric.num_spines = 3;
  cfg.fabric.hosts_per_leaf = 3;
  cfg.num_flows = 400;
  cfg.seed = 4;
  cfg.load = 0.8;
  const auto high = harness::run_dynamic_leaf_spine_experiment(cfg);
  cfg.load = 0.4;
  const auto low = harness::run_dynamic_leaf_spine_experiment(cfg);
  ASSERT_EQ(high.incomplete, 0u);
  ASSERT_EQ(low.incomplete, 0u);
  Time span_high = 0;
  Time span_low = 0;
  for (const auto& rec : high.fcts.records()) span_high = std::max(span_high, rec.start);
  for (const auto& rec : low.fcts.records()) span_low = std::max(span_low, rec.start);
  EXPECT_NEAR(static_cast<double>(span_low) / static_cast<double>(span_high), 2.0, 0.4);
}

}  // namespace
}  // namespace dynaq
