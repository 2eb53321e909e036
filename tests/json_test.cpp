// Tests for the one JSON module (src/json, DESIGN.md §2): the parser, the
// writer, their round trip, and the two artifact paths that go through
// both — the bench-history ledger and sweep JSON read back by the report
// loader. The parser and writer cases keep the suite names they had before
// the module existed (ReportJson, JsonWriter), so their ctest names stay.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>

#include "json/json.hpp"
#include "report/artifacts.hpp"
#include "report/bench_history.hpp"
#include "sweep/sweep_runner.hpp"

namespace json = dynaq::json;
namespace report = dynaq::report;
namespace sweep = dynaq::sweep;

namespace {

// -------------------------------------------------------------- parser --

TEST(ReportJson, ParsesScalarsContainersAndEscapes) {
  const json::Value doc =
      json::parse(R"({"a":1.5,"b":-2e3,"c":"x\n\"Aé","d":[true,false,null],"e":{}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.number_or("a", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(doc.number_or("b", 0.0), -2000.0);
  EXPECT_EQ(doc.string_or("c", ""), "x\n\"A\xc3\xa9");
  ASSERT_TRUE(doc.find("d")->is_array());
  EXPECT_EQ(doc.find("d")->as_array().size(), 3u);
  EXPECT_TRUE(doc.find("d")->as_array()[0].as_bool());
  EXPECT_TRUE(doc.find("d")->as_array()[2].is_null());
  EXPECT_TRUE(doc.find("e")->is_object());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(ReportJson, PreservesObjectKeyOrder) {
  const json::Value doc = json::parse(R"({"zebra":1,"apple":2,"mango":3})");
  const json::Value::Object& obj = doc.as_object();
  ASSERT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj[0].first, "zebra");
  EXPECT_EQ(obj[1].first, "apple");
  EXPECT_EQ(obj[2].first, "mango");
}

TEST(ReportJson, ReportsLineAndColumnOnError) {
  try {
    json::parse("{\"a\": 1,\n  \"b\": }");
    FAIL() << "expected ParseError";
  } catch (const json::ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_GT(e.column(), 1u);
  }
}

TEST(ReportJson, RejectsTrailingGarbage) {
  EXPECT_THROW(json::parse("{} trailing"), json::ParseError);
  EXPECT_THROW(json::parse(""), json::ParseError);
}

TEST(ReportJson, JsonlSkipsBlankLinesAndNamesBadLine) {
  const json::Value docs = json::parse_lines("{\"a\":1}\n\n{\"b\":2}\n");
  ASSERT_EQ(docs.as_array().size(), 2u);
  try {
    json::parse_lines("{\"ok\":true}\nnot json\n");
    FAIL() << "expected ParseError";
  } catch (const json::ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(Json, ParseLinesNamesTheFailingLocationOnce) {
  try {
    json::parse_lines("{\"a\":1}\n{\"b\": \"unterminated\n");
    FAIL() << "expected ParseError";
  } catch (const json::ParseError& e) {
    EXPECT_STREQ(e.what(), "unterminated string at line 2, column 20");
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.column(), 20u);
  }
}

// -------------------------------------------------------------- writer --

TEST(JsonWriter, EscapesAndFormatsDeterministically) {
  json::Value doc;
  doc.set("s", "a\"b\\c\nd")
      .set("i", 3.0)
      .set("d", 0.125)
      .set("arr", json::Value().push(1).push(true))
      .set("empty", json::Value::object());
  EXPECT_EQ(doc.dump(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"i\":3,\"d\":0.125,\"arr\":[1,true],\"empty\":{}}");
}

TEST(Json, SetReplacesAnExistingKeyInPlace) {
  json::Value doc;
  doc.set("a", 1).set("b", 2).set("a", 3);
  EXPECT_EQ(doc.dump(), "{\"a\":3,\"b\":2}");
  EXPECT_THROW(json::Value(1).set("a", 1), std::logic_error);
  EXPECT_THROW(json::Value::object().push(1), std::logic_error);
}

TEST(Json, FormatNumberRangeChecksBeforeCasting) {
  EXPECT_EQ(json::format_number(3.0), "3");
  EXPECT_EQ(json::format_number(-0.5), "-0.5");
  EXPECT_EQ(json::format_number(9007199254740992.0), "9007199254740992");  // 2^53
  // Beyond int64 or not a number: the integer cast would be undefined.
  EXPECT_EQ(json::format_number(1e300), "1e+300");
  EXPECT_EQ(json::format_number(-1e19), "-1e+19");
  EXPECT_EQ(json::format_number(std::nan("")), "nan");
  EXPECT_EQ(json::parse("{\"n\":1e300}").integer_or("n", -1), -1);
}

TEST(Json, DumpThenParseIsTheIdentity) {
  std::string control;
  for (int c = 0x01; c <= 0x1F; ++c) control += static_cast<char>(c);
  control += "\"\\";
  json::Value numbers = json::Value::array();
  for (const double d : {0.0, -0.5, 1e15, -1e15, 1e15 + 2, 1e300}) numbers.push(d);
  json::Value doc;
  doc.set("s", control).set(control, "key").set("numbers", std::move(numbers));
  EXPECT_EQ(json::parse(doc.dump()), doc);
  EXPECT_EQ(json::parse(doc.dump()).find("numbers")->as_array()[4].as_number(), 1e15 + 2);
}

// ------------------------------------------------------------ artifacts --

TEST(Json, LedgerRevWithControlCharactersParsesBack) {
  report::HistoryRow row;
  row.rev = "abc\ndef\tghi\x01";
  const std::string ledger = report::append_history("", row);
  EXPECT_EQ(ledger.find('\n'), ledger.size() - 1) << "one ledger row is one line";
  report::HistoryRow next;
  next.rev = "later";
  const std::vector<report::HistoryRow> rows =
      report::parse_history(report::append_history(ledger, next));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].rev, row.rev);
  EXPECT_EQ(rows[1].rev, "later");
}

TEST(Json, SweepStoreReadsBackThroughTheReportLoader) {
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::labels("scheme", {"DynaQ", "PQL"}),
               sweep::Axis::numeric("seed", {1, 2})};
  const auto job = [](const sweep::JobPoint& p) {
    if (p.label("scheme") == "PQL" && p.number("seed") == 2) {
      throw std::runtime_error("injected \"failure\"\non two lines");
    }
    sweep::JobResult r{std::map<std::string, double>{
        {"fct_ms", 1.5 * static_cast<double>(p.job_id)}, {"drops", 7.0}}};
    r.trajectory_hash = 0xfedcba9876543210u + p.job_id;
    return r;
  };
  const sweep::ResultStore store =
      sweep::SweepRunner(sweep::RunnerOptions{.jobs = 2}).run("roundtrip", spec, job);
  ASSERT_EQ(store.failures(), 1u);

  const report::SweepDoc doc =
      report::load_sweep_doc(json::parse(store.to_json()), "roundtrip.json");
  EXPECT_EQ(doc.schema_version, 8);
  EXPECT_EQ(doc.sweep, "roundtrip");
  EXPECT_EQ(doc.failures, 1);
  ASSERT_EQ(doc.jobs.size(), store.outcomes().size());
  for (std::size_t i = 0; i < doc.jobs.size(); ++i) {
    const sweep::JobOutcome& o = store.outcome(i);
    const report::SweepJob& j = doc.jobs[i];
    EXPECT_EQ(j.id, static_cast<std::int64_t>(o.point.job_id));
    EXPECT_EQ(j.labels.at("scheme"), o.point.label("scheme"));
    EXPECT_EQ(j.numbers.at("seed"), o.point.number("seed"));
    EXPECT_EQ(j.ok, o.ok);
    EXPECT_EQ(j.error, o.error);
    EXPECT_EQ(j.metrics, o.metrics);
    char hash[19];
    std::snprintf(hash, sizeof hash, "0x%016llx",
                  static_cast<unsigned long long>(o.trajectory_hash.value_or(0)));
    EXPECT_EQ(j.trajectory_hash, o.ok ? hash : "");
  }
  EXPECT_EQ(doc.jobs[3].error, "injected \"failure\"\non two lines");
}

}  // namespace
