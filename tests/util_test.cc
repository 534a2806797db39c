#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/util/check.h"
#include "src/util/csv.h"
#include "src/util/file.h"
#include "src/util/interp.h"
#include "src/util/logging.h"
#include "src/util/parse.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace flo {
namespace {

TEST(CheckTest, PassingCheckDoesNothing) {
  FLO_CHECK(true);
  FLO_CHECK_EQ(1, 1);
  FLO_CHECK_LT(1, 2);
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH(FLO_CHECK(false) << "boom", "boom");
  EXPECT_DEATH(FLO_CHECK_EQ(1, 2), "1 vs 2");
}

void CaptureMessage(LogLevel, const char*, int, const std::string& message, void* ctx) {
  static_cast<std::vector<std::string>*>(ctx)->push_back(message);
}

TEST(LoggingTest, FilteredMessagesDoNotEvaluateTheirArguments) {
  const LogLevel saved = GetLogLevel();
  std::vector<std::string> emitted;
  SetLogSink(&CaptureMessage, &emitted);
  SetLogLevel(LogLevel::kWarning);
  int evaluations = 0;
  auto argument = [&evaluations] { return ++evaluations; };
  FLO_LOG(kDebug) << "debug " << argument();
  FLO_LOG(kInfo) << "info " << argument();
  EXPECT_EQ(evaluations, 0);
  EXPECT_TRUE(emitted.empty());
  FLO_LOG(kWarning) << "warning " << argument();
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(emitted, std::vector<std::string>{"warning 1"});
  // The statement form must keep an enclosing if/else intact.
  bool took_else = false;
  if (evaluations == 0)
    FLO_LOG(kError) << "unreachable";
  else
    took_else = true;
  EXPECT_TRUE(took_else);
  SetLogSink(nullptr, nullptr);
  SetLogLevel(saved);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, RangedDoubleRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(StableHashTest, OrderSensitive) {
  StableHash a;
  a.Mix(1).Mix(2);
  StableHash b;
  b.Mix(2).Mix(1);
  EXPECT_NE(a.value(), b.value());
}

TEST(StableHashTest, StringAndIntMix) {
  StableHash a;
  a.Mix("A800").Mix(4096);
  StableHash b;
  b.Mix("A800").Mix(4096);
  EXPECT_EQ(a.value(), b.value());
  StableHash c;
  c.Mix("RTX4090").Mix(4096);
  EXPECT_NE(a.value(), c.value());
}

TEST(CurveTest, InterpolatesLinearly) {
  Curve curve({{0.0, 0.0}, {10.0, 100.0}});
  EXPECT_DOUBLE_EQ(curve.Eval(5.0), 50.0);
  EXPECT_DOUBLE_EQ(curve.Eval(2.5), 25.0);
}

TEST(CurveTest, ClampsOutsideRange) {
  Curve curve({{1.0, 10.0}, {2.0, 20.0}});
  EXPECT_DOUBLE_EQ(curve.Eval(0.5), 10.0);
  EXPECT_DOUBLE_EQ(curve.Eval(3.0), 20.0);
}

TEST(CurveTest, ExactAtSamplePoints) {
  Curve curve({{1.0, 3.0}, {2.0, 7.0}, {4.0, 1.0}});
  EXPECT_DOUBLE_EQ(curve.Eval(1.0), 3.0);
  EXPECT_DOUBLE_EQ(curve.Eval(2.0), 7.0);
  EXPECT_DOUBLE_EQ(curve.Eval(4.0), 1.0);
}

TEST(CurveDeathTest, RejectsUnsortedPoints) {
  EXPECT_DEATH(Curve({{2.0, 1.0}, {1.0, 2.0}}), "strictly increasing");
}

TEST(CurveTest, HintedEvalAgreesWithBinarySearchOnRandomQueries) {
  // The monotone fast path must be bit-identical to the plain binary
  // search for any query pattern and any (possibly stale) cursor state.
  Rng rng(0xC0FFEEu);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::pair<double, double>> points;
    double x = rng.NextDouble(0.0, 10.0);
    const int count = 2 + static_cast<int>(rng.NextBelow(60));
    for (int i = 0; i < count; ++i) {
      points.emplace_back(x, rng.NextDouble(-100.0, 100.0));
      x += rng.NextDouble(0.1, 50.0);
    }
    const Curve curve(points);
    size_t hint = rng.NextBelow(2 * count);  // start anywhere, even out of range
    // Monotone sweep (the tuner's table-precompute pattern).
    for (double q = curve.min_x() - 5.0; q <= curve.max_x() + 5.0; q += 0.37) {
      ASSERT_EQ(curve.Eval(q, &hint), curve.Eval(q)) << "trial " << trial << " q=" << q;
    }
    // Random jumps: stale hints must still agree.
    for (int i = 0; i < 200; ++i) {
      const double q = rng.NextDouble(curve.min_x() - 10.0, curve.max_x() + 10.0);
      ASSERT_EQ(curve.Eval(q, &hint), curve.Eval(q)) << "trial " << trial << " q=" << q;
    }
  }
}

TEST(CurveTest, HintedEvalHandlesSinglePointAndBoundaries) {
  const Curve single({{2.0, 5.0}});
  size_t hint = 7;
  EXPECT_EQ(single.Eval(1.0, &hint), 5.0);
  EXPECT_EQ(single.Eval(2.0, &hint), 5.0);
  EXPECT_EQ(single.Eval(9.0, &hint), 5.0);
  const Curve two({{1.0, 10.0}, {2.0, 20.0}});
  hint = 999;
  EXPECT_EQ(two.Eval(1.5, &hint), two.Eval(1.5));
  EXPECT_EQ(hint, 1u);
}

TEST(StatsTest, SummaryBasics) {
  const Summary s = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(StatsTest, GeoMeanOfEqualValues) {
  EXPECT_NEAR(GeoMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(StatsTest, GeoMeanMixed) {
  EXPECT_NEAR(GeoMean({1.0, 4.0}), 2.0, 1e-12);
}

TEST(StatsTest, PercentileEndpoints) {
  std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 3.0);
}

TEST(StatsTest, SummarizePercentilesMatchesPercentile) {
  std::vector<double> values;
  for (int i = 1; i <= 200; ++i) {
    values.push_back(201 - i);
  }
  const PercentileSummary s = SummarizePercentiles(values);
  EXPECT_DOUBLE_EQ(s.p50, Percentile(values, 50.0));
  EXPECT_DOUBLE_EQ(s.p90, Percentile(values, 90.0));
  EXPECT_DOUBLE_EQ(s.p95, Percentile(values, 95.0));
  EXPECT_DOUBLE_EQ(s.p99, Percentile(values, 99.0));
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p95);
  EXPECT_LE(s.p95, s.p99);
}

TEST(StatsTest, SummarizePercentilesSingleValue) {
  const PercentileSummary s = SummarizePercentiles({7.5});
  EXPECT_DOUBLE_EQ(s.p50, 7.5);
  EXPECT_DOUBLE_EQ(s.p90, 7.5);
  EXPECT_DOUBLE_EQ(s.p95, 7.5);
  EXPECT_DOUBLE_EQ(s.p99, 7.5);
}

TEST(StatsDeathTest, SummarizePercentilesRejectsEmpty) {
  EXPECT_DEATH(SummarizePercentiles({}), "");
}

TEST(StatsTest, EmpiricalCdfMonotone) {
  const auto cdf = EmpiricalCdf({1.0, 2.0, 3.0, 4.0}, {0.5, 1.5, 2.5, 4.5});
  ASSERT_EQ(cdf.size(), 4u);
  EXPECT_DOUBLE_EQ(cdf[0], 0.0);
  EXPECT_DOUBLE_EQ(cdf[1], 0.25);
  EXPECT_DOUBLE_EQ(cdf[2], 0.5);
  EXPECT_DOUBLE_EQ(cdf[3], 1.0);
}

TEST(TableTest, RendersAlignedColumns) {
  Table t({"a", "bb"});
  t.AddRow({"xxx", "y"});
  const std::string rendered = t.Render();
  EXPECT_NE(rendered.find("a  "), std::string::npos);
  EXPECT_NE(rendered.find("xxx"), std::string::npos);
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(TableDeathTest, RowWidthMismatchAborts) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only one"}), "");
}

TEST(TableTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(TableTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.00 KiB");
  EXPECT_EQ(FormatBytes(3.5 * 1024 * 1024), "3.50 MiB");
}

TEST(ParseTest, TryParseIntConsumesWholeField) {
  EXPECT_EQ(TryParseInt("42"), 42);
  EXPECT_EQ(TryParseInt("-7"), -7);
  EXPECT_FALSE(TryParseInt("12abc").has_value());
  EXPECT_FALSE(TryParseInt("").has_value());
  EXPECT_FALSE(TryParseInt("abc").has_value());
}

TEST(ParseTest, TryParseDoubleConsumesWholeField) {
  EXPECT_DOUBLE_EQ(*TryParseDouble("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*TryParseDouble("1e3"), 1000.0);
  EXPECT_FALSE(TryParseDouble("1.0garbage").has_value());
  EXPECT_FALSE(TryParseDouble("").has_value());
}

TEST(ParseTest, TryParseDoubleRejectsNonFinite) {
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-inf", "infinity", "1e999"}) {
    EXPECT_FALSE(TryParseDouble(text).has_value()) << text;
  }
  EXPECT_DOUBLE_EQ(*TryParseDouble("1e308"), 1e308);
}

TEST(TableTest, FormatDoubleExactRoundTrips) {
  const double value = 10000.0 / 3.0;
  EXPECT_DOUBLE_EQ(*TryParseDouble(FormatDoubleExact(value)), value);
}

TEST(FileTest, WriteStringToFileRoundTripsAndReplaces) {
  const std::string path = ::testing::TempDir() + "/util_file_round_trip.txt";
  const std::string text = std::string("line one\n\tline two\r\n") + '\0' + "tail";
  ASSERT_TRUE(WriteStringToFile(path, text));
  EXPECT_EQ(ReadFileToString(path), text);
  // A second write replaces the contents rather than appending.
  ASSERT_TRUE(WriteStringToFile(path, "short\n"));
  EXPECT_EQ(ReadFileToString(path), "short\n");
}

TEST(FileTest, WriteStringToFileFailsOnUnwritablePath) {
  EXPECT_FALSE(WriteStringToFile("/nonexistent_flo_dir/out.txt", "text"));
  EXPECT_FALSE(WriteStringToFile(::testing::TempDir(), "a directory is not a file"));
  EXPECT_FALSE(ReadFileToString("/nonexistent_flo_dir/out.txt").has_value());
}

TEST(CsvTest, EscapesSpecialCharacters) {
  CsvWriter csv({"name", "value"});
  csv.AddRow({"a,b", "he said \"hi\""});
  const std::string out = csv.Render();
  EXPECT_NE(out.find("\"a,b\""), std::string::npos);
  EXPECT_NE(out.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(CsvTest, PlainFieldsUnquoted) {
  CsvWriter csv({"x"});
  csv.AddRow({"42"});
  EXPECT_EQ(csv.Render(), "x\n42\n");
}

}  // namespace
}  // namespace flo
