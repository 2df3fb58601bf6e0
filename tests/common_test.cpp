// Tests for src/common: contracts, RNG, table/CSV formatting, CLI parsing,
// units, logging.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace uavcov {
namespace {

TEST(Check, PassingCheckDoesNothing) {
  EXPECT_NO_THROW(UAVCOV_CHECK(1 + 1 == 2));
}

TEST(Check, FailingCheckThrowsContractError) {
  EXPECT_THROW(UAVCOV_CHECK(false), ContractError);
}

TEST(Check, MessageIsIncluded) {
  try {
    UAVCOV_CHECK_MSG(false, "distinctive-message");
    FAIL() << "should have thrown";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("distinctive-message"),
              std::string::npos);
  }
}

TEST(Check, ExpressionTextIsIncluded) {
  try {
    UAVCOV_CHECK(2 < 1);
    FAIL() << "should have thrown";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("2 < 1"), std::string::npos);
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 4);
}

TEST(Rng, ReseedRestartsTheStream) {
  Rng a(99);
  const auto first = a.next_u64();
  a.next_u64();
  a.reseed(99);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowRejectsZero) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), ContractError);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all 6 values hit
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), ContractError);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(5);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  double sum = 0, sum2 = 0;
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.03);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.05);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(13);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / kN, 10.0, 0.1);
}

TEST(Rng, ParetoAboveMinimum) {
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(rng.pareto(1.5, 2.0), 2.0);
  }
}

TEST(Rng, ParetoIsHeavyTailed) {
  // With alpha = 1.2, the max of 5000 draws should dwarf the median.
  Rng rng(19);
  std::vector<double> draws;
  for (int i = 0; i < 5000; ++i) draws.push_back(rng.pareto(1.2, 1.0));
  std::sort(draws.begin(), draws.end());
  EXPECT_GT(draws.back(), 20.0 * draws[draws.size() / 2]);
}

TEST(Rng, ParetoRejectsBadParams) {
  Rng rng(1);
  EXPECT_THROW(rng.pareto(0.0, 1.0), ContractError);
  EXPECT_THROW(rng.pareto(1.0, 0.0), ContractError);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.fork();
  // The child should not replay the parent's stream.
  Rng b(31);
  b.next_u64();  // parent consumed one value for the fork
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (child.next_u64() == b.next_u64());
  EXPECT_LT(equal, 4);
}

TEST(Units, DbRoundTrip) {
  for (double db : {-30.0, -3.0, 0.0, 3.0, 10.0, 20.0}) {
    EXPECT_NEAR(linear_to_db(db_to_linear(db)), db, 1e-9);
  }
}

TEST(Units, KnownConversions) {
  EXPECT_NEAR(db_to_linear(10.0), 10.0, 1e-9);
  EXPECT_NEAR(db_to_linear(3.0), 1.9953, 1e-3);
  EXPECT_NEAR(dbm_to_mw(0.0), 1.0, 1e-12);
  EXPECT_NEAR(mw_to_dbm(1000.0), 30.0, 1e-9);
}

TEST(Units, DegreesRadians) {
  EXPECT_NEAR(deg_to_rad(180.0), 3.14159265358979, 1e-9);
  EXPECT_NEAR(rad_to_deg(deg_to_rad(37.5)), 37.5, 1e-9);
}

TEST(Stopwatch, ElapsedIsNonnegativeAndMonotone) {
  Stopwatch w;
  const double a = w.elapsed_s();
  const double b = w.elapsed_s();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(Stopwatch, RestartResets) {
  Stopwatch w;
  (void)w.elapsed_s();
  w.restart();
  EXPECT_LT(w.elapsed_s(), 1.0);
}

TEST(Table, AlignsColumns) {
  Table t;
  t.set_header({"K", "served"});
  t.add_row({"2", "301"});
  t.add_row({"20", "2356"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("K   served"), std::string::npos);
  EXPECT_NE(out.find("20  2356"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractError);
}

TEST(Table, AddRowOfFormatsMixedTypes) {
  Table t;
  t.set_header({"name", "count", "ratio"});
  t.add_row_of("x", 42, 0.5);
  EXPECT_NE(t.to_string().find("0.50"), std::string::npos);
}

TEST(Table, EmptyTablePrintsNothingButHeader) {
  Table t;
  t.set_header({"h"});
  EXPECT_EQ(t.row_count(), 0u);
  EXPECT_EQ(t.to_string(), "h\n");
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(1.23456, 4), "1.2346");
}

TEST(Csv, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(CsvWriter::quote("plain"), "plain");
  EXPECT_EQ(CsvWriter::quote("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::quote("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::quote("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRowsToFile) {
  const std::string path = testing::TempDir() + "/uavcov_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_row({"a", "b,c"});
    csv.write_row_of(1, 2.5, "x");
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"b,c\"");
  EXPECT_EQ(line2.substr(0, 2), "1,");
}

TEST(Csv, ParseRowInvertsQuote) {
  EXPECT_EQ(parse_csv_row(""), std::vector<std::string>{""});
  EXPECT_EQ(parse_csv_row("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(parse_csv_row("a,\"b,c\""), (std::vector<std::string>{"a", "b,c"}));
  EXPECT_EQ(parse_csv_row("\"say \"\"hi\"\"\""),
            std::vector<std::string>{"say \"hi\""});
  // Trailing comma means a final empty cell, not silent truncation.
  EXPECT_EQ(parse_csv_row("a,"), (std::vector<std::string>{"a", ""}));
  EXPECT_EQ(parse_csv_row(",,"), (std::vector<std::string>{"", "", ""}));
  // quote -> parse round trip over cells CsvWriter would actually emit
  const std::vector<std::string> row = {"plain", "a,b", "say \"hi\"", ""};
  std::string line;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i) line += ',';
    line += CsvWriter::quote(row[i]);
  }
  EXPECT_EQ(parse_csv_row(line), row);
}

TEST(Csv, ParseRowRejectsMalformedQuoting) {
  EXPECT_THROW(parse_csv_row("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(parse_csv_row("\"done\"extra"), std::invalid_argument);
  EXPECT_THROW(parse_csv_row("mid\"quote"), std::invalid_argument);
}

TEST(Csv, BadPathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"),
               std::invalid_argument);
}

TEST(Cli, ParsesAllFlagForms) {
  CliParser cli;
  cli.add_flag("users", "number of users", "100");
  cli.add_flag("ratio", "a ratio", "0.5");
  cli.add_flag("verbose", "chatty output", "false");
  const char* argv[] = {"prog", "--users", "250", "--ratio=0.75",
                        "--verbose"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("users"), 250);
  EXPECT_DOUBLE_EQ(cli.get_double("ratio"), 0.75);
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  CliParser cli;
  cli.add_flag("n", "count", "7");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("n"), 7);
}

TEST(Cli, UnknownFlagExitsWithUsageError) {
  CliParser cli;
  cli.add_flag("n", "count", "7");
  const char* argv[] = {"prog", "--m", "3"};
  EXPECT_EXIT(cli.parse(3, argv), testing::ExitedWithCode(2),
              "prog: unknown flag: --m");
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli;
  cli.add_flag("n", "count", "7");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, TypeMismatchExitsWithUsageError) {
  CliParser cli;
  cli.add_flag("n", "count", "7");
  const char* argv[] = {"prog", "--n", "abc"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EXIT(cli.get_int("n"), testing::ExitedWithCode(2),
              "prog: flag --n is not an integer: abc");
}

TEST(Cli, OutOfRangeIntegerExitsWithUsageError) {
  CliParser cli;
  cli.add_flag("users", "count", "7");
  // 2^32 + 60 would wrap to 60 through an int32 cast.
  const char* argv[] = {"prog", "--users", "4294967356"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EXIT(cli.get_int("users"), testing::ExitedWithCode(2),
              "prog: flag --users is out of range: 4294967356");
  // Past long long too: strtoll saturates and reports ERANGE.
  const char* huge[] = {"prog", "--users", "-99999999999999999999"};
  ASSERT_TRUE(cli.parse(3, huge));
  EXPECT_EXIT(cli.get_int("users"), testing::ExitedWithCode(2),
              "prog: flag --users is out of range: -99999999999999999999");
}

TEST(Cli, ConfigErrorPrintsProgramPrefixAndReturns2) {
  // What every example's main does with a rejected configuration.
  EXPECT_EXIT(std::exit(config_error(
                  "prog", std::invalid_argument("fleet needs a UAV"))),
              testing::ExitedWithCode(2), "prog: fleet needs a UAV");
}

TEST(Cli, DuplicateRegistrationThrows) {
  CliParser cli;
  cli.add_flag("n", "count", "7");
  EXPECT_THROW(cli.add_flag("n", "again", "8"), ContractError);
}

}  // namespace
}  // namespace uavcov
