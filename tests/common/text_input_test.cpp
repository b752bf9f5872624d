// The shared lexer (common/text_input.h): the one number rule, magnitude
// suffixes, counts, the round-trip formatter, and the line and key-value
// readers.  The SpiceValueTest and ParseGridValue cases are the value tests
// of circuit/spice_parser and pgio/reader, which now share this parser.
#include "common/text_input.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"

namespace vstack::text {
namespace {

TEST(SpiceValueTest, PlainNumbers) {
  EXPECT_DOUBLE_EQ(parse_value("10"), 10.0);
  EXPECT_DOUBLE_EQ(parse_value("-2.5"), -2.5);
  EXPECT_DOUBLE_EQ(parse_value("1e-3"), 1e-3);
}

TEST(SpiceValueTest, MagnitudeSuffixes) {
  EXPECT_DOUBLE_EQ(parse_value("4.7n"), 4.7e-9);
  EXPECT_DOUBLE_EQ(parse_value("10p"), 10e-12);
  EXPECT_DOUBLE_EQ(parse_value("3f"), 3e-15);
  EXPECT_DOUBLE_EQ(parse_value("2u"), 2e-6);
  EXPECT_DOUBLE_EQ(parse_value("50m"), 50e-3);
  EXPECT_DOUBLE_EQ(parse_value("1k"), 1e3);
  EXPECT_DOUBLE_EQ(parse_value("1meg"), 1e6);
  EXPECT_DOUBLE_EQ(parse_value("2g"), 2e9);
}

TEST(SpiceValueTest, RejectsGarbage) {
  EXPECT_THROW(parse_value("abc"), Error);
  EXPECT_THROW(parse_value("1x"), Error);
  EXPECT_THROW(parse_value(""), Error);
}

TEST(ParseGridValue, SpiceSuffixes) {
  EXPECT_DOUBLE_EQ(parse_value("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(parse_value("1.5e-2"), 0.015);
  EXPECT_DOUBLE_EQ(parse_value("100f"), 100e-15);
  EXPECT_DOUBLE_EQ(parse_value("5p"), 5e-12);
  EXPECT_DOUBLE_EQ(parse_value("4.7n"), 4.7e-9);
  EXPECT_DOUBLE_EQ(parse_value("3u"), 3e-6);
  EXPECT_DOUBLE_EQ(parse_value("2m"), 2e-3);
  EXPECT_DOUBLE_EQ(parse_value("1k"), 1e3);
  EXPECT_DOUBLE_EQ(parse_value("1meg"), 1e6);
  EXPECT_DOUBLE_EQ(parse_value("1g"), 1e9);
  EXPECT_DOUBLE_EQ(parse_value("2t"), 2e12);
  EXPECT_DOUBLE_EQ(parse_value("-0.5"), -0.5);
}

TEST(ParseGridValue, Rejections) {
  EXPECT_THROW(parse_value(""), Error);
  EXPECT_THROW(parse_value("abc"), Error);
  EXPECT_THROW(parse_value("1x"), Error);
  EXPECT_THROW(parse_value("1kk"), Error);
  EXPECT_THROW(parse_value("1e400"), Error);  // overflows to inf
}

TEST(NumberRule, SuffixIsExactAndCaseBlind) {
  EXPECT_EQ(parse_value("1MEG"), 1e6);
  EXPECT_EQ(parse_value("4.7N"), 4.7 * 1e-9);
  EXPECT_EQ(parse_value("2K"), 2e3);
  // SPICE engines read these as 1000, 1e-5, 25.4e-6, 5e-3 and 1e6; here a
  // suffix must be exactly one of f p n u m k meg g t.
  for (const char* token : {"1kk", "10uF", "1mil", "5mA", "1megohm", "1m2"}) {
    EXPECT_THROW(parse_value(token), Error) << token;
  }
}

TEST(NumberRule, SuffixedValuesAreTheProductOfTheParts) {
  // Bit-for-bit the mantissa times the suffix's scale.
  EXPECT_EQ(parse_value("0.1u"), 0.1 * 1e-6);
  EXPECT_EQ(parse_value("3.3meg"), 3.3 * 1e6);
  EXPECT_EQ(parse_value("+2"), 2.0);
  EXPECT_EQ(parse_value("0x10"), 16.0);  // strtod's hexadecimal form
}

TEST(NumberRule, OutOfRangeLiteralsFail) {
  for (const char* token :
       {"1e400", "-1e400", "1e-320", "1e-400", "4.9e-324", "1e300t",
        "1e-300f", "inf", "-inf", "nan", "infinity"}) {
    EXPECT_THROW(parse_value(token), Error) << token;
    EXPECT_THROW(parse_number(token, "n"), Error) << token;
  }
  EXPECT_EQ(parse_value("0"), 0.0);
  EXPECT_EQ(parse_value("0e-400"), 0.0);
  EXPECT_EQ(parse_value("2.2250738585072014e-308"), 2.2250738585072014e-308);
}

TEST(NumberRule, TokensLongerThan63CharactersFail) {
  const std::string ok(63, '1');
  EXPECT_NO_THROW(parse_value(ok));
  EXPECT_NO_THROW(parse_number(ok, "n"));
  const std::string digits64(64, '1');
  EXPECT_THROW(parse_value(digits64), Error);
  EXPECT_THROW(parse_number(digits64, "n"), Error);
  EXPECT_THROW(parse_count(digits64, 0, 10, "n"), Error);
}

TEST(NumberRule, StrictNumbersTakeTheWholeToken) {
  EXPECT_EQ(parse_number("0.65", "n"), 0.65);
  EXPECT_EQ(parse_number("-1e3", "n"), -1e3);
  for (const char* token : {"1k", "12x", "", "k", "-", "1e", ".e1", "0x"}) {
    EXPECT_THROW(parse_number(token, "n"), Error) << token;
  }
  EXPECT_THROW(parse_number(std::string("4\0", 2), "n"), Error);
}

TEST(NumberRule, MessagesNameTheContextAndToken) {
  try {
    parse_number("12x", "option --n");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("option --n: "), std::string::npos) << what;
    EXPECT_NE(what.find("'12x'"), std::string::npos) << what;
  }
}

TEST(ParseCount, WholeNumbersInRange) {
  EXPECT_EQ(parse_count("8", 1, 10, "n"), 8u);
  EXPECT_EQ(parse_count("1e3", 0, 1000, "n"), 1000u);
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(parse_count("9007199254740992", 0, max, "n"), 9007199254740992u);
  EXPECT_EQ(parse_count("18446744073709549568", 0, max, "n"),
            18446744073709549568u);  // the largest double below 2^64
}

TEST(ParseCount, RejectsFractionsNegativesAndOutOfRange) {
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  for (const char* token : {"2.5", "-1", "-0.5", "nan", "inf", "abc"}) {
    EXPECT_THROW(parse_count(token, 0, max, "n"), Error) << token;
  }
  // At or above 2^64 the conversion to std::size_t would be undefined;
  // double(SIZE_MAX) is 2^64 itself.
  for (const char* token : {"18446744073709551615", "18446744073709551616",
                            "2e19", "1e30", "1e300"}) {
    EXPECT_THROW(parse_count(token, 0, max, "n"), Error) << token;
  }
  EXPECT_THROW(parse_count("0", 1, 10, "n"), Error);
  EXPECT_THROW(parse_count("11", 1, 10, "n"), Error);
}

TEST(FormatNumber, KeepsTheStreamSpellingOfSixDigitValues) {
  for (const double v : {1.0, 0.25, 12.5, 4e-07, 0.8, 0.0, 100000.0, 1e6,
                         0.0001, 1e-5, -2.5, 1000.0, 2e-9}) {
    std::ostringstream oss;
    oss << v;
    EXPECT_EQ(format_number(v), oss.str()) << v;
  }
}

TEST(FormatNumber, RoundTripsEveryDouble) {
  for (const double v :
       {1.0 / 3.0, 1.0000001, 0.123456789, 2.0 / 3.0 * 1e-9, 6.02214076e23,
        std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
        -1.0 / 7.0, 0.1 + 0.2}) {
    const std::string s = format_number(v);
    EXPECT_EQ(parse_number(s, "n"), v) << s;
  }
  EXPECT_EQ(format_number(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(format_number(1.0000001), "1.0000001");
}

TEST(Split, OnlyBlanksAndTabsSeparate) {
  std::vector<std::string_view> tokens;
  split("  R1\ta  0\t 1k  ", tokens);
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "R1");
  EXPECT_EQ(tokens[3], "1k");
  split("a\vb\fc\rd", tokens);
  EXPECT_EQ(tokens.size(), 1u);
  split("", tokens);
  EXPECT_TRUE(tokens.empty());
}

TEST(LineReader, StripsCommentsAndNumbersLines) {
  const std::string text = "* title\n\nR1 a b 1 ; trailing\r\n  x  \n";
  std::istringstream in(text);
  LineReader lines(in, "f.sp:", Comments::Spice);
  ASSERT_TRUE(lines.next());
  EXPECT_EQ(lines.line(), "R1 a b 1");
  EXPECT_EQ(lines.line_no(), 3u);
  ASSERT_TRUE(lines.next());
  EXPECT_EQ(lines.line(), "x");
  EXPECT_EQ(lines.line_no(), 4u);
  EXPECT_FALSE(lines.next());
  EXPECT_EQ(lines.line_no(), 4u);
  EXPECT_EQ(lines.bytes(), text.size());
}

TEST(LineReader, KeyValueCommentsAndLocation) {
  std::istringstream in("# c\nkey = v # c\n*star = 1\n");
  LineReader lines(in, "stackup config line ", Comments::KeyValue);
  ASSERT_TRUE(lines.next());
  EXPECT_EQ(lines.line(), "key = v");
  ASSERT_TRUE(lines.next());
  EXPECT_EQ(lines.line(), "*star = 1");  // '*' is not a comment here
  try {
    lines.fail("bad");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("stackup config line 3: bad"),
              std::string::npos)
        << e.what();
  }
}

TEST(LineReader, RejectsOverlongLines) {
  std::istringstream in("short\n" + std::string(20, 'x') + "\n");
  LineReader lines(in, "f:", Comments::Spice, 10);
  ASSERT_TRUE(lines.next());
  try {
    lines.next();
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("f:2: line longer than 10"),
              std::string::npos)
        << e.what();
  }
}

TEST(LineReader, ValueFailuresNameLineWhatAndToken) {
  std::istringstream in("R1 a b 1x2\n");
  LineReader lines(in, "bad.sp:", Comments::Spice);
  ASSERT_TRUE(lines.next());
  try {
    lines.value("1x2", "resistance");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad.sp:1: resistance: "), std::string::npos) << what;
    EXPECT_NE(what.find("'1x2'"), std::string::npos) << what;
  }
}

TEST(KeyValueReader, SplitsTrimsAndLowersKeys) {
  std::istringstream in("  Layers   =   4   # c\nTopology = Stacked\n");
  KeyValueReader kv(in, "cfg line ");
  ASSERT_TRUE(kv.next());
  EXPECT_EQ(kv.key(), "layers");
  EXPECT_EQ(kv.count(1, 8), 4u);
  ASSERT_TRUE(kv.next());
  EXPECT_EQ(kv.key(), "topology");
  EXPECT_EQ(kv.value(), "Stacked");
  EXPECT_FALSE(kv.next());
}

TEST(KeyValueReader, RejectsMalformedLinesAndRepeatedKeys) {
  for (const char* text : {"layers\n", "= 4\n", "layers =\n",
                           "layers = 4\nLAYERS = 8\n", "=\n"}) {
    std::istringstream in(text);
    KeyValueReader kv(in, "cfg line ");
    EXPECT_THROW(while (kv.next()) {}, Error) << text;
  }
}

TEST(KeyValueReader, NumberAndCountFailuresNameTheKey) {
  std::istringstream in("vdd = banana\n");
  KeyValueReader kv(in, "cfg line ");
  ASSERT_TRUE(kv.next());
  try {
    kv.number();
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cfg line 1: key 'vdd': "), std::string::npos)
        << what;
    EXPECT_NE(what.find("'banana'"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace vstack::text
