// The one lexer behind every text input: SPICE netlists (circuit/
// spice_parser, pgio/reader), golden `.solution` files (pgio/reader),
// stackup configs (pdn/config_io), service requests (service/request) and
// CLI option values (common/cli).  Each grammar keeps its own cards, keys,
// semantic checks and messages; what they share lives here:
//
//   * LineReader numbers lines, bounds their length, strips comments and
//     blanks, and prefixes every diagnostic with the grammar's location
//     ("<source>:<line>: ", "stackup config line N: ", ...);
//   * split() cuts a line into blank-separated (' ' or '\t') tokens;
//   * one number rule: a number is what strtod reads from a token of at
//     most 63 characters, finite and in range (no overflow, no underflow to
//     a subnormal or to zero).  A SPICE value may end in exactly one
//     magnitude suffix -- f p n u m k meg g t, any case -- and nothing after
//     it; any other number must spell the whole token;
//   * KeyValueReader splits `key = value` lines and rejects repeated keys;
//   * parse_count() reads a whole number and checks its range in double
//     before converting, so no input reaches an undefined cast;
//   * format_number() prints a double so that it reads back exactly.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace vstack::text {

/// ASCII lower case (node names, keys and directives are ASCII-insensitive).
inline char lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}
std::string lower(std::string_view s);

/// What follows the first token of `line`, leading blanks skipped
/// (".title <anything>").
std::string_view after_first_token(std::string_view line);

/// Replaces `tokens` with the ' '/'\t'-separated tokens of `line` (views
/// into it; the vector's storage is reused across calls).
void split(std::string_view line, std::vector<std::string_view>& tokens);

/// The number `token` spells.  Throws vstack::Error "<what>: <why>".
double parse_number(std::string_view token, const std::string& what);

/// A SPICE value: a number with an optional magnitude suffix ("4.7n",
/// "1MEG", "10").  Throws vstack::Error "<what>: <why>".
double parse_value(std::string_view token, const std::string& what = "value");

/// A whole number in [min, max].  Throws vstack::Error "<what>: <why>".
std::size_t parse_count(std::string_view token, std::size_t min,
                        std::size_t max, const std::string& what);

/// `value` spelled as printf's %g at the smallest precision, from 6 up,
/// that reads back (strtod) as exactly `value`: values that are exact at 6
/// significant digits print as an std::ostream prints them by default.
std::string format_number(double value);

/// Comment syntax of a grammar.
enum class Comments {
  Spice,     // ';' to end of line; a line whose text starts with '*'
  KeyValue,  // '#' or ';' to end of line
};

/// Line-numbered reader over a stream.  One line buffer is reused for the
/// whole input, so reading costs no allocation per line.
class LineReader {
 public:
  /// `location` starts every diagnostic, followed by the line number and
  /// ": ".  A line longer than `max_line_length` bytes is rejected.
  LineReader(std::istream& in, std::string location, Comments comments,
             std::size_t max_line_length =
                 std::numeric_limits<std::size_t>::max());

  /// Advances to the next line with text left after comment stripping and
  /// trimming; false at the end of the input.
  bool next();

  /// The current line, comments and surrounding blanks removed; a view
  /// into the reader's buffer, valid until the next call to next().
  std::string_view line() const { return line_; }
  /// 1-based number of the current line; after the input ends, the
  /// number of lines read.
  std::size_t line_no() const { return line_no_; }
  /// Bytes read so far, one newline per line included.
  std::size_t bytes() const { return bytes_; }

  /// "<location><line_no>: ", the prefix of every diagnostic.
  std::string where(std::size_t line_no) const;
  /// Throws vstack::Error "<location><line_no()>: <message>".
  [[noreturn]] void fail(const std::string& message) const;

  /// parse_value(token), failing at this line with "<what>: <why>".
  double value(std::string_view token, const char* what) const;

 private:
  std::istream& in_;
  std::string location_;
  Comments comments_;
  std::size_t max_line_length_;
  std::string raw_;
  std::string_view line_;
  std::size_t line_no_ = 0;
  std::size_t bytes_ = 0;
};

/// `key = value` lines ('#'/';' comments): the key is trimmed and lower
/// case, the value trimmed with its case kept.  A line without '=', an
/// empty key or value, and a key seen before are rejected.
class KeyValueReader {
 public:
  KeyValueReader(std::istream& in, std::string location);

  /// Advances to the next `key = value` line; false at the end of input.
  bool next();

  const std::string& key() const { return key_; }
  /// Valid until the next call to next().
  std::string_view value() const { return value_; }

  /// The value under the number rule / as a whole number in [min, max];
  /// failures name the key.
  double number() const;
  std::size_t count(std::size_t min, std::size_t max) const;

  const LineReader& lines() const { return lines_; }
  [[noreturn]] void fail(const std::string& message) const {
    lines_.fail(message);
  }

 private:
  LineReader lines_;
  std::set<std::string> seen_;
  std::string key_;
  std::string_view value_;
};

}  // namespace vstack::text
