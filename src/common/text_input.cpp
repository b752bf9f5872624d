#include "common/text_input.h"

#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <utility>

#include "common/error.h"

namespace vstack::text {

namespace {

/// Longest numeric token accepted.
constexpr std::size_t kMaxNumberLength = 63;

/// `s` without leading and trailing ' ', '\t' and '\r'.
std::string_view trim(std::string_view s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string_view::npos) return {};
  return s.substr(first, s.find_last_not_of(" \t\r") - first + 1);
}

/// Scale of a SPICE magnitude suffix (any case), or 0 when `s` is none.
double magnitude(std::string_view s) {
  if (s.size() == 3 && lower(s) == "meg") return 1e6;
  constexpr std::string_view kSuffixes = "fpnumkgt";
  constexpr double kScales[] = {1e-15, 1e-12, 1e-9, 1e-6,
                                1e-3,  1e3,   1e9,  1e12};
  const std::size_t k =
      s.size() == 1 ? kSuffixes.find(lower(s.front())) : kSuffixes.npos;
  return k == kSuffixes.npos ? 0.0 : kScales[k];
}

/// Whether strtod reads `literal` as a zero it reached by underflow; it
/// says so only through errno.
bool underflows_to_zero(const char* literal) {
  errno = 0;
  std::strtod(literal, nullptr);
  return errno == ERANGE;
}

/// Reads `token` under the number rule (a SPICE value when `spice`):
/// nullptr with *out set, or what is wrong with the token.
const char* scan_number(std::string_view token, bool spice, double* out) {
  if (token.empty()) return "empty numeric token";
  if (token.size() > kMaxNumberLength) {
    return "numeric token longer than 63 characters";
  }
  char buf[kMaxNumberLength + 1];
  std::memcpy(buf, token.data(), token.size());
  buf[token.size()] = '\0';
  char* end = nullptr;
  const double number = std::strtod(buf, &end);
  if (end == buf) return "malformed numeric value";
  const std::string_view rest = token.substr(end - buf);
  const double scale = rest.empty() ? 1.0 : spice ? magnitude(rest) : 0.0;
  if (scale == 0.0) {
    return spice ? "unknown value suffix in"
                 : "trailing characters in numeric value";
  }
  const double value = number * scale;
  if (!std::isfinite(value)) return "non-finite numeric value";
  // A nonzero literal that underflows, to a subnormal or to zero, before
  // or after scaling, is out of range like one that overflows.
  if (number != 0.0 ? std::fabs(value) < DBL_MIN : underflows_to_zero(buf)) {
    return "numeric value out of range";
  }
  *out = value;
  return nullptr;
}

/// "<what>: <why> '<token>'", an overlong token cut to its first 16
/// characters.
std::string describe(const std::string& what, const char* why,
                     std::string_view token) {
  const bool cut = token.size() > kMaxNumberLength;
  const std::string shown(token.substr(0, cut ? 16 : token.size()));
  return what + ": " + why + " '" + shown + (cut ? "...'" : "'");
}

}  // namespace

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = lower(c);
  return out;
}

std::string_view after_first_token(std::string_view line) {
  const auto blank = line.find_first_of(" \t");
  if (blank == std::string_view::npos) return {};
  return line.substr(line.find_first_not_of(" \t", blank));
}

void split(std::string_view line, std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i == line.size()) break;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    tokens.push_back(line.substr(start, i - start));
  }
}

double parse_number(std::string_view token, const std::string& what) {
  double v = 0.0;
  if (const char* why = scan_number(token, false, &v)) {
    VS_FAIL(describe(what, why, token));
  }
  return v;
}

double parse_value(std::string_view token, const std::string& what) {
  double v = 0.0;
  if (const char* why = scan_number(token, true, &v)) {
    VS_FAIL(describe(what, why, token));
  }
  return v;
}

std::size_t parse_count(std::string_view token, std::size_t min,
                        std::size_t max, const std::string& what) {
  const double v = parse_number(token, what);
  const std::string got = ", got '" + std::string(token) + "'";
  if (v < 0.0 || v != std::floor(v)) {
    VS_FAIL(what + ": expects a non-negative integer" + got);
  }
  // Compare in double first: converting a double at or above 2^64 (which
  // is double(SIZE_MAX)) to std::size_t is undefined.
  if (v >= 0x1p64 || static_cast<std::size_t>(v) < min ||
      static_cast<std::size_t>(v) > max) {
    VS_FAIL(what + ": must lie in [" + std::to_string(min) + ", " +
            std::to_string(max) + "]" + got);
  }
  return static_cast<std::size_t>(v);
}

std::string format_number(double value) {
  // snprintf and strtod rather than std::to_chars/from_chars: the latter
  // fault in about 200 KiB of conversion tables in every process that
  // writes a config, where these are the routines the streams and the
  // parsers already use.
  char buf[32];
  for (int precision = 6;; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value || precision == 17) return buf;
  }
}

LineReader::LineReader(std::istream& in, std::string location,
                       Comments comments, std::size_t max_line_length)
    : in_(in),
      location_(std::move(location)),
      comments_(comments),
      max_line_length_(max_line_length) {}

bool LineReader::next() {
  while (std::getline(in_, raw_)) {
    ++line_no_;
    bytes_ += raw_.size() + 1;
    if (raw_.size() > max_line_length_) {
      fail("line longer than " + std::to_string(max_line_length_) +
           " characters");
    }
    const std::string_view raw = raw_;
    const bool spice = comments_ == Comments::Spice;
    line_ =
        trim(raw.substr(0, spice ? raw.find(';') : raw.find_first_of("#;")));
    if (!line_.empty() && !(spice && line_.front() == '*')) return true;
  }
  line_ = {};
  return false;
}

std::string LineReader::where(std::size_t line_no) const {
  return location_ + std::to_string(line_no) + ": ";
}

void LineReader::fail(const std::string& message) const {
  VS_FAIL(where(line_no_) + message);
}

double LineReader::value(std::string_view token, const char* what) const {
  double v = 0.0;
  if (const char* why = scan_number(token, true, &v)) {
    fail(describe(what, why, token));
  }
  return v;
}

KeyValueReader::KeyValueReader(std::istream& in, std::string location)
    : lines_(in, std::move(location), Comments::KeyValue) {}

bool KeyValueReader::next() {
  if (!lines_.next()) return false;
  const std::string_view line = lines_.line();
  const std::size_t eq = line.find('=');
  if (eq == std::string_view::npos) {
    fail("expected 'key = value', got '" + std::string(line) + "'");
  }
  key_ = lower(trim(line.substr(0, eq)));
  value_ = trim(line.substr(eq + 1));
  if (key_.empty()) fail("missing key before '='");
  if (value_.empty()) fail("key '" + key_ + "' has no value");
  if (!seen_.insert(key_).second) {
    fail("duplicate key '" + key_ + "' (each key may be set at most once)");
  }
  return true;
}

double KeyValueReader::number() const {
  return parse_number(value_, lines_.where(lines_.line_no()) + "key '" +
                                  key_ + "'");
}

std::size_t KeyValueReader::count(std::size_t min, std::size_t max) const {
  return parse_count(value_, min, max,
                     lines_.where(lines_.line_no()) + "key '" + key_ + "'");
}

}  // namespace vstack::text
