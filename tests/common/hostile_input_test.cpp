// Hostile-input corpus for every text front end.  Each input goes to all
// five entry points -- circuit::parse_spice, pgio::read_netlist_text,
// pgio::read_solution_text, pdn::parse_stackup_config and
// service::parse_request -- and each call must either return or throw
// vstack::Error whose message names the input (its source name, or
// "stackup config").  No other exception may escape.  This is also the
// seed corpus for fuzzing the shared lexer (common/text_input.h).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "circuit/spice_parser.h"
#include "common/error.h"
#include "pdn/config_io.h"
#include "pgio/reader.h"
#include "service/request.h"

namespace vstack {
namespace {

using namespace std::string_literals;

struct EntryPoint {
  const char* name;
  const char* names_input;  // what every diagnostic must mention
  std::function<void(const std::string&)> parse;
};

const std::vector<EntryPoint>& entry_points() {
  static const std::vector<EntryPoint> points = {
      {"parse_spice", "hostile.sp",
       [](const std::string& t) { circuit::parse_spice(t, "hostile.sp"); }},
      {"read_netlist_text", "hostile.spice",
       [](const std::string& t) {
         pgio::read_netlist_text(t, "hostile.spice");
       }},
      {"read_solution_text", "hostile.solution",
       [](const std::string& t) {
         pgio::read_solution_text(t, "hostile.solution");
       }},
      {"parse_stackup_config", "stackup config",
       [](const std::string& t) { pdn::parse_stackup_config(t); }},
      {"parse_request", "hostile.req",
       [](const std::string& t) {
         service::parse_request(t, "hostile", "hostile.req");
       }},
  };
  return points;
}

std::vector<std::string> corpus() {
  std::vector<std::string> inputs = {
      // Embedded NUL, UTF-8 BOM, CR-only line endings, bytes >= 0x80.
      "R1 a\0b 0 1\n"s, "layers = 4\0\n"s, "a 1\0k\n"s, "R1 a b 1\0\n"s,
      "\xEF\xBB\xBFR1 a 0 1\n", "\xEF\xBB\xBFkind = campaign\n",
      "\xEF\xBB\xBF" "a 1\n",
      "R1 a 0 1\rR2 b 0 2\r", "kind = campaign\rlayers = 4\r", "a 1\rb 2\r",
      "R1 \xC3\xA9 0 1\n", "layers = 4\xFF\n", "\x80\x81 1.0\n",
      "kind = campaign\nfigure = \xFE\n",
      // A 64-digit number and a 9,000-character line.
      "R1 a 0 " + std::string(64, '1') + "\n",
      "layers = " + std::string(64, '1') + "\n",
      "a " + std::string(64, '1') + "\n",
      "R1 " + std::string(9000, 'n') + " 0 1\n",
      "layers = " + std::string(9000, '4') + "\n",
      "* " + std::string(9000, 'c') + "\n",
      // Lone punctuation and half key-value lines.
      ".\n", "=\n", "*\n", "key =\n", "= value\n", ".title\n", "R1\n",
      // A count of 1e30, and a stack config that fails validation.
      "layers = 1e30\n", "kind = campaign\nseed = 1e30\n",
      "topology = regular\nconverters_per_core = 1e30\n",
      "kind = campaign\nfaults = 1e25\n", "I1 a 0 1e30\n",
      "topology = stacked\nlayers = 1\n",
      "kind = campaign\nlayers = 1\ntopology = stacked\n",
  };
  // The malformed numbers in every grammar's value position.
  for (const char* number : {"k", "-", "1e", ".e1", "inf", "0x"}) {
    const std::string n = number;
    for (const std::string& input :
         {"R1 a 0 " + n + "\n", "V1 a 0 " + n + "\n", "a " + n + "\n",
          "vdd = " + n + "\n", "layers = " + n + "\n",
          "kind = campaign\nimbalance = " + n + "\n",
          "C1 a 0 1n IC=" + n + "\n", ".tran " + n + " 1u\n"}) {
      inputs.push_back(input);
    }
  }
  return inputs;
}

TEST(HostileInput, EveryEntryPointReturnsOrThrowsANamedError) {
  for (const std::string& input : corpus()) {
    for (const EntryPoint& point : entry_points()) {
      try {
        point.parse(input);
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(point.names_input),
                  std::string::npos)
            << point.name << " on input of " << input.size()
            << " bytes: " << e.what();
      } catch (const std::exception& e) {
        ADD_FAILURE() << point.name << " let a non-vstack exception escape: "
                      << e.what();
      } catch (...) {
        ADD_FAILURE() << point.name << " threw a non-exception object";
      }
    }
  }
}

TEST(HostileInput, MalformedNumbersAreRejectedEverywhere) {
  for (const char* number : {"k", "-", "1e", ".e1", "inf", "0x"}) {
    const std::string n = number;
    EXPECT_THROW(circuit::parse_spice("R1 a 0 " + n + "\n"), Error) << n;
    EXPECT_THROW(pgio::read_netlist_text("R1 a b " + n + "\n"), Error) << n;
    EXPECT_THROW(pgio::read_solution_text("a " + n + "\n"), Error) << n;
    EXPECT_THROW(pdn::parse_stackup_config("vdd = " + n + "\n"), Error) << n;
    EXPECT_THROW(
        service::parse_request("kind = sweep\nimbalance = " + n + "\n", "r",
                               "r.req"),
        Error)
        << n;
  }
}

}  // namespace
}  // namespace vstack
