#include "pgio/reader.h"

#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/text_input.h"
#include "telemetry/telemetry.h"

namespace vstack::pgio {

namespace {

const telemetry::Counter c_lines("pgio.parse.lines");
const telemetry::Counter c_cards("pgio.parse.cards");
const telemetry::Counter c_nodes("pgio.parse.nodes");
const telemetry::Counter c_bytes("pgio.parse.bytes");

}  // namespace

PgNetlist read_netlist(std::istream& in, const std::string& source_name,
                       const ReadOptions& options) {
  VS_SPAN("pgio.parse");
  PgNetlist out;
  out.source = source_name;
  text::LineReader lines(in, source_name + ":", text::Comments::Spice,
                         options.max_line_length);

  // Duplicate-element rejection via a second interning table: intern the
  // card name and require the table to have grown.
  NodeTable element_names;

  // Pad bookkeeping for duplicate/conflict rejection: node -> (volts, line).
  std::unordered_map<std::uint32_t, std::pair<double, std::uint32_t>> pad_at;

  const auto node_of = [&](std::string_view token) -> std::uint32_t {
    if (is_ground_name(token)) return kGroundNode;
    const std::uint32_t id = out.nodes.intern(token);
    if (out.nodes.size() > options.max_nodes) {
      lines.fail("node budget exceeded (" + std::to_string(options.max_nodes) +
                 " nodes; raise ReadOptions::max_nodes for larger inputs)");
    }
    if (out.nodes.name_bytes() > options.max_name_bytes) {
      lines.fail("node-name budget exceeded (" +
                 std::to_string(options.max_name_bytes) +
                 " bytes; raise ReadOptions::max_name_bytes)");
    }
    return id;
  };

  const auto claim_name = [&](std::string_view name) {
    const std::size_t before = element_names.size();
    element_names.intern(name);
    if (element_names.size() == before) {
      lines.fail("duplicate element name '" + std::string(name) + "'");
    }
  };

  const auto guard_elements = [&] {
    if (out.element_count() + 1 > options.max_elements) {
      lines.fail("element budget exceeded (" +
                 std::to_string(options.max_elements) +
                 " cards; raise ReadOptions::max_elements)");
    }
  };

  std::vector<std::string_view> tok;
  bool ended = false;
  while (lines.next()) {
    if (ended) lines.fail("content after .end");
    const std::string_view line = lines.line();
    const auto line_no = static_cast<std::uint32_t>(lines.line_no());
    text::split(line, tok);
    const std::size_t n = tok.size();

    const char head = text::lower(tok[0].front());
    if (head == '.') {
      const std::string directive = text::lower(tok[0]);
      if (directive == ".title") {
        out.title = std::string(text::after_first_token(line));
      } else if (directive == ".op") {
        // DC operating-point request: the only analysis we run anyway.
      } else if (directive == ".end") {
        if (n != 1) lines.fail(".end takes no arguments");
        ended = true;
      } else if (directive == ".shorts") {
        if (n != 3) lines.fail(".shorts needs two node names");
        const std::uint32_t a = node_of(tok[1]);
        const std::uint32_t b = node_of(tok[2]);
        if (a == b) {
          lines.fail(".shorts connects '" + std::string(tok[1]) +
                     "' to itself");
        }
        guard_elements();
        out.shorts.push_back({a, b, line_no, 0.0});
      } else {
        lines.fail("unknown directive '" + std::string(tok[0]) + "'");
      }
      continue;
    }

    // Every element card reads "<name> <a> <b> <value>": check the arity,
    // claim the name, then intern the terminals, which must differ.
    std::uint32_t a = kGroundNode;
    std::uint32_t b = kGroundNode;
    const auto terminals = [&](const char* card, const char* usage) {
      if (n != 4) lines.fail(std::string(card) + ": " + usage);
      claim_name(tok[0]);
      a = node_of(tok[1]);
      b = node_of(tok[2]);
      if (a == b) {
        lines.fail(std::string(card) + " '" + std::string(tok[0]) +
                   "' connects a node to itself");
      }
    };

    c_cards.add();
    switch (head) {
      case 'r': {
        terminals("R card", "R<name> a b ohms");
        const double r = lines.value(tok[3], "resistance");
        if (r < 0.0) {
          lines.fail("resistance must be >= 0, got '" + std::string(tok[3]) +
                     "'");
        }
        guard_elements();
        const PgElement e{a, b, line_no, r};
        if (r == 0.0) {
          out.shorts.push_back(e);  // via short (the IBM zero-ohm idiom)
        } else {
          out.resistors.push_back(e);
        }
        break;
      }
      case 'v': {
        terminals("V card", "V<name> n+ n- volts");
        const double v = lines.value(tok[3], "voltage");
        guard_elements();
        if (v == 0.0) {
          // Zero-volt source: the benchmarks' via "ammeter" -- a short.
          // Between an internal node and ground it pins that node at 0 V,
          // which the grid layer models as a merge with the ground net.
          out.shorts.push_back({a, b, line_no, 0.0});
          break;
        }
        std::uint32_t pad = a;
        double volts = v;
        if (a == kGroundNode) {
          pad = b;
          volts = -v;
        } else if (b != kGroundNode) {
          lines.fail("pad source '" + std::string(tok[0]) +
                     "' must reference ground on one terminal (got '" +
                     std::string(tok[1]) + "' / '" + std::string(tok[2]) +
                     "')");
        }
        const auto [it, inserted] =
            pad_at.emplace(pad, std::make_pair(volts, line_no));
        if (!inserted) {
          const char* what = (it->second.first == volts)
                                 ? "duplicate pad definition for node '"
                                 : "conflicting pad definition for node '";
          lines.fail(std::string(what) + std::string(tok[pad == a ? 1 : 2]) +
                     "' (first defined at line " +
                     std::to_string(it->second.second) + ")");
        }
        out.pads.push_back({pad, kGroundNode, line_no, volts});
        break;
      }
      case 'i': {
        terminals("I card", "I<name> from to amps");
        const double amps = lines.value(tok[3], "current");
        guard_elements();
        out.loads.push_back({a, b, line_no, amps});
        break;
      }
      case 'c': {
        terminals("C card", "C<name> a b farads");
        const double f = lines.value(tok[3], "capacitance");
        if (f <= 0.0) {
          lines.fail("capacitance must be positive, got '" +
                     std::string(tok[3]) + "'");
        }
        guard_elements();
        out.caps.push_back({a, b, line_no, f});
        break;
      }
      case 'l':
        lines.fail("L card '" + std::string(tok[0]) +
                   "' is outside the supported subset (DC + decap transient "
                   "only; see docs/benchmark_ingestion.md)");
      default:
        lines.fail("unknown element card '" + std::string(tok[0]) + "'");
    }
  }
  out.line_count = lines.line_no();
  c_lines.add(static_cast<double>(lines.line_no()));
  c_bytes.add(static_cast<double>(lines.bytes()));
  c_nodes.add(static_cast<double>(out.nodes.size()));
  return out;
}

PgNetlist read_netlist_file(const std::string& path,
                            const ReadOptions& options) {
  std::ifstream in(path);
  VS_REQUIRE(static_cast<bool>(in), "cannot open '" + path + "'");
  return read_netlist(in, path, options);
}

PgNetlist read_netlist_text(const std::string& text,
                            const std::string& source_name,
                            const ReadOptions& options) {
  std::istringstream in(text);
  return read_netlist(in, source_name, options);
}

GoldenSolution read_solution(std::istream& in, const std::string& source_name,
                             const ReadOptions& options) {
  VS_SPAN("pgio.parse");
  GoldenSolution out;
  out.source = source_name;
  text::LineReader lines(in, source_name + ":", text::Comments::Spice,
                         options.max_line_length);
  std::vector<std::string_view> tok;
  while (lines.next()) {
    text::split(lines.line(), tok);
    if (tok.size() != 2) lines.fail("expected '<node> <volts>'");
    if (is_ground_name(tok[0])) {
      const double v = lines.value(tok[1], "voltage");
      if (v != 0.0) {
        lines.fail("ground listed at " + std::string(tok[1]) + " V");
      }
      continue;
    }
    const std::uint32_t id = out.nodes.intern(tok[0]);
    if (out.nodes.size() > options.max_nodes) {
      lines.fail("node budget exceeded (" + std::to_string(options.max_nodes) +
                 " nodes; raise ReadOptions::max_nodes)");
    }
    if (id < out.voltages.size()) {
      lines.fail("duplicate solution entry for node '" + std::string(tok[0]) +
                 "'");
    }
    out.voltages.push_back(lines.value(tok[1], "voltage"));
  }
  return out;
}

GoldenSolution read_solution_file(const std::string& path,
                                  const ReadOptions& options) {
  std::ifstream in(path);
  VS_REQUIRE(static_cast<bool>(in), "cannot open '" + path + "'");
  return read_solution(in, path, options);
}

GoldenSolution read_solution_text(const std::string& text,
                                  const std::string& source_name,
                                  const ReadOptions& options) {
  std::istringstream in(text);
  return read_solution(in, source_name, options);
}

}  // namespace vstack::pgio
