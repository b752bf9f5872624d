#include "circuit/spice_parser.h"

#include <set>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/text_input.h"

namespace vstack::circuit {

ParsedCircuit parse_spice(const std::string& source_text,
                          const std::string& source_name) {
  ParsedCircuit out;
  std::istringstream in(source_text);
  text::LineReader lines(in, source_name + ":", text::Comments::Spice);
  std::set<std::string> element_names;

  const auto node_of = [&out](std::string_view name) -> NodeId {
    const std::string key = text::lower(name);
    if (key == "0" || key == "gnd") return kGround;
    const auto it = out.node_by_name.find(key);
    if (it != out.node_by_name.end()) return it->second;
    const NodeId id = out.netlist.create_node(key);
    out.node_by_name.emplace(key, id);
    return id;
  };

  const auto positive = [&lines](std::string_view token, const char* what) {
    const double v = lines.value(token, what);
    if (v <= 0.0) {
      lines.fail(std::string(what) + " must be positive, got '" +
                 std::string(token) + "'");
    }
    return v;
  };

  /// KEY=VALUE parameter, case-insensitive key.
  const auto parse_param = [&lines](std::string_view token, const char* key,
                                    double* value) {
    const auto eq = token.find('=');
    if (eq == std::string_view::npos) return false;
    if (text::lower(token.substr(0, eq)) != key) return false;
    *value = lines.value(token.substr(eq + 1), key);
    return true;
  };

  std::vector<std::string_view> tokens;
  bool ended = false;
  bool have_clock = false;
  while (lines.next()) {
    if (ended) lines.fail("content after .end");
    const std::string_view line = lines.line();
    text::split(line, tokens);
    const std::string head = text::lower(tokens.front());
    const auto token = [&tokens](std::size_t k) {
      return std::string(tokens[k]);
    };

    if (head.front() == '.') {
      if (head == ".title") {
        out.title = std::string(text::after_first_token(line));
      } else if (head == ".clock") {
        if (have_clock) lines.fail("duplicate .clock directive");
        if (tokens.size() != 2) lines.fail(".clock needs one value");
        out.clock_period = positive(tokens[1], ".clock period");
        have_clock = true;
      } else if (head == ".tran") {
        if (out.has_tran) lines.fail("duplicate .tran directive");
        if (tokens.size() < 3) lines.fail(".tran needs step and stop");
        out.has_tran = true;
        out.tran.time_step = positive(tokens[1], ".tran step");
        out.tran.stop_time = positive(tokens[2], ".tran stop");
        if (out.tran.stop_time <= out.tran.time_step) {
          lines.fail(".tran stop '" + token(2) +
                     "' must exceed the step '" + token(1) + "'");
        }
        for (std::size_t k = 3; k < tokens.size(); ++k) {
          const std::string flag = text::lower(tokens[k]);
          if (flag == "dc") {
            out.tran.start_from_dc = true;
          } else if (flag == "adaptive") {
            out.tran.mode = SteppingMode::Adaptive;
          } else {
            lines.fail("unknown .tran flag '" + token(k) +
                       "' (expected DC or ADAPTIVE)");
          }
        }
      } else if (head == ".end") {
        ended = true;
      } else {
        lines.fail("unknown directive '" + head + "'");
      }
      continue;
    }

    if (!element_names.insert(head).second) {
      lines.fail("duplicate element name '" + token(0) + "'");
    }
    switch (head.front()) {
      case 'r': {
        if (tokens.size() != 4) lines.fail("R card: R<name> a b value");
        out.netlist.add_resistor(node_of(tokens[1]), node_of(tokens[2]),
                                 positive(tokens[3], "resistance"));
        break;
      }
      case 'c': {
        if (tokens.size() < 4 || tokens.size() > 5) {
          lines.fail("C card: C<name> a b value [IC=v0]");
        }
        double ic = 0.0;
        if (tokens.size() == 5 && !parse_param(tokens[4], "ic", &ic)) {
          lines.fail("expected IC=<v0>, got '" + token(4) + "'");
        }
        out.netlist.add_capacitor(node_of(tokens[1]), node_of(tokens[2]),
                                  positive(tokens[3], "capacitance"), ic);
        break;
      }
      case 'v': {
        if (tokens.size() != 4) lines.fail("V card: V<name> n+ n- value");
        out.netlist.add_voltage_source(node_of(tokens[1]),
                                       node_of(tokens[2]),
                                       lines.value(tokens[3], "voltage"));
        break;
      }
      case 'i': {
        if (tokens.size() != 4) {
          lines.fail("I card: I<name> from to value");
        }
        out.netlist.add_current_source(node_of(tokens[1]),
                                       node_of(tokens[2]),
                                       lines.value(tokens[3], "current"));
        break;
      }
      case 's': {
        if (tokens.size() != 7) {
          lines.fail("S card: S<name> a b Ron Roff PHASE=<off> DUTY=<duty>");
        }
        const double ron = positive(tokens[3], "on resistance");
        const double roff = positive(tokens[4], "off resistance");
        if (roff < ron) {
          lines.fail("off resistance '" + token(4) +
                     "' must be >= on resistance '" + token(3) + "'");
        }
        double phase = 0.0, duty = 0.5;
        if (!parse_param(tokens[5], "phase", &phase)) {
          lines.fail("expected PHASE=<offset>, got '" + token(5) + "'");
        }
        if (!parse_param(tokens[6], "duty", &duty)) {
          lines.fail("expected DUTY=<duty>, got '" + token(6) + "'");
        }
        if (phase < 0.0 || phase >= 1.0) {
          lines.fail("PHASE offset '" + token(5) +
                     "' must lie in [0, 1) (fraction of the clock period)");
        }
        if (duty < 0.0 || duty > 1.0) {
          lines.fail("DUTY '" + token(6) + "' must lie in [0, 1]");
        }
        out.netlist.add_switch(node_of(tokens[1]), node_of(tokens[2]), ron,
                               roff, ClockPhase{phase, duty});
        break;
      }
      default:
        lines.fail("unknown element card '" + token(0) + "'");
    }
  }
  return out;
}

std::string write_spice(const ParsedCircuit& circuit) {
  std::ostringstream oss;
  if (!circuit.title.empty()) oss << ".title " << circuit.title << "\n";

  const auto& net = circuit.netlist;
  const auto name = [&net](NodeId node) -> std::string {
    return node == kGround ? "0" : net.node_name(node);
  };
  const auto num = [](double v) { return text::format_number(v); };

  std::size_t idx = 0;
  for (const auto& v : net.voltage_sources()) {
    oss << "V" << ++idx << " " << name(v.positive) << " " << name(v.negative)
        << " " << num(v.voltage) << "\n";
  }
  idx = 0;
  for (const auto& r : net.resistors()) {
    oss << "R" << ++idx << " " << name(r.a) << " " << name(r.b) << " "
        << num(r.resistance) << "\n";
  }
  idx = 0;
  for (const auto& c : net.capacitors()) {
    oss << "C" << ++idx << " " << name(c.a) << " " << name(c.b) << " "
        << num(c.capacitance) << " IC=" << num(c.initial_voltage) << "\n";
  }
  idx = 0;
  for (const auto& s : net.switches()) {
    oss << "S" << ++idx << " " << name(s.a) << " " << name(s.b) << " "
        << num(s.on_resistance) << " " << num(s.off_resistance)
        << " PHASE=" << num(s.phase.phase_offset)
        << " DUTY=" << num(s.phase.duty) << "\n";
  }
  idx = 0;
  for (const auto& i : net.current_sources()) {
    oss << "I" << ++idx << " " << name(i.from_node) << " " << name(i.to_node)
        << " " << num(i.current) << "\n";
  }

  oss << ".clock " << num(circuit.clock_period) << "\n";
  if (circuit.has_tran) {
    oss << ".tran " << num(circuit.tran.time_step) << " "
        << num(circuit.tran.stop_time);
    if (circuit.tran.start_from_dc) oss << " DC";
    if (circuit.tran.mode == SteppingMode::Adaptive) oss << " ADAPTIVE";
    oss << "\n";
  }
  oss << ".end\n";
  return oss.str();
}

}  // namespace vstack::circuit
