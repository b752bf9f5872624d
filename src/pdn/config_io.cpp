#include "pdn/config_io.h"

#include <sstream>

#include "common/error.h"
#include "common/text_input.h"

namespace vstack::pdn {

StackupConfig parse_stackup_config(const std::string& source_text,
                                   const StackupConfig& base) {
  StackupConfig cfg = base;
  std::istringstream in(source_text);
  text::KeyValueReader kv(in, "stackup config line ");
  while (kv.next()) {
    const std::string& key = kv.key();
    const std::string value(kv.value());
    const std::string v = text::lower(value);
    if (key == "topology") {
      if (v == "regular") {
        cfg.topology = PdnTopology::Regular3d;
      } else if (v == "stacked" || v == "voltage-stacked") {
        cfg.topology = PdnTopology::VoltageStacked;
      } else {
        kv.fail("unknown topology '" + value + "' (regular|stacked)");
      }
    } else if (key == "layers") {
      cfg.layer_count = kv.count(1, 1024);
    } else if (key == "vdd") {
      cfg.vdd = kv.number();
      if (cfg.vdd <= 0.0 || cfg.vdd > 100.0) {
        kv.fail("vdd must lie in (0, 100] volts, got '" + value + "'");
      }
    } else if (key == "tsv") {
      if (v == "dense") {
        cfg.tsv = TsvConfig::dense();
      } else if (v == "sparse") {
        cfg.tsv = TsvConfig::sparse();
      } else if (v == "few") {
        cfg.tsv = TsvConfig::few();
      } else {
        kv.fail("unknown tsv config '" + value + "' (dense|sparse|few)");
      }
    } else if (key == "power_c4_fraction") {
      cfg.power_c4_fraction = kv.number();
      if (cfg.power_c4_fraction <= 0.0 || cfg.power_c4_fraction > 1.0) {
        kv.fail("power_c4_fraction is the fraction of C4 bumps carrying "
                "power and must lie in (0, 1], got '" + value + "'");
      }
    } else if (key == "vdd_pads_per_core") {
      cfg.vdd_pads_per_core = kv.count(1, 1'000'000);
    } else if (key == "converters_per_core") {
      cfg.converters_per_core = kv.count(0, 1'000'000);
    } else if (key == "converter_reference") {
      if (v == "ideal") {
        cfg.converter_reference = ConverterReference::IdealRails;
      } else if (v == "adjacent") {
        cfg.converter_reference = ConverterReference::AdjacentRails;
      } else {
        kv.fail("unknown converter_reference '" + value +
                "' (ideal|adjacent)");
      }
    } else if (key == "control") {
      if (v == "open") {
        cfg.converter.control = sc::ControlPolicy::OpenLoop;
      } else if (v == "closed") {
        cfg.converter.control = sc::ControlPolicy::ClosedLoop;
      } else {
        kv.fail("unknown control '" + value + "' (open|closed)");
      }
    } else if (key == "grid") {
      // An NxN per-layer grid: bound N so a typo ("grid = 1e6") fails here
      // instead of exhausting memory building the network.
      const auto n = kv.count(2, 1024);
      cfg.grid_nx = cfg.grid_ny = n;
    } else {
      kv.fail("unknown config key '" + key + "'");
    }
  }
  try {
    cfg.validate();
  } catch (const Error& e) {
    VS_FAIL(std::string("stackup config: ") + e.what());
  }
  return cfg;
}

std::string write_stackup_config(const StackupConfig& config) {
  std::ostringstream oss;
  oss << "topology = "
      << (config.is_voltage_stacked() ? "stacked" : "regular") << "\n";
  oss << "layers = " << config.layer_count << "\n";
  oss << "vdd = " << text::format_number(config.vdd) << "\n";
  const std::string tsv = config.tsv.name == "Dense TSV"    ? "dense"
                          : config.tsv.name == "Sparse TSV" ? "sparse"
                                                            : "few";
  oss << "tsv = " << tsv << "\n";
  oss << "power_c4_fraction = "
      << text::format_number(config.power_c4_fraction) << "\n";
  oss << "vdd_pads_per_core = " << config.vdd_pads_per_core << "\n";
  oss << "converters_per_core = " << config.converters_per_core << "\n";
  oss << "converter_reference = "
      << (config.converter_reference == ConverterReference::IdealRails
              ? "ideal"
              : "adjacent")
      << "\n";
  oss << "control = "
      << (config.converter.control == sc::ControlPolicy::OpenLoop ? "open"
                                                                  : "closed")
      << "\n";
  oss << "grid = " << config.grid_nx << "\n";
  return oss.str();
}

}  // namespace vstack::pdn
