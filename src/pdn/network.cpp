#include "pdn/network.h"

#include <cmath>

#include "common/error.h"
#include "floorplan/power_map.h"

namespace vstack::pdn {

PdnNetwork::PdnNetwork(const StackupConfig& config,
                       const floorplan::Floorplan& floorplan)
    : config_(config), floorplan_(floorplan) {
  config_.validate();
  VS_REQUIRE(floorplan_.core_count() >= 1, "floorplan has no cores");
  node_count_ =
      2 + 2 * config_.layer_count * config_.grid_nx * config_.grid_ny;

  build_grid_straps();
  build_package();
  if (config_.is_voltage_stacked()) {
    build_stacked_topology();
  } else {
    build_regular_topology();
  }
}

std::size_t PdnNetwork::vdd_node(std::size_t layer, std::size_t cell) const {
  VS_REQUIRE(layer < config_.layer_count, "layer out of range");
  VS_REQUIRE(cell < config_.grid_nx * config_.grid_ny, "cell out of range");
  return 2 + (layer * 2 + 0) * config_.grid_nx * config_.grid_ny + cell;
}

std::size_t PdnNetwork::gnd_node(std::size_t layer, std::size_t cell) const {
  VS_REQUIRE(layer < config_.layer_count, "layer out of range");
  VS_REQUIRE(cell < config_.grid_nx * config_.grid_ny, "cell out of range");
  return 2 + (layer * 2 + 1) * config_.grid_nx * config_.grid_ny + cell;
}

GridNodeLocation PdnNetwork::locate(std::size_t node) const {
  VS_REQUIRE(node >= 2 && node < node_count_, "not a grid node");
  // Grid nodes start at index 2, ordered (layer, net, cell).
  const std::size_t cells = config_.grid_nx * config_.grid_ny;
  const std::size_t rel = node - 2;
  return {rel / (2 * cells), (rel / cells) % 2 == 0, rel % cells};
}

LayerRails PdnNetwork::nominal_rails(std::size_t layer) const {
  const double gnd = config_.is_voltage_stacked()
                         ? static_cast<double>(layer) * config_.vdd
                         : 0.0;
  return {gnd, gnd + config_.vdd};
}

double PdnNetwork::nominal_potential(std::size_t node) const {
  if (FixedRails::is_fixed(node)) {
    return FixedRails{config_.supply_voltage()}.fixed_potential(node);
  }
  VS_REQUIRE(node < node_count_, "node out of range");
  if (node == package_vdd_node()) return config_.supply_voltage();
  if (node == package_gnd_node()) return 0.0;
  const GridNodeLocation at = locate(node);
  const LayerRails rails = nominal_rails(at.layer);
  return at.vdd_net ? rails.vdd : rails.gnd;
}

double PdnNetwork::max_node_deviation_fraction(
    const std::vector<double>& v, std::vector<double>* per_layer) const {
  VS_REQUIRE(v.size() >= node_count_, "voltage vector shorter than the grid");
  const std::size_t cells = config_.grid_nx * config_.grid_ny;
  if (per_layer != nullptr) per_layer->assign(config_.layer_count, 0.0);
  double worst = 0.0;
  for (std::size_t l = 0; l < config_.layer_count; ++l) {
    const LayerRails rails = nominal_rails(l);
    const double* vdd = v.data() + vdd_node(l, 0);
    const double* gnd = v.data() + gnd_node(l, 0);
    double layer_worst = 0.0;
    for (std::size_t cell = 0; cell < cells; ++cell) {
      layer_worst = std::max(layer_worst, std::abs(vdd[cell] - rails.vdd));
      layer_worst = std::max(layer_worst, std::abs(gnd[cell] - rails.gnd));
    }
    if (per_layer != nullptr) (*per_layer)[l] = layer_worst / config_.vdd;
    worst = std::max(worst, layer_worst);
  }
  return worst / config_.vdd;
}

void PdnNetwork::remove_conductor_units(std::size_t index, std::size_t units) {
  VS_REQUIRE(index < conductors_.size(), "conductor index out of range");
  auto& group = conductors_[index];
  group.count -= std::min(units, group.count);
  ++topology_epoch_;
}

void PdnNetwork::scale_conductor_resistance(std::size_t index, double factor) {
  VS_REQUIRE(index < conductors_.size(), "conductor index out of range");
  VS_REQUIRE(factor > 0.0, "resistance factor must be positive");
  conductors_[index].unit_resistance *= factor;
  ++topology_epoch_;
}

void PdnNetwork::disable_converter(std::size_t index) {
  VS_REQUIRE(index < converters_.size(), "converter index out of range");
  converters_[index].enabled = false;
  ++topology_epoch_;
}

void PdnNetwork::set_converter_r_series(std::size_t index, double r_series) {
  VS_REQUIRE(index < converters_.size(), "converter index out of range");
  VS_REQUIRE(r_series > 0.0, "converter r_series must be positive");
  converters_[index].r_series = r_series;
  ++topology_epoch_;
}

std::size_t PdnNetwork::add_converter_clone(std::size_t index,
                                            double r_series) {
  VS_REQUIRE(index < converters_.size(), "converter index out of range");
  VS_REQUIRE(r_series > 0.0, "converter r_series must be positive");
  ConverterInstance clone = converters_[index];
  clone.r_series = r_series;
  clone.enabled = true;
  converters_.push_back(clone);
  ++topology_epoch_;
  return converters_.size() - 1;
}

void PdnNetwork::add_leakage_to_ground(std::size_t node, double resistance) {
  VS_REQUIRE(node < node_count_, "leakage node out of range");
  VS_REQUIRE(resistance > 0.0, "leakage resistance must be positive");
  conductors_.push_back(
      {ConductorKind::Leakage, node, kFixedGround, resistance, 1, 1});
  ++topology_epoch_;
}

std::vector<std::size_t> PdnNetwork::distribute(std::size_t count,
                                                std::size_t slots) {
  VS_REQUIRE(slots > 0, "cannot distribute over zero slots");
  std::vector<std::size_t> out(slots);
  for (std::size_t j = 0; j < slots; ++j) {
    out[j] = (j + 1) * count / slots - j * count / slots;
  }
  return out;
}

void PdnNetwork::build_grid_straps() {
  const std::size_t nx = config_.grid_nx, ny = config_.grid_ny;
  const double sheet = config_.params.sheet_resistance();
  const double dx = floorplan_.width / static_cast<double>(nx);
  const double dy = floorplan_.height / static_cast<double>(ny);
  const double r_horizontal = sheet * dx / dy;
  const double r_vertical = sheet * dy / dx;

  for (std::size_t l = 0; l < config_.layer_count; ++l) {
    for (int net = 0; net < 2; ++net) {
      const auto node = [&](std::size_t ix, std::size_t iy) {
        const std::size_t cell = iy * nx + ix;
        return net == 0 ? vdd_node(l, cell) : gnd_node(l, cell);
      };
      for (std::size_t iy = 0; iy < ny; ++iy) {
        for (std::size_t ix = 0; ix < nx; ++ix) {
          if (ix + 1 < nx) {
            conductors_.push_back({ConductorKind::GridStrap, node(ix, iy),
                                   node(ix + 1, iy), r_horizontal, 1, 1});
          }
          if (iy + 1 < ny) {
            conductors_.push_back({ConductorKind::GridStrap, node(ix, iy),
                                   node(ix, iy + 1), r_vertical, 1, 1});
          }
        }
      }
    }
  }
}

void PdnNetwork::build_package() {
  conductors_.push_back({ConductorKind::PackageVdd, kFixedSupply,
                         package_vdd_node(), config_.params.package_resistance,
                         1, 1});
  conductors_.push_back({ConductorKind::PackageGnd, package_gnd_node(),
                         kFixedGround, config_.params.package_resistance, 1,
                         1});
}

namespace {

/// C4 pad site description: position plus owning grid cell.
struct PadSite {
  std::size_t cell = 0;
  std::size_t core = 0;
};

std::vector<PadSite> enumerate_pad_sites(const StackupConfig& config,
                                         const floorplan::Floorplan& fp) {
  const double pitch = config.params.c4_pitch;
  const auto count_x = static_cast<std::size_t>(fp.width / pitch);
  const auto count_y = static_cast<std::size_t>(fp.height / pitch);
  VS_REQUIRE(count_x >= 1 && count_y >= 1,
             "die too small for a single C4 pad");
  const double off_x = 0.5 * (fp.width - static_cast<double>(count_x - 1) * pitch);
  const double off_y = 0.5 * (fp.height - static_cast<double>(count_y - 1) * pitch);

  const double tile_w = fp.width / static_cast<double>(fp.cores_x);
  const double tile_h = fp.height / static_cast<double>(fp.cores_y);

  std::vector<PadSite> sites;
  sites.reserve(count_x * count_y);
  for (std::size_t iy = 0; iy < count_y; ++iy) {
    for (std::size_t ix = 0; ix < count_x; ++ix) {
      const double x = off_x + static_cast<double>(ix) * pitch;
      const double y = off_y + static_cast<double>(iy) * pitch;
      PadSite s;
      s.cell = floorplan::cell_of(fp, config.grid_nx, config.grid_ny, x, y);
      const auto cx = std::min(static_cast<std::size_t>(x / tile_w),
                               fp.cores_x - 1);
      const auto cy = std::min(static_cast<std::size_t>(y / tile_h),
                               fp.cores_y - 1);
      s.core = cy * fp.cores_x + cx;
      sites.push_back(s);
    }
  }
  return sites;
}

/// Select `count` indices from [0, total) with uniform stride.
std::vector<std::size_t> stride_select(std::size_t count, std::size_t total) {
  VS_REQUIRE(count <= total, "cannot select more sites than available");
  std::vector<std::size_t> picked;
  picked.reserve(count);
  for (std::size_t j = 0; j < total; ++j) {
    if ((j + 1) * count / total > j * count / total) picked.push_back(j);
  }
  return picked;
}

}  // namespace

std::vector<std::size_t> PdnNetwork::core_cells(std::size_t core) const {
  const std::size_t nx = config_.grid_nx, ny = config_.grid_ny;
  const floorplan::Rect tile = floorplan_.core_rect(core);
  const double dx = floorplan_.width / static_cast<double>(nx);
  const double dy = floorplan_.height / static_cast<double>(ny);
  std::vector<std::size_t> cells;
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const double cx = (static_cast<double>(ix) + 0.5) * dx;
      const double cy = (static_cast<double>(iy) + 0.5) * dy;
      if (tile.contains(cx, cy)) cells.push_back(iy * nx + ix);
    }
  }
  VS_REQUIRE(!cells.empty(), "core tile contains no grid cells");
  return cells;
}

void PdnNetwork::build_regular_topology() {
  const auto sites = enumerate_pad_sites(config_, floorplan_);
  const auto n_power = static_cast<std::size_t>(
      std::llround(config_.power_c4_fraction *
                   static_cast<double>(sites.size())));
  VS_REQUIRE(n_power >= 2, "power C4 allocation leaves no pads");
  const auto picked = stride_select(n_power, sites.size());

  // Alternate Vdd / ground among the selected power sites.
  for (std::size_t k = 0; k < picked.size(); ++k) {
    const PadSite& s = sites[picked[k]];
    if (k % 2 == 0) {
      conductors_.push_back({ConductorKind::C4Vdd, package_vdd_node(),
                             vdd_node(0, s.cell),
                             config_.params.c4_resistance, 1, 1});
    } else {
      conductors_.push_back({ConductorKind::C4Gnd, gnd_node(0, s.cell),
                             package_gnd_node(),
                             config_.params.c4_resistance, 1, 1});
    }
  }

  // TSV stacks: per interface, per core, per net.
  for (std::size_t core = 0; core < floorplan_.core_count(); ++core) {
    const auto cells = core_cells(core);
    const auto counts =
        distribute(config_.tsv.vdd_tsvs_per_core(), cells.size());
    for (std::size_t l = 0; l + 1 < config_.layer_count; ++l) {
      for (std::size_t j = 0; j < cells.size(); ++j) {
        if (counts[j] == 0) continue;
        conductors_.push_back({ConductorKind::TsvVdd, vdd_node(l, cells[j]),
                               vdd_node(l + 1, cells[j]),
                               config_.params.tsv_resistance, counts[j], 1});
        conductors_.push_back({ConductorKind::TsvGnd, gnd_node(l, cells[j]),
                               gnd_node(l + 1, cells[j]),
                               config_.params.tsv_resistance, counts[j], 1});
      }
    }
  }
}

void PdnNetwork::build_stacked_topology() {
  const std::size_t layers = config_.layer_count;
  const auto sites = enumerate_pad_sites(config_, floorplan_);

  // Bucket pad sites per core.
  std::vector<std::vector<std::size_t>> per_core(floorplan_.core_count());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    per_core[sites[i].core].push_back(i);
  }

  // Through-vias (Vdd pads) and ground pads, per core.
  const sc::ScCompactModel model(config_.converter);
  const double r_chain =
      config_.params.c4_resistance +
      static_cast<double>(layers - 1) * config_.params.tsv_resistance;
  for (std::size_t core = 0; core < floorplan_.core_count(); ++core) {
    const std::size_t want = 2 * config_.vdd_pads_per_core;
    VS_REQUIRE(want <= per_core[core].size(),
               "not enough C4 sites in the core tile for the requested "
               "Vdd pad allocation");
    const auto picked = stride_select(want, per_core[core].size());
    for (std::size_t k = 0; k < picked.size(); ++k) {
      const PadSite& s = sites[per_core[core][picked[k]]];
      if (k % 2 == 0) {
        // Pad + through-via chain to the top rail; the chain crosses
        // layers-1 interfaces, each an EM-relevant TSV segment.
        conductors_.push_back({ConductorKind::ThroughVia, package_vdd_node(),
                               vdd_node(layers - 1, s.cell), r_chain, 1,
                               layers - 1});
      } else {
        conductors_.push_back({ConductorKind::C4Gnd, gnd_node(0, s.cell),
                               package_gnd_node(),
                               config_.params.c4_resistance, 1, 1});
      }
    }
  }

  // Recycling TSVs stitch rail l+1: layer l's Vdd net to layer l+1's Gnd
  // net.  The per-net TSV budget of the regular topology serves the single
  // rail here.
  for (std::size_t core = 0; core < floorplan_.core_count(); ++core) {
    const auto cells = core_cells(core);
    const auto counts =
        distribute(config_.tsv.vdd_tsvs_per_core(), cells.size());
    for (std::size_t l = 0; l + 1 < layers; ++l) {
      for (std::size_t j = 0; j < cells.size(); ++j) {
        if (counts[j] == 0) continue;
        conductors_.push_back({ConductorKind::RecyclingTsv,
                               vdd_node(l, cells[j]),
                               gnd_node(l + 1, cells[j]),
                               config_.params.tsv_resistance, counts[j], 1});
      }
    }
  }

  // SC converters: per core, per intermediate rail r = 1..layers-1,
  // uniformly spread in two dimensions over the core tile ("we uniformly
  // distribute them within each core").
  const double r_series =
      model.r_series(config_.converter.nominal_switching_frequency);
  for (std::size_t core = 0; core < floorplan_.core_count(); ++core) {
    const floorplan::Rect tile = floorplan_.core_rect(core);
    const std::size_t k_total = config_.converters_per_core;
    const auto kx = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(k_total))));
    const std::size_t ky = (k_total + kx - 1) / kx;
    std::vector<std::size_t> conv_cells;
    for (std::size_t p = 0; p < k_total; ++p) {
      const double fx =
          (static_cast<double>(p % kx) + 0.5) / static_cast<double>(kx);
      const double fy =
          (static_cast<double>(p / kx) + 0.5) / static_cast<double>(ky);
      conv_cells.push_back(floorplan::cell_of(
          floorplan_, config_.grid_nx, config_.grid_ny,
          tile.x + fx * tile.width, tile.y + fy * tile.height));
    }
    for (std::size_t r = 1; r < layers; ++r) {
      for (const std::size_t cell : conv_cells) {
        ConverterInstance conv;
        conv.out = vdd_node(r - 1, cell);
        conv.top = vdd_node(r, cell);
        conv.bottom = (r == 1) ? gnd_node(0, cell) : vdd_node(r - 2, cell);
        conv.r_series = r_series;
        conv.core = core;
        conv.level = r;
        converters_.push_back(conv);
      }
    }
  }
}

std::vector<LoadInjection> PdnNetwork::build_loads(
    const power::CorePowerModel& model,
    const std::vector<double>& layer_activities) const {
  VS_REQUIRE(layer_activities.size() == config_.layer_count,
             "activity vector must match layer count");
  std::vector<std::vector<double>> per_core(config_.layer_count);
  for (std::size_t l = 0; l < config_.layer_count; ++l) {
    per_core[l].assign(floorplan_.core_count(), layer_activities[l]);
  }
  return build_loads_per_core(model, per_core);
}

std::vector<LoadInjection> PdnNetwork::build_loads_layered(
    const std::vector<const power::CorePowerModel*>& models,
    const std::vector<const floorplan::Floorplan*>& floorplans,
    const std::vector<double>& layer_activities) const {
  VS_REQUIRE(models.size() == config_.layer_count &&
                 floorplans.size() == config_.layer_count &&
                 layer_activities.size() == config_.layer_count,
             "per-layer vectors must match layer count");
  std::vector<LoadInjection> loads;
  for (std::size_t l = 0; l < config_.layer_count; ++l) {
    VS_REQUIRE(models[l] != nullptr && floorplans[l] != nullptr,
               "null layer model/floorplan");
    const auto& fp = *floorplans[l];
    VS_REQUIRE(std::abs(fp.width - floorplan_.width) < 1e-9 &&
                   std::abs(fp.height - floorplan_.height) < 1e-9,
               "layer floorplans must share the die footprint");
    const auto map = floorplan::layer_power_map(
        fp, *models[l],
        std::vector<double>(fp.core_count(), layer_activities[l]),
        config_.grid_nx, config_.grid_ny);
    for (std::size_t cell = 0; cell < map.values.size(); ++cell) {
      if (map.values[cell] <= 0.0) continue;
      loads.push_back(LoadInjection{vdd_node(l, cell), gnd_node(l, cell),
                                    map.values[cell] / config_.vdd});
    }
  }
  return loads;
}

std::vector<LoadInjection> PdnNetwork::build_loads_per_core(
    const power::CorePowerModel& model,
    const std::vector<std::vector<double>>& core_activities) const {
  VS_REQUIRE(core_activities.size() == config_.layer_count,
             "activity matrix must match layer count");
  std::vector<LoadInjection> loads;
  for (std::size_t l = 0; l < config_.layer_count; ++l) {
    const auto map = floorplan::layer_power_map(
        floorplan_, model, core_activities[l], config_.grid_nx,
        config_.grid_ny);
    for (std::size_t cell = 0; cell < map.values.size(); ++cell) {
      if (map.values[cell] <= 0.0) continue;
      loads.push_back(LoadInjection{vdd_node(l, cell), gnd_node(l, cell),
                                    map.values[cell] / config_.vdd});
    }
  }
  return loads;
}

}  // namespace vstack::pdn
