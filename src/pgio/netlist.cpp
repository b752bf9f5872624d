#include "pgio/netlist.h"

#include "common/error.h"

namespace vstack::pgio {

NodeTable::NodeTable() : offsets_{0}, buckets_(64, 0) {}

std::uint64_t NodeTable::hash(std::string_view s) {
  // FNV-1a; matches the repo's other stable hashes and is deterministic
  // across platforms.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void NodeTable::reserve(std::size_t nodes, std::size_t bytes) {
  arena_.reserve(bytes);
  offsets_.reserve(nodes + 1);
  std::size_t buckets = 64;
  while (buckets < nodes * 2) buckets *= 2;
  if (buckets > buckets_.size()) rehash(buckets);
}

void NodeTable::rehash(std::size_t buckets) {
  std::vector<std::uint32_t> next(buckets, 0);
  const std::size_t mask = buckets - 1;
  for (std::size_t id = 0; id < size(); ++id) {
    const std::string_view n = name(static_cast<std::uint32_t>(id));
    std::size_t slot = hash(n) & mask;
    while (next[slot] != 0) slot = (slot + 1) & mask;
    next[slot] = static_cast<std::uint32_t>(id) + 1;
  }
  buckets_ = std::move(next);
}

std::uint32_t NodeTable::intern(std::string_view name) {
  VS_REQUIRE(!name.empty(), "empty node name");
  // Grow at 50% occupancy; open addressing degrades sharply past that.
  if ((size() + 1) * 2 > buckets_.size()) rehash(buckets_.size() * 2);
  const std::size_t mask = buckets_.size() - 1;
  std::size_t slot = hash(name) & mask;
  while (buckets_[slot] != 0) {
    const std::uint32_t id = buckets_[slot] - 1;
    if (this->name(id) == name) return id;
    slot = (slot + 1) & mask;
  }
  VS_REQUIRE(arena_.size() + name.size() <= 0xFFFFFFFFull,
             "node-name arena exceeds 4 GiB");
  const auto id = static_cast<std::uint32_t>(size());
  arena_.insert(arena_.end(), name.begin(), name.end());
  offsets_.push_back(static_cast<std::uint32_t>(arena_.size()));
  buckets_[slot] = id + 1;
  return id;
}

std::uint32_t NodeTable::find(std::string_view name) const {
  const std::size_t mask = buckets_.size() - 1;
  std::size_t slot = hash(name) & mask;
  while (buckets_[slot] != 0) {
    const std::uint32_t id = buckets_[slot] - 1;
    if (this->name(id) == name) return id;
    slot = (slot + 1) & mask;
  }
  return kNotFound;
}

std::string_view NodeTable::name(std::uint32_t id) const {
  VS_REQUIRE(id < size(), "node id out of range");
  return std::string_view(arena_.data() + offsets_[id],
                          offsets_[id + 1] - offsets_[id]);
}

std::vector<double> PgNetlist::net_potentials() const {
  std::vector<double> nets;
  for (const auto& pad : pads) {
    bool seen = false;
    for (const double v : nets) {
      if (v == pad.value) {
        seen = true;
        break;
      }
    }
    if (!seen) nets.push_back(pad.value);
  }
  return nets;
}

int layer_of_node_name(std::string_view name) {
  if (name.size() < 2 || (name[0] != 'n' && name[0] != 'N')) return -1;
  std::size_t i = 1;
  long layer = 0;
  bool digits = false;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
    layer = layer * 10 + (name[i] - '0');
    if (layer > 1000) return -1;
    digits = true;
    ++i;
  }
  if (!digits || i >= name.size() || name[i] != '_') return -1;
  return static_cast<int>(layer);
}

std::vector<std::size_t> layer_histogram(const PgNetlist& netlist) {
  std::vector<std::size_t> hist(1, 0);
  for (std::size_t id = 0; id < netlist.nodes.size(); ++id) {
    const int layer =
        layer_of_node_name(netlist.nodes.name(static_cast<std::uint32_t>(id)));
    if (layer < 0) {
      ++hist[0];
      continue;
    }
    const auto slot = static_cast<std::size_t>(layer) + 1;
    if (slot >= hist.size()) hist.resize(slot + 1, 0);
    ++hist[slot];
  }
  return hist;
}

bool GoldenSolution::lookup(std::string_view name, double* voltage) const {
  if (is_ground_name(name)) {
    *voltage = 0.0;
    return true;
  }
  const std::uint32_t id = nodes.find(name);
  if (id == NodeTable::kNotFound) return false;
  *voltage = voltages[id];
  return true;
}

}  // namespace vstack::pgio
