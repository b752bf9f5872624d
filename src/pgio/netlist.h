// In-memory model of an external power-grid benchmark netlist (the IBM
// power-grid benchmark family and its SRAM-PG successor, arXiv:2404.05260).
//
// Unlike circuit::Netlist (built for converter testbenches with tens of
// nodes), this model is sized for million-node inputs: node names live in
// one string-interning arena (NodeTable) instead of per-string heap
// allocations, and every element card is a 24-byte POD carrying its source
// line for late diagnostics.  The reader (pgio/reader.h) fills a PgNetlist
// in a single streaming pass; ImportedGrid (pgio/grid.h) collapses it into
// a solvable system.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vstack::pgio {

/// Sentinel node id for the ground net; ground is never interned into a
/// NodeTable.
inline constexpr std::uint32_t kGroundNode = 0xFFFFFFFFu;

/// The ground net's spellings, the one list the reader, ImportedGrid and
/// GoldenSolution share: "0", "gnd", "GND", "Gnd", "G".
inline bool is_ground_name(std::string_view name) {
  return name == "0" || name == "gnd" || name == "GND" || name == "Gnd" ||
         name == "G";
}

/// String-interning node table: one append-only character arena plus an
/// open-addressing hash index.  Ids are dense (0..size) in first-seen
/// order, so parallel arrays indexed by node id need no map.  Memory per
/// node: the name bytes + 4 B offset + ~8 B of hash slots -- roughly 25 B
/// for typical "n1_12345_67890" names, which is what keeps a million-node
/// netlist within the documented ingestion memory bound.
class NodeTable {
 public:
  static constexpr std::uint32_t kNotFound = 0xFFFFFFFEu;

  NodeTable();

  /// Id of `name`, inserting it on first sight.
  std::uint32_t intern(std::string_view name);

  /// Id of `name`, or kNotFound.
  std::uint32_t find(std::string_view name) const;

  std::size_t size() const { return offsets_.size() - 1; }
  std::string_view name(std::uint32_t id) const;

  /// Total interned name bytes (arena occupancy, for the memory guards).
  std::size_t name_bytes() const { return arena_.size(); }

  void reserve(std::size_t nodes, std::size_t bytes);

 private:
  void rehash(std::size_t buckets);
  static std::uint64_t hash(std::string_view s);

  std::vector<char> arena_;
  std::vector<std::uint32_t> offsets_;  // size()+1 prefix offsets into arena_
  std::vector<std::uint32_t> buckets_;  // open addressing; id+1, 0 = empty
};

/// One parsed element card.  `a`/`b` are NodeTable ids or kGroundNode;
/// `line` is the 1-based source line of the card (diagnostics that fire
/// long after parsing -- conflicting pads after short collapse, say -- can
/// still name their origin).
struct PgElement {
  std::uint32_t a = kGroundNode;
  std::uint32_t b = kGroundNode;
  std::uint32_t line = 0;
  double value = 0.0;
};

/// A parsed benchmark netlist.  Elements are bucketed by role:
///
///   resistors  R cards with value > 0 [Ohm]
///   shorts     zero-ohm R cards, zero-volt V "ammeters" (the IBM via
///              idiom), and .shorts directives; collapsed by ImportedGrid
///   pads       nonzero V cards (one terminal must be ground): `a` is the
///              pad node, `value` its fixed potential [V]
///   loads      I cards: `value` amps flow a -> b through the source
///   caps       C cards [F]; used by the load-step transient route
struct PgNetlist {
  std::string source;  // source name used in diagnostics ("file.spice")
  std::string title;
  NodeTable nodes;
  std::vector<PgElement> resistors;
  std::vector<PgElement> shorts;
  std::vector<PgElement> pads;
  std::vector<PgElement> loads;
  std::vector<PgElement> caps;
  std::size_t line_count = 0;

  std::size_t node_count() const { return nodes.size(); }
  std::size_t element_count() const {
    return resistors.size() + shorts.size() + pads.size() + loads.size() +
           caps.size();
  }

  /// Distinct pad potentials in first-seen order (the netlist's VDD/GND
  /// nets; an IBM-format file carries several).
  std::vector<double> net_potentials() const;
};

/// Best-effort metal-layer index from the benchmark node-name grammar
/// `n<layer>_<x>_<y>` (e.g. "n3_140_8126"); -1 when the name does not
/// follow it.  Summary statistics only -- never load-bearing.
int layer_of_node_name(std::string_view name);

/// Per-layer node histogram over the `n<layer>_<x>_<y>` names; index 0
/// counts non-conforming names, index l+1 counts layer l.
std::vector<std::size_t> layer_histogram(const PgNetlist& netlist);

/// A parsed golden `.solution` voltage file: node name -> voltage, with its
/// own interning table (solution files usually cover every non-ground node
/// of the companion netlist).
struct GoldenSolution {
  std::string source;
  NodeTable nodes;
  std::vector<double> voltages;  // indexed by NodeTable id

  std::size_t size() const { return voltages.size(); }

  /// Voltage of `name`; false when the solution does not list it.  Ground
  /// (is_ground_name) reports 0 V.
  bool lookup(std::string_view name, double* voltage) const;
};

}  // namespace vstack::pgio
