// Streaming reader for IBM-power-grid-style benchmark netlists and their
// golden `.solution` voltage files.
//
// The dialect is the published benchmark subset (docs/benchmark_ingestion.md):
//
//   * comment                        ; '*' in column one, or after ';'
//   .title <anything>
//   R<name> <a> <b> <ohms>           ; 0 ohms = via short (nodes merged)
//   V<name> <n+> <n-> <volts>        ; 0 V between two internal nodes =
//                                    ;   via "ammeter" short (IBM idiom);
//                                    ;   nonzero value = pad pin, one
//                                    ;   terminal must be ground
//   I<name> <from> <to> <amps>       ; DC load current from -> to
//   C<name> <a> <b> <farads>         ; decap (load-step transient route)
//   .shorts <a> <b>                  ; explicit node merge
//   .op / .end                       ; accepted; content after .end rejected
//
// L cards (the transient benchmark variants) are rejected with a
// diagnostic naming the documented subset.  Ground is any of the aliases
// "0", "gnd", "GND", "Gnd", "G" (is_ground_name in pgio/netlist.h).
//
// Lexing is common/text_input.h, shared with circuit/spice_parser: tokens
// are separated by blanks and tabs, and values follow the one number rule
// -- a finite, in-range strtod number of at most 63 characters, optionally
// followed by exactly one magnitude suffix (f p n u m k meg g t, any case)
// and nothing else ("1kk", "10uF" and "1e-400" are errors).
//
// Hardened front-end: every rejection reads "<source>:<line>: <what>" with
// the offending token; duplicate element names, duplicate/conflicting pad
// definitions, non-finite or out-of-range values, and memory-bomb inputs
// (node, element, name-byte and line-length budgets) all fail here with an
// actionable message instead of deep inside the solver.  The pass is
// single-scan and allocation-frugal: one reused line buffer, string_view
// tokens, and the interning NodeTable -- ingesting a million-node netlist
// stays within the documented memory bound (docs/benchmark_ingestion.md).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "pgio/netlist.h"

namespace vstack::pgio {

struct ReadOptions {
  /// Memory-bomb guards.  An input that exceeds one of these fails with a
  /// source:line diagnostic naming the budget; raise them deliberately for
  /// extreme inputs rather than removing them.
  std::size_t max_nodes = 20'000'000;
  std::size_t max_elements = 100'000'000;
  std::size_t max_name_bytes = 1ull << 30;  // interned node-name arena
  std::size_t max_line_length = 8192;
};

/// Parse a netlist from a stream in one pass.  Throws vstack::Error with a
/// "<source>:<line>: ..." message on any malformed card.
PgNetlist read_netlist(std::istream& in, const std::string& source_name,
                       const ReadOptions& options = {});

/// Convenience wrappers.
PgNetlist read_netlist_file(const std::string& path,
                            const ReadOptions& options = {});
PgNetlist read_netlist_text(const std::string& text,
                            const std::string& source_name = "<netlist>",
                            const ReadOptions& options = {});

/// Parse a golden voltage file: one "<node> <volts>" pair per line, '*' or
/// ';' comments.  Duplicate nodes and non-finite voltages are rejected
/// with source:line diagnostics.
GoldenSolution read_solution(std::istream& in, const std::string& source_name,
                             const ReadOptions& options = {});
GoldenSolution read_solution_file(const std::string& path,
                                  const ReadOptions& options = {});
GoldenSolution read_solution_text(const std::string& text,
                                  const std::string& source_name = "<solution>",
                                  const ReadOptions& options = {});

}  // namespace vstack::pgio
