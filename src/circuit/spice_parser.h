// SPICE-subset netlist parser.
//
// Lets converter testbenches be written as plain text instead of C++.  The
// dialect covers exactly what the transient engine supports:
//
//   * comment                       ; trailing comments too
//   .title <anything>
//   V<name> <n+> <n-> <value>
//   I<name> <from> <to> <value>
//   R<name> <a> <b> <value>
//   C<name> <a> <b> <value> [IC=<v0>]
//   S<name> <a> <b> <Ron> <Roff> PHASE=<offset> DUTY=<duty>
//   .clock <period>                 ; switch phases are fractions of this
//   .tran <step> <stop> [DC] [ADAPTIVE]
//   .end
//
// Values follow the one number rule of common/text_input.h, shared with
// pgio/reader: a finite, in-range strtod number of at most 63 characters,
// optionally followed by exactly one magnitude suffix (f p n u m k meg g t,
// any case) and nothing else -- "10uF", "1kk" and "1mil" are errors.  Tokens
// are separated by blanks and tabs.  Ground aliases: "0" and "gnd", any
// case; all other node names are lower-cased and created on first use.
//
// The parser is a hardened front-end: every rejection names the source, the
// line, and the offending token ("netlist.sp:7: ..."), duplicate element
// names and duplicate .clock/.tran cards are rejected, and all element
// values are range-checked (positive R/C, Roff >= Ron, duty in [0, 1],
// phase offset in [0, 1), finite everywhere) so malformed input fails here
// with an actionable message instead of deep inside the solver.
#pragma once

#include <map>
#include <string>

#include "circuit/netlist.h"
#include "circuit/transient.h"

namespace vstack::circuit {

struct ParsedCircuit {
  Netlist netlist;
  std::string title;
  double clock_period = 1.0;  // [s]; defaults to 1 s if no .clock card
  bool has_tran = false;
  TransientOptions tran;

  /// Node id by source-text name (excluding ground aliases).
  std::map<std::string, NodeId> node_by_name;
};

/// Parse a netlist from text.  Throws vstack::Error on any malformed card;
/// the message is "<source_name>:<line>: <what>" with the offending token.
ParsedCircuit parse_spice(const std::string& text,
                          const std::string& source_name = "<netlist>");

/// Serialize a netlist back to the dialect; every value reads back exactly
/// (text::format_number).
std::string write_spice(const ParsedCircuit& circuit);

}  // namespace vstack::circuit
