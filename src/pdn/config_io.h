// Plain-text (key = value) serialization of StackupConfig, so experiments
// can be described in version-controlled files and replayed by the CLI.
//
//   # 8-layer voltage stack
//   topology = stacked          ; or "regular"
//   layers = 8
//   vdd = 1.0
//   tsv = few                   ; dense | sparse | few
//   power_c4_fraction = 0.25
//   vdd_pads_per_core = 32
//   converters_per_core = 8
//   converter_reference = ideal ; ideal | adjacent
//   control = open              ; open | closed
//   grid = 32
//
// Unknown keys are errors; omitted keys keep their defaults.  The lexing
// (comments, `key = value`, repeated keys, numbers and counts) is
// text::KeyValueReader (common/text_input.h); rejections read
// "stackup config line N: ...", and a config that fails
// StackupConfig::validate() reads "stackup config: ...".
#pragma once

#include <string>

#include "pdn/stackup.h"

namespace vstack::pdn {

/// Parse a configuration from text, starting from `base` defaults.
StackupConfig parse_stackup_config(const std::string& text,
                                   const StackupConfig& base = {});

/// Serialize a configuration to the same format; every value reads back
/// exactly (text::format_number), so equal text means an equal config.
std::string write_stackup_config(const StackupConfig& config);

}  // namespace vstack::pdn
