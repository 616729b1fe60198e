#pragma once

/// \file specs.hpp
/// The shipped specifications in the Æmilia surface syntax: every
/// specs/*.aem architecture and specs/*.msr measure set, embedded at build
/// time.  They are the only source of the case-study models; the variants
/// the experiments need (no DPM, other timings, other capacities) are edits
/// of these (variants.hpp).

#include <string_view>
#include <vector>

#include "adl/measure.hpp"
#include "adl/model.hpp"

namespace dpma::models {

/// Text of the shipped file \p file_name, e.g. "rpc_revised_markov.aem".
/// Throws Error for a name that is not in specs/.
[[nodiscard]] std::string_view spec(std::string_view file_name);

/// The parsed architecture of the shipped file \p file_name.
[[nodiscard]] adl::ArchiType archi(std::string_view file_name);

/// The parsed measure set of the shipped file \p file_name.
[[nodiscard]] std::vector<adl::Measure> measures(std::string_view file_name);

}  // namespace dpma::models
