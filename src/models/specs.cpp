#include "models/specs.hpp"

#include <string>

#include "aemilia/parser.hpp"
#include "core/error.hpp"
#include "models/specs_data.hpp"

namespace dpma::models {

std::string_view spec(std::string_view file_name) {
    for (const auto& [name, text] : specs_detail::kSpecs) {
        if (name == file_name) return text;
    }
    throw Error("no shipped spec named '" + std::string(file_name) + "'");
}

adl::ArchiType archi(std::string_view file_name) {
    return aemilia::parse_archi_type(spec(file_name));
}

std::vector<adl::Measure> measures(std::string_view file_name) {
    return aemilia::parse_measures(spec(file_name));
}

}  // namespace dpma::models
