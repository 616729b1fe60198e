#pragma once

/// \file dot.hpp
/// Graphviz export of labelled transition systems — handy for inspecting
/// the small functional models of the methodology (the paper's Fig. 2
/// topologies unfold into graphs of a few dozen states).

#include <string>

#include "lts/lts.hpp"

namespace dpma::lts {

struct DotOptions {
    bool show_rates = true;        ///< append the rate to each edge label
    std::size_t max_states = 500;  ///< refuse to render unreadably large graphs
};

/// Renders \p model as a Graphviz digraph.  The initial state is drawn with
/// a double circle; tau transitions are dashed.  Throws when the system
/// exceeds options.max_states (dot output would be unusable anyway).
[[nodiscard]] std::string to_dot(const Lts& model, const DotOptions& options = {});

}  // namespace dpma::lts
