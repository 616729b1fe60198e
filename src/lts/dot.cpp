#include "lts/dot.hpp"

#include <sstream>

#include "core/error.hpp"

namespace dpma::lts {
namespace {

/// Escapes double quotes and backslashes for a DOT string literal.
std::string escape(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

}  // namespace

std::string to_dot(const Lts& model, const DotOptions& options) {
    DPMA_REQUIRE(model.num_states() <= options.max_states,
                 "system too large for DOT rendering (" +
                     std::to_string(model.num_states()) + " states; limit " +
                     std::to_string(options.max_states) + ")");
    const ActionId tau = model.actions()->tau();

    std::ostringstream out;
    out << "digraph lts {\n  rankdir=LR;\n  node [shape=circle, fontsize=10];\n";
    for (StateId s = 0; s < model.num_states(); ++s) {
        out << "  s" << s << " [";
        if (s == model.initial()) out << "shape=doublecircle, ";
        out << "label=\"" << s << "\"];\n";
    }
    for (StateId s = 0; s < model.num_states(); ++s) {
        for (const Transition& t : model.out(s)) {
            out << "  s" << s << " -> s" << t.target << " [label=\""
                << escape(model.actions()->name(t.action));
            if (options.show_rates &&
                !std::holds_alternative<RateUnspecified>(model.rate(t))) {
                out << ", " << escape(rate_to_string(model.rate(t)));
            }
            out << "\"";
            if (t.action == tau) out << ", style=dashed";
            out << "];\n";
        }
    }
    out << "}\n";
    return out.str();
}

}  // namespace dpma::lts
