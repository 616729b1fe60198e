#include "inputs.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/diag.hpp"
#include "analysis/lint.hpp"

namespace perfbench {
namespace {

bool ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string number(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

/// Position just past `<keyword>(` at or after \p from, where the keyword
/// is not the tail of a longer identifier; npos when there is none.
std::size_t find_call(std::string_view text, std::string_view keyword, std::size_t from) {
    const std::string pattern = std::string(keyword) + "(";
    for (std::size_t at = text.find(pattern, from); at != std::string_view::npos;
         at = text.find(pattern, at + 1)) {
        if (at == 0 || !ident_char(text[at - 1])) return at + pattern.size();
    }
    return std::string_view::npos;
}

/// Parses the numeric literal at \p pos; sets \p end past it.
double literal(std::string_view text, std::size_t pos, std::size_t* end) {
    const std::string tail(text.substr(pos, 64));
    char* stop = nullptr;
    const double value = std::strtod(tail.c_str(), &stop);
    if (stop == tail.c_str()) {
        throw std::runtime_error("perfbench: expected a number at offset " +
                                 std::to_string(pos));
    }
    *end = pos + static_cast<std::size_t>(stop - tail.c_str());
    return value;
}

/// Name of the action whose rate starts at \p pos (`<name, rate>`).
std::string action_before(std::string_view text, std::size_t pos) {
    const std::size_t open = text.rfind('<', pos);
    const std::size_t comma = text.find(',', open);
    if (open == std::string_view::npos || comma == std::string_view::npos || comma > pos) {
        throw std::runtime_error("perfbench: rate literal outside an action prefix");
    }
    std::string name(text.substr(open + 1, comma - open - 1));
    while (!name.empty() && std::isspace(static_cast<unsigned char>(name.back()))) name.pop_back();
    return name;
}

}  // namespace

std::uint64_t Rng::next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
    const double unit = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * unit;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("perfbench: cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

namespace {

/// Copies \p text with the numeric arguments of every call to one of
/// \p keywords (name, argument count) multiplied by factor(call position),
/// calls taken in order of appearance.
template <typename Factor>
std::string scale_calls(std::string_view text,
                        std::initializer_list<std::pair<std::string_view, int>> keywords,
                        Factor factor) {
    std::string out;
    std::size_t copied = 0;
    while (true) {
        std::size_t best = std::string_view::npos;
        int args = 0;
        for (const auto& [keyword, count] : keywords) {
            const std::size_t at = find_call(text, keyword, copied);
            if (at < best) {
                best = at;
                args = count;
            }
        }
        if (best == std::string_view::npos) break;
        const double f = factor(best);
        out.append(text.substr(copied, best - copied));
        std::size_t pos = best;
        for (int i = 0; i < args; ++i) {
            while (text[pos] == ' ' || text[pos] == ',') out += text[pos++];
            std::size_t end = 0;
            out += number(literal(text, pos, &end) * f);
            pos = end;
        }
        copied = pos;
    }
    out.append(text.substr(copied));
    return out;
}

}  // namespace

std::string jitter_rates(std::string_view text, Rng& rng, double share) {
    return scale_calls(text, {{"exp", 1}, {"det", 1}, {"norm", 2}},
                       [&](std::size_t) { return 1.0 + rng.uniform(-share, share); });
}

std::string jitter_rewards(std::string_view text, Rng& rng, double share) {
    return scale_calls(text, {{"STATE_REWARD", 1}, {"TRANS_REWARD", 1}},
                       [&](std::size_t) { return 1.0 + rng.uniform(-share, share); });
}

std::string with_capacity(std::string_view text, std::string_view type, long capacity) {
    const std::string pattern = std::string(type) + "(0, ";
    const std::size_t at = text.find(pattern);
    if (at == std::string_view::npos) {
        throw std::runtime_error("perfbench: no instance of " + std::string(type));
    }
    const std::size_t close = text.find(')', at);
    std::string out(text.substr(0, at + pattern.size()));
    out += std::to_string(capacity);
    out.append(text.substr(close));
    return out;
}

std::string generalize(std::string_view text, std::string_view normal_action, double cv) {
    std::string out;
    std::size_t copied = 0;
    for (std::size_t at = find_call(text, "exp", 0); at != std::string_view::npos;
         at = find_call(text, "exp", copied)) {
        std::size_t end = 0;
        const double mean = 1.0 / literal(text, at, &end);
        out.append(text.substr(copied, at - 4 - copied));
        if (action_before(text, at) == normal_action) {
            out += "norm(" + number(mean) + ", " + number(cv * mean);
        } else {
            out += "det(" + number(mean);
        }
        copied = end;
    }
    out.append(text.substr(copied));
    return out;
}

void require_lint_clean(const SpecText& spec) {
    const dpma::analysis::LintResult lint =
        spec.measures.empty()
            ? dpma::analysis::lint_text(spec.model, spec.name)
            : dpma::analysis::lint_text(spec.model, spec.name, spec.measures,
                                        spec.measures_name);
    if (!lint.clean()) {
        throw std::runtime_error("perfbench: generated input " + spec.name +
                                 " is not lint-clean:\n" +
                                 dpma::analysis::render_text(lint.diagnostics));
    }
}

}  // namespace perfbench
