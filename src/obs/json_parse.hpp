#pragma once

/// \file json_parse.hpp
/// Strict JSON parser building a small value tree.
///
/// The one strict JSON reader: obs::json_valid is a thin wrapper over it,
/// and the few consumers that need to *read* an artifact back — above all
/// the perf-regression reporter (exp/regress.hpp, `dpma_cli report`), which
/// loads two run records and pairs their series — use the tree.  Grammar:
/// objects, arrays, strings with escapes (\uXXXX decoded to UTF-8,
/// surrogate pairs combined, unpaired surrogates rejected), numbers,
/// true/false/null; no trailing commas, no comments, at most 256 levels of
/// nesting; no duplicate-key policy (find() returns the first).
///
/// The tree is deliberately plain: one struct, public members, object keys
/// kept in document order.  Accessors return fallbacks instead of throwing
/// so report-reading code can probe optional fields without ceremony.

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dpma::obs {

struct Json {
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Json> array;
    std::vector<std::pair<std::string, Json>> object;  ///< document order

    [[nodiscard]] bool is_null() const noexcept { return kind == Kind::Null; }
    [[nodiscard]] bool is_object() const noexcept { return kind == Kind::Object; }
    [[nodiscard]] bool is_array() const noexcept { return kind == Kind::Array; }
    [[nodiscard]] bool is_number() const noexcept { return kind == Kind::Number; }
    [[nodiscard]] bool is_string() const noexcept { return kind == Kind::String; }

    /// First member named \p key, or nullptr (also when not an object).
    [[nodiscard]] const Json* find(std::string_view key) const noexcept;

    /// Value of member \p key when it is a number/string; fallback otherwise.
    [[nodiscard]] double number_at(std::string_view key, double fallback = 0.0) const noexcept;
    [[nodiscard]] std::string string_at(std::string_view key,
                                        std::string_view fallback = "") const;
};

/// Parses \p text as exactly one JSON value (surrounding whitespace
/// allowed).  Throws core Error with the byte offset on malformed input.
[[nodiscard]] Json json_parse(std::string_view text);

}  // namespace dpma::obs
