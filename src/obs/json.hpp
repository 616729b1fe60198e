#pragma once

/// \file json.hpp
/// Minimal JSON utilities shared by every emitter in the toolchain.
///
/// Emission: json_quote / json_number are the one escaping and number
/// formatting policy (full double round-trip precision), used by the trace
/// and metrics dumps, solver diagnostics and exp::ResultSet.
///
/// Validation: json_valid runs the strict reader of obs/json_parse.hpp and
/// reports whether it accepted the text — so tests and the json_check tool
/// can assert that emitted artifacts are well-formed without an external
/// JSON dependency.

#include <string>
#include <string_view>

namespace dpma::obs {

/// \p text as a quoted JSON string, escaping ", \, control characters and
/// (as \uXXXX) any other byte below 0x20.
[[nodiscard]] std::string json_quote(std::string_view text);

/// Shortest decimal rendering of \p value that round-trips (%.17g).  NaN and
/// infinities — illegal in JSON — are emitted as null.
[[nodiscard]] std::string json_number(double value);

/// True when \p text is exactly one valid JSON value (surrounding whitespace
/// allowed).  On failure, *error (when non-null) receives a message with the
/// byte offset of the problem.
[[nodiscard]] bool json_valid(std::string_view text, std::string* error = nullptr);

}  // namespace dpma::obs
