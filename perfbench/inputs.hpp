#pragma once

/// \file inputs.hpp
/// Seeded workload inputs, generated as Æmilia text from the shipped
/// `specs/*.aem` / `*.msr` files.  The seed changes only numeric values —
/// rate, delay and grid jitter — never a structural parameter, so every
/// seed yields the same state spaces and the same amount of work.

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

/// splitmix64: the same stream on every platform and standard library.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /// Uniform in [lo, hi).
    double uniform(double lo, double hi);
    /// value * (1 + u), u uniform in [-share, share).
    double jitter(double value, double share) { return value * (1.0 + uniform(-share, share)); }

private:
    std::uint64_t state_;
};

/// One model and its measures, as text, ready for the parser and the linter.
struct SpecText {
    std::string name;      ///< file name reported in diagnostics
    std::string model;
    std::string measures;  ///< empty when the input has no measure file
    std::string measures_name;
};

/// Reads a file; throws std::runtime_error naming the path when it cannot.
[[nodiscard]] std::string read_file(const std::string& path);

/// Multiplies every `exp(r)` rate and every `det(t)` / `norm(m, s)` delay
/// literal by its own factor drawn from 1 ± \p share.
[[nodiscard]] std::string jitter_rates(std::string_view text, Rng& rng, double share);

/// Multiplies every STATE_REWARD / TRANS_REWARD value of a measure file by
/// its own factor drawn from 1 ± \p share.
[[nodiscard]] std::string jitter_rewards(std::string_view text, Rng& rng, double share);

/// Rewrites the integer arguments of `TYPE(0, n)` instance declarations to
/// `TYPE(0, capacity)` (the streaming AP and client buffers).  Throws when
/// \p type is not instantiated in \p text.
[[nodiscard]] std::string with_capacity(std::string_view text, std::string_view type,
                                        long capacity);

/// General-phase variant of a Markovian spec: every `exp(r)` becomes the
/// deterministic delay `det(1/r)`, except the actions named in
/// \p normal_action, whose delay becomes `norm(1/r, cv/r)`.
[[nodiscard]] std::string generalize(std::string_view text, std::string_view normal_action,
                                     double cv);

/// Lints \p spec with analysis::lint_text and throws when it reports any
/// diagnostic at all: benchmark inputs must be clean before they are timed.
void require_lint_clean(const SpecText& spec);

}  // namespace perfbench
