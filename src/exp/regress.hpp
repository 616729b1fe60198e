#pragma once

/// \file regress.hpp
/// Perf-regression verdicts from two run records.
///
/// compare_reports() takes two parsed run records (obs/run_report.hpp
/// schema, obs::json_parse), pairs their result series by experiment name
/// and the points within a series by parameter coordinates, and compares
/// the per-point wall times (the "elapsed_s" the runner stamps on every
/// point).  Per series it reports the geometric-mean new/old time ratio
/// with a bootstrap percentile confidence interval over the paired points
/// (resampling with a fixed seed, so the verdict is reproducible), and a
/// verdict:
///
///   REGRESSION    — the CI lower bound is at or above the threshold: the
///                   slowdown is both significant and big enough to care;
///   slower        — point estimate past the threshold but the CI still
///                   reaches below it (noisy; not failed);
///   faster        — CI upper bound at or below 1/threshold;
///   ok            — everything else;
///   incomparable  — no paired points with positive times on both sides
///                   (e.g. a record predating per-point timing).
///
/// Measure *values* are cross-checked too: a paired point whose value moved
/// beyond the two runs' combined CI half-widths (plus a small relative
/// slack) is reported as a drift note — values are supposed to be
/// deterministic given the seed policy, so drift means the code changed
/// behaviour, not just speed.  Notes never set the exit code; the verdict
/// table does.
///
/// Spans: every span name in either record's "spans" summary gets an
/// informational row (calls and microseconds per call on each side, and
/// their ratio when both sides have it; a span that a change adds or
/// removes shows "-" for the missing side).  Span rows never set the exit
/// code either.
///
/// This is the CI gate behind `dpma_cli report old.json new.json`: exit 0
/// when no series regressed, nonzero otherwise.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json_parse.hpp"

namespace dpma::exp {

struct RegressOptions {
    double threshold = 1.20;   ///< ratio at which a slowdown fails the gate
    double confidence = 0.95;  ///< bootstrap CI level
    int resamples = 2000;      ///< bootstrap resamples per series
    std::uint64_t seed = 42;   ///< bootstrap RNG seed (fixed => reproducible)

    void validate() const;  ///< throws Error on out-of-range values
};

struct SeriesComparison {
    std::string series;
    std::size_t paired = 0;    ///< points present in both records
    std::size_t only_old = 0;  ///< points only in the old record
    std::size_t only_new = 0;
    /// Points failed ("error" member) on either side: excluded from pairing
    /// — their values are NaN and their time is meaningless — and surfaced
    /// as a note instead.
    std::size_t failed = 0;
    double old_total_s = 0.0;  ///< summed elapsed_s over paired points
    double new_total_s = 0.0;
    double ratio = 1.0;  ///< geometric mean of per-point new/old ratios
    double ci_lo = 1.0;
    double ci_hi = 1.0;
    bool comparable = false;
    std::string verdict;  ///< "ok" | "faster" | "slower" | "REGRESSION" | "incomparable"
};

/// One span name from the records' "spans" summaries.
struct SpanComparison {
    std::string name;
    bool in_old = false;  ///< the old record has this span
    bool in_new = false;  ///< the new record has this span
    double old_calls = 0.0;
    double new_calls = 0.0;
    double old_us_per_call = 0.0;
    double new_us_per_call = 0.0;
    /// new / old microseconds per call (0 if old is 0 or a side is missing)
    double ratio = 0.0;
};

struct RegressReport {
    std::vector<SeriesComparison> series;
    /// In the new record's order, then the old record's spans that the new
    /// one lacks.
    std::vector<SpanComparison> spans;
    std::vector<std::string> notes;  ///< unpaired series/points, value drift
    double threshold = 0.0;
    bool regression = false;  ///< any series verdict == "REGRESSION"

    /// Fixed-width verdict table, the span rows (when there are any) and the
    /// notes, ready to print.
    [[nodiscard]] std::string table() const;
};

/// Compares two parsed run records.  Throws Error when either document is
/// not a run record (missing "schema": "dpma-run-report/...").
[[nodiscard]] RegressReport compare_reports(const obs::Json& older,
                                            const obs::Json& newer,
                                            const RegressOptions& options = {});

}  // namespace dpma::exp
