#pragma once

/// \file transparency.hpp
/// Static DPM-transparency slicing: decide `M/High ~weak~ M\High` without
/// ever composing M.
///
/// The engine combines a dataflow taint pass with an *exact check on a small
/// slice*:
///
///  1. The instances touching the high labels are the seed slice.  Inside
///     each seed, the tainted CFG region is what is reachable after a high
///     action but not reachable without one; interaction ports fired from
///     that region are the channels through which the DPM's activity can
///     influence the rest of the architecture.  Taint floods along
///     attachments (synchronisation propagates influence in both
///     directions), recording the interaction chain.
///
///  2. The slice is a sub-architecture: the slice members, every attachment
///     touching them, and for each outside partner an always-ready passive
///     environment instance, so attachments leaving the slice stay free,
///     visible interface actions.  adl::compose builds its product (at most
///     50,000 states), which is checked exactly: slice/High weakly bisimilar
///     to slice\High with the interface visible.  Weak bisimilarity is a
///     congruence for parallel composition and hiding, so a PASS lifts to
///     the full system under the observer-relative hiding the oracle
///     applies: static `transparent` implies the exact verdict (soundness;
///     DESIGN.md §8b).
///     On FAIL the slice grows along the taint chain and is re-checked.
///
/// Verdicts: `Transparent` is trustworthy (tests cross-check it against the
/// exact weak-bisimulation oracle on every shipped spec); `Leaks` means the
/// slice check failed *and* taint reaches the low observer — strong evidence
/// with the offending interaction chain, but consumers must still run the
/// exact check; `Inconclusive` means the analysis gave up (compose refused
/// the slice, the slice check failed without a taint path to low,
/// degenerate inputs).

#include <cstddef>
#include <string>
#include <vector>

#include "adl/model.hpp"

namespace dpma::analysis::flow {

enum class TransparencyVerdict { Transparent, Leaks, Inconclusive };

[[nodiscard]] const char* verdict_name(TransparencyVerdict verdict);

struct TransparencyOptions {
    /// Global high labels, as printed by `info`: "I.a" or "I.a#J.b".
    std::vector<std::string> high_labels;
    /// The observing instance; must not be touched by a high label.
    std::string low_instance;
};

struct TransparencyResult {
    TransparencyVerdict verdict = TransparencyVerdict::Inconclusive;
    /// Members of the last slice checked (names, in architecture order).
    std::vector<std::string> slice_instances;
    /// For Leaks: the attachment chain from the high seeds to the low
    /// observer ("I.a # J.b" labels, seed side first).
    std::vector<std::string> leak_chain;
    /// Human-readable explanation of how the verdict was reached.
    std::string reason;
    /// Product states of the last slice explored (0 when none was built).
    std::size_t slice_states = 0;
};

/// Runs the static transparency analysis on the (lint-clean) architecture.
/// Throws dpma::Error on unknown instances / malformed labels, mirroring
/// the exact checker's contract.
[[nodiscard]] TransparencyResult analyze_transparency(const adl::ArchiType& archi,
                                                      const TransparencyOptions& options);

}  // namespace dpma::analysis::flow
