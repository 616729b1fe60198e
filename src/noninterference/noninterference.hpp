#pragma once

/// \file noninterference.hpp
/// The functional phase of the paper's methodology: verifying that a high
/// component (the dynamic power manager) cannot be observed by the low
/// components (the client).
///
/// The check is the classical equivalence-based noninterference property
/// (Goguen–Meseguer via Focardi–Gorrieri): the system with the high actions
/// *hidden* must be weakly bisimilar to the system with the high actions
/// *prevented from occurring*:
///
///     M / High  ~weak~  M \ High
///
/// The comparison is made "from the client standpoint" (Sect. 3): every
/// action that is neither high nor low is hidden on *both* sides, so only
/// the low observer's actions remain visible.
///
/// On failure, the distinguishing modal-logic formula explains how the low
/// observer can detect the high activity — for the paper's simplified rpc
/// system: after sending an rpc the client may never receive a result,
/// because the DPM can shut the server down mid-service.

#include <string>
#include <vector>

#include "adl/compose.hpp"
#include "bisim/hml.hpp"
#include "lts/lts.hpp"
#include "lts/ops.hpp"

namespace dpma::noninterference {

/// Outcome of a noninterference check.
struct Result {
    bool noninterfering = false;
    /// Distinguishing formula (weak modalities) satisfied by the hidden
    /// system's initial state but not by the restricted one; null on success.
    bisim::FormulaPtr formula;
    /// Sizes, for reporting.
    std::size_t hidden_states = 0;
    std::size_t restricted_states = 0;
};

/// The two observer views of \p system as one disjoint union, built in one
/// breadth-first pass per view straight from \p system: M/High (every action
/// that is high or not low hidden) on the states [initial_lhs, initial_rhs),
/// and M\High (high actions removed, every other non-low action hidden) on
/// the states from initial_rhs on.  Only the states reachable from the
/// initial state are emitted, numbered in discovery order, and the union
/// shares the action table of \p system.  States and transitions come out in
/// the order of disjoint_union(reachable_part(hide(...)),
/// reachable_part(hide(restrict_actions(...)))); rates are left unspecified.
[[nodiscard]] lts::UnionResult make_views(const lts::Lts& system,
                                          const lts::ActionSet& high_actions,
                                          const lts::ActionSet& low_actions);

/// Classical check: high actions hidden vs prevented; every other action is
/// observable.
[[nodiscard]] Result check(const lts::Lts& system, const lts::ActionSet& high_actions);

/// Observer-relative check (the paper's): only \p low_actions stay visible;
/// every action that is neither high nor low is hidden on both sides.
[[nodiscard]] Result check(const lts::Lts& system, const lts::ActionSet& high_actions,
                           const lts::ActionSet& low_actions);

/// Convenience for composed models: \p high_labels are the DPM command
/// labels (e.g. "DPM.send_shutdown#S.receive_shutdown"); the low observer is
/// every action involving \p low_instance (the client).  Throws ModelError
/// when a high label is not an action of the model or \p low_instance owns
/// no action.
[[nodiscard]] Result check_dpm_transparency(const adl::ComposedModel& model,
                                            const std::vector<std::string>& high_labels,
                                            const std::string& low_instance);

/// Outcome of the *trace-based* check (SNNI in the Focardi–Gorrieri
/// classification the paper cites [7]): same construction as the
/// bisimulation check but compared under weak trace equivalence.
struct TraceResult {
    bool noninterfering = false;
    std::vector<std::string> distinguishing_trace;  ///< empty on success
};

/// Trace-based observer-relative check.  Strictly weaker than the
/// bisimulation-based property: a DPM-induced deadlock (the simplified rpc
/// defect of Sect. 3.1) is invisible to traces, so this check PASSES on a
/// system the bisimulation check rightly rejects — the reason the paper
/// builds on equivalence checking with weak bisimilarity.
[[nodiscard]] TraceResult check_traces(const lts::Lts& system,
                                       const lts::ActionSet& high_actions,
                                       const lts::ActionSet& low_actions);

/// Composed-model convenience mirroring check_dpm_transparency, with the
/// same ModelError cases.
[[nodiscard]] TraceResult check_dpm_trace_transparency(
    const adl::ComposedModel& model, const std::vector<std::string>& high_labels,
    const std::string& low_instance);

}  // namespace dpma::noninterference
