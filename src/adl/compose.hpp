#pragma once

/// \file compose.hpp
/// Builds the global labelled transition system of an architectural type by
/// synchronising the local LTSs of its instances over the declared UNI
/// attachments (EMPA/Æmilia semantics):
///
///  * an internal action of instance I yields a global transition "I.a";
///  * an attached output/input pair yields a synchronised global transition
///    "I.a#J.b" whose rate is contributed by the unique non-passive party;
///  * unattached interactions are blocked — this is how "the DPM is absent"
///    and CCS restriction are modelled architecturally.
///
/// Maximal progress for immediate actions is *not* applied here: the
/// functional phase must see every alternative.  The Markovian layer
/// (dpma::ctmc) and the simulator (dpma::sim) apply it when they interpret
/// the rates.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adl/model.hpp"
#include "lts/lts.hpp"

namespace dpma::adl {

struct ComposeOptions {
    /// Exploration bound; exceeded => ModelError (guards against unbounded
    /// integer parameters).
    std::size_t max_states = 1'000'000;
};

/// Local LTS of one instance (exposed for tests and diagnostics).
struct LocalLts {
    struct LocalTransition {
        Symbol action;        ///< bare action name, interned in the global table
        lts::Rate rate;
        std::uint32_t target;
    };
    std::vector<std::vector<LocalTransition>> out;
    std::vector<std::string> state_names;
    std::uint32_t initial = 0;
};

/// The composed system plus the bookkeeping needed to evaluate measures:
/// which instance is which, and which local state each instance occupies in
/// every global state.
struct ComposedModel {
    lts::Lts graph;
    std::vector<std::string> instance_names;
    /// What each global state is made of.  Fixed by compose() like the
    /// graph's structure, so rate-patched copies share it.
    struct Locals {
        /// Flattened per-state locals, instance_names.size() entries per
        /// global state; read through local_state().
        std::vector<std::uint32_t> states;
        /// Per instance, the name of each local state (behaviour + arguments).
        std::vector<std::vector<std::string>> names;
    };
    std::shared_ptr<const Locals> locals = std::make_shared<const Locals>();

    [[nodiscard]] std::size_t instance_index(const std::string& name) const;

    /// Local state of instance \p instance in global state \p state.
    [[nodiscard]] std::uint32_t local_state(lts::StateId state,
                                            std::size_t instance) const {
        return locals->states[static_cast<std::size_t>(state) * instance_names.size() +
                              instance];
    }

    /// Names of the local states of instance \p instance, by local state.
    [[nodiscard]] const std::vector<std::string>& local_state_names(
        std::size_t instance) const {
        return locals->names[instance];
    }

    /// Name of the local state of \p instance in global state \p state.
    [[nodiscard]] const std::string& local_label(lts::StateId state,
                                                 std::size_t instance) const;

    /// Diagnostic name of global state \p state: its local states, as
    /// "Inst:local | Inst:local | ...".
    [[nodiscard]] std::string state_label(lts::StateId state) const;
};

/// Unfolds the behaviours of \p type applied to \p args into a local LTS.
/// Interns bare action names into \p actions.
[[nodiscard]] LocalLts build_local_lts(const ElemType& type, std::span<const long> args,
                                       lts::ActionTable& actions, std::size_t max_states);

/// Validates and composes the architecture.  The result contains exactly the
/// states reachable from the initial configuration.
[[nodiscard]] ComposedModel compose(const ArchiType& archi, const ComposeOptions& options = {});

}  // namespace dpma::adl
