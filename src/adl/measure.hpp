#pragma once

/// \file measure.hpp
/// Reward-based performance measures in the style of the paper's companion
/// language:
///
///   MEASURE throughput IS
///     ENABLED(C.process_result_packet) -> TRANS_REWARD(1);
///   MEASURE energy IS
///     ENABLED(S.monitor_idle_server) -> STATE_REWARD(2)
///     ...
///
/// A STATE_REWARD clause accumulates reward per unit of time spent in states
/// satisfying the predicate; a TRANS_REWARD clause accumulates reward per
/// firing of the matching transitions.  The same measure definitions are
/// evaluated analytically on the CTMC (dpma::ctmc) and statistically by the
/// simulator (dpma::sim).

#include <string>
#include <variant>
#include <vector>

#include "adl/compose.hpp"

namespace dpma::adl {

/// Predicate "instance can perform (or the transition fires) this action".
/// Matches both internal labels ("C.process_result_packet") and either side
/// of a synchronised label ("RSC.deliver_packet#C.receive_result_packet").
struct EnabledPredicate {
    std::string instance;
    std::string action;
};

/// Predicate "the instance currently occupies a local state whose name
/// starts with the given prefix", e.g. IN_STATE(S, Sleeping_Server).  Only
/// meaningful for STATE_REWARD clauses.
struct InStatePredicate {
    std::string instance;
    std::string state_prefix;
};

using Predicate = std::variant<EnabledPredicate, InStatePredicate>;

struct RewardClause {
    enum class Target { State, Trans };
    Target target = Target::State;
    Predicate predicate;
    double reward = 0.0;
    SourceLoc loc = {};  ///< position of the predicate keyword (parser-built only)
};

struct Measure {
    std::string name;
    std::vector<RewardClause> clauses;
    SourceLoc loc = {};  ///< position of the measure name (parser-built only)
};

/// Convenience constructors mirroring the concrete syntax.
[[nodiscard]] RewardClause state_reward(std::string instance, std::string action,
                                        double reward);
[[nodiscard]] RewardClause state_reward_in(std::string instance, std::string state_prefix,
                                           double reward);
[[nodiscard]] RewardClause trans_reward(std::string instance, std::string action,
                                        double reward);

/// A (state-target) predicate prepared against one composed model and then
/// evaluated one state at a time: ENABLED scans the state's transitions for
/// a matching label, IN_STATE looks up the instance's local state.  For
/// callers that only need some states (e.g. the tangible ones).
class StateTest {
public:
    StateTest(const ComposedModel& model, const Predicate& predicate);

    [[nodiscard]] bool operator()(lts::StateId state) const;

private:
    const ComposedModel* model_;
    bool enabled_;              ///< ENABLED (else IN_STATE)
    std::vector<char> labels_;  ///< ENABLED: matching action labels
    std::vector<char> local_;   ///< IN_STATE: matching local states of instance_
    std::size_t instance_ = 0;
};

/// Per-state membership mask of a (state-target) predicate: StateTest over
/// every composed state.
[[nodiscard]] std::vector<char> state_mask(const ComposedModel& model,
                                           const Predicate& predicate);

/// Per-action-label membership mask of an ENABLED predicate (indexed by the
/// composed model's ActionId).  Throws for IN_STATE predicates, which do not
/// select transitions.
[[nodiscard]] std::vector<char> action_mask(const ComposedModel& model,
                                            const Predicate& predicate);

/// All global action labels that involve the given instance — either as an
/// internal action or as one party of a synchronisation.  Used to pick the
/// "high" actions of the noninterference check (all actions of the DPM).
[[nodiscard]] std::vector<lts::ActionId> actions_of_instance(const ComposedModel& model,
                                                             const std::string& instance);

}  // namespace dpma::adl
