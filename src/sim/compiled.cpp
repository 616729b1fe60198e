#include "sim/compiled.hpp"

#include <limits>
#include <string>
#include <variant>

#include "core/error.hpp"

namespace dpma::sim {
namespace {

Dist dist_of(const lts::Rate& rate) {
    if (const auto* exp_rate = std::get_if<lts::RateExp>(&rate)) {
        return Dist::exponential(exp_rate->rate);
    }
    if (const auto* gen = std::get_if<lts::RateGeneral>(&rate)) {
        return gen->dist;
    }
    throw ModelError("transition without a timed rate reached the scheduler");
}

/// Bucket count of the retired scheduler's clock maps.  libstdc++ grows a
/// fresh unordered_map from 1 bucket to 13 on the first insert and keeps 13
/// for up to 13 elements; clear() preserves the bucket array, so every
/// scheduling round inserted into a 13-bucket table.
constexpr std::size_t kClockBuckets = 13;

/// Replays libstdc++'s _Hashtable iteration order for distinct keys
/// emplaced in the given order into an empty 13-bucket map (identity hash):
/// all nodes live on one global forward list; inserting into an empty
/// bucket pushes the node to the *front* of that list, inserting into a
/// non-empty bucket places the node immediately before the bucket's current
/// first node (which it replaces as bucket head).  Verified against real
/// unordered_map iteration over randomized key sets, including maps reused
/// across clear() rounds.  Returns positions into `keys` in iteration
/// order.
/// \p order receives positions into \p keys in iteration order; \p n must
/// be <= kClockBuckets.  Allocation-free (called once per state).
void map_iteration_order(const lts::ActionId* keys, std::uint32_t n,
                         std::uint32_t* order) {
    // Doubly-linked list over node indexes 0..n-1; -1 terminates.
    int next[kClockBuckets];
    int prev[kClockBuckets];
    int bucket_head[kClockBuckets];
    for (int& b : bucket_head) b = -1;
    int head = -1;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::size_t b = keys[i] % kClockBuckets;
        const int at = bucket_head[b] < 0 ? head : bucket_head[b];
        // Insert node i before `at` (at == -1: empty list).
        const int before = at < 0 ? -1 : prev[at];
        next[i] = at;
        prev[i] = before;
        if (at >= 0) prev[at] = static_cast<int>(i);
        if (before >= 0) {
            next[before] = static_cast<int>(i);
        } else {
            head = static_cast<int>(i);
        }
        bucket_head[b] = static_cast<int>(i);
    }
    std::uint32_t at = 0;
    for (int node = head; node >= 0; node = next[node]) {
        order[at++] = static_cast<std::uint32_t>(node);
    }
}

}  // namespace

CompiledModel compile_model(const adl::ComposedModel& model,
                            const std::vector<std::vector<double>>& state_reward_rate,
                            const std::vector<std::vector<double>>& action_reward) {
    CompiledModel compiled;
    const std::size_t num_states = model.graph.num_states();
    const std::size_t num_measures = state_reward_rate.size();
    compiled.num_actions = model.graph.actions()->size();
    compiled.states.resize(num_states);

    // The iteration-order replay models a fixed 13-bucket table; a state
    // with more timed labels would have grown the shared maps and changed
    // the order model globally.  No shipped spec comes close, but fall back
    // to first-occurrence tie order (still a valid GSMP tie-breaker, just a
    // different random choice than the retired scheduler) rather than
    // replay a wrong permutation.
    bool order_modeled = true;

    // Reserve the immediates against the transition count.  The timed
    // tables grow as needed: only states without immediates have timed
    // labels, far fewer than the transitions (streaming: 6,094 against
    // 79,696), and an over-reserved block, once freed, raises glibc's mmap
    // threshold and with it the heap's high-water mark.
    std::size_t num_transitions = 0;
    for (lts::StateId s = 0; s < num_states; ++s) {
        num_transitions += model.graph.out(s).size();
    }
    compiled.immediates.reserve(num_transitions / 4 + 8);
    compiled.state_rewards.reserve(num_states);

    std::vector<lts::ActionId> labels;     // scratch: per-state timed labels
    std::vector<std::uint32_t> label_pos;  // scratch: label -> timed index
    labels.reserve(64);
    label_pos.reserve(64);
    const std::vector<const lts::RateImmediate*> immediate =
        lts::slot_rates<lts::RateImmediate>(model.graph);
    for (lts::StateId s = 0; s < num_states; ++s) {
        CompiledModel::StateInfo& info = compiled.states[s];
        const auto out = model.graph.out(s);

        // Immediates, maximal progress: same two-pass scan (and the same
        // floating-point total) as the reference chooser.
        int best_priority = std::numeric_limits<int>::min();
        double total_weight = 0.0;
        bool has_immediate = false;
        for (const lts::Transition& t : out) {
            if (const lts::RateImmediate* imm = immediate[t.slot]) {
                has_immediate = true;
                if (imm->priority > best_priority) {
                    best_priority = imm->priority;
                    total_weight = 0.0;
                }
                if (imm->priority == best_priority) total_weight += imm->weight;
            }
        }
        if (has_immediate && total_weight <= 0.0) {
            throw ModelError(
                "state " + std::to_string(s) +
                " has immediate transitions whose best-priority weights sum to " +
                std::to_string(total_weight) +
                " <= 0: the choice distribution is undefined (the retired "
                "scheduler silently fell through to timed scheduling)");
        }
        info.imm_begin = static_cast<std::uint32_t>(compiled.immediates.size());
        if (has_immediate) {
            for (const lts::Transition& t : out) {
                if (const lts::RateImmediate* imm = immediate[t.slot]) {
                    if (imm->priority != best_priority || imm->weight <= 0.0) continue;
                    compiled.immediates.push_back(
                        CompiledModel::ImmediateCandidate{imm->weight, t.action, t.target});
                }
            }
            info.imm_total_weight = total_weight;
        }
        info.imm_end = static_cast<std::uint32_t>(compiled.immediates.size());

        // Timed labels — only reachable by the scheduler when the state has
        // no immediates (maximal progress always preempts).
        info.timed_begin = static_cast<std::uint32_t>(compiled.timed.size());
        if (!has_immediate) {
            labels.clear();
            for (const lts::Transition& t : out) {
                std::uint32_t li = std::numeric_limits<std::uint32_t>::max();
                for (std::uint32_t k = 0; k < labels.size(); ++k) {
                    if (labels[k] == t.action) {
                        li = label_pos[k];
                        break;
                    }
                }
                if (li == std::numeric_limits<std::uint32_t>::max()) {
                    // First occurrence: the shared clock samples *this*
                    // transition's distribution (as the reference did).
                    labels.push_back(t.action);
                    label_pos.resize(labels.size());
                    label_pos[labels.size() - 1] =
                        static_cast<std::uint32_t>(compiled.timed.size());
                    CompiledModel::TimedLabel tl;
                    tl.dist = dist_of(model.graph.rate(t));
                    tl.action = t.action;
                    compiled.timed.push_back(tl);
                }
            }
            // Candidate target groups, per label, in out-transition order.
            for (std::uint32_t k = 0; k < labels.size(); ++k) {
                CompiledModel::TimedLabel& tl = compiled.timed[label_pos[k]];
                tl.cand_begin = static_cast<std::uint32_t>(compiled.targets.size());
                for (const lts::Transition& t : out) {
                    if (t.action == labels[k]) compiled.targets.push_back(t.target);
                }
                tl.cand_end = static_cast<std::uint32_t>(compiled.targets.size());
            }
            // Tie-scan permutation (offsets within this state's label range).
            if (labels.size() > kClockBuckets) order_modeled = false;
            if (order_modeled && labels.size() > 1) {
                std::uint32_t order[kClockBuckets];
                map_iteration_order(labels.data(),
                                    static_cast<std::uint32_t>(labels.size()), order);
                for (std::uint32_t k = 0; k < labels.size(); ++k) {
                    compiled.tie_order.push_back(order[k]);
                }
            } else {
                for (std::uint32_t k = 0; k < labels.size(); ++k) {
                    compiled.tie_order.push_back(k);
                }
            }
        }
        info.timed_end = static_cast<std::uint32_t>(compiled.timed.size());

        // Sparse state rewards, measure-ascending (the dense loop's order).
        info.reward_begin = static_cast<std::uint32_t>(compiled.state_rewards.size());
        for (std::uint32_t m = 0; m < num_measures; ++m) {
            const double rate = state_reward_rate[m][s];
            if (rate != 0.0) {
                compiled.state_rewards.push_back(CompiledModel::RewardEntry{m, rate});
            }
        }
        info.reward_end = static_cast<std::uint32_t>(compiled.state_rewards.size());
    }
    // If a late state broke the order model, earlier states may already
    // carry replayed permutations — rebuild them as first-occurrence.
    if (!order_modeled) {
        std::size_t at = 0;
        for (const CompiledModel::StateInfo& info : compiled.states) {
            for (std::uint32_t k = 0; k < info.timed_end - info.timed_begin; ++k) {
                compiled.tie_order[at++] = k;
            }
        }
    }

    // Sparse action rewards, grouped per label.
    compiled.action_reward_begin.resize(compiled.num_actions + 1, 0);
    for (std::uint32_t a = 0; a < compiled.num_actions; ++a) {
        compiled.action_reward_begin[a] =
            static_cast<std::uint32_t>(compiled.action_rewards.size());
        for (std::uint32_t m = 0; m < num_measures; ++m) {
            const double reward = action_reward[m][a];
            if (reward != 0.0) {
                compiled.action_rewards.push_back(CompiledModel::RewardEntry{m, reward});
            }
        }
    }
    compiled.action_reward_begin[compiled.num_actions] =
        static_cast<std::uint32_t>(compiled.action_rewards.size());

    return compiled;
}

}  // namespace dpma::sim
