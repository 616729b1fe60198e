#include "bisim/trace_equiv.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <unordered_set>

#include "core/error.hpp"
#include "lts/ops.hpp"

namespace dpma::bisim {
namespace {

/// Sorted, deduplicated state set (canonical form for hashing).
using StateSet = std::vector<lts::StateId>;

void canonicalise(StateSet& set) {
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
}

/// Weak determinisation helper over a tau-collapsed system: closures are
/// descendant sets in the condensation DAG, memoised per state.
class WeakStepper {
public:
    explicit WeakStepper(const lts::Lts& model) : model_(model) {}

    /// tau* closure of a single state (reflexive).
    const StateSet& closure(lts::StateId state) {
        auto [it, inserted] = closures_.try_emplace(state);
        if (!inserted) return it->second;
        const lts::ActionId tau = model_.actions()->tau();
        std::deque<lts::StateId> queue{state};
        std::unordered_set<lts::StateId> seen{state};
        while (!queue.empty()) {
            const lts::StateId u = queue.front();
            queue.pop_front();
            it->second.push_back(u);
            for (const lts::Transition& t : model_.out(u)) {
                if (t.action == tau && seen.insert(t.target).second) {
                    queue.push_back(t.target);
                }
            }
        }
        canonicalise(it->second);
        return it->second;
    }

    StateSet closure_of(const StateSet& states) {
        StateSet out;
        for (lts::StateId s : states) {
            const StateSet& c = closure(s);
            out.insert(out.end(), c.begin(), c.end());
        }
        canonicalise(out);
        return out;
    }

    /// Weak move: closure(a-successors(closure(states))).  `states` must
    /// already be closed.
    StateSet weak_move(const StateSet& states, lts::ActionId action) {
        StateSet direct;
        for (lts::StateId s : states) {
            for (const lts::Transition& t : model_.out(s)) {
                if (t.action == action) direct.push_back(t.target);
            }
        }
        canonicalise(direct);
        return closure_of(direct);
    }

    /// Visible actions enabled (weakly) from a closed set.
    std::vector<lts::ActionId> enabled_visible(const StateSet& states) {
        const lts::ActionId tau = model_.actions()->tau();
        std::set<lts::ActionId> out;
        for (lts::StateId s : states) {
            for (const lts::Transition& t : model_.out(s)) {
                if (t.action != tau) out.insert(t.action);
            }
        }
        return {out.begin(), out.end()};
    }

private:
    const lts::Lts& model_;
    std::map<lts::StateId, StateSet> closures_;
};

}  // namespace

TraceEquivalenceResult weakly_trace_equivalent(const lts::Lts& lhs, const lts::Lts& rhs,
                                               std::size_t max_pairs) {
    return weakly_trace_equivalent(lts::disjoint_union(lhs, rhs), max_pairs);
}

TraceEquivalenceResult weakly_trace_equivalent(const lts::UnionResult& merged,
                                               std::size_t max_pairs) {
    // Collapse tau-SCCs so closures are small.
    const lts::TauCollapseResult collapsed = lts::collapse_tau_sccs(merged.combined);
    const lts::Lts& system = collapsed.collapsed;
    WeakStepper stepper(system);

    struct Pair {
        StateSet left;
        StateSet right;
    };
    // Parent pointers to reconstruct the shortest distinguishing trace.
    struct Visit {
        Pair pair;
        std::size_t parent;      // index into `visits`
        lts::ActionId action;    // action taken from the parent
    };
    std::vector<Visit> visits;
    std::map<std::pair<StateSet, StateSet>, char> seen;
    std::deque<std::size_t> queue;

    const auto push = [&](Pair pair, std::size_t parent, lts::ActionId action) {
        auto key = std::make_pair(pair.left, pair.right);
        if (!seen.emplace(std::move(key), 1).second) return;
        if (visits.size() >= max_pairs) {
            throw NumericalError("trace-equivalence subset construction exceeded " +
                                 std::to_string(max_pairs) + " pairs");
        }
        visits.push_back(Visit{std::move(pair), parent, kNoSymbol});
        visits.back().action = action;
        queue.push_back(visits.size() - 1);
    };

    const auto trace_to = [&](std::size_t index, lts::ActionId last) {
        std::vector<std::string> trace{system.actions()->name(last)};
        for (std::size_t i = index; visits[i].action != kNoSymbol; i = visits[i].parent) {
            trace.push_back(system.actions()->name(visits[i].action));
        }
        std::reverse(trace.begin(), trace.end());
        return trace;
    };

    TraceEquivalenceResult result;
    push(Pair{stepper.closure(collapsed.representative_of[merged.initial_lhs]),
              stepper.closure(collapsed.representative_of[merged.initial_rhs])},
         0, kNoSymbol);

    while (!queue.empty()) {
        const std::size_t index = queue.front();
        queue.pop_front();
        const Pair pair = visits[index].pair;  // copy: visits may reallocate

        std::set<lts::ActionId> actions;
        for (lts::ActionId a : stepper.enabled_visible(pair.left)) actions.insert(a);
        for (lts::ActionId a : stepper.enabled_visible(pair.right)) actions.insert(a);

        for (lts::ActionId action : actions) {
            StateSet next_left = stepper.weak_move(pair.left, action);
            StateSet next_right = stepper.weak_move(pair.right, action);
            const bool left_can = !next_left.empty();
            const bool right_can = !next_right.empty();
            if (left_can != right_can) {
                result.equivalent = false;
                result.lhs_has_trace = left_can;
                result.distinguishing_trace = trace_to(index, action);
                result.explored_pairs = visits.size();
                return result;
            }
            if (left_can) {
                push(Pair{std::move(next_left), std::move(next_right)}, index, action);
            }
        }
    }
    result.equivalent = true;
    result.explored_pairs = visits.size();
    return result;
}

}  // namespace dpma::bisim
