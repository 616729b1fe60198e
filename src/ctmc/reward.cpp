#include "ctmc/reward.hpp"

#include "core/error.hpp"
#include "core/stats_math.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dpma::ctmc {

std::vector<double> action_frequencies(const MarkovModel& markov,
                                       const adl::ComposedModel& model,
                                       const std::vector<double>& pi) {
    DPMA_REQUIRE(pi.size() == markov.chain.num_states(),
                 "steady-state vector does not match the chain");
    obs::counter("ctmc.frequency_walks").add();
    const std::size_t num_actions = model.graph.actions()->size();
    std::vector<double> freq(num_actions, 0.0);
    std::vector<double> vanishing_entry(model.graph.num_states(), 0.0);

    // Timed transitions out of tangible states.
    const std::vector<const lts::RateExp*> exp_of_slot =
        lts::slot_rates<lts::RateExp>(model.graph);
    for (TangibleId t = 0; t < markov.orig_of.size(); ++t) {
        const lts::StateId s = markov.orig_of[t];
        for (const lts::Transition& tr : model.graph.out(s)) {
            const lts::RateExp* exp_rate = exp_of_slot[tr.slot];
            if (exp_rate == nullptr) continue;
            const double f = pi[t] * exp_rate->rate;
            freq[tr.action] += f;
            if (!markov.is_tangible(tr.target)) {
                vanishing_entry[tr.target] += f;
            }
        }
    }

    // Propagate through the acyclic vanishing subgraph, sources first.
    for (lts::StateId v : markov.vanishing_topo_order) {
        const double entry = vanishing_entry[v];
        if (entry == 0.0) continue;
        for (const VanishingBranch& b : markov.branches_of(v)) {
            const double f = entry * b.probability;
            freq[b.action] += f;
            if (!markov.is_tangible(b.target)) {
                vanishing_entry[b.target] += f;
            }
        }
    }
    return freq;
}

double state_probability(const MarkovModel& markov, const adl::ComposedModel& model,
                         const std::vector<double>& pi,
                         const adl::Predicate& predicate) {
    // Only tangible states carry mass, so only they are tested.
    const adl::StateTest holds(model, predicate);
    KahanSum sum;
    for (TangibleId t = 0; t < markov.orig_of.size(); ++t) {
        if (holds(markov.orig_of[t])) sum.add(pi[t]);
    }
    return sum.value();
}

std::vector<double> evaluate_measures(const MarkovModel& markov,
                                      const adl::ComposedModel& model,
                                      const std::vector<double>& pi,
                                      std::span<const adl::Measure> measures) {
    std::vector<double> values;
    values.reserve(measures.size());
    // Walked once, in the span of the first measure with a TRANS_REWARD
    // clause, and shared by every later one.
    std::vector<double> freq;
    for (const adl::Measure& measure : measures) {
        DPMA_NAMED_SPAN(span, "ctmc.measure", "ctmc");
        span.arg("clauses", static_cast<double>(measure.clauses.size()));
        span.arg("tangible", static_cast<double>(markov.orig_of.size()));
        KahanSum total;
        for (const adl::RewardClause& clause : measure.clauses) {
            if (clause.target == adl::RewardClause::Target::State) {
                total.add(clause.reward *
                          state_probability(markov, model, pi, clause.predicate));
                continue;
            }
            if (freq.empty()) {
                freq = action_frequencies(markov, model, pi);
            }
            const std::vector<char> mask = adl::action_mask(model, clause.predicate);
            for (Symbol a = 0; a < mask.size(); ++a) {
                if (mask[a]) total.add(clause.reward * freq[a]);
            }
        }
        values.push_back(total.value());
    }
    return values;
}

double evaluate_measure(const MarkovModel& markov, const adl::ComposedModel& model,
                        const std::vector<double>& pi, const adl::Measure& measure) {
    return evaluate_measures(markov, model, pi, std::span(&measure, 1)).front();
}

}  // namespace dpma::ctmc
