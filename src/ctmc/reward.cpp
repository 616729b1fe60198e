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
    const lts::Lts& graph = model.graph;
    const FrequencyTerms& terms = markov.elimination->frequency_terms(graph);
    // Per slot its exponential rate; 0 for an immediate slot, which never
    // fires in a tangible state.
    std::vector<double> rate_of(graph.slots().size(), 0.0);
    for (lts::SlotId slot = 0; slot < rate_of.size(); ++slot) {
        if (const auto* exp_rate = std::get_if<lts::RateExp>(&graph.slots()[slot].rate)) {
            rate_of[slot] = exp_rate->rate;
        }
    }
    // Every sum starts at +0 and adds terms >= +0, so skipping a state
    // without mass changes no bit.
    std::vector<double> freq(graph.actions()->size(), 0.0);
    for (TangibleId t = 0; t < markov.orig_of.size(); ++t) {
        const double p = pi[t];
        if (p == 0.0) continue;
        for (const lts::Transition& tr : graph.out(markov.orig_of[t])) {
            freq[tr.action] += p * rate_of[tr.slot];
        }
        for (const FrequencyTerm& term : terms.of(t)) {
            freq[term.action] += p * rate_of[term.slot] * term.coefficient;
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
