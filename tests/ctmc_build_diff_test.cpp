/// \file ctmc_build_diff_test.cpp
/// Differential tests for the vanishing-state elimination (ctmc::build_markov):
/// the flat CSR build is compared against the retired map-based builder, kept
/// here verbatim as a standalone reference (one hash map of reach
/// probabilities per composed state, generator entries appended through a
/// linear duplicate search).  On every shipped Markov spec, on the streaming
/// model across buffer capacities, on the elimination fixtures and on seeded
/// random architectures, both must classify the same states, agree on the
/// branch tables, and produce the same initial distribution, generator
/// entries and exit rates to 1e-12 relative.  Not bit for bit: the reference
/// summed each exit rate in hash-map iteration order, the new build sums in
/// first-seen transition order.  Failing models must fail the same way.
/// Every chain with one recurrent class is also solved both ways: the
/// sparse GTH kernel behind steady_state against the dense steady_state_gth
/// on the recurrent class, again to 1e-12 relative.  Rate-patched copies
/// (exp::with_exp_rate, with_dist, with_delay) are compared with a rebuild
/// that sets every matching rate transition by transition: the same rows,
/// and a bit-identical build_markov.  Builds on copies of one composed
/// structure reuse its memoised elimination; interleaved patches, immediate
/// weight and priority changes and error paths are compared bit for bit
/// (chain and elimination, or failure type and message) with builds on
/// fresh structures.  The steady states of streaming at capacities 3 and 10
/// are pinned to a bit digest, and evaluate_measures on every shipped Markov
/// spec matches one evaluate_measure call per measure bit for bit, with one
/// action-frequency walk instead of one per measure with a TRANS clause.
/// action_frequencies, one pass over the frequency terms kept with the
/// elimination, is compared with the retired walk that propagated entry
/// frequencies through the vanishing subgraph at every call, kept here as a
/// reference, to 1e-14 relative per action.  Every steady-state solve of a
/// shipped Markov spec and of streaming at capacity 16 carries a relative
/// residual of at most 1e-13.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "adl/compose.hpp"
#include "adl/measure.hpp"
#include "core/error.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "ctmc_fixtures.hpp"
#include "exp/cache.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#ifndef DPMA_SPECS_DIR
#error "DPMA_SPECS_DIR must point at the shipped specs/ directory"
#endif

namespace dpma::ctmc {
namespace {

// ---------------------------------------------------------------------------
// Reference: the retired builder, verbatim except that the chain keeps its
// per-row vectors locally instead of in Ctmc.
// ---------------------------------------------------------------------------

struct RefChain {
    std::vector<std::vector<RateEntry>> rows;
    std::vector<double> exit;

    explicit RefChain(std::size_t n) : rows(n), exit(n, 0.0) {}

    void add_rate(TangibleId from, TangibleId to, double rate) {
        DPMA_REQUIRE(from < rows.size() && to < rows.size(), "CTMC state out of range");
        DPMA_REQUIRE(rate > 0.0, "CTMC rates must be positive");
        if (from == to) return;  // self-loops do not affect the CTMC dynamics
        for (RateEntry& e : rows[from]) {
            if (e.target == to) {
                e.rate += rate;
                exit[from] += rate;
                return;
            }
        }
        rows[from].push_back(RateEntry{to, rate});
        exit[from] += rate;
    }
};

struct RefModel {
    RefChain chain{0};
    std::vector<TangibleId> tangible_of;
    std::vector<lts::StateId> orig_of;
    std::vector<std::vector<VanishingBranch>> vanishing_branches;
    std::vector<lts::StateId> vanishing_topo_order;
    std::vector<std::pair<TangibleId, double>> initial_distribution;

    [[nodiscard]] bool is_tangible(lts::StateId g) const {
        return tangible_of[g] != kNoTangible;
    }
};

std::vector<VanishingBranch> ref_immediate_branches(const lts::Lts& graph,
                                                    lts::StateId state) {
    int best_priority = std::numeric_limits<int>::min();
    double total_weight = 0.0;
    for (const lts::Transition& t : graph.out(state)) {
        if (const auto* imm = std::get_if<lts::RateImmediate>(&graph.rate(t))) {
            if (imm->priority > best_priority) {
                best_priority = imm->priority;
                total_weight = 0.0;
            }
            if (imm->priority == best_priority) total_weight += imm->weight;
        }
    }
    std::vector<VanishingBranch> branches;
    if (total_weight <= 0.0) return branches;
    for (const lts::Transition& t : graph.out(state)) {
        if (const auto* imm = std::get_if<lts::RateImmediate>(&graph.rate(t))) {
            if (imm->priority == best_priority && imm->weight > 0.0) {
                branches.push_back(
                    VanishingBranch{t.target, t.action, imm->weight / total_weight});
            }
        }
    }
    return branches;
}

RefModel ref_build_markov(const adl::ComposedModel& model, bool allow_absorbing = false) {
    const std::size_t n = model.graph.num_states();
    RefModel out;
    out.tangible_of.assign(n, kNoTangible);
    out.vanishing_branches.resize(n);
    const lts::Lts& graph = model.graph;

    for (lts::StateId s = 0; s < n; ++s) {
        for (const lts::Transition& t : graph.out(s)) {
            if (std::holds_alternative<lts::RateUnspecified>(graph.rate(t))) {
                throw ModelError("transition has no rate");
            }
            if (lts::is_passive(graph.rate(t))) {
                throw ModelError("passive transition survived composition");
            }
            if (lts::is_general(graph.rate(t))) {
                throw ModelError("generally distributed transition");
            }
        }
        out.vanishing_branches[s] = ref_immediate_branches(graph, s);
        if (out.vanishing_branches[s].empty()) {
            out.tangible_of[s] = static_cast<TangibleId>(out.orig_of.size());
            out.orig_of.push_back(s);
        }
    }

    {
        std::vector<int> indegree(n, 0);
        std::vector<lts::StateId> vanishing;
        for (lts::StateId s = 0; s < n; ++s) {
            if (out.is_tangible(s)) continue;
            vanishing.push_back(s);
            for (const VanishingBranch& b : out.vanishing_branches[s]) {
                if (!out.is_tangible(b.target)) ++indegree[b.target];
            }
        }
        std::deque<lts::StateId> ready;
        for (lts::StateId s : vanishing) {
            if (indegree[s] == 0) ready.push_back(s);
        }
        while (!ready.empty()) {
            const lts::StateId s = ready.front();
            ready.pop_front();
            out.vanishing_topo_order.push_back(s);
            for (const VanishingBranch& b : out.vanishing_branches[s]) {
                if (!out.is_tangible(b.target) && --indegree[b.target] == 0) {
                    ready.push_back(b.target);
                }
            }
        }
        if (out.vanishing_topo_order.size() != vanishing.size()) {
            throw NumericalError("immediate-action cycle detected");
        }
    }

    std::vector<std::unordered_map<lts::StateId, double>> reach(n);
    for (auto it = out.vanishing_topo_order.rbegin();
         it != out.vanishing_topo_order.rend(); ++it) {
        const lts::StateId v = *it;
        auto& dist = reach[v];
        for (const VanishingBranch& b : out.vanishing_branches[v]) {
            if (out.is_tangible(b.target)) {
                dist[b.target] += b.probability;
            } else {
                for (const auto& [g, p] : reach[b.target]) {
                    dist[g] += b.probability * p;
                }
            }
        }
    }

    RefChain chain(out.orig_of.size());
    for (TangibleId t = 0; t < out.orig_of.size(); ++t) {
        const lts::StateId s = out.orig_of[t];
        bool has_timed = false;
        for (const lts::Transition& tr : graph.out(s)) {
            const auto* exp_rate = std::get_if<lts::RateExp>(&graph.rate(tr));
            if (exp_rate == nullptr) continue;
            has_timed = true;
            if (out.is_tangible(tr.target)) {
                chain.add_rate(t, out.tangible_of[tr.target], exp_rate->rate);
            } else {
                for (const auto& [g, p] : reach[tr.target]) {
                    chain.add_rate(t, out.tangible_of[g], exp_rate->rate * p);
                }
            }
        }
        if (!has_timed && !allow_absorbing) {
            throw ModelError("absorbing tangible state found (deadlock)");
        }
    }
    out.chain = std::move(chain);

    const lts::StateId init = model.graph.initial();
    DPMA_REQUIRE(init != lts::kNoState, "composed model has no initial state");
    if (out.is_tangible(init)) {
        out.initial_distribution.emplace_back(out.tangible_of[init], 1.0);
    } else {
        for (const auto& [g, p] : reach[init]) {
            out.initial_distribution.emplace_back(out.tangible_of[g], p);
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

void expect_close(double got, double want, const std::string& what) {
    EXPECT_LE(std::abs(got - want), 1e-12 * std::abs(want)) << what << ": " << got
                                                            << " vs " << want;
}

std::map<TangibleId, double> as_map(const std::vector<std::pair<TangibleId, double>>& pairs) {
    std::map<TangibleId, double> out;
    for (const auto& [state, p] : pairs) {
        EXPECT_TRUE(out.emplace(state, p).second) << "duplicate state " << state;
    }
    return out;
}

void expect_same_maps(const std::map<TangibleId, double>& got,
                      const std::map<TangibleId, double>& want, const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (const auto& [state, value] : want) {
        const auto it = got.find(state);
        ASSERT_NE(it, got.end()) << what << ": missing state " << state;
        expect_close(it->second, value, what + " state " + std::to_string(state));
    }
}

/// The order lists every vanishing state once, and every branch between two
/// vanishing states points forward in it.
void expect_topological(const MarkovModel& markov) {
    std::vector<std::size_t> position(markov.tangible_of.size(), SIZE_MAX);
    for (std::size_t i = 0; i < markov.vanishing_topo_order.size(); ++i) {
        const lts::StateId v = markov.vanishing_topo_order[i];
        ASSERT_FALSE(markov.is_tangible(v)) << "tangible state " << v << " in the order";
        ASSERT_EQ(position[v], SIZE_MAX) << "state " << v << " ordered twice";
        position[v] = i;
    }
    ASSERT_EQ(markov.vanishing_topo_order.size(),
              markov.tangible_of.size() - markov.orig_of.size());
    for (const lts::StateId v : markov.vanishing_topo_order) {
        for (const VanishingBranch& b : markov.branches_of(v)) {
            if (!markov.is_tangible(b.target)) {
                EXPECT_LT(position[v], position[b.target]) << v << " -> " << b.target;
            }
        }
    }
}

/// steady_state (the sparse GTH kernel) against the dense GTH on the
/// recurrent class, sliced out here; transient states must get exactly 0.
void expect_steady_states_agree(const Ctmc& chain) {
    if (chain.num_states() == 0) return;
    const auto bottoms = bottom_sccs(chain);
    if (bottoms.size() != 1) return;  // steady_state rejects these
    const std::vector<TangibleId>& recurrent = bottoms.front();
    std::vector<TangibleId> index(chain.num_states(), kNoTangible);
    for (std::size_t i = 0; i < recurrent.size(); ++i) {
        index[recurrent[i]] = static_cast<TangibleId>(i);
    }
    std::vector<Ctmc::Triplet> rates;
    for (const TangibleId s : recurrent) {
        for (const RateEntry& e : chain.row(s)) {
            rates.push_back({index[s], index[e.target], e.rate});
        }
    }
    const std::vector<double> dense = steady_state_gth(Ctmc(recurrent.size(), rates));
    const std::vector<double> sparse = steady_state(chain);
    for (TangibleId s = 0; s < chain.num_states(); ++s) {
        if (index[s] == kNoTangible) {
            EXPECT_EQ(sparse[s], 0.0) << "transient state " << s;
        } else {
            expect_close(sparse[s], dense[index[s]], "pi " + std::to_string(s));
        }
    }
}

enum class Outcome { Ok, ModelError, NumericalError, OtherError };

template <typename Build>
Outcome outcome_of(Build&& build) {
    try {
        build();
        return Outcome::Ok;
    } catch (const ModelError&) {
        return Outcome::ModelError;
    } catch (const NumericalError&) {
        return Outcome::NumericalError;
    } catch (const Error&) {
        return Outcome::OtherError;
    }
}

/// Builds \p model both ways and compares; returns the shared outcome.
Outcome compare_builds(const adl::ComposedModel& model, const std::string& label,
                       bool allow_absorbing = false) {
    SCOPED_TRACE(label);
    RefModel ref;
    std::optional<MarkovModel> built;
    const Outcome want = outcome_of([&] { ref = ref_build_markov(model, allow_absorbing); });
    const Outcome have = outcome_of([&] { built.emplace(build_markov(model, allow_absorbing)); });
    EXPECT_EQ(static_cast<int>(have), static_cast<int>(want));
    if (want != Outcome::Ok || have != Outcome::Ok) return want;
    const MarkovModel& got = *built;

    EXPECT_EQ(got.tangible_of, ref.tangible_of);
    EXPECT_EQ(got.orig_of, ref.orig_of);
    const std::size_t n = model.graph.num_states();
    EXPECT_EQ(got.branch_start.size(), n + 1);
    for (lts::StateId g = 0; g < n; ++g) {
        const auto branches = got.branches_of(g);
        const auto& want_branches = ref.vanishing_branches[g];
        EXPECT_EQ(branches.size(), want_branches.size()) << "state " << g;
        if (branches.size() != want_branches.size()) continue;
        for (std::size_t i = 0; i < branches.size(); ++i) {
            EXPECT_EQ(branches[i].target, want_branches[i].target);
            EXPECT_EQ(branches[i].action, want_branches[i].action);
            EXPECT_EQ(branches[i].probability, want_branches[i].probability);
        }
    }
    expect_topological(got);
    expect_same_maps(as_map(got.initial_distribution), as_map(ref.initial_distribution),
                     "initial distribution");

    const Ctmc& chain = got.chain;
    EXPECT_EQ(chain.num_states(), ref.chain.rows.size());
    if (chain.num_states() != ref.chain.rows.size()) return want;
    for (TangibleId t = 0; t < chain.num_states(); ++t) {
        std::vector<std::pair<TangibleId, double>> row;
        for (const RateEntry& e : chain.row(t)) row.emplace_back(e.target, e.rate);
        std::vector<std::pair<TangibleId, double>> want_row;
        for (const RateEntry& e : ref.chain.rows[t]) want_row.emplace_back(e.target, e.rate);
        expect_same_maps(as_map(row), as_map(want_row), "row " + std::to_string(t));
        expect_close(chain.exit_rate(t), ref.chain.exit[t], "exit " + std::to_string(t));
    }
    expect_steady_states_agree(chain);
    return want;
}

// ---------------------------------------------------------------------------
// Models
// ---------------------------------------------------------------------------

TEST(BuildDiff, EveryShippedMarkovSpec) {
    namespace fs = std::filesystem;
    std::size_t checked = 0;
    for (const auto& entry : fs::directory_iterator(DPMA_SPECS_DIR)) {
        const std::string name = entry.path().filename().string();
        if (!name.ends_with("_markov.aem")) continue;
        const adl::ComposedModel model = adl::compose(models::archi(name));
        EXPECT_EQ(compare_builds(model, name), Outcome::Ok);
        ++checked;
    }
    EXPECT_GE(checked, 3u);
}

TEST(BuildDiff, StreamingAcrossBufferCapacities) {
    const adl::ArchiType streaming = models::archi("streaming_markov.aem");
    for (const long ap : {1L, 4L, 10L, 16L}) {
        for (const long client : {1L, 4L, 10L, 16L}) {
            const adl::ComposedModel model = adl::compose(models::with_capacity(
                models::with_capacity(streaming, {"AP"}, ap), {"B"}, client));
            EXPECT_EQ(compare_builds(model, "streaming AP " + std::to_string(ap) + ", B " +
                                                std::to_string(client)),
                      Outcome::Ok);
        }
    }
}

TEST(BuildDiff, StreamingSteadyStatesArePinnedBitForBit) {
    // Digests and factor sizes of the indexed-U sparse GTH kernel that the
    // dense-profile one replaced; stored profile zeros add only +0 terms.
    struct Pin {
        long capacity;
        std::uint64_t digest;
        std::size_t factor_entries;
    };
    const adl::ArchiType streaming = models::archi("streaming_markov.aem");
    for (const Pin& pin : {Pin{3, 10153608141143189550u, 3398},
                           Pin{10, 793259167945082880u, 72377}}) {
        SCOPED_TRACE("capacity " + std::to_string(pin.capacity));
        const adl::ComposedModel model = adl::compose(models::with_capacity(
            models::with_capacity(streaming, {"AP"}, pin.capacity), {"B"}, pin.capacity));
        const MarkovModel markov = build_markov(model);
        SolveDiagnostics diagnostics;
        const std::vector<double> pi = steady_state(markov.chain, {.diagnostics = &diagnostics});
        EXPECT_EQ(bit_digest(pi), pin.digest);
        EXPECT_EQ(diagnostics.factor_entries, pin.factor_entries);
    }
}

TEST(SolveResidual, EveryShippedMarkovSpecAndStreamingAtCapacity16) {
    namespace fs = std::filesystem;
    const auto expect_certified = [](const adl::ComposedModel& model, const std::string& label) {
        SCOPED_TRACE(label);
        const MarkovModel markov = build_markov(model);
        SolveDiagnostics diagnostics;
        const std::vector<double> pi = steady_state(markov.chain, {.diagnostics = &diagnostics});
        EXPECT_LE(diagnostics.final_residual, 1e-13);
        // The certificate, recomputed here over the recurrent class alone.
        std::vector<double> balance(pi.size(), 0.0);
        double flow = 0.0;
        for (TangibleId s = 0; s < pi.size(); ++s) {
            balance[s] -= pi[s] * markov.chain.exit_rate(s);
            flow += pi[s] * markov.chain.exit_rate(s);
            for (const RateEntry& e : markov.chain.row(s)) balance[e.target] += pi[s] * e.rate;
        }
        double norm = 0.0;
        for (const double b : balance) norm += std::abs(b);
        expect_close(diagnostics.final_residual, norm / flow, "final_residual");
        return diagnostics.final_residual;
    };
    std::size_t checked = 0;
    for (const auto& entry : fs::directory_iterator(DPMA_SPECS_DIR)) {
        const std::string name = entry.path().filename().string();
        if (!name.ends_with("_markov.aem")) continue;
        expect_certified(adl::compose(models::archi(name)), name);
        ++checked;
    }
    EXPECT_GE(checked, 3u);
    const adl::ComposedModel streaming16 = adl::compose(
        models::with_capacity(models::archi("streaming_markov.aem"), {"AP", "B"}, 16));
    for (const double rate : {1.0 / 400.0, 1.0 / 100.0, 1.0 / 25.0}) {
        const double residual =
            expect_certified(exp::with_exp_rate(streaming16, "DPM", "send_wakeup", rate),
                             "streaming capacity 16, send_wakeup " + std::to_string(rate));
        EXPECT_GT(residual, 0.0);  // computed, not the old constant 0
    }
}

TEST(MeasureDiff, EvaluateMeasuresMatchesOneCallPerMeasure) {
    namespace fs = std::filesystem;
    std::size_t checked = 0;
    for (const auto& entry : fs::directory_iterator(DPMA_SPECS_DIR)) {
        const std::string name = entry.path().filename().string();
        if (!name.ends_with("_markov.aem")) continue;
        // disk_markov.aem goes with disk_measures.msr, and so on.
        const std::string msr = name.substr(0, name.find('_')) + "_measures.msr";
        SCOPED_TRACE(name + " + " + msr);
        const adl::ComposedModel model = adl::compose(models::archi(name));
        const std::vector<adl::Measure> measures = models::measures(msr);
        const MarkovModel markov = build_markov(model);
        const std::vector<double> pi = steady_state(markov.chain);
        const auto trans = static_cast<std::uint64_t>(
            std::count_if(measures.begin(), measures.end(), [](const adl::Measure& m) {
                return std::any_of(m.clauses.begin(), m.clauses.end(), [](const auto& c) {
                    return c.target == adl::RewardClause::Target::Trans;
                });
            }));
        obs::Counter& walks = obs::counter("ctmc.frequency_walks");
        std::uint64_t before = walks.value();
        std::vector<double> one_by_one;
        for (const adl::Measure& m : measures) {
            one_by_one.push_back(evaluate_measure(markov, model, pi, m));
        }
        EXPECT_EQ(walks.value() - before, trans);
        if (name == "streaming_markov.aem") {
            EXPECT_EQ(trans, 6u);
        }
        before = walks.value();
        const std::vector<double> shared = evaluate_measures(markov, model, pi, measures);
        EXPECT_EQ(walks.value() - before, trans > 0 ? 1u : 0u);
        EXPECT_EQ(bit_digest(shared), bit_digest(one_by_one));
        EXPECT_EQ(shared.size(), measures.size());
        ++checked;
    }
    EXPECT_GE(checked, 3u);
}

TEST(BuildDiff, EliminationFixtures) {
    for (const double p_left : {0.0, 0.25, 0.5, 1.0}) {
        for (const int priority_right : {0, 1, 5}) {
            const adl::ComposedModel model = adl::compose(vanishing_model(p_left, priority_right));
            const Outcome outcome = compare_builds(
                model, "vanishing " + std::to_string(p_left) + "/" + std::to_string(priority_right));
            // When the top priority carries no weight, Choice counts as
            // tangible and, with no timed way out, absorbing.
            const bool top_weightless = (p_left == 0.0 && priority_right < 1) ||
                                        (p_left == 1.0 && priority_right > 1);
            EXPECT_EQ(outcome, top_weightless ? Outcome::ModelError : Outcome::Ok)
                << p_left << "/" << priority_right;
        }
    }
    // Initial state vanishing: the initial distribution is pushed through.
    adl::ArchiType archi = vanishing_model(0.25, 1);
    std::swap(archi.elem_types[0].behaviors[0], archi.elem_types[0].behaviors[1]);
    EXPECT_EQ(compare_builds(adl::compose(archi), "vanishing initial"), Outcome::Ok);
    EXPECT_EQ(compare_builds(adl::compose(deadlock_model()), "deadlock", true), Outcome::Ok);
}

// ---------------------------------------------------------------------------
// Rate-patched copies: exp::with_exp_rate / with_dist / with_delay against a
// reference that sets every matching rate transition by transition
// ---------------------------------------------------------------------------

using RatePatch = std::function<lts::Rate(const lts::Rate&)>;

/// \p model rebuilt through an LtsBuilder, one transition at a time, with
/// \p patch applied to the rate of every transition whose label involves
/// instance.action.
adl::ComposedModel reference_patch(const adl::ComposedModel& model,
                                   const std::string& instance, const std::string& action,
                                   const RatePatch& patch) {
    const std::vector<char> labels =
        adl::action_mask(model, adl::EnabledPredicate{instance, action});
    lts::LtsBuilder builder(model.graph.actions());
    for (lts::StateId s = 0; s < model.graph.num_states(); ++s) builder.add_state();
    for (lts::StateId s = 0; s < model.graph.num_states(); ++s) {
        for (const lts::Transition& t : model.graph.out(s)) {
            const lts::Rate& rate = model.graph.rate(t);
            builder.add_transition(s, t.action, t.target, labels[t.action] ? patch(rate) : rate);
        }
    }
    builder.set_initial(model.graph.initial());
    adl::ComposedModel out = model;
    out.graph = std::move(builder).build();
    return out;
}

/// Same (action, target, rate) in every row, in the same order.
void expect_same_rows(const lts::Lts& got, const lts::Lts& want) {
    ASSERT_EQ(got.num_states(), want.num_states());
    ASSERT_EQ(got.initial(), want.initial());
    std::size_t mismatches = 0;
    for (lts::StateId s = 0; s < want.num_states(); ++s) {
        const auto row = got.out(s);
        const auto want_row = want.out(s);
        ASSERT_EQ(row.size(), want_row.size()) << "state " << s;
        for (std::size_t k = 0; k < row.size(); ++k) {
            if (row[k].action != want_row[k].action || row[k].target != want_row[k].target ||
                got.rate(row[k]) != want.rate(want_row[k])) {
                ++mismatches;
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

/// "<exception type>: <message>" of \p build, or "" when it returns.
template <typename Build>
std::string failure_of(Build&& build) {
    try {
        build();
        return "";
    } catch (const ModelError& e) {
        return std::string("ModelError: ") + e.what();
    } catch (const NumericalError& e) {
        return std::string("NumericalError: ") + e.what();
    } catch (const Error& e) {
        return std::string("Error: ") + e.what();
    }
}

/// The same chain (rows, exit rates) and elimination (state maps, branch
/// tables, topological order, initial distribution), bit for bit.
void expect_identical_models(const MarkovModel& have, const MarkovModel& ref) {
    EXPECT_EQ(have.orig_of, ref.orig_of);
    EXPECT_EQ(have.tangible_of, ref.tangible_of);
    EXPECT_EQ(have.branch_start, ref.branch_start);
    ASSERT_EQ(have.branches.size(), ref.branches.size());
    for (std::size_t k = 0; k < ref.branches.size(); ++k) {
        EXPECT_EQ(have.branches[k].target, ref.branches[k].target) << "branch " << k;
        EXPECT_EQ(have.branches[k].action, ref.branches[k].action) << "branch " << k;
        EXPECT_EQ(have.branches[k].probability, ref.branches[k].probability) << "branch " << k;
    }
    EXPECT_EQ(have.vanishing_topo_order, ref.vanishing_topo_order);
    EXPECT_EQ(have.initial_distribution, ref.initial_distribution);
    ASSERT_EQ(have.chain.num_states(), ref.chain.num_states());
    for (TangibleId t = 0; t < ref.chain.num_states(); ++t) {
        const auto row = have.chain.row(t);
        const auto want_row = ref.chain.row(t);
        ASSERT_EQ(row.size(), want_row.size()) << "row " << t;
        for (std::size_t k = 0; k < row.size(); ++k) {
            EXPECT_EQ(row[k].target, want_row[k].target) << "row " << t;
            EXPECT_EQ(row[k].rate, want_row[k].rate) << "row " << t;
        }
        EXPECT_EQ(have.chain.exit_rate(t), ref.chain.exit_rate(t)) << "row " << t;
    }
}

/// build_markov on both: the same failure (type and message) or, when both
/// build, identical models.  Returns the build on \p got, if any.
std::optional<MarkovModel> expect_identical_builds(const adl::ComposedModel& got,
                                                   const adl::ComposedModel& want,
                                                   bool allow_absorbing = false) {
    std::optional<MarkovModel> have;
    std::optional<MarkovModel> ref;
    const std::string want_failure =
        failure_of([&] { ref.emplace(build_markov(want, allow_absorbing)); });
    const std::string have_failure =
        failure_of([&] { have.emplace(build_markov(got, allow_absorbing)); });
    EXPECT_EQ(have_failure, want_failure);
    if (have && ref) expect_identical_models(*have, *ref);
    return have;
}

/// The reference form of exp::with_delay.
RatePatch delay_patch(double delay) {
    return [delay](const lts::Rate& rate) -> lts::Rate {
        if (delay <= 0.0) return lts::RateImmediate{1, 1.0};
        if (lts::is_exponential(rate)) return lts::RateExp{1.0 / delay};
        return lts::RateGeneral{Dist::deterministic(delay)};
    };
}

void expect_patch_matches(const adl::ComposedModel& model, const adl::ComposedModel& patched,
                          const std::string& instance, const std::string& action,
                          const RatePatch& patch, const std::string& label) {
    SCOPED_TRACE(label);
    // The copy shares the skeleton's structure and leaves its rates alone.
    EXPECT_EQ(patched.graph.transitions().data(), model.graph.transitions().data());
    EXPECT_EQ(patched.locals, model.locals);
    const adl::ComposedModel reference = reference_patch(model, instance, action, patch);
    expect_same_rows(patched.graph, reference.graph);
    expect_identical_builds(patched, reference);
}

TEST(PatchDiff, MarkovSpecsUnderEveryPatch) {
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"rpc_revised_markov.aem", "send_shutdown"},
        {"disk_markov.aem", "send_shutdown"},
        {"streaming_markov.aem", "send_wakeup"},
    };
    for (const auto& [spec, action] : cases) {
        const adl::ComposedModel model = adl::compose(models::archi(spec));
        const std::string before = model.graph.dump();
        const RatePatch to_rate = [](const lts::Rate&) -> lts::Rate { return lts::RateExp{0.37}; };
        expect_patch_matches(model, exp::with_exp_rate(model, "DPM", action, 0.37), "DPM",
                             action, to_rate, spec + " with_exp_rate");
        for (const double delay : {2.5, 0.0}) {
            expect_patch_matches(model, exp::with_delay(model, "DPM", action, delay), "DPM",
                                 action, delay_patch(delay),
                                 spec + " with_delay " + std::to_string(delay));
        }
        EXPECT_EQ(model.graph.dump(), before) << spec << ": the skeleton changed";
    }
}

TEST(PatchDiff, GeneralSpecUnderEveryPatch) {
    const adl::ComposedModel model = adl::compose(models::archi("rpc_general.aem"));
    const Dist dist = Dist::uniform(1.0, 3.0);
    const RatePatch to_dist = [dist](const lts::Rate&) -> lts::Rate {
        return lts::RateGeneral{dist};
    };
    expect_patch_matches(model, exp::with_dist(model, "DPM", "send_shutdown", dist), "DPM",
                         "send_shutdown", to_dist, "with_dist");
    for (const double delay : {2.5, 0.0}) {
        expect_patch_matches(model, exp::with_delay(model, "DPM", "send_shutdown", delay),
                             "DPM", "send_shutdown", delay_patch(delay),
                             "with_delay " + std::to_string(delay));
    }
}

// ---------------------------------------------------------------------------
// The memoised elimination: builds on copies of one composed structure
// against builds on fresh structures, which have nothing memoised
// ---------------------------------------------------------------------------

TEST(PatchDiff, InterleavedPatchesMatchFreshStructures) {
    namespace fs = std::filesystem;
    const std::map<std::string, std::string> swept = {
        {"disk_markov.aem", "send_shutdown"},
        {"rpc_revised_markov.aem", "send_shutdown"},
        {"streaming_markov.aem", "send_wakeup"},
    };
    for (const auto& entry : fs::directory_iterator(DPMA_SPECS_DIR)) {
        const std::string name = entry.path().filename().string();
        if (name.ends_with("_markov.aem")) {
            EXPECT_EQ(swept.count(name), 1u) << name;
        }
    }
    using Patch = std::function<adl::ComposedModel(const adl::ComposedModel&)>;
    for (const auto& [spec, action] : swept) {
        const auto exp_rate = [&action](double rate) -> Patch {
            return [&action, rate](const adl::ComposedModel& m) {
                return exp::with_exp_rate(m, "DPM", action, rate);
            };
        };
        const auto delay = [&action](double d) -> Patch {
            return [&action, d](const adl::ComposedModel& m) {
                return exp::with_delay(m, "DPM", action, d);
            };
        };
        // with_delay 0 turns the swept slots immediate, which changes the
        // key; the next with_exp_rate changes it back.
        const std::vector<std::pair<std::string, Patch>> steps = {
            {"with_exp_rate 0.37", exp_rate(0.37)}, {"with_delay 2.5", delay(2.5)},
            {"with_delay 0", delay(0.0)},           {"with_exp_rate 1.3", exp_rate(1.3)},
            {"with_exp_rate 0.37", exp_rate(0.37)},
        };
        const adl::ComposedModel skeleton = adl::compose(models::archi(spec));
        std::vector<std::optional<MarkovModel>> built;
        for (const auto& [label, patch] : steps) {
            SCOPED_TRACE(spec + " " + label);
            built.push_back(expect_identical_builds(
                patch(skeleton), patch(adl::compose(models::archi(spec)))));
        }
        ASSERT_TRUE(built[0] && built[1] && built[3] && built[4]) << spec;
        // Copies with one key share one elimination; a key change rebuilds.
        EXPECT_EQ(built[0]->elimination, built[1]->elimination) << spec;
        EXPECT_NE(built[1]->elimination, built[3]->elimination) << spec;
        EXPECT_EQ(built[3]->elimination, built[4]->elimination) << spec;
        if (built[2]) {
            EXPECT_NE(built[2]->elimination, built[3]->elimination) << spec;
        }
    }
}

/// \p model's copy with \p patch applied to every slot labelled \p label.
adl::ComposedModel patched_copy(const adl::ComposedModel& model, const std::string& label,
                                const RatePatch& patch) {
    const lts::ActionId action = model.graph.actions()->find(label);
    EXPECT_NE(action, kNoSymbol) << label;
    adl::ComposedModel out = model;
    out.graph.mutate_rates([&](lts::ActionId a, lts::Rate& rate) {
        if (a == action) rate = patch(rate);
    });
    return out;
}

TEST(PatchDiff, ImmediateWeightsAndPrioritiesKeyTheElimination) {
    const adl::ComposedModel model = adl::compose(vanishing_model(0.25, 1));
    const auto immediate = [](int priority, double weight) -> RatePatch {
        return [=](const lts::Rate&) -> lts::Rate { return lts::RateImmediate{priority, weight}; };
    };
    const std::vector<std::tuple<std::string, std::string, RatePatch>> patches = {
        {"go_left", "weight 0.75", immediate(1, 0.75)},
        {"go_left", "weight 0", immediate(1, 0.0)},
        {"go_right", "priority 5", immediate(5, 0.75)},
        {"go_left", "unchanged", immediate(1, 0.25)},
    };
    for (const auto& [action, label, patch] : patches) {
        SCOPED_TRACE(action + " " + label);
        expect_identical_builds(patched_copy(model, "X." + action, patch),
                                reference_patch(model, "X", action, patch));
    }
}

TEST(PatchDiff, OnlyTimedSlotsOfTangibleStatesMustBePositive) {
    // Choice also offers a timed "late", which its immediates pre-empt.
    adl::ArchiType archi = vanishing_model(0.25, 1);
    archi.elem_types[0].behaviors[1].alternatives.push_back(
        {nullptr, {{"late", lts::RateExp{3.0}}}, {"Start", {}}});
    const adl::ComposedModel model = adl::compose(archi);
    const RatePatch zero = [](const lts::Rate&) -> lts::Rate { return lts::RateExp{0.0}; };
    for (const std::string action : {"late", "step", "reset_r"}) {
        SCOPED_TRACE(action);
        const auto have = expect_identical_builds(patched_copy(model, "X." + action, zero),
                                                  reference_patch(model, "X", action, zero));
        EXPECT_EQ(have.has_value(), action == "late");
    }
    // Row 0 (A) needs a positive rate before row 1 (B) is found absorbing.
    const adl::ComposedModel dead = adl::compose(deadlock_model());
    for (const bool allow_absorbing : {false, true}) {
        const adl::ComposedModel copy = patched_copy(dead, "X.once", zero);
        EXPECT_EQ(failure_of([&] { (void)build_markov(copy, allow_absorbing); }),
                  "Error: precondition violated: CTMC rates must be positive");
        expect_identical_builds(copy, reference_patch(dead, "X", "once", zero), allow_absorbing);
    }
}

TEST(PatchDiff, FailuresRepeatOnOneStructure) {
    const adl::ComposedModel dead = adl::compose(deadlock_model());
    const auto build = [&](bool allow_absorbing) {
        return failure_of([&] { (void)build_markov(dead, allow_absorbing); });
    };
    const std::string absorbing = build(false);
    EXPECT_TRUE(absorbing.starts_with("ModelError: absorbing tangible state found")) << absorbing;
    EXPECT_EQ(build(false), absorbing);
    EXPECT_EQ(build(true), "");
    EXPECT_EQ(build(false), absorbing);
    expect_identical_builds(dead, adl::compose(deadlock_model()));
    expect_identical_builds(dead, adl::compose(deadlock_model()), /*allow_absorbing=*/true);

    const adl::ComposedModel live = adl::compose(livelock_model());
    const std::string cycle = failure_of([&] { (void)build_markov(live); });
    EXPECT_TRUE(cycle.starts_with("NumericalError: immediate-action cycle")) << cycle;
    EXPECT_EQ(failure_of([&] { (void)build_markov(live); }), cycle);
    EXPECT_EQ(failure_of([&] { (void)build_markov(live, /*allow_absorbing=*/true); }), cycle);
}

// ---------------------------------------------------------------------------
// Error paths and elimination semantics, pinned on the new build
// ---------------------------------------------------------------------------

TEST(BuildDiff, ErrorPaths) {
    EXPECT_EQ(compare_builds(adl::compose(livelock_model()), "livelock"),
              Outcome::NumericalError);
    EXPECT_EQ(compare_builds(adl::compose(deadlock_model()), "deadlock"), Outcome::ModelError);

    const auto with_step_rate = [](lts::Rate rate) {
        adl::ArchiType archi = vanishing_model(0.5, 1);
        archi.elem_types[0].behaviors[0].alternatives[0].actions[0].rate = std::move(rate);
        return adl::compose(archi);
    };
    EXPECT_EQ(compare_builds(with_step_rate(lts::RateUnspecified{}), "unspecified"),
              Outcome::ModelError);
    EXPECT_EQ(compare_builds(with_step_rate(lts::RatePassive{}), "passive"),
              Outcome::ModelError);
    EXPECT_EQ(compare_builds(with_step_rate(lts::RateGeneral{Dist::deterministic(1.0)}),
                             "general"),
              Outcome::ModelError);
}

TEST(BuildDiff, ZeroWeightBranchesAreDropped) {
    // p_left = 0: go_left has weight 0 and must not appear as a branch.
    const adl::ComposedModel model = adl::compose(vanishing_model(0.0, 1));
    const MarkovModel markov = build_markov(model);
    const Symbol left = model.graph.actions()->find("X.go_left");
    ASSERT_NE(left, kNoSymbol);
    ASSERT_EQ(markov.vanishing_topo_order.size(), 1u);
    const auto branches = markov.branches_of(markov.vanishing_topo_order[0]);
    ASSERT_EQ(branches.size(), 1u);
    EXPECT_NE(branches[0].action, left);
    EXPECT_EQ(branches[0].probability, 1.0);
    // Left is never entered, so Start only leads to Right.
    const TangibleId start = markov.tangible_of[model.graph.initial()];
    ASSERT_EQ(markov.chain.row(start).size(), 1u);
    EXPECT_EQ(markov.chain.row(start)[0].rate, 1.0);
}

TEST(BuildDiff, LowerPriorityImmediatesArePreEmpted) {
    // go_right at priority 5 pre-empts go_left (priority 1) whatever the weights.
    const adl::ComposedModel model = adl::compose(vanishing_model(0.75, 5));
    const MarkovModel markov = build_markov(model);
    const Symbol right = model.graph.actions()->find("X.go_right");
    ASSERT_EQ(markov.vanishing_topo_order.size(), 1u);
    const auto branches = markov.branches_of(markov.vanishing_topo_order[0]);
    ASSERT_EQ(branches.size(), 1u);
    EXPECT_EQ(branches[0].action, right);
    EXPECT_EQ(branches[0].probability, 1.0);
}

// ---------------------------------------------------------------------------
// Seeded random architectures
// ---------------------------------------------------------------------------

/// Two or three instances of random element types.  Behaviours mix
/// exponential and immediate alternatives (priorities 1-2, weights including
/// 0); immediates mostly move to later behaviours, so most models are
/// solvable, but some seeds close immediate cycles or dead ends.  With two or
/// more instances, instance 0 drives instance 1 through one attachment
/// (active exponential or immediate output, passive input).
/// "<prefix><i>", e.g. "B3".
std::string indexed(const char* prefix, int i) {
    std::string out = prefix;
    out += std::to_string(i);
    return out;
}

adl::ArchiType random_archi(int seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 2654435761u + 17);
    const auto uniform = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const auto chance = [&](double p) { return std::bernoulli_distribution(p)(rng); };
    const double weights[] = {0.0, 0.5, 1.0, 3.0};

    adl::ArchiType archi;
    archi.name = indexed("Random", seed);
    const int num_instances = uniform(1, 3);
    for (int i = 0; i < num_instances; ++i) {
        adl::ElemType type;
        type.name = indexed("T", i);
        const int num_behaviors = uniform(2, 5);
        for (int b = 0; b < num_behaviors; ++b) {
            adl::BehaviorDef behavior{indexed("B", b), {}, {}};
            const int num_alternatives = uniform(1, 3);
            for (int a = 0; a < num_alternatives; ++a) {
                const bool immediate = b + 1 < num_behaviors && chance(0.45);
                int next = uniform(0, num_behaviors - 1);
                lts::Rate rate = lts::RateExp{0.5 + 0.5 * uniform(0, 7)};
                if (immediate) {
                    rate = lts::RateImmediate{uniform(1, 2), weights[uniform(0, 3)]};
                    if (!chance(0.05)) next = uniform(b + 1, num_behaviors - 1);
                }
                const std::string action = indexed("a", b) + indexed("_", a);
                behavior.alternatives.push_back(
                    {nullptr, {{action, rate}}, {indexed("B", next), {}}});
            }
            type.behaviors.push_back(std::move(behavior));
        }
        // The last behaviour always has a timed way out.
        type.behaviors.back().alternatives.push_back(
            {nullptr, {{"tick", lts::RateExp{1.0}}}, {"B0", {}}});
        archi.elem_types.push_back(std::move(type));
        archi.instances.push_back(
            adl::Instance{indexed("I", i), indexed("T", i), {}});
    }
    if (num_instances >= 2) {
        adl::ElemType& sender = archi.elem_types[0];
        adl::ElemType& receiver = archi.elem_types[1];
        const lts::Rate send = chance(0.5) ? lts::Rate{lts::RateExp{2.0}}
                                           : lts::Rate{lts::RateImmediate{1, 1.0}};
        sender.behaviors.back().alternatives.push_back(
            {nullptr, {{"send", send}}, {"B0", {}}});
        sender.output_interactions = {"send"};
        const int at = uniform(0, static_cast<int>(receiver.behaviors.size()) - 1);
        receiver.behaviors[static_cast<std::size_t>(at)].alternatives.push_back(
            {nullptr, {{"recv", lts::RatePassive{}}}, {"B0", {}}});
        receiver.input_interactions = {"recv"};
        archi.attachments.push_back(adl::Attachment{"I0", "send", "I1", "recv"});
    }
    return archi;
}

TEST(BuildDiff, FiftySeededRandomArchitectures) {
    std::size_t solvable = 0;
    for (int seed = 0; seed < 50; ++seed) {
        const adl::ComposedModel model = adl::compose(random_archi(seed));
        const std::string label = "random seed " + std::to_string(seed);
        const Outcome outcome = compare_builds(model, label);
        if (outcome == Outcome::Ok) ++solvable;
        compare_builds(model, label + " (absorbing allowed)", /*allow_absorbing=*/true);
    }
    // Most seeds are solvable; the rest exercise the error agreement.
    EXPECT_GE(solvable, 25u);
}

// ---------------------------------------------------------------------------
// Action frequencies: the frequency terms against the retired walk
// ---------------------------------------------------------------------------

/// The retired action_frequencies, verbatim: every tangible state's timed
/// transitions, then the entry frequencies propagated through the vanishing
/// subgraph in topological order.
std::vector<double> ref_action_frequencies(const MarkovModel& markov,
                                           const adl::ComposedModel& model,
                                           const std::vector<double>& pi) {
    const std::size_t num_actions = model.graph.actions()->size();
    std::vector<double> freq(num_actions, 0.0);
    std::vector<double> vanishing_entry(model.graph.num_states(), 0.0);
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

/// Every action frequency within 1e-14 relative of the reference walk (or
/// both below 1e-300).  Returns how many actions fire.
std::size_t expect_frequencies_match(const MarkovModel& markov, const adl::ComposedModel& model,
                                     const std::vector<double>& pi) {
    const std::vector<double> have = action_frequencies(markov, model, pi);
    const std::vector<double> want = ref_action_frequencies(markov, model, pi);
    EXPECT_EQ(have.size(), want.size());
    std::size_t firing = 0;
    for (std::size_t a = 0; a < std::min(have.size(), want.size()); ++a) {
        const double scale = std::max(std::abs(have[a]), std::abs(want[a]));
        if (scale >= 1e-300) ++firing;
        EXPECT_TRUE(std::abs(have[a] - want[a]) <= 1e-14 * scale || scale < 1e-300)
            << model.graph.actions()->name(static_cast<lts::ActionId>(a)) << ": " << have[a]
            << " vs " << want[a];
    }
    return firing;
}

/// The measures of \p msr on \p markov, against the same sums over the
/// reference frequencies: within 1e-14 of the sum of the clauses' absolute
/// contributions.
void expect_measures_match(const MarkovModel& markov, const adl::ComposedModel& model,
                           const std::vector<double>& pi, const std::string& msr) {
    const std::vector<adl::Measure> measures = models::measures(msr);
    const std::vector<double> have = evaluate_measures(markov, model, pi, measures);
    const std::vector<double> freq = ref_action_frequencies(markov, model, pi);
    ASSERT_EQ(have.size(), measures.size());
    for (std::size_t m = 0; m < measures.size(); ++m) {
        double want = 0.0;
        double magnitude = 0.0;
        for (const adl::RewardClause& clause : measures[m].clauses) {
            if (clause.target == adl::RewardClause::Target::State) {
                const double p = state_probability(markov, model, pi, clause.predicate);
                want += clause.reward * p;
                magnitude += std::abs(clause.reward * p);
                continue;
            }
            const std::vector<char> mask = adl::action_mask(model, clause.predicate);
            for (Symbol a = 0; a < mask.size(); ++a) {
                if (!mask[a]) continue;
                want += clause.reward * freq[a];
                magnitude += std::abs(clause.reward * freq[a]);
            }
        }
        EXPECT_LE(std::abs(have[m] - want), 1e-14 * magnitude) << measures[m].name;
    }
}

TEST(MeasureDiff, FrequencyTermsMatchTheReferenceWalk) {
    // Fifty points patched from one structure derive its terms once.
    {
        const adl::ComposedModel skeleton =
            adl::compose(models::archi("rpc_revised_markov.aem"));
        const std::vector<adl::Measure> measures = models::measures("rpc_measures.msr");
        obs::Counter& builds = obs::counter("ctmc.frequency_terms.builds");
        const std::uint64_t before = builds.value();
        obs::clear_trace();
        obs::set_tracing(true);
        for (int point = 0; point < 50; ++point) {
            SCOPED_TRACE("rpc point " + std::to_string(point));
            const adl::ComposedModel model =
                exp::with_exp_rate(skeleton, "DPM", "send_shutdown", 0.05 + 0.04 * point);
            const MarkovModel markov = build_markov(model);
            const std::vector<double> pi = steady_state(markov.chain);
            (void)evaluate_measures(markov, model, pi, measures);
            expect_frequencies_match(markov, model, pi);
        }
        obs::set_tracing(false);
        EXPECT_EQ(builds.value() - before, 1u);
#if !defined(DPMA_OBS_DISABLED)
        std::uint64_t spans = 0;
        for (const obs::SpanStats& s : obs::span_summary()) {
            if (s.name == "ctmc.frequency_terms") spans = s.count;
        }
        EXPECT_EQ(spans, 1u);
#endif
        obs::clear_trace();
    }

    namespace fs = std::filesystem;
    std::size_t specs = 0;
    for (const auto& entry : fs::directory_iterator(DPMA_SPECS_DIR)) {
        const std::string name = entry.path().filename().string();
        if (!name.ends_with("_markov.aem")) continue;
        const std::string msr = name.substr(0, name.find('_')) + "_measures.msr";
        SCOPED_TRACE(name + " + " + msr);
        const adl::ComposedModel model = adl::compose(models::archi(name));
        const MarkovModel markov = build_markov(model);
        const std::vector<double> pi = steady_state(markov.chain);
        EXPECT_GT(expect_frequencies_match(markov, model, pi), 0u);
        expect_measures_match(markov, model, pi, msr);
        ++specs;
    }
    EXPECT_GE(specs, 3u);

    // Streaming at every buffer capacity up to perfbench's 16, at three
    // awake periods: transient states (pi 0) and long immediate chains.
    const adl::ArchiType streaming = models::archi("streaming_markov.aem");
    for (long capacity = 1; capacity <= 16; ++capacity) {
        const adl::ComposedModel skeleton = adl::compose(models::with_capacity(
            models::with_capacity(streaming, {"AP"}, capacity), {"B"}, capacity));
        for (const double rate : {1.0 / 400.0, 1.0 / 100.0, 1.0 / 25.0}) {
            SCOPED_TRACE("streaming capacity " + std::to_string(capacity) + ", send_wakeup " +
                         std::to_string(rate));
            const adl::ComposedModel model =
                exp::with_exp_rate(skeleton, "DPM", "send_wakeup", rate);
            const MarkovModel markov = build_markov(model);
            const std::vector<double> pi = steady_state(markov.chain);
            expect_frequencies_match(markov, model, pi);
            if (capacity == 16) expect_measures_match(markov, model, pi, "streaming_measures.msr");
        }
    }

    // with_delay keeps the skeleton's terms; with_delay 0 makes the swept
    // slots immediate, so the elimination and its terms are derived anew.
    const adl::ComposedModel rpc = adl::compose(models::archi("rpc_revised_markov.aem"));
    std::vector<std::shared_ptr<const VanishingElimination>> eliminations;
    for (const double delay : {2.5, 0.0}) {
        SCOPED_TRACE("rpc with_delay " + std::to_string(delay));
        const adl::ComposedModel model = exp::with_delay(rpc, "DPM", "send_shutdown", delay);
        const MarkovModel markov = build_markov(model);
        const std::vector<double> pi = steady_state(markov.chain);
        EXPECT_GT(expect_frequencies_match(markov, model, pi), 0u);
        expect_measures_match(markov, model, pi, "rpc_measures.msr");
        eliminations.push_back(markov.elimination);
    }
    EXPECT_NE(eliminations[0], eliminations[1]);
    EXPECT_NE(&eliminations[0]->frequency_terms(rpc.graph),
              &eliminations[1]->frequency_terms(rpc.graph));

    // Random architectures, absorbing states allowed, under a positive
    // vector with some zeros in place of pi: the frequencies are linear in
    // it, and the zeros take the rows the pass skips.
    std::size_t random = 0;
    for (int seed = 0; seed < 50; ++seed) {
        SCOPED_TRACE("random seed " + std::to_string(seed));
        const adl::ComposedModel model = adl::compose(random_archi(seed));
        std::optional<MarkovModel> markov;
        try {
            markov.emplace(build_markov(model, /*allow_absorbing=*/true));
        } catch (const std::exception&) {
            continue;  // immediate cycles; BuildDiff checks the failure
        }
        std::vector<double> pi(markov->chain.num_states());
        for (std::size_t t = 0; t < pi.size(); ++t) {
            pi[t] = t % 3 == 1 ? 0.0 : 1.0 / static_cast<double>(t + 2);
        }
        expect_frequencies_match(*markov, model, pi);
        ++random;
    }
    EXPECT_GE(random, 25u);
}

}  // namespace
}  // namespace dpma::ctmc
