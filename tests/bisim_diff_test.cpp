/// \file bisim_diff_test.cpp
/// Differential tests for the weak-bisimulation pipeline.  The CSR-based
/// saturation and dirty-block refinement are compared against
/// straightforward reference implementations (the pre-optimisation
/// algorithms, kept here verbatim) on randomized LTSs.  The weak check with
/// its branching pre-reduction is compared against the unreduced pipeline
/// (collapse, saturate the whole union, strong refinement), also kept here,
/// on random systems, the observer views of every shipped spec and the
/// streaming system at every pair of buffer sizes up to 10.  Verdicts, block
/// counts, the induced equivalence relations, and the validity of
/// distinguishing formulas must all agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adl/compose.hpp"
#include "adl/measure.hpp"
#include "bisim/equivalence.hpp"
#include "bisim/hml_check.hpp"
#include "bisim/partition.hpp"
#include "lts/ops.hpp"
#include "models/specs.hpp"
#include "models/variants.hpp"

namespace dpma::bisim {
namespace {

using lts::ActionId;
using lts::Lts;
using lts::LtsBuilder;
using lts::StateId;
using lts::Transition;

// ---------------------------------------------------------------------------
// Reference implementations (pre-CSR algorithms, intentionally naive).
// ---------------------------------------------------------------------------

/// Forward tau-closure (reflexive) of every state via per-state BFS.
std::vector<std::vector<StateId>> ref_tau_closures(const Lts& model) {
    const ActionId tau = model.actions()->tau();
    std::vector<std::vector<StateId>> closure(model.num_states());
    std::vector<char> seen(model.num_states());
    for (StateId s = 0; s < model.num_states(); ++s) {
        std::fill(seen.begin(), seen.end(), 0);
        std::deque<StateId> queue{s};
        seen[s] = 1;
        while (!queue.empty()) {
            const StateId u = queue.front();
            queue.pop_front();
            closure[s].push_back(u);
            for (const Transition& t : model.out(u)) {
                if (t.action == tau && !seen[t.target]) {
                    seen[t.target] = 1;
                    queue.push_back(t.target);
                }
            }
        }
    }
    return closure;
}

/// Reference weak saturation: tau* moves plus tau* a tau* moves.
Lts ref_saturate(const Lts& model) {
    const ActionId tau = model.actions()->tau();
    const auto closure = ref_tau_closures(model);
    LtsBuilder out(model.actions());
    for (StateId s = 0; s < model.num_states(); ++s) out.add_state();
    if (model.initial() != lts::kNoState) out.set_initial(model.initial());

    for (StateId s = 0; s < model.num_states(); ++s) {
        std::vector<char> added_tau(model.num_states(), 0);
        for (StateId mid : closure[s]) {
            if (!added_tau[mid]) {
                added_tau[mid] = 1;
                out.add_transition(s, tau, mid);
            }
        }
        std::unordered_map<std::uint64_t, char> added;
        for (StateId mid : closure[s]) {
            for (const Transition& t : model.out(mid)) {
                if (t.action == tau) continue;
                for (StateId end : closure[t.target]) {
                    const std::uint64_t key =
                        (static_cast<std::uint64_t>(t.action) << 32) | end;
                    if (!added.emplace(key, 1).second) continue;
                    out.add_transition(s, t.action, end);
                }
            }
        }
    }
    return std::move(out).build();
}

/// Reference whole-partition signature refinement.
using RefSignature = std::vector<std::pair<ActionId, BlockId>>;

RefSignature ref_signature_of(const Lts& model, StateId state,
                              const std::vector<BlockId>& blocks) {
    RefSignature sig;
    for (const Transition& t : model.out(state)) {
        sig.emplace_back(t.action, blocks[t.target]);
    }
    std::sort(sig.begin(), sig.end());
    sig.erase(std::unique(sig.begin(), sig.end()), sig.end());
    return sig;
}

std::vector<BlockId> ref_refine_strong(const Lts& model) {
    const std::size_t n = model.num_states();
    std::vector<BlockId> prev(n, 0);
    if (n == 0) return prev;
    while (true) {
        std::vector<BlockId> next(n, 0);
        std::map<std::pair<BlockId, RefSignature>, BlockId> block_ids;
        for (StateId s = 0; s < n; ++s) {
            auto key = std::make_pair(prev[s], ref_signature_of(model, s, prev));
            auto [it, inserted] =
                block_ids.emplace(std::move(key), static_cast<BlockId>(block_ids.size()));
            next[s] = it->second;
        }
        const bool stable =
            block_ids.size() ==
            static_cast<std::size_t>(1 + *std::max_element(prev.begin(), prev.end()));
        prev = std::move(next);
        if (stable) return prev;
    }
}

/// The weak check without branching pre-reduction: tau-SCC collapse of the
/// union, saturation of the whole collapsed system, strong refinement with
/// round history.  Also returns the weak partition of the collapsed states.
struct UnreducedWeak {
    EquivalenceResult result;
    Lts collapsed;
    StateId root_lhs;
    StateId root_rhs;
    std::vector<BlockId> weak_blocks;
};

UnreducedWeak unreduced_weak_check(const Lts& lhs, const Lts& rhs) {
    const lts::UnionResult merged = lts::disjoint_union(lhs, rhs);
    lts::TauCollapseResult collapsed = lts::collapse_tau_sccs(merged.combined);
    const StateId init_lhs = collapsed.representative_of[merged.initial_lhs];
    const StateId init_rhs = collapsed.representative_of[merged.initial_rhs];
    const Lts system = lts::saturate(collapsed.collapsed);
    const RefinementResult refinement = refine_strong(system);
    UnreducedWeak out{{}, std::move(collapsed.collapsed), init_lhs, init_rhs,
                      refinement.final_blocks()};
    out.result.equivalent = refinement.same_block(init_lhs, init_rhs);
    if (!out.result.equivalent) {
        out.result.distinguishing =
            distinguishing_formula(system, refinement, init_lhs, init_rhs, true);
    }
    return out;
}

/// Checks the production weak check on (\p lhs, \p rhs) against the
/// unreduced reference: same verdict, every branching block inside one
/// reference weak block, and on failure a formula that holds on lhs and
/// fails on rhs.  Returns the verdict.
bool expect_matches_unreduced(const Lts& lhs, const Lts& rhs, const std::string& what) {
    const EquivalenceResult fast = weakly_bisimilar(lhs, rhs);
    const UnreducedWeak ref = unreduced_weak_check(lhs, rhs);
    EXPECT_EQ(fast.equivalent, ref.result.equivalent) << what;

    const std::vector<BlockId> branching = refine_branching(ref.collapsed);
    std::map<BlockId, BlockId> weak_block_of;
    for (StateId s = 0; s < branching.size(); ++s) {
        const auto it = weak_block_of.emplace(branching[s], ref.weak_blocks[s]).first;
        if (it->second != ref.weak_blocks[s]) {
            ADD_FAILURE() << what << ": branching block " << branching[s]
                          << " spans two weak blocks";
            break;
        }
    }

    if (!fast.equivalent) {
        EXPECT_NE(fast.distinguishing, nullptr) << what;
        if (fast.distinguishing != nullptr) {
            const lts::UnionResult u = lts::disjoint_union(lhs, rhs);
            EXPECT_TRUE(satisfies(u.combined, u.initial_lhs, fast.distinguishing)) << what;
            EXPECT_FALSE(satisfies(u.combined, u.initial_rhs, fast.distinguishing)) << what;
        }
    }
    return fast.equivalent;
}

/// The noninterference observer views of \p model: everything but the low
/// instance's actions hidden, with the high actions hidden (first) or
/// removed (second).
std::pair<Lts, Lts> observer_views(const adl::ComposedModel& model,
                                   const std::vector<std::string>& high_labels,
                                   const std::string& low_instance) {
    const auto& table = *model.graph.actions();
    lts::ActionSet high;
    for (const std::string& label : high_labels) high.insert(table.find(label));
    lts::ActionSet low;
    for (const ActionId a : adl::actions_of_instance(model, low_instance)) low.insert(a);
    lts::ActionSet hide_hidden = high;
    lts::ActionSet hide_restricted;
    for (Symbol a = 0; a < table.size(); ++a) {
        if (a == table.tau() || low.contains(a)) continue;
        hide_hidden.insert(a);
        if (!high.contains(a)) hide_restricted.insert(a);
    }
    return {lts::reachable_part(lts::hide(model.graph, hide_hidden)),
            lts::reachable_part(
                lts::hide(lts::restrict_actions(model.graph, high), hide_restricted))};
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

/// Random LTS with a controllable tau share; always rooted at state 0.
Lts random_lts(std::uint32_t seed, std::size_t states, std::size_t transitions,
               double tau_share) {
    std::mt19937 rng(seed);
    LtsBuilder m;
    const ActionId tau = m.actions()->tau();
    const std::vector<ActionId> visible{m.action("a"), m.action("b"), m.action("c")};
    for (std::size_t s = 0; s < states; ++s) m.add_state();
    std::uniform_int_distribution<StateId> pick_state(0, static_cast<StateId>(states - 1));
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::uniform_int_distribution<std::size_t> pick_visible(0, visible.size() - 1);
    for (std::size_t k = 0; k < transitions; ++k) {
        const ActionId a = coin(rng) < tau_share ? tau : visible[pick_visible(rng)];
        m.add_transition(pick_state(rng), a, pick_state(rng));
    }
    m.set_initial(0);
    return std::move(m).build();
}

std::set<std::tuple<StateId, ActionId, StateId>> transition_set(const Lts& model) {
    std::set<std::tuple<StateId, ActionId, StateId>> out;
    for (StateId s = 0; s < model.num_states(); ++s) {
        for (const Transition& t : model.out(s)) {
            out.emplace(s, t.action, t.target);
        }
    }
    return out;
}

std::size_t block_count(const std::vector<BlockId>& blocks) {
    if (blocks.empty()) return 0;
    return 1 + *std::max_element(blocks.begin(), blocks.end());
}

/// True iff the two labelings induce the same equivalence relation, i.e.
/// they are equal up to renumbering of block ids.
bool same_partition(const std::vector<BlockId>& a, const std::vector<BlockId>& b) {
    if (a.size() != b.size()) return false;
    std::map<BlockId, BlockId> fwd, bwd;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto [f, fi] = fwd.emplace(a[i], b[i]);
        if (!fi && f->second != b[i]) return false;
        const auto [g, gi] = bwd.emplace(b[i], a[i]);
        if (!gi && g->second != a[i]) return false;
    }
    return true;
}

// ---------------------------------------------------------------------------
// Differential properties.
// ---------------------------------------------------------------------------

TEST(BisimDiffTest, SaturateMatchesReferenceOnRandomSystems) {
    for (std::uint32_t seed = 1; seed <= 8; ++seed) {
        const Lts m = random_lts(seed, 30 + seed * 7, 90 + seed * 23, 0.5);
        const Lts fast = lts::saturate(m);
        const Lts ref = ref_saturate(m);
        EXPECT_EQ(fast.num_states(), ref.num_states()) << "seed " << seed;
        EXPECT_EQ(transition_set(fast), transition_set(ref)) << "seed " << seed;
    }
}

TEST(BisimDiffTest, RefineMatchesReferenceUpToRenumbering) {
    for (std::uint32_t seed = 1; seed <= 8; ++seed) {
        const Lts m = random_lts(seed * 101, 40 + seed * 5, 120 + seed * 17, 0.3);
        const RefinementResult fast = refine_strong(m);
        const std::vector<BlockId> ref = ref_refine_strong(m);
        EXPECT_EQ(block_count(fast.final_blocks()), block_count(ref)) << "seed " << seed;
        EXPECT_TRUE(same_partition(fast.final_blocks(), ref)) << "seed " << seed;
    }
}

TEST(BisimDiffTest, WeakVerdictsMatchReferencePipeline) {
    std::size_t disagreements_possible = 0;
    for (std::uint32_t seed = 1; seed <= 10; ++seed) {
        const Lts lhs = random_lts(seed * 7, 12, 30, 0.5);
        const Lts rhs = random_lts(seed * 7 + 3, 12, 30, 0.5);

        // Production pipeline (collapse + CSR saturation + dirty-block
        // refinement) ...
        const EquivalenceResult fast = weakly_bisimilar(lhs, rhs);

        // ... against the naive one: union, reference saturation, reference
        // refinement, no SCC collapse.
        const lts::UnionResult merged = lts::disjoint_union(lhs, rhs);
        const Lts sat = ref_saturate(merged.combined);
        const std::vector<BlockId> blocks = ref_refine_strong(sat);
        const bool ref_equivalent =
            blocks[merged.initial_lhs] == blocks[merged.initial_rhs];

        EXPECT_EQ(fast.equivalent, ref_equivalent) << "seed " << seed;
        if (!fast.equivalent) ++disagreements_possible;
    }
    // The generator must exercise both verdicts for the test to mean much.
    EXPECT_GT(disagreements_possible, 0u);
}

TEST(BisimDiffTest, DistinguishingFormulasRemainValid) {
    std::size_t formulas_checked = 0;
    for (std::uint32_t seed = 1; seed <= 10; ++seed) {
        const Lts lhs = random_lts(seed * 13, 10, 24, 0.4);
        const Lts rhs = random_lts(seed * 13 + 5, 10, 24, 0.4);
        const EquivalenceResult result = weakly_bisimilar(lhs, rhs);
        if (result.equivalent) continue;
        ASSERT_NE(result.distinguishing, nullptr) << "seed " << seed;
        // The formula must hold on one initial state and fail on the other,
        // interpreted over the (unsaturated) union with weak modalities.
        const lts::UnionResult u = lts::disjoint_union(lhs, rhs);
        EXPECT_NE(satisfies(u.combined, u.initial_lhs, result.distinguishing),
                  satisfies(u.combined, u.initial_rhs, result.distinguishing))
            << "seed " << seed;
        ++formulas_checked;
    }
    EXPECT_GT(formulas_checked, 0u);
}

TEST(BisimDiffTest, ParallelRefinementIsBitIdenticalToSerial) {
    for (std::uint32_t seed = 1; seed <= 4; ++seed) {
        const Lts m = random_lts(seed * 31, 400, 3000, 0.5);
        const Lts sat = lts::saturate(m);
        const RefinementResult serial = refine_strong(sat, 1);
        const RefinementResult parallel = refine_strong(sat, 4);
        ASSERT_EQ(serial.rounds.size(), parallel.rounds.size()) << "seed " << seed;
        for (std::size_t r = 0; r < serial.rounds.size(); ++r) {
            EXPECT_EQ(serial.rounds[r], parallel.rounds[r])
                << "seed " << seed << " round " << r;
        }
    }
}

TEST(BisimDiffTest, QuotientOfSaturationIsWeaklyBisimilarToOriginal) {
    for (std::uint32_t seed = 1; seed <= 4; ++seed) {
        const Lts m = random_lts(seed * 47, 20, 60, 0.5);
        const Lts sat = lts::saturate(m);
        const RefinementResult refinement = refine_strong(sat);
        const Lts q = quotient(sat, refinement.final_blocks());
        ASSERT_EQ(q.initial(), refinement.final_blocks()[m.initial()]);
        const EquivalenceResult eq = weakly_bisimilar(m, q);
        EXPECT_TRUE(eq.equivalent) << "seed " << seed;
    }
}

// ---------------------------------------------------------------------------
// Branching pre-reduction vs the unreduced weak check.
// ---------------------------------------------------------------------------

TEST(BranchingReductionTest, MatchesUnreducedCheckOnRandomSystems) {
    std::size_t equivalent = 0;
    std::size_t inequivalent = 0;
    for (std::uint32_t seed = 1; seed <= 40; ++seed) {
        const double tau_share = 0.2 + 0.15 * (seed % 5);
        const Lts m = random_lts(seed * 389, 8 + seed % 17, 20 + seed * 3, tau_share);
        const Lts other = random_lts(seed * 389 + 1, 8 + seed % 13, 20 + seed * 3, tau_share);
        // Random pairs, and pairs weakly bisimilar by construction.
        if (expect_matches_unreduced(m, other, "seed " + std::to_string(seed))) {
            ++equivalent;
        } else {
            ++inequivalent;
        }
        EXPECT_TRUE(expect_matches_unreduced(m, lts::saturate(m),
                                             "saturated, seed " + std::to_string(seed)));
        EXPECT_TRUE(expect_matches_unreduced(lts::collapse_tau_sccs(m).collapsed, m,
                                             "collapsed, seed " + std::to_string(seed)));
        ++equivalent;
        // Hiding one visible action makes both sides mostly silent, the
        // shape of the noninterference views.
        lts::ActionSet hidden_b{m.actions()->find("b")};
        const Lts hidden_m = lts::hide(m, hidden_b);
        const Lts hidden_other = lts::hide(other, hidden_b);
        if (expect_matches_unreduced(hidden_m, hidden_other,
                                     "hidden, seed " + std::to_string(seed))) {
            ++equivalent;
        } else {
            ++inequivalent;
        }
    }
    EXPECT_GT(equivalent, 0u);
    EXPECT_GT(inequivalent, 0u);
}

TEST(BranchingReductionTest, WeakButNotBranchingBisimilarStaysEquivalent) {
    // a.(b + tau.c) + a.c  vs  a.(b + tau.c): weakly bisimilar (Milner's
    // third tau law) but not branching bisimilar, so the check must take
    // the quotient-and-saturate path and still answer equivalent.
    const auto build = [](bool extra_branch) {
        LtsBuilder m;
        const StateId root = m.add_state();
        const StateId mid = m.add_state();
        const StateId after_tau = m.add_state();
        const StateId end = m.add_state();
        m.add_transition(root, m.action("a"), mid);
        m.add_transition(mid, m.action("b"), end);
        m.add_transition(mid, m.actions()->tau(), after_tau);
        m.add_transition(after_tau, m.action("c"), end);
        if (extra_branch) m.add_transition(root, m.action("a"), after_tau);
        m.set_initial(root);
        return std::move(m).build();
    };
    const Lts lhs = build(true);
    const Lts rhs = build(false);

    const lts::UnionResult u = lts::disjoint_union(lhs, rhs);
    const lts::TauCollapseResult collapsed = lts::collapse_tau_sccs(u.combined);
    const std::vector<BlockId> branching = refine_branching(collapsed.collapsed);
    EXPECT_NE(branching[collapsed.representative_of[u.initial_lhs]],
              branching[collapsed.representative_of[u.initial_rhs]]);

    EXPECT_TRUE(weakly_bisimilar(lhs, rhs).equivalent);
    EXPECT_TRUE(weakly_bisimilar(rhs, lhs).equivalent);
    EXPECT_TRUE(expect_matches_unreduced(lhs, rhs, "tau law"));
}

TEST(BranchingReductionTest, MatchesUnreducedCheckOnShippedSpecViews) {
    const std::pair<const char*, const char*> specs[] = {
        {"rpc_untimed.aem", "C"},        {"rpc_revised_markov.aem", "C"},
        {"rpc_general.aem", "C"},        {"disk_markov.aem", "SINK"},
        {"streaming_markov.aem", "C"},   {"streaming_general.aem", "C"}};
    std::size_t failing = 0;
    for (const auto& [file, low] : specs) {
        const adl::ArchiType archi = models::archi(file);
        const adl::ComposedModel model = adl::compose(archi);
        const auto [hidden, restricted] =
            observer_views(model, models::high_action_labels(archi), low);
        if (!expect_matches_unreduced(hidden, restricted, file)) ++failing;
    }
    // Only the simplified rpc of Sect. 2.3 interferes.
    EXPECT_EQ(failing, 1u);
}

TEST(BranchingReductionTest, MatchesUnreducedCheckOnStreamingBufferSizes) {
    const adl::ArchiType streaming = models::archi("streaming_markov.aem");
    const std::vector<std::string> high = models::high_action_labels(streaming);
    for (long ap = 1; ap <= 10; ++ap) {
        for (long client = 1; client <= 10; ++client) {
            const adl::ComposedModel model = adl::compose(models::with_capacity(
                models::with_capacity(streaming, {"AP"}, ap), {"B"}, client));
            const auto [hidden, restricted] = observer_views(model, high, "C");
            EXPECT_TRUE(expect_matches_unreduced(
                hidden, restricted,
                "streaming AP=" + std::to_string(ap) + " B=" + std::to_string(client)));
        }
    }
}

}  // namespace
}  // namespace dpma::bisim
