#include "ctmc/ctmc.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "core/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dpma::ctmc {
namespace {

/// A sparse vector over dense ids (tangible states or actions) summed in
/// place: a dense slot per id plus the touched ids in first-seen order, so
/// draining costs only what was added.
class Accumulator {
public:
    explicit Accumulator(std::size_t num_states) : slot_(num_states, kNoTangible) {}

    void add(std::uint32_t id, double value) {
        TangibleId& slot = slot_[id];
        if (slot == kNoTangible) {
            slot = static_cast<TangibleId>(states_.size());
            states_.push_back(id);
            values_.push_back(value);
        } else {
            values_[slot] += value;
        }
    }

    /// Hands every (state, sum) to \p sink in first-seen order and clears.
    template <typename Sink>
    void drain(Sink&& sink) {
        for (std::size_t i = 0; i < states_.size(); ++i) {
            slot_[states_[i]] = kNoTangible;
            sink(states_[i], values_[i]);
        }
        states_.clear();
        values_.clear();
    }

private:
    std::vector<TangibleId> slot_;
    std::vector<TangibleId> states_;
    std::vector<double> values_;
};

void check_rate(const lts::ActionTable& actions, const lts::RateSlot& slot) {
    if (std::holds_alternative<lts::RateUnspecified>(slot.rate)) {
        throw ModelError("transition " + actions.name(slot.action) +
                         " has no rate: functional models cannot be solved as CTMCs");
    }
    if (lts::is_passive(slot.rate)) {
        throw ModelError("passive transition " + actions.name(slot.action) +
                         " survived composition (unattached interaction?)");
    }
    if (lts::is_general(slot.rate)) {
        throw ModelError("generally distributed transition " + actions.name(slot.action) +
                         " in a Markovian model; use the simulator instead");
    }
}

/// Checks every slot of \p graph once.  Slots are numbered in order of
/// first use, so the first slot that fails is the slot of the first
/// transition that would.
void check_rates(const lts::Lts& graph) {
    for (const lts::RateSlot& slot : graph.slots()) check_rate(*graph.actions(), slot);
}

}  // namespace

Ctmc::Ctmc(std::size_t num_states, const std::vector<Triplet>& rates) {
    // Counting sort by source (stable), then merge each row's targets.
    std::vector<std::size_t> start(num_states + 1, 0);
    for (const Triplet& r : rates) {
        DPMA_REQUIRE(r.from < num_states && r.to < num_states, "CTMC state out of range");
        DPMA_REQUIRE(r.rate > 0.0, "CTMC rates must be positive");
        ++start[r.from + 1];
    }
    for (std::size_t s = 0; s < num_states; ++s) start[s + 1] += start[s];
    std::vector<std::size_t> fill(start.begin(), start.end() - 1);
    std::vector<RateEntry> sorted(rates.size());
    for (const Triplet& r : rates) sorted[fill[r.from]++] = RateEntry{r.to, r.rate};

    Accumulator row(num_states);
    std::vector<std::size_t> row_start{0};
    std::vector<RateEntry> entries;
    for (TangibleId s = 0; s < num_states; ++s) {
        for (std::size_t k = start[s]; k < start[s + 1]; ++k) {
            if (sorted[k].target != s) row.add(sorted[k].target, sorted[k].rate);
        }
        row.drain([&](TangibleId t, double rate) { entries.push_back(RateEntry{t, rate}); });
        row_start.push_back(entries.size());
    }
    *this = Ctmc(std::move(row_start), std::move(entries));
}

Ctmc::Ctmc(std::vector<std::size_t> row_start, std::vector<RateEntry> entries)
    : row_start_(std::move(row_start)), entries_(std::move(entries)) {
    DPMA_REQUIRE(!row_start_.empty() && row_start_.front() == 0 &&
                     row_start_.back() == entries_.size(),
                 "CTMC rows do not cover the entries");
    const std::size_t n = num_states();
    exit_.assign(n, 0.0);
    for (TangibleId s = 0; s < n; ++s) {
        DPMA_REQUIRE(row_start_[s] <= row_start_[s + 1], "CTMC rows out of order");
        for (const RateEntry& e : row(s)) {
            DPMA_REQUIRE(e.target < n && e.target != s, "CTMC entry out of range or a self-loop");
            DPMA_REQUIRE(e.rate > 0.0, "CTMC rates must be positive");
            exit_[s] += e.rate;
        }
    }
}

double Ctmc::max_exit_rate() const {
    double best = 0.0;
    for (double e : exit_) best = std::max(best, e);
    return best;
}

namespace {

/// Pass 4 of eliminate: a target without an entry in the current row yet.
constexpr std::uint32_t kNoEntry = 0xFFFFFFFFu;

/// One term of generator entry `entry`: rate of slot `slot` times
/// `probability`, the probability of the path through vanishing states (1
/// for a direct timed transition).
struct Term {
    double probability;
    lts::SlotId slot;
    std::uint32_t entry;
};
static_assert(sizeof(Term) == 16);

/// Per slot, its immediate rate, or none: the key of a Skeleton besides the
/// initial state.  Every other slot that passes check_rates is exponential.
using ImmediateSlots = std::vector<std::optional<lts::RateImmediate>>;

ImmediateSlots immediate_slots(const lts::Lts& graph) {
    ImmediateSlots out;
    out.reserve(graph.slots().size());
    for (const lts::RateSlot& slot : graph.slots()) {
        const auto* imm = std::get_if<lts::RateImmediate>(&slot.rate);
        out.push_back(imm != nullptr ? std::optional(*imm) : std::nullopt);
    }
    return out;
}

/// What build_markov derives once per composed structure: the elimination
/// plus the generator's pattern.  Row t of the generator is entries
/// [row_start[t], row_start[t+1]); entry e goes to target[e], and its rate
/// is the sum of its terms, added in the order of `terms`.
struct Skeleton final : VanishingElimination, lts::StructureMemo {
    ImmediateSlots key;
    lts::StateId initial = lts::kNoState;

    std::vector<std::size_t> row_start;
    std::vector<TangibleId> target;
    std::vector<Term> terms;
    /// Per slot, the first tangible row with a timed transition of that slot
    /// (whose rate must then be positive), or kNoTangible.
    std::vector<TangibleId> first_row_of_slot;
    /// The first tangible row without a timed transition, or kNoTangible.
    TangibleId first_absorbing = kNoTangible;
};

/// The four passes of the elimination, the last of which fixes the
/// generator's pattern; see build_markov.  The rates of \p graph must have
/// passed check_rates.
std::shared_ptr<const Skeleton> eliminate(const lts::Lts& graph, ImmediateSlots key) {
    const std::size_t n = graph.num_states();
    DPMA_NAMED_SPAN(span, "ctmc.eliminate", "ctmc");
    auto out = std::make_shared<Skeleton>();
    out->key = std::move(key);
    out->initial = graph.initial();
    const ImmediateSlots& immediate = out->key;
    out->tangible_of.assign(n, kNoTangible);
    out->branch_start.reserve(n + 1);
    out->branch_start.push_back(0);

    // Pass 1: apply maximal progress and normalise the surviving immediate
    // weights.  A state without a positive-weight immediate branch is
    // tangible.
    for (lts::StateId s = 0; s < n; ++s) {
        int best_priority = std::numeric_limits<int>::min();
        double total_weight = 0.0;
        for (const lts::Transition& t : graph.out(s)) {
            if (const auto& imm = immediate[t.slot]) {
                if (imm->priority > best_priority) {
                    best_priority = imm->priority;
                    total_weight = 0.0;
                }
                if (imm->priority == best_priority) total_weight += imm->weight;
            }
        }
        if (total_weight > 0.0) {
            for (const lts::Transition& t : graph.out(s)) {
                const auto& imm = immediate[t.slot];
                // Zero-weight branches can never fire; dropping them keeps
                // degenerate parameterisations (e.g. loss probability 0) legal.
                if (imm && imm->priority == best_priority && imm->weight > 0.0) {
                    out->branches.push_back(
                        VanishingBranch{t.target, t.action, imm->weight / total_weight});
                }
            }
        } else {
            out->tangible_of[s] = static_cast<TangibleId>(out->orig_of.size());
            out->orig_of.push_back(s);
        }
        out->branch_start.push_back(out->branches.size());
    }
    const std::size_t num_tangible = out->orig_of.size();
    const std::size_t num_vanishing = n - num_tangible;

    // Pass 2: Kahn's topological order of the vanishing subgraph (FIFO, the
    // order itself is the queue); an immediate cycle leaves states unordered.
    {
        std::vector<std::uint32_t> indegree(n, 0);
        for (const VanishingBranch& b : out->branches) {
            if (!out->is_tangible(b.target)) ++indegree[b.target];
        }
        std::vector<lts::StateId>& order = out->vanishing_topo_order;
        order.reserve(num_vanishing);
        for (lts::StateId s = 0; s < n; ++s) {
            if (!out->is_tangible(s) && indegree[s] == 0) order.push_back(s);
        }
        for (std::size_t i = 0; i < order.size(); ++i) {
            for (const VanishingBranch& b : out->branches_of(order[i])) {
                if (!out->is_tangible(b.target) && --indegree[b.target] == 0) {
                    order.push_back(b.target);
                }
            }
        }
        if (order.size() != num_vanishing) {
            throw NumericalError(
                "immediate-action cycle detected: the model lets time stand "
                "still forever (check immediate self-triggering loops)");
        }
    }

    // Pass 3: the distribution over tangible states entered from each
    // vanishing v, in reverse topological order so successors are ready:
    // pool entries [reach_begin[v], reach_end[v]).  A certain single branch
    // to another vanishing state shares that state's entries.
    std::vector<std::size_t> reach_begin(n, 0);
    std::vector<std::size_t> reach_end(n, 0);
    std::vector<TangibleId> pool_state;
    std::vector<double> pool_prob;
    Accumulator acc(num_tangible);
    const auto pool_add = [&](TangibleId g, double p) {
        pool_state.push_back(g);
        pool_prob.push_back(p);
    };
    for (auto it = out->vanishing_topo_order.rbegin(); it != out->vanishing_topo_order.rend();
         ++it) {
        const lts::StateId v = *it;
        const std::span<const VanishingBranch> branches = out->branches_of(v);
        if (branches.size() == 1 && branches[0].probability == 1.0 &&
            !out->is_tangible(branches[0].target)) {
            reach_begin[v] = reach_begin[branches[0].target];
            reach_end[v] = reach_end[branches[0].target];
            continue;
        }
        for (const VanishingBranch& b : branches) {
            if (out->is_tangible(b.target)) {
                acc.add(out->tangible_of[b.target], b.probability);
                continue;
            }
            for (std::size_t k = reach_begin[b.target]; k < reach_end[b.target]; ++k) {
                acc.add(pool_state[k], b.probability * pool_prob[k]);
            }
        }
        reach_begin[v] = pool_state.size();
        acc.drain(pool_add);
        reach_end[v] = pool_state.size();
    }

    // Pass 4: the generator's pattern, row by row: each target in first-seen
    // order, each term in the order a row-by-row sum would add it.
    out->first_row_of_slot.assign(immediate.size(), kNoTangible);
    out->row_start.reserve(num_tangible + 1);
    out->row_start.push_back(0);
    std::vector<std::uint32_t> entry_of(num_tangible, kNoEntry);
    const auto add = [&](TangibleId g, lts::SlotId slot, double probability) {
        std::uint32_t& entry = entry_of[g];
        if (entry == kNoEntry) {
            DPMA_REQUIRE(out->target.size() < kNoEntry, "CTMC generator too large");
            entry = static_cast<std::uint32_t>(out->target.size());
            out->target.push_back(g);
        }
        out->terms.push_back(Term{probability, slot, entry});
    };
    for (TangibleId t = 0; t < num_tangible; ++t) {
        bool has_timed = false;
        for (const lts::Transition& tr : graph.out(out->orig_of[t])) {
            if (immediate[tr.slot]) continue;  // no weight at the top priority: never fires
            has_timed = true;
            if (out->first_row_of_slot[tr.slot] == kNoTangible) out->first_row_of_slot[tr.slot] = t;
            if (out->is_tangible(tr.target)) {
                const TangibleId g = out->tangible_of[tr.target];
                if (g != t) add(g, tr.slot, 1.0);  // self-loops do not affect the dynamics
                continue;
            }
            for (std::size_t k = reach_begin[tr.target]; k < reach_end[tr.target]; ++k) {
                if (pool_state[k] != t) add(pool_state[k], tr.slot, pool_prob[k]);
            }
        }
        if (!has_timed && out->first_absorbing == kNoTangible) out->first_absorbing = t;
        for (std::size_t e = out->row_start.back(); e < out->target.size(); ++e) {
            entry_of[out->target[e]] = kNoEntry;
        }
        out->row_start.push_back(out->target.size());
    }

    const lts::StateId init = out->initial;
    if (init != lts::kNoState) {
        if (out->is_tangible(init)) {
            out->initial_distribution.emplace_back(out->tangible_of[init], 1.0);
        } else {
            for (std::size_t k = reach_begin[init]; k < reach_end[init]; ++k) {
                out->initial_distribution.emplace_back(pool_state[k], pool_prob[k]);
            }
        }
    }
    obs::counter("ctmc.skeleton.builds").add();
    span.arg("states", static_cast<double>(n));
    span.arg("vanishing", static_cast<double>(num_vanishing));
    span.arg("terms", static_cast<double>(out->terms.size()));
    return out;
}

/// See VanishingElimination::frequency_terms.  Per tangible row and per
/// slot of its timed transitions into vanishing states, unit mass enters
/// at their targets and is pushed through the vanishing subgraph in
/// topological order, each branch adding its share to its action's
/// coefficient.  A min-heap on the topological rank orders the states the
/// row reaches; a state pops only after every predecessor, so its mass is
/// complete, and its entries (one per path into it) merge as it pops.
/// Scratch beyond the terms is the ranks and the heap.
FrequencyTerms derive_frequency_terms(const VanishingElimination& elim,
                                      const lts::Lts& graph) {
    const std::size_t n = graph.num_states();
    DPMA_REQUIRE(elim.tangible_of.size() == n, "the graph does not match the elimination");
    DPMA_NAMED_SPAN(span, "ctmc.frequency_terms", "ctmc");
    std::vector<std::uint32_t> rank(n, 0);
    for (std::size_t i = 0; i < elim.vanishing_topo_order.size(); ++i) {
        rank[elim.vanishing_topo_order[i]] = static_cast<std::uint32_t>(i);
    }
    std::vector<char> timed(graph.slots().size(), 0);
    for (lts::SlotId slot = 0; slot < timed.size(); ++slot) {
        timed[slot] = std::holds_alternative<lts::RateExp>(graph.slots()[slot].rate) ? 1 : 0;
    }
    struct Mass {
        std::uint32_t rank;
        lts::StateId state;
        double mass;
    };
    const auto later = [](const Mass& x, const Mass& y) { return x.rank > y.rank; };
    std::vector<Mass> heap;
    const auto push = [&](lts::StateId v, double mass) {
        heap.push_back(Mass{rank[v], v, mass});
        std::push_heap(heap.begin(), heap.end(), later);
    };
    const auto pop = [&] {
        std::pop_heap(heap.begin(), heap.end(), later);
        const Mass top = heap.back();
        heap.pop_back();
        return top;
    };

    Accumulator acc(graph.actions()->size());
    std::vector<lts::SlotId> row_slots;
    // Hands every term of tangible row t to emit.
    const auto walk_row = [&](TangibleId t, auto&& emit) {
        const auto enters = [&](const lts::Transition& tr) {
            return timed[tr.slot] != 0 && !elim.is_tangible(tr.target);
        };
        const auto transitions = graph.out(elim.orig_of[t]);
        row_slots.clear();
        for (const lts::Transition& tr : transitions) {
            if (enters(tr) &&
                std::find(row_slots.begin(), row_slots.end(), tr.slot) == row_slots.end()) {
                row_slots.push_back(tr.slot);
            }
        }
        for (const lts::SlotId slot : row_slots) {
            for (const lts::Transition& tr : transitions) {
                if (tr.slot == slot && enters(tr)) push(tr.target, 1.0);
            }
            while (!heap.empty()) {
                Mass v = pop();
                while (!heap.empty() && heap.front().state == v.state) v.mass += pop().mass;
                for (const VanishingBranch& b : elim.branches_of(v.state)) {
                    const double mass = v.mass * b.probability;
                    acc.add(b.action, mass);
                    if (!elim.is_tangible(b.target)) push(b.target, mass);
                }
            }
            acc.drain([&](lts::ActionId a, double coefficient) {
                emit(FrequencyTerm{coefficient, slot, a});
            });
        }
    };
    // Counted first and then filled, so the table is allocated once at its
    // size: grown by doubling, it held up to three times that while the
    // first measure's worker built it.
    const std::size_t num_tangible = elim.orig_of.size();
    FrequencyTerms out;
    out.term_start.assign(num_tangible + 1, 0);
    for (TangibleId t = 0; t < num_tangible; ++t) {
        walk_row(t, [&](const FrequencyTerm&) { ++out.term_start[t + 1]; });
    }
    for (TangibleId t = 0; t < num_tangible; ++t) out.term_start[t + 1] += out.term_start[t];
    out.terms.resize(out.term_start.back());
    for (TangibleId t = 0; t < num_tangible; ++t) {
        std::size_t k = out.term_start[t];
        walk_row(t, [&](const FrequencyTerm& term) { out.terms[k++] = term; });
    }
    obs::counter("ctmc.frequency_terms.builds").add();
    span.arg("vanishing", static_cast<double>(elim.vanishing_topo_order.size()));
    span.arg("terms", static_cast<double>(out.terms.size()));
    return out;
}

}  // namespace

const FrequencyTerms& VanishingElimination::frequency_terms(const lts::Lts& graph) const {
    std::call_once(terms_once_, [&] { terms_ = derive_frequency_terms(*this, graph); });
    return terms_;
}

MarkovModel build_markov(const adl::ComposedModel& model, bool allow_absorbing) {
    const lts::Lts& graph = model.graph;
    DPMA_NAMED_SPAN(span, "ctmc.build_markov", "ctmc");
    span.arg("states", static_cast<double>(graph.num_states()));
    check_rates(graph);
    ImmediateSlots key = immediate_slots(graph);
    bool built = false;
    const std::shared_ptr<const Skeleton> skeleton = graph.memo<Skeleton>(
        [&](const Skeleton& held) { return held.key == key && held.initial == graph.initial(); },
        [&] {
            built = true;
            return eliminate(graph, std::move(key));
        });
    const Skeleton& sk = *skeleton;

    // Per slot its exponential rate; the first row that needs a slot's rate
    // positive, or an absorbing row, names the error a row-by-row build
    // would meet first.
    std::vector<double> rate_of(graph.slots().size(), 0.0);
    TangibleId bad_row = kNoTangible;
    for (lts::SlotId slot = 0; slot < rate_of.size(); ++slot) {
        if (const auto* exp_rate = std::get_if<lts::RateExp>(&graph.slots()[slot].rate)) {
            rate_of[slot] = exp_rate->rate;
            if (!(exp_rate->rate > 0.0)) bad_row = std::min(bad_row, sk.first_row_of_slot[slot]);
        }
    }
    if (!allow_absorbing && sk.first_absorbing < bad_row) {
        throw ModelError("absorbing tangible state found (deadlock): " +
                         model.state_label(sk.orig_of[sk.first_absorbing]));
    }
    DPMA_REQUIRE(bad_row == kNoTangible, "CTMC rates must be positive");

    // Each entry adds its terms in order.  Every term is +0 or more here
    // (its rate was checked), and 0 + x == x, so each sum is bit for bit the
    // one a row-by-row build starts at its first term.
    std::vector<RateEntry> entries(sk.target.size());
    for (std::size_t e = 0; e < entries.size(); ++e) entries[e] = RateEntry{sk.target[e], 0.0};
    for (const Term& term : sk.terms) {
        entries[term.entry].rate += rate_of[term.slot] * term.probability;
    }
    const std::size_t num_tangible = sk.orig_of.size();
    const std::size_t num_vanishing = sk.tangible_of.size() - num_tangible;
    const std::size_t num_entries = entries.size();
    MarkovModel out(Ctmc(sk.row_start, std::move(entries)), skeleton);

    obs::counter("ctmc.builds").add();
    obs::counter("ctmc.tangible_states").add(num_tangible);
    obs::counter("ctmc.vanishing_eliminated").add(num_vanishing);
    obs::counter("ctmc.generator_entries").add(num_entries);
    span.arg("tangible", static_cast<double>(num_tangible));
    span.arg("vanishing", static_cast<double>(num_vanishing));
    span.arg("generator_entries", static_cast<double>(num_entries));
    span.arg("skeleton_built", built ? 1.0 : 0.0);

    DPMA_REQUIRE(sk.initial != lts::kNoState, "composed model has no initial state");
    return out;
}

}  // namespace dpma::ctmc
