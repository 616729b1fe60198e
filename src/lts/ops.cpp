#include "lts/ops.hpp"

#include <algorithm>
#include <bit>
#include <deque>

#include "core/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dpma::lts {
namespace {

/// Tau-SCC condensation of \p model (iterative Tarjan over tau edges only).
///
/// SCC ids are assigned in Tarjan pop order, which is *reverse topological*
/// order of the condensation DAG: an SCC is popped only after every SCC
/// reachable from it, so a tau edge between distinct SCCs c -> d always has
/// d < c.  Both the collapse pre-pass and the bitset saturation rely on
/// processing ids ascending to see successors first.
struct TauCondensation {
    std::vector<StateId> scc_of;
    StateId num_sccs = 0;
    /// Members of SCC c, ascending: members[member_off[c] .. member_off[c+1]).
    std::vector<std::uint32_t> member_off;
    std::vector<StateId> members;
};

TauCondensation tau_condensation(const Lts& model) {
    const ActionId tau = model.actions()->tau();
    const std::size_t n = model.num_states();

    std::vector<int> index(n, -1);
    std::vector<int> lowlink(n, 0);
    std::vector<char> on_stack(n, 0);
    std::vector<StateId> stack;
    TauCondensation cond;
    cond.scc_of.assign(n, kNoState);
    int next_index = 0;

    struct Frame {
        StateId v;
        std::size_t child = 0;
    };
    std::vector<Frame> frames;  // empty between roots
    for (StateId root = 0; root < n; ++root) {
        if (index[root] != -1) continue;
        frames.push_back(Frame{root, 0});
        index[root] = lowlink[root] = next_index++;
        stack.push_back(root);
        on_stack[root] = 1;
        while (!frames.empty()) {
            Frame& frame = frames.back();
            const StateId v = frame.v;
            const auto out = model.out(v);
            if (frame.child < out.size()) {
                const Transition& t = out[frame.child++];
                if (t.action != tau) continue;
                const StateId w = t.target;
                if (index[w] == -1) {
                    index[w] = lowlink[w] = next_index++;
                    stack.push_back(w);
                    on_stack[w] = 1;
                    frames.push_back(Frame{w, 0});
                } else if (on_stack[w]) {
                    lowlink[v] = std::min(lowlink[v], index[w]);
                }
                continue;
            }
            if (lowlink[v] == index[v]) {
                while (true) {
                    const StateId w = stack.back();
                    stack.pop_back();
                    on_stack[w] = 0;
                    cond.scc_of[w] = cond.num_sccs;
                    if (w == v) break;
                }
                ++cond.num_sccs;
            }
            frames.pop_back();
            if (!frames.empty()) {
                const StateId parent = frames.back().v;
                lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
            }
        }
    }
    cond.member_off.assign(cond.num_sccs + 1, 0);
    for (StateId s = 0; s < n; ++s) ++cond.member_off[cond.scc_of[s] + 1];
    for (StateId c = 0; c < cond.num_sccs; ++c) cond.member_off[c + 1] += cond.member_off[c];
    cond.members.resize(n);
    std::vector<std::uint32_t> cursor(cond.member_off.begin(), cond.member_off.end() - 1);
    for (StateId s = 0; s < n; ++s) cond.members[cursor[cond.scc_of[s]]++] = s;
    return cond;
}

}  // namespace

Lts hide(const Lts& model, const ActionSet& actions) {
    const ActionId tau = model.actions()->tau();
    LtsBuilder out(model.actions());
    SlotRemap slot_of(model, out);
    for (StateId s = 0; s < model.num_states(); ++s) out.add_state();
    out.reserve_transitions(model.num_transitions());
    for (StateId s = 0; s < model.num_states(); ++s) {
        for (const Transition& t : model.out(s)) {
            const ActionId label = actions.contains(t.action) ? tau : t.action;
            out.add_slot_transition(s, slot_of(t.slot, label), t.target);
        }
    }
    if (model.initial() != kNoState) out.set_initial(model.initial());
    return std::move(out).build();
}

Lts restrict_actions(const Lts& model, const ActionSet& actions) {
    LtsBuilder out(model.actions());
    SlotRemap slot_of(model, out);
    for (StateId s = 0; s < model.num_states(); ++s) out.add_state();
    out.reserve_transitions(model.num_transitions());
    for (StateId s = 0; s < model.num_states(); ++s) {
        for (const Transition& t : model.out(s)) {
            if (!actions.contains(t.action)) {
                out.add_slot_transition(s, slot_of(t.slot, t.action), t.target);
            }
        }
    }
    if (model.initial() != kNoState) out.set_initial(model.initial());
    return std::move(out).build();
}

Lts reachable_part(const Lts& model) {
    DPMA_REQUIRE(model.initial() != kNoState, "reachable_part needs an initial state");
    std::vector<StateId> remap(model.num_states(), kNoState);
    LtsBuilder out(model.actions());
    SlotRemap slot_of(model, out);
    out.reserve_transitions(model.num_transitions());
    std::deque<StateId> queue{model.initial()};
    remap[model.initial()] = out.add_state();
    out.set_initial(remap[model.initial()]);
    std::vector<StateId> order{model.initial()};
    while (!queue.empty()) {
        const StateId u = queue.front();
        queue.pop_front();
        for (const Transition& t : model.out(u)) {
            if (remap[t.target] == kNoState) {
                remap[t.target] = out.add_state();
                queue.push_back(t.target);
                order.push_back(t.target);
            }
        }
    }
    for (StateId u : order) {
        for (const Transition& t : model.out(u)) {
            out.add_slot_transition(remap[u], slot_of(t.slot, t.action), remap[t.target]);
        }
    }
    return std::move(out).build();
}

std::vector<StateId> deadlock_states(const Lts& model) {
    std::vector<StateId> out;
    for (StateId s = 0; s < model.num_states(); ++s) {
        if (model.out(s).empty()) out.push_back(s);
    }
    return out;
}

TauCollapseResult collapse_tau_sccs(const Lts& model) {
    const ActionId tau = model.actions()->tau();
    TauCondensation cond = tau_condensation(model);
    const StateId num_sccs = cond.num_sccs;
    const std::vector<StateId>& representative_of = cond.scc_of;

    LtsBuilder collapsed(model.actions());
    for (StateId c = 0; c < num_sccs; ++c) collapsed.add_state();
    // Condensed edges, one SCC at a time in SCC order (members ascending),
    // each kept at its first occurrence; tau self-edges vanish by
    // construction.  Keys pack (action, target) into 64 bits — exact, since
    // both ids are 32-bit.  Sorting the SCC's (key, index) pairs puts equal
    // keys next to each other with the first occurrence in front, so every
    // later copy is marked and the rest are emitted in index order.
    std::vector<std::uint64_t> keys;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> sorted;
    std::vector<char> first;
    for (StateId c = 0; c < num_sccs; ++c) {
        keys.clear();
        for (std::uint32_t idx = cond.member_off[c]; idx < cond.member_off[c + 1]; ++idx) {
            for (const Transition& t : model.out(cond.members[idx])) {
                const StateId to = representative_of[t.target];
                if (t.action == tau && c == to) continue;
                keys.push_back((static_cast<std::uint64_t>(t.action) << 32) | to);
            }
        }
        sorted.clear();
        for (std::size_t k = 0; k < keys.size(); ++k) {
            sorted.emplace_back(keys[k], static_cast<std::uint32_t>(k));
        }
        std::sort(sorted.begin(), sorted.end());
        first.assign(keys.size(), 1);
        for (std::size_t j = 1; j < sorted.size(); ++j) {
            if (sorted[j].first == sorted[j - 1].first) first[sorted[j].second] = 0;
        }
        for (std::size_t k = 0; k < keys.size(); ++k) {
            if (!first[k]) continue;
            collapsed.add_transition(c, static_cast<ActionId>(keys[k] >> 32),
                                     static_cast<StateId>(keys[k] & 0xFFFFFFFFu));
        }
    }
    if (model.initial() != kNoState) {
        collapsed.set_initial(representative_of[model.initial()]);
    }
    return TauCollapseResult{std::move(collapsed).build(), std::move(cond.scc_of)};
}

Lts saturate(const Lts& model) {
    DPMA_NAMED_SPAN(span, "lts.saturate", "lts");
    const ActionId tau = model.actions()->tau();
    const std::size_t n = model.num_states();
    span.arg("states", static_cast<double>(n));
    LtsBuilder out(model.actions());
    for (StateId s = 0; s < n; ++s) out.add_state();
    if (model.initial() != kNoState) out.set_initial(model.initial());
    if (n == 0) return std::move(out).build();

    const TauCondensation cond = tau_condensation(model);
    const StateId num_sccs = cond.num_sccs;
    const std::size_t words = (static_cast<std::size_t>(num_sccs) + 63) / 64;

    const std::vector<std::uint32_t>& scc_off = cond.member_off;
    const std::vector<StateId>& scc_members = cond.members;

    // Deduplicated tau edges of the condensation DAG, sorted by source.
    std::vector<std::uint64_t> tau_edges;
    for (StateId s = 0; s < n; ++s) {
        const StateId from = cond.scc_of[s];
        for (const Transition& t : model.out(s)) {
            if (t.action != tau) continue;
            const StateId to = cond.scc_of[t.target];
            if (to != from) {
                tau_edges.push_back((static_cast<std::uint64_t>(from) << 32) | to);
            }
        }
    }
    std::sort(tau_edges.begin(), tau_edges.end());
    tau_edges.erase(std::unique(tau_edges.begin(), tau_edges.end()), tau_edges.end());

    // Reflexive tau closure as one bitset row per SCC — num_sccs^2 bits in
    // total, not the per-state id vectors of the old implementation.  Every
    // SCC reachable from c has a smaller id (reverse topological numbering),
    // so a single ascending pass sees complete successor rows, and the rows
    // it ORs in have no bits above c.
    std::vector<std::uint64_t> closure(words * num_sccs, 0);
    {
        std::size_t e = 0;
        for (StateId c = 0; c < num_sccs; ++c) {
            std::uint64_t* row = closure.data() + static_cast<std::size_t>(c) * words;
            row[c >> 6] |= std::uint64_t{1} << (c & 63);
            for (; e < tau_edges.size() && (tau_edges[e] >> 32) == c; ++e) {
                const auto d = static_cast<StateId>(tau_edges[e] & 0xFFFFFFFFu);
                const std::uint64_t* src =
                    closure.data() + static_cast<std::size_t>(d) * words;
                for (std::size_t w = 0; w <= (c >> 6); ++w) row[w] |= src[w];
            }
        }
    }

    const auto for_each_closure_scc = [&](StateId c, auto&& fn) {
        const std::uint64_t* row = closure.data() + static_cast<std::size_t>(c) * words;
        for (std::size_t w = 0; w <= (static_cast<std::size_t>(c) >> 6); ++w) {
            std::uint64_t bits = row[w];
            while (bits != 0) {
                fn(static_cast<StateId>(w * 64 + std::countr_zero(bits)));
                bits &= bits - 1;
            }
        }
    };

    // Weak visible moves per SCC, packed (action << 32 | target state),
    // sorted and deduplicated; each SCC inherits its tau successors' moves
    // (complete by the same ordering argument) and adds its members' visible
    // steps followed by any tau descent from the landing SCC.  Only the
    // direct entries need sorting — inherited lists are already sorted and
    // are folded in with linear merges.
    std::vector<std::vector<std::uint64_t>> weak_visible(num_sccs);
    std::vector<std::uint32_t> closure_size(num_sccs, 0);
    {
        std::vector<std::uint64_t> direct;
        std::vector<std::uint64_t> acc;
        std::vector<std::uint64_t> merged;
        std::size_t e = 0;
        for (StateId c = 0; c < num_sccs; ++c) {
            direct.clear();
            for (std::uint32_t idx = scc_off[c]; idx < scc_off[c + 1]; ++idx) {
                for (const Transition& t : model.out(scc_members[idx])) {
                    if (t.action == tau) continue;
                    const std::uint64_t key = static_cast<std::uint64_t>(t.action) << 32;
                    for_each_closure_scc(cond.scc_of[t.target], [&](StateId f) {
                        for (std::uint32_t j = scc_off[f]; j < scc_off[f + 1]; ++j) {
                            direct.push_back(key | scc_members[j]);
                        }
                    });
                }
            }
            std::sort(direct.begin(), direct.end());
            direct.erase(std::unique(direct.begin(), direct.end()), direct.end());
            acc.swap(direct);
            for (; e < tau_edges.size() && (tau_edges[e] >> 32) == c; ++e) {
                const auto d = static_cast<StateId>(tau_edges[e] & 0xFFFFFFFFu);
                const std::vector<std::uint64_t>& inherited = weak_visible[d];
                if (inherited.empty()) continue;
                merged.clear();
                merged.reserve(acc.size() + inherited.size());
                std::merge(acc.begin(), acc.end(), inherited.begin(), inherited.end(),
                           std::back_inserter(merged));
                merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
                acc.swap(merged);
            }
            weak_visible[c].assign(acc.begin(), acc.end());
            std::uint32_t reach = 0;
            for_each_closure_scc(
                c, [&](StateId f) { reach += scc_off[f + 1] - scc_off[f]; });
            closure_size[c] = reach;
        }
    }

    // Emit per original state: the reflexive weak-tau row (all states of all
    // closure SCCs), then the weak visible moves.  The reserve is exact.
    std::size_t total = 0;
    for (StateId s = 0; s < n; ++s) {
        const StateId c = cond.scc_of[s];
        total += closure_size[c] + weak_visible[c].size();
    }
    out.reserve_transitions(total);
    for (StateId s = 0; s < n; ++s) {
        const StateId c = cond.scc_of[s];
        for_each_closure_scc(c, [&](StateId f) {
            for (std::uint32_t j = scc_off[f]; j < scc_off[f + 1]; ++j) {
                out.add_transition(s, tau, scc_members[j]);
            }
        });
        for (const std::uint64_t move : weak_visible[c]) {
            out.add_transition(s, static_cast<ActionId>(move >> 32),
                               static_cast<StateId>(move & 0xFFFFFFFFu));
        }
    }
    obs::counter("lts.saturate.weak_transitions").add(total);
    span.arg("weak_transitions", static_cast<double>(total));
    return std::move(out).build();
}

UnionResult disjoint_union(const Lts& lhs, const Lts& rhs) {
    DPMA_REQUIRE(lhs.initial() != kNoState && rhs.initial() != kNoState,
                 "disjoint_union needs rooted systems");
    auto table = std::make_shared<ActionTable>();
    LtsBuilder combined(table);
    combined.reserve_transitions(lhs.num_transitions() + rhs.num_transitions());

    const auto import = [&](const Lts& src, StateId offset) {
        for (StateId s = 0; s < src.num_states(); ++s) combined.add_state();
        // Remap action ids once per side instead of re-interning the label
        // string of every transition.
        const ActionTable& src_actions = *src.actions();
        std::vector<ActionId> remap(src_actions.size());
        for (ActionId a = 0; a < remap.size(); ++a) {
            remap[a] = table->intern(src_actions.name(a));
        }
        SlotRemap slot_of(src, combined);
        for (StateId s = 0; s < src.num_states(); ++s) {
            for (const Transition& t : src.out(s)) {
                combined.add_slot_transition(offset + s, slot_of(t.slot, remap[t.action]),
                                             offset + t.target);
            }
        }
    };

    import(lhs, 0);
    const auto rhs_offset = static_cast<StateId>(lhs.num_states());
    import(rhs, rhs_offset);

    combined.set_initial(lhs.initial());
    return UnionResult{std::move(combined).build(), lhs.initial(),
                       static_cast<StateId>(rhs_offset + rhs.initial())};
}

ActionSet make_action_set(const Lts& model, const std::vector<std::string>& names) {
    ActionSet set;
    for (const std::string& name : names) {
        set.insert(model.actions()->intern(name));
    }
    return set;
}

}  // namespace dpma::lts
