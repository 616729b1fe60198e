#include "analysis/flow/transparency.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "adl/compose.hpp"
#include "analysis/flow/cfg.hpp"
#include "analysis/flow/fixpoint.hpp"
#include "core/error.hpp"
#include "lts/ops.hpp"
#include "noninterference/noninterference.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dpma::analysis::flow {
namespace {

struct HighLabel {
    std::string text;
    std::string from_instance;
    std::string from_action;
    std::string to_instance;  // empty unless a sync label
    std::string to_action;
    bool sync = false;
};

HighLabel parse_high_label(const std::string& label) {
    HighLabel out;
    out.text = label;
    const auto split_dot = [&label](const std::string& part, std::string& instance,
                                    std::string& action) {
        const std::size_t dot = part.find('.');
        DPMA_REQUIRE(dot != std::string::npos && dot > 0 && dot + 1 < part.size(),
                     "malformed high label '" + label + "' (want I.a or I.a#J.b)");
        instance = part.substr(0, dot);
        action = part.substr(dot + 1);
    };
    const std::size_t hash = label.find('#');
    if (hash == std::string::npos) {
        split_dot(label, out.from_instance, out.from_action);
    } else {
        out.sync = true;
        split_dot(label.substr(0, hash), out.from_instance, out.from_action);
        split_dot(label.substr(hash + 1), out.to_instance, out.to_action);
    }
    return out;
}

std::string attachment_label(const adl::Attachment& attachment) {
    return attachment.from_instance + "." + attachment.from_port + "#" +
           attachment.to_instance + "." + attachment.to_port;
}

/// Per-seed tainted CFG region: reachable after a high edge but not
/// reachable without one.  Interaction ports fired from the region are the
/// channels through which the DPM's activity leaks out of the seed.
std::unordered_set<std::string> suspect_ports(const Cfg& cfg,
                                              const std::unordered_set<std::string>& high) {
    const auto reach = [&cfg](std::span<const std::uint32_t> seeds,
                              const std::unordered_set<std::string>* skip) {
        std::vector<char> seen(cfg.num_nodes, 0);
        for (const std::uint32_t s : seeds) seen[s] = 1;
        run_fixpoint(cfg.num_nodes, seeds, [&](std::uint32_t node, Worklist& worklist) {
            for (const std::uint32_t e : cfg.out(node)) {
                if (skip != nullptr && skip->contains(cfg.edges[e].action->name)) continue;
                const std::uint32_t target = cfg.edges[e].to;
                if (seen[target] == 0) {
                    seen[target] = 1;
                    worklist.push(target);
                }
            }
        });
        return seen;
    };
    if (cfg.entry.empty()) return {};
    const std::uint32_t entry[] = {cfg.entry[0]};
    const std::vector<char> without_high = reach(entry, &high);
    std::vector<std::uint32_t> post_high;
    for (const CfgEdge& edge : cfg.edges) {
        if (high.contains(edge.action->name)) post_high.push_back(edge.to);
    }
    const std::vector<char> after_high = reach(post_high, nullptr);

    std::unordered_set<std::string> ports;
    for (const CfgEdge& edge : cfg.edges) {
        if (edge.port == PortKind::Internal) continue;
        if (after_high[edge.from] != 0 && without_high[edge.from] == 0) {
            ports.insert(edge.action->name);
        }
    }
    return ports;
}

/// Budget for the slice product; compose also applies it to every local
/// LTS it unfolds.  Exceeding it makes the verdict Inconclusive.
constexpr std::size_t kMaxSliceStates = 50'000;

/// The slice as an architecture of its own, plus its interface: the labels
/// of the attachments that leave the slice.
struct Slice {
    adl::ArchiType archi;
    std::vector<std::string> interface;
};

/// Builds the sub-architecture of \p members: the members with their
/// element types, every attachment with an end inside the slice, and one
/// environment instance per outside partner, named after that partner.  An
/// environment keeps offering each of its boundary ports at a passive rate,
/// so a boundary port fires whenever its member offers it, at the member's
/// rate, under the attachment's composed label "I.a#J.b".
Slice slice_of(const adl::ArchiType& archi, const std::vector<std::size_t>& members) {
    Slice slice;
    adl::ArchiType& sub = slice.archi;
    sub.name = archi.name;
    std::unordered_set<std::string> inside;
    std::unordered_map<std::string, std::size_t> environments;  // partner -> type index
    for (const std::size_t m : members) {
        const adl::Instance& instance = archi.instances[m];
        inside.insert(instance.name);
        sub.instances.push_back(instance);
        const adl::ElemType* type = archi.find_type(instance.type);
        if (type != nullptr && sub.find_type(type->name) == nullptr) {
            sub.elem_types.push_back(*type);
        }
    }
    for (const adl::Attachment& attachment : archi.attachments) {
        const bool from_inside = inside.contains(attachment.from_instance);
        const bool to_inside = inside.contains(attachment.to_instance);
        if (!from_inside && !to_inside) continue;
        sub.attachments.push_back(attachment);
        if (from_inside && to_inside) continue;

        const std::string& partner =
            from_inside ? attachment.to_instance : attachment.from_instance;
        const std::string& port = from_inside ? attachment.to_port : attachment.from_port;
        const auto [at, fresh] = environments.try_emplace(partner, sub.elem_types.size());
        if (fresh) {
            adl::ElemType type;
            type.name = "environment " + partner;  // the space keeps it off parsed names
            type.behaviors.push_back(adl::BehaviorDef{"Ready", {}, {}});
            sub.instances.push_back(adl::Instance{partner, type.name, {}});
            sub.elem_types.push_back(std::move(type));
        }
        adl::ElemType& environment = sub.elem_types[at->second];
        (from_inside ? environment.input_interactions : environment.output_interactions)
            .push_back(port);
        environment.behaviors.front().alternatives.push_back(adl::Alternative{
            nullptr, {adl::Action{port, lts::RatePassive{}}}, adl::BehaviorCall{"Ready", {}}});
        slice.interface.push_back(attachment_label(attachment));
    }
    return slice;
}

struct SliceCheck {
    bool passed = false;
    bool high_occurs = false;
    std::size_t states = 0;
};

/// Composes the slice with adl::compose and runs the observer-relative
/// noninterference check with the slice's interface as the observer.
/// Throws ModelError when compose refuses the slice (state budget).
SliceCheck check_slice(const Slice& slice, const std::vector<std::string>& high_labels) {
    const adl::ComposedModel model =
        adl::compose(slice.archi, adl::ComposeOptions{.max_states = kMaxSliceStates});
    const lts::Lts& product = model.graph;
    SliceCheck result;
    result.states = product.num_states();

    lts::ActionSet high;
    for (const std::string& label : high_labels) {
        const Symbol s = product.actions()->find(label);
        if (s != kNoSymbol) high.insert(s);
    }
    // compose interns the label of every local transition, fired or not, so
    // only the product's transitions tell whether a high label can fire.
    const auto transitions = product.transitions();
    result.high_occurs =
        std::any_of(transitions.begin(), transitions.end(),
                    [&high](const lts::Transition& t) { return high.contains(t.action); });
    if (!result.high_occurs) return result;

    lts::ActionSet interface;
    for (const std::string& label : slice.interface) {
        const Symbol s = product.actions()->find(label);
        if (s != kNoSymbol) interface.insert(s);
    }
    result.passed = noninterference::check(product, high, interface).noninterfering;
    return result;
}

std::vector<std::string> names_of(const adl::ArchiType& archi,
                                  const std::vector<std::size_t>& members) {
    std::vector<std::string> names;
    names.reserve(members.size());
    for (const std::size_t m : members) names.push_back(archi.instances[m].name);
    return names;
}

std::string join_names(const std::vector<std::string>& names) {
    std::string out;
    for (const std::string& name : names) {
        if (!out.empty()) out += ", ";
        out += name;
    }
    return out;
}

}  // namespace

const char* verdict_name(TransparencyVerdict verdict) {
    switch (verdict) {
        case TransparencyVerdict::Transparent: return "transparent";
        case TransparencyVerdict::Leaks: return "leaks";
        case TransparencyVerdict::Inconclusive: return "inconclusive";
    }
    return "?";
}

TransparencyResult analyze_transparency(const adl::ArchiType& archi,
                                        const TransparencyOptions& options) {
    DPMA_NAMED_SPAN(span, "analysis.transparency", "analysis");
    static obs::Counter& proved = obs::counter("analysis.transparency.proved");
    static obs::Counter& inconclusive = obs::counter("analysis.transparency.inconclusive");
    static obs::Counter& leaks = obs::counter("analysis.transparency.leaks");

    DPMA_REQUIRE(!options.high_labels.empty(),
                 "transparency analysis needs at least one high label");
    DPMA_REQUIRE(archi.find_instance(options.low_instance) != nullptr,
                 "unknown low instance: " + options.low_instance);

    const auto instance_index = [&archi](const std::string& name) {
        for (std::size_t i = 0; i < archi.instances.size(); ++i) {
            if (archi.instances[i].name == name) return i;
        }
        throw ModelError("high label names unknown instance '" + name + "'");
    };

    // Seeds: every instance a high label touches, plus its per-instance set
    // of high action names (for the taint regions).
    std::vector<std::size_t> seeds;
    std::unordered_map<std::size_t, std::unordered_set<std::string>> high_actions;
    for (const std::string& text : options.high_labels) {
        const HighLabel label = parse_high_label(text);
        const std::size_t from = instance_index(label.from_instance);
        high_actions[from].insert(label.from_action);
        seeds.push_back(from);
        if (label.sync) {
            const std::size_t to = instance_index(label.to_instance);
            high_actions[to].insert(label.to_action);
            seeds.push_back(to);
        }
    }
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

    TransparencyResult result;
    const std::size_t low = instance_index(options.low_instance);
    if (std::find(seeds.begin(), seeds.end(), low) != seeds.end()) {
        result.verdict = TransparencyVerdict::Inconclusive;
        result.reason = "a high label synchronises directly with the low observer '" +
                        options.low_instance + "'";
        inconclusive.add();
        return result;
    }

    // CFGs of the element types the taint pass needs.
    std::unordered_map<const adl::ElemType*, Cfg> cfgs;
    const auto cfg_of = [&archi, &cfgs](std::size_t instance) -> const Cfg* {
        const adl::ElemType* type = archi.find_type(archi.instances[instance].type);
        if (type == nullptr) return nullptr;
        const auto found = cfgs.find(type);
        if (found != cfgs.end()) return &found->second;
        return &cfgs.emplace(type, build_cfg(*type)).first->second;
    };

    // Taint flood over the attachment graph.  Seeds propagate only through
    // ports fired from their tainted region; every other tainted instance
    // propagates through all of its attachments (synchronisation carries
    // influence in both directions).
    const std::size_t num_instances = archi.instances.size();
    std::vector<char> tainted(num_instances, 0);
    std::vector<std::size_t> parent(num_instances, SIZE_MAX);
    std::vector<std::string> parent_label(num_instances);
    std::vector<std::uint32_t> flood_seeds;
    for (const std::size_t seed : seeds) {
        tainted[seed] = 1;
        flood_seeds.push_back(static_cast<std::uint32_t>(seed));
    }
    std::vector<std::unordered_set<std::string>> seed_ports(num_instances);
    for (const std::size_t seed : seeds) {
        const Cfg* cfg = cfg_of(seed);
        if (cfg != nullptr) seed_ports[seed] = suspect_ports(*cfg, high_actions[seed]);
    }
    run_fixpoint(num_instances, flood_seeds, [&](std::uint32_t node, Worklist& worklist) {
        const std::string& name = archi.instances[node].name;
        const bool seed = std::find(seeds.begin(), seeds.end(), node) != seeds.end();
        for (const adl::Attachment& attachment : archi.attachments) {
            std::size_t other = SIZE_MAX;
            const std::string* port = nullptr;
            if (attachment.from_instance == name) {
                port = &attachment.from_port;
                const auto* to = archi.find_instance(attachment.to_instance);
                if (to != nullptr) other = static_cast<std::size_t>(to - archi.instances.data());
            } else if (attachment.to_instance == name) {
                port = &attachment.to_port;
                const auto* from = archi.find_instance(attachment.from_instance);
                if (from != nullptr) {
                    other = static_cast<std::size_t>(from - archi.instances.data());
                }
            } else {
                continue;
            }
            if (other == SIZE_MAX || tainted[other] != 0) continue;
            if (seed && !seed_ports[node].contains(*port)) continue;
            tainted[other] = 1;
            parent[other] = node;
            parent_label[other] = attachment_label(attachment);
            worklist.push(static_cast<std::uint32_t>(other));
        }
    });

    // Stage 1: the seed slice.
    std::string failure;
    bool gave_up = false;  // compose refused the last slice
    const auto attempt = [&](const std::vector<std::size_t>& members) -> bool {
        result.slice_instances = names_of(archi, members);
        result.slice_states = 0;
        SliceCheck check;
        try {
            check = check_slice(slice_of(archi, members), options.high_labels);
        } catch (const ModelError& error) {
            failure = error.what();
            gave_up = true;
            return false;
        }
        gave_up = false;
        result.slice_states = check.states;
        if (!check.high_occurs) {
            failure = "no high label can fire inside the slice";
            return false;
        }
        if (!check.passed) {
            failure = "slice {" + join_names(result.slice_instances) +
                      "} distinguishes hiding from removing the high actions";
            return false;
        }
        return true;
    };

    bool passed = attempt(seeds);
    if (!passed) {
        std::vector<std::size_t> grown;
        for (std::size_t i = 0; i < num_instances; ++i) {
            if (tainted[i] != 0 && i != low) grown.push_back(i);
        }
        if (grown != seeds) passed = attempt(grown);
    }
    span.arg("slice_states", static_cast<double>(result.slice_states));
    if (passed) {
        result.verdict = TransparencyVerdict::Transparent;
        result.reason = "proved on slice {" + join_names(result.slice_instances) + "} (" +
                        std::to_string(result.slice_states) +
                        " product states, interface visible); weak bisimilarity is a "
                        "congruence for composition and hiding, so the verdict lifts "
                        "to the full architecture";
        proved.add();
        return result;
    }

    if (tainted[low] != 0 && !gave_up) {
        // Reconstruct the interaction chain seed -> low.
        std::vector<std::string> chain;
        for (std::size_t at = low; parent[at] != SIZE_MAX; at = parent[at]) {
            chain.push_back(parent_label[at]);
        }
        std::reverse(chain.begin(), chain.end());
        result.verdict = TransparencyVerdict::Leaks;
        result.leak_chain = std::move(chain);
        std::string via;
        for (const std::string& link : result.leak_chain) {
            if (!via.empty()) via += " -> ";
            via += link;
        }
        result.reason = failure + "; tainted interactions reach the low observer via " +
                        (via.empty() ? std::string("a direct attachment") : via);
        leaks.add();
        return result;
    }

    result.verdict = TransparencyVerdict::Inconclusive;
    result.reason = failure;
    inconclusive.add();
    return result;
}

}  // namespace dpma::analysis::flow
