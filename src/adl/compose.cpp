#include "adl/compose.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>

#include "core/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dpma::adl {
namespace {

/// Combines the rates of the two parties of a synchronisation.  Exactly one
/// party may be non-passive; two functional (unspecified) parties are also
/// legal since no timing has to be decided.
lts::Rate combine_rates(const lts::Rate& out_rate, const lts::Rate& in_rate,
                        const std::string& label) {
    const bool out_passive = lts::is_passive(out_rate);
    const bool in_passive = lts::is_passive(in_rate);
    if (out_passive && in_passive) {
        // Two passive parties stay passive (EMPA): legal in untimed
        // specifications, where `_' annotates every action; the Markovian
        // and simulation layers reject any passive transition that survives
        // to them.
        return lts::RatePassive{};
    }
    if (out_passive) return in_rate;
    if (in_passive) return out_rate;
    const bool out_unspec = std::holds_alternative<lts::RateUnspecified>(out_rate);
    const bool in_unspec = std::holds_alternative<lts::RateUnspecified>(in_rate);
    if (out_unspec && in_unspec) return lts::RateUnspecified{};
    throw ModelError("synchronisation " + label + " has two active parties");
}

/// How a local transition of an instance participates in the composition.
enum class ParticipationKind : std::uint8_t {
    Internal,     ///< fires alone
    SyncInitiator,///< output attached to a partner input; fires with partner
    SyncFollower, ///< input attached: fired from the initiator's side
    Blocked,      ///< unattached interaction: never fires
};

struct Participation {
    ParticipationKind kind = ParticipationKind::Internal;
    std::uint32_t partner_instance = 0;  // SyncInitiator only
    Symbol partner_action = kNoSymbol;   // SyncInitiator only
    lts::ActionId label = kNoSymbol;     // Internal / SyncInitiator: global label
    std::string label_text;
    lts::SlotId slot = lts::kNoSlot;  // Internal: global rate slot, on first use
    std::uint32_t sync_row = 0;       // SyncInitiator: its row of sync_slot
};

struct VecHash {
    std::size_t operator()(const std::vector<std::uint32_t>& v) const noexcept {
        std::size_t h = 0xcbf29ce484222325ull;
        for (std::uint32_t x : v) {
            h ^= x;
            h *= 0x100000001b3ull;
        }
        return h;
    }
};

}  // namespace

LocalLts build_local_lts(const ElemType& type, std::span<const long> args,
                         lts::ActionTable& actions, std::size_t max_states) {
    LocalLts local;
    using Key = std::pair<std::size_t, std::vector<long>>;  // (behaviour idx, args)
    std::map<Key, std::uint32_t> head_states;

    // Name -> behaviour index, built once per type; alternatives resolve
    // their continuation against this instead of a linear scan per dequeue.
    std::unordered_map<std::string, std::size_t> behavior_by_name;
    behavior_by_name.reserve(type.behaviors.size());
    for (std::size_t i = 0; i < type.behaviors.size(); ++i) {
        behavior_by_name.emplace(type.behaviors[i].name, i);
    }
    const auto behavior_index = [&](const std::string& name) -> std::size_t {
        const auto it = behavior_by_name.find(name);
        if (it == behavior_by_name.end()) {
            throw ModelError("unknown behaviour " + name + " in type " + type.name);
        }
        return it->second;
    };

    const auto state_label = [&](const BehaviorDef& b, std::span<const long> a) {
        std::string text = b.name;
        if (!a.empty()) {
            text += '(';
            for (std::size_t i = 0; i < a.size(); ++i) {
                if (i != 0) text += ',';
                text += std::to_string(a[i]);
            }
            text += ')';
        }
        return text;
    };

    std::deque<Key> queue;
    const auto intern_head = [&](Key key) -> std::uint32_t {
        if (auto it = head_states.find(key); it != head_states.end()) return it->second;
        if (local.out.size() >= max_states) {
            throw ModelError("local state space of type " + type.name + " exceeds " +
                             std::to_string(max_states) +
                             " states (unbounded behaviour parameter?)");
        }
        const auto id = static_cast<std::uint32_t>(local.out.size());
        local.out.emplace_back();
        local.state_names.push_back(
            state_label(type.behaviors[key.first], key.second));
        head_states.emplace(key, id);
        queue.push_back(std::move(key));
        return id;
    };

    local.initial =
        intern_head(Key{0, std::vector<long>(args.begin(), args.end())});

    while (!queue.empty()) {
        Key key = std::move(queue.front());
        queue.pop_front();
        const std::uint32_t state = head_states.at(key);
        const BehaviorDef& behavior = type.behaviors[key.first];
        const std::span<const long> params(key.second);

        for (const Alternative& alt : behavior.alternatives) {
            if (alt.guard != nullptr && !alt.guard->eval(params)) continue;

            // Resolve the continuation first, then thread the action chain
            // through fresh anonymous states.
            std::vector<long> cont_args;
            cont_args.reserve(alt.continuation.args.size());
            for (const ExprPtr& e : alt.continuation.args) {
                cont_args.push_back(e->eval(params));
            }
            const std::uint32_t cont_state =
                intern_head(Key{behavior_index(alt.continuation.behavior),
                                std::move(cont_args)});

            std::uint32_t from = state;
            for (std::size_t i = 0; i < alt.actions.size(); ++i) {
                const Action& act = alt.actions[i];
                std::uint32_t to;
                if (i + 1 == alt.actions.size()) {
                    to = cont_state;
                } else {
                    if (local.out.size() >= max_states) {
                        throw ModelError("local state space of type " + type.name +
                                         " exceeds " + std::to_string(max_states) + " states");
                    }
                    to = static_cast<std::uint32_t>(local.out.size());
                    local.out.emplace_back();
                    local.state_names.push_back(local.state_names[state] + "/" + act.name);
                }
                local.out[from].push_back(
                    LocalLts::LocalTransition{actions.intern(act.name), act.rate, to});
                from = to;
            }
        }
    }
    return local;
}

std::size_t ComposedModel::instance_index(const std::string& name) const {
    for (std::size_t i = 0; i < instance_names.size(); ++i) {
        if (instance_names[i] == name) return i;
    }
    throw ModelError("unknown instance " + name);
}

const std::string& ComposedModel::local_label(lts::StateId state,
                                              std::size_t instance) const {
    DPMA_REQUIRE(static_cast<std::size_t>(state) * instance_names.size() <
                     locals->states.size(),
                 "state out of range");
    DPMA_REQUIRE(instance < instance_names.size(), "instance out of range");
    return locals->names[instance][local_state(state, instance)];
}

std::string ComposedModel::state_label(lts::StateId state) const {
    std::string text;
    for (std::size_t i = 0; i < instance_names.size(); ++i) {
        if (i != 0) text += " | ";
        text += instance_names[i] + ":" + local_label(state, i);
    }
    return text;
}

ComposedModel compose(const ArchiType& archi, const ComposeOptions& options) {
    DPMA_NAMED_SPAN(span, "adl.compose", "compose");
    validate(archi);

    auto actions = std::make_shared<lts::ActionTable>();
    const std::size_t num_instances = archi.instances.size();

    ComposedModel model;
    ComposedModel::Locals global;
    lts::LtsBuilder graph(actions);
    std::vector<LocalLts> locals;
    locals.reserve(num_instances);
    for (const Instance& inst : archi.instances) {
        model.instance_names.push_back(inst.name);
        const ElemType* type = archi.find_type(inst.type);
        locals.push_back(
            build_local_lts(*type, inst.args, *actions, options.max_states));
        global.names.push_back(locals.back().state_names);
    }

    // Attachment lookup: (instance, bare action) -> partner / role.
    struct PortRole {
        bool is_initiator = false;
        std::uint32_t partner_instance = 0;
        Symbol partner_action = kNoSymbol;
        std::string partner_instance_name;
        std::string partner_action_name;
    };
    std::map<std::pair<std::uint32_t, Symbol>, PortRole> roles;
    for (const Attachment& att : archi.attachments) {
        const auto from_idx =
            static_cast<std::uint32_t>(model.instance_index(att.from_instance));
        const auto to_idx =
            static_cast<std::uint32_t>(model.instance_index(att.to_instance));
        const Symbol from_act = actions->intern(att.from_port);
        const Symbol to_act = actions->intern(att.to_port);
        roles[{from_idx, from_act}] =
            PortRole{true, to_idx, to_act, att.to_instance, att.to_port};
        roles[{to_idx, to_act}] = PortRole{false, from_idx, from_act, {}, {}};
    }

    // Classify every local transition of every instance once, into flat CSR
    // arrays: transition k of local state s of instance i lives at index
    // flat[i].off[s] + k, with its Participation and the id of its rate among
    // the distinct local rates alongside.
    struct FlatLocal {
        std::vector<std::uint32_t> off;
        std::vector<LocalLts::LocalTransition> trans;
        std::vector<Participation> part;
        std::vector<std::uint32_t> rate_id;
    };
    std::vector<lts::Rate> local_rates;
    const auto rate_id_of = [&](const lts::Rate& rate) {
        const auto it = std::find(local_rates.begin(), local_rates.end(), rate);
        if (it != local_rates.end()) {
            return static_cast<std::uint32_t>(it - local_rates.begin());
        }
        local_rates.push_back(rate);
        return static_cast<std::uint32_t>(local_rates.size() - 1);
    };
    std::uint32_t num_sync_rows = 0;
    std::vector<FlatLocal> flat(num_instances);
    for (std::uint32_t i = 0; i < num_instances; ++i) {
        const Instance& inst = archi.instances[i];
        const ElemType* type = archi.find_type(inst.type);
        const auto is_interaction = [&](const std::string& a) {
            return std::find(type->input_interactions.begin(),
                             type->input_interactions.end(),
                             a) != type->input_interactions.end() ||
                   std::find(type->output_interactions.begin(),
                             type->output_interactions.end(),
                             a) != type->output_interactions.end();
        };
        FlatLocal& f = flat[i];
        f.off.reserve(locals[i].out.size() + 1);
        f.off.push_back(0);
        for (std::size_t s = 0; s < locals[i].out.size(); ++s) {
            for (const LocalLts::LocalTransition& t : locals[i].out[s]) {
                Participation p;
                const std::string& action_name = actions->name(t.action);
                if (!is_interaction(action_name)) {
                    p.kind = ParticipationKind::Internal;
                    p.label_text = inst.name + "." + action_name;
                    p.label = actions->intern(p.label_text);
                } else if (auto it = roles.find({i, t.action}); it != roles.end()) {
                    if (it->second.is_initiator) {
                        p.kind = ParticipationKind::SyncInitiator;
                        p.partner_instance = it->second.partner_instance;
                        p.partner_action = it->second.partner_action;
                        p.label_text = inst.name + "." + action_name + "#" +
                                       it->second.partner_instance_name + "." +
                                       it->second.partner_action_name;
                        p.label = actions->intern(p.label_text);
                        p.sync_row = num_sync_rows++;
                    } else {
                        p.kind = ParticipationKind::SyncFollower;
                    }
                } else {
                    p.kind = ParticipationKind::Blocked;
                }
                f.trans.push_back(t);
                f.part.push_back(std::move(p));
                f.rate_id.push_back(rate_id_of(t.rate));
            }
            f.off.push_back(static_cast<std::uint32_t>(f.trans.size()));
        }
    }

    // Mixed-radix packing of global states: the tuple g encodes exactly as
    // sum_i g[i] * stride[i] whenever the product of the local state-space
    // sizes fits in 64 bits, which lets the exploration intern through a
    // flat integer-keyed arena.  Oversized products fall back to hashing
    // the tuple itself.
    std::vector<std::uint64_t> stride(num_instances, 0);
    bool packable = true;
    {
        std::uint64_t prod = 1;
        for (std::uint32_t i = 0; i < num_instances && packable; ++i) {
            stride[i] = prod;
            packable = !__builtin_mul_overflow(
                prod, static_cast<std::uint64_t>(locals[i].out.size()), &prod);
        }
    }

    // Breadth-first global exploration.
    std::unordered_map<std::uint64_t, lts::StateId> packed_index;
    std::unordered_map<std::vector<std::uint32_t>, lts::StateId, VecHash> vec_index;
    std::vector<std::uint64_t> state_code;  // per global state; packable only
    std::deque<lts::StateId> queue;

    const auto register_state = [&](std::vector<std::uint32_t>&& g,
                                    std::uint64_t code) -> lts::StateId {
        if (graph.num_states() >= options.max_states) {
            throw ModelError("global state space of " + archi.name + " exceeds " +
                             std::to_string(options.max_states) + " states");
        }
        const lts::StateId id = graph.add_state();
        global.states.insert(global.states.end(), g.begin(), g.end());
        if (packable) state_code.push_back(code);
        queue.push_back(id);
        return id;
    };

    const auto intern_packed = [&](std::uint64_t code) -> lts::StateId {
        if (const auto it = packed_index.find(code); it != packed_index.end()) {
            return it->second;
        }
        std::vector<std::uint32_t> g(num_instances);
        for (std::uint32_t i = 0; i < num_instances; ++i) {
            g[i] = static_cast<std::uint32_t>(
                (code / stride[i]) % static_cast<std::uint64_t>(locals[i].out.size()));
        }
        const lts::StateId id = register_state(std::move(g), code);
        packed_index.emplace(code, id);
        return id;
    };

    const auto intern_vec = [&](const std::vector<std::uint32_t>& g) -> lts::StateId {
        if (const auto it = vec_index.find(g); it != vec_index.end()) return it->second;
        const lts::StateId id =
            register_state(std::vector<std::uint32_t>(g.begin(), g.end()), 0);
        vec_index.emplace(g, id);
        return id;
    };

    {
        std::vector<std::uint32_t> initial(num_instances);
        std::uint64_t code = 0;
        for (std::uint32_t i = 0; i < num_instances; ++i) {
            initial[i] = locals[i].initial;
            if (packable) code += stride[i] * initial[i];
        }
        graph.set_initial(packable ? intern_packed(code) : intern_vec(initial));
    }

    // Global rate slots, interned on first use, so in the order the
    // transitions first carry them and only when some transition does: one
    // per internal local transition (Participation::slot), and for a
    // synchronisation one per (initiator transition, partner rate id), at
    // sync_slot[p.sync_row * num_local_rates + rate id].
    const std::size_t num_local_rates = local_rates.size();
    std::vector<lts::SlotId> sync_slot(num_sync_rows * num_local_rates, lts::kNoSlot);

    std::vector<std::uint32_t> current;
    std::vector<std::uint32_t> scratch;
    while (!queue.empty()) {
        const lts::StateId from = queue.front();
        queue.pop_front();
        current.assign(
            global.states.begin() +
                static_cast<std::ptrdiff_t>(static_cast<std::size_t>(from) * num_instances),
            global.states.begin() +
                static_cast<std::ptrdiff_t>((static_cast<std::size_t>(from) + 1) *
                                            num_instances));
        const std::uint64_t code = packable ? state_code[from] : 0;

        for (std::uint32_t i = 0; i < num_instances; ++i) {
            const std::uint32_t ls = current[i];
            FlatLocal& f = flat[i];
            for (std::uint32_t k = f.off[ls]; k < f.off[ls + 1]; ++k) {
                Participation& p = f.part[k];
                switch (p.kind) {
                    case ParticipationKind::Internal: {
                        lts::StateId to;
                        if (packable) {
                            // Wraparound-exact: the true code fits in 64 bits.
                            to = intern_packed(
                                code + (f.trans[k].target - std::uint64_t{ls}) *
                                           stride[i]);
                        } else {
                            scratch = current;
                            scratch[i] = f.trans[k].target;
                            to = intern_vec(scratch);
                        }
                        if (p.slot == lts::kNoSlot) {
                            p.slot = graph.intern_slot(p.label, f.trans[k].rate);
                        }
                        graph.add_slot_transition(from, p.slot, to);
                        break;
                    }
                    case ParticipationKind::SyncInitiator: {
                        const std::uint32_t j = p.partner_instance;
                        const FlatLocal& pf = flat[j];
                        const std::uint32_t pls = current[j];
                        for (std::uint32_t q = pf.off[pls]; q < pf.off[pls + 1]; ++q) {
                            const LocalLts::LocalTransition& u = pf.trans[q];
                            if (u.action != p.partner_action) continue;
                            lts::StateId to;
                            if (packable) {
                                std::uint64_t next = code;
                                if (i == j) {
                                    // Self-attachment: the follower's move wins,
                                    // matching the tuple-overwrite semantics.
                                    next += (u.target - std::uint64_t{ls}) * stride[i];
                                } else {
                                    next += (f.trans[k].target - std::uint64_t{ls}) *
                                            stride[i];
                                    next += (u.target - std::uint64_t{pls}) * stride[j];
                                }
                                to = intern_packed(next);
                            } else {
                                scratch = current;
                                scratch[i] = f.trans[k].target;
                                scratch[j] = u.target;
                                to = intern_vec(scratch);
                            }
                            lts::SlotId& slot =
                                sync_slot[p.sync_row * num_local_rates + pf.rate_id[q]];
                            if (slot == lts::kNoSlot) {
                                slot = graph.intern_slot(
                                    p.label,
                                    combine_rates(f.trans[k].rate, u.rate, p.label_text));
                            }
                            graph.add_slot_transition(from, slot, to);
                        }
                        break;
                    }
                    case ParticipationKind::SyncFollower:
                    case ParticipationKind::Blocked:
                        break;
                }
            }
        }
    }
    model.graph = std::move(graph).build();
    model.locals = std::make_shared<const ComposedModel::Locals>(std::move(global));
    obs::counter("compose.calls").add();
    obs::counter("compose.states").add(model.graph.num_states());
    obs::counter("compose.transitions").add(model.graph.num_transitions());
    span.arg("states", static_cast<double>(model.graph.num_states()));
    span.arg("transitions", static_cast<double>(model.graph.num_transitions()));
    span.arg("packed", packable ? 1.0 : 0.0);
    return model;
}

}  // namespace dpma::adl
