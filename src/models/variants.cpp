#include "models/variants.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "exp/cache.hpp"
#include "models/specs.hpp"

namespace dpma::models {
namespace {

adl::ElemType& type_named(adl::ArchiType& archi, std::string_view name) {
    for (adl::ElemType& type : archi.elem_types) {
        if (type.name == name) return type;
    }
    throw ModelError("no element type " + std::string(name));
}

adl::BehaviorDef& behavior_named(adl::ElemType& type, std::string_view name) {
    for (adl::BehaviorDef& behavior : type.behaviors) {
        if (behavior.name == name) return behavior;
    }
    throw ModelError("no behaviour " + std::string(name) + " in " + type.name);
}

}  // namespace

adl::ArchiType without_dpm(adl::ArchiType archi) {
    std::erase_if(archi.attachments, [](const adl::Attachment& attachment) {
        return attachment.from_instance == kDpm;
    });
    return archi;
}

std::vector<std::string> high_action_labels(const adl::ArchiType& archi) {
    std::vector<std::string> labels;
    for (const adl::Attachment& a : archi.attachments) {
        if (a.from_instance != kDpm) continue;
        labels.push_back(a.from_instance + "." + a.from_port + "#" + a.to_instance + "." +
                         a.to_port);
    }
    return labels;
}

adl::ArchiType with_capacity(adl::ArchiType archi,
                             std::initializer_list<std::string_view> instances,
                             long capacity) {
    for (const std::string_view name : instances) {
        const auto it = std::find_if(
            archi.instances.begin(), archi.instances.end(),
            [&](const adl::Instance& instance) { return instance.name == name; });
        if (it == archi.instances.end() || it->args.empty()) {
            throw ModelError("no instance with a capacity argument named " +
                             std::string(name));
        }
        it->args.back() = capacity;
    }
    return archi;
}

adl::ComposedModel compose_point(std::string_view spec_file, const std::string& action,
                                 double delay, bool dpm) {
    if (!dpm) return adl::compose(without_dpm(archi(spec_file)));
    return exp::with_delay(adl::compose(archi(spec_file)), kDpm, action, delay);
}

adl::ArchiType with_trivial_dpm(adl::ArchiType archi, bool shutdown_when_busy) {
    // Fold the DPM's behaviours into its first one and point every
    // continuation back at it.
    adl::ElemType& dpm = type_named(archi, "DPM_Type");
    adl::BehaviorDef& only = dpm.behaviors.front();
    for (std::size_t b = 1; b < dpm.behaviors.size(); ++b) {
        for (adl::Alternative& alt : dpm.behaviors[b].alternatives) {
            only.alternatives.push_back(std::move(alt));
        }
    }
    dpm.behaviors.resize(1);
    for (adl::Alternative& alt : only.alternatives) alt.continuation.behavior = only.name;

    if (shutdown_when_busy) {
        adl::ElemType& server = type_named(archi, "Server_Type");
        const adl::BehaviorDef& idle = behavior_named(server, "Idle_Server");
        const auto shutdown = std::find_if(
            idle.alternatives.begin(), idle.alternatives.end(),
            [](const adl::Alternative& alt) {
                return alt.actions.front().name == "receive_shutdown";
            });
        DPMA_REQUIRE(shutdown != idle.alternatives.end(),
                     "Idle_Server must accept receive_shutdown");
        const adl::Alternative accept = *shutdown;
        behavior_named(server, "Busy_Server").alternatives.push_back(accept);
        behavior_named(server, "Responding_Server").alternatives.push_back(accept);
    }
    return archi;
}

adl::Measure mean_occupancy(const std::string& instance, const std::string& behavior,
                            long capacity) {
    adl::Measure measure{instance + "_occupancy", {}};
    for (long k = 1; k <= capacity; ++k) {
        measure.clauses.push_back(adl::state_reward_in(
            instance, behavior + "(" + std::to_string(k) + ",", static_cast<double>(k)));
    }
    return measure;
}

std::size_t measure_index(const std::vector<adl::Measure>& measures, std::string_view name) {
    for (std::size_t i = 0; i < measures.size(); ++i) {
        if (measures[i].name == name) return i;
    }
    throw ModelError("no measure named " + std::string(name));
}

}  // namespace dpma::models
