#pragma once

/// \file ctmc_fixtures.hpp
/// Small architectures for the vanishing-state elimination tests
/// (ctmc_test, ctmc_build_diff_test), and the bit digest both use to pin
/// steady-state vectors.

#include <cstdint>
#include <cstring>
#include <vector>

#include "adl/model.hpp"
#include "lts/rate.hpp"

namespace dpma::ctmc {

/// A timed step into an immediate probabilistic branch: go_left with weight
/// \p p_left at priority 1, go_right with weight 1 - p_left at
/// \p priority_right.
inline adl::ArchiType vanishing_model(double p_left, int priority_right) {
    adl::ArchiType archi;
    archi.name = "Vanishing";
    adl::ElemType t;
    t.name = "T";
    t.behaviors = {
        adl::BehaviorDef{"Start", {},
            {{nullptr, {{"step", lts::RateExp{1.0}}}, {"Choice", {}}}}},
        adl::BehaviorDef{"Choice", {},
            {{nullptr, {{"go_left", lts::RateImmediate{1, p_left}}}, {"Left", {}}},
             {nullptr,
              {{"go_right", lts::RateImmediate{priority_right, 1.0 - p_left}}},
              {"Right", {}}}}},
        adl::BehaviorDef{"Left", {},
            {{nullptr, {{"reset_l", lts::RateExp{2.0}}}, {"Start", {}}}}},
        adl::BehaviorDef{"Right", {},
            {{nullptr, {{"reset_r", lts::RateExp{4.0}}}, {"Start", {}}}}},
    };
    archi.elem_types = {t};
    archi.instances = {adl::Instance{"X", "T", {}}};
    return archi;
}

/// Two immediate actions triggering each other: time stands still.
inline adl::ArchiType livelock_model() {
    adl::ArchiType archi;
    archi.name = "Livelock";
    adl::ElemType t;
    t.name = "T";
    t.behaviors = {
        adl::BehaviorDef{"A", {}, {{nullptr, {{"ping", lts::RateImmediate{}}}, {"B", {}}}}},
        adl::BehaviorDef{"B", {}, {{nullptr, {{"pong", lts::RateImmediate{}}}, {"A", {}}}}},
    };
    archi.elem_types = {t};
    archi.instances = {adl::Instance{"X", "T", {}}};
    return archi;
}

/// One timed step into a state whose only action is an unattached input:
/// an absorbing tangible state.
inline adl::ArchiType deadlock_model() {
    adl::ArchiType archi;
    archi.name = "Dead";
    adl::ElemType t;
    t.name = "T";
    t.behaviors = {
        adl::BehaviorDef{"A", {}, {{nullptr, {{"once", lts::RateExp{1.0}}}, {"B", {}}}}},
        adl::BehaviorDef{"B", {}, {{nullptr, {{"blocked", lts::RatePassive{}}}, {"B", {}}}}},
    };
    t.input_interactions = {"blocked"};
    archi.elem_types = {t};
    archi.instances = {adl::Instance{"X", "T", {}}};
    return archi;
}

/// FNV-1a over the bit patterns of \p values: a pinned digest asserts a
/// vector bit for bit (signed zeros and NaN payloads included).
inline std::uint64_t bit_digest(const std::vector<double>& values) {
    std::uint64_t hash = 0xcbf29ce484222325u;
    for (const double v : values) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (bits >> (8 * byte)) & 0xffu;
            hash *= 0x100000001b3u;
        }
    }
    return hash;
}

}  // namespace dpma::ctmc
