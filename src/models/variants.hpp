#pragma once

/// \file variants.hpp
/// The edits that turn a shipped spec (specs.hpp) into the variants the
/// experiments need, so that no case study is encoded twice:
///
///  * *no DPM*: drop the attachments whose FROM side is the DPM instance.
///    Unattached interactions are blocked (adl/compose.hpp), so the DPM can
///    no longer command anything; it only keeps tracking notifications;
///  * *high actions* of the functional check: the labels of those same
///    attachments, e.g. "DPM.send_shutdown#S.receive_shutdown";
///  * *swept timing*: retime one action on the composed model
///    (exp::with_delay), which keeps the reachable state space; a delay of 0
///    makes the action immediate;
///  * *capacities*: the integer arguments of a buffer instance;
///  * the *trivial DPM* of Sect. 2.3 attached to the revised rpc server.
///
/// The functional phase is the timed spec composed as is: composition keeps
/// every alternative, and the noninterference check ignores rates.

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "adl/compose.hpp"
#include "adl/measure.hpp"
#include "adl/model.hpp"

namespace dpma::models {

/// Name of the power-manager instance in every shipped spec.
inline constexpr const char* kDpm = "DPM";

/// \p archi without the attachments whose FROM side is the DPM instance.
[[nodiscard]] adl::ArchiType without_dpm(adl::ArchiType archi);

/// Synchronised labels of the DPM's command attachments: the "high" actions
/// of the noninterference check.
[[nodiscard]] std::vector<std::string> high_action_labels(const adl::ArchiType& archi);

/// \p archi with the last (capacity) argument of each of \p instances set to
/// \p capacity.  Throws ModelError for an unknown or argument-less instance.
[[nodiscard]] adl::ArchiType with_capacity(adl::ArchiType archi,
                                           std::initializer_list<std::string_view> instances,
                                           long capacity);

/// One point of a DPM sweep on the shipped spec \p spec_file: the composed
/// model with DPM.\p action retimed to \p delay ms (exp::with_delay), or
/// without the DPM's commands (and \p delay unused) when \p dpm is false.
[[nodiscard]] adl::ComposedModel compose_point(std::string_view spec_file,
                                               const std::string& action, double delay,
                                               bool dpm);

/// The revised rpc architecture \p archi with the trivial DPM of Sect. 2.3:
/// a single state that issues shutdowns freely and absorbs the busy/idle
/// notifications.  With \p shutdown_when_busy the server also accepts a
/// shutdown while busy or responding, dropping the request in service (the
/// design choice Sect. 2.1 mentions).
[[nodiscard]] adl::ArchiType with_trivial_dpm(adl::ArchiType archi,
                                              bool shutdown_when_busy = false);

/// Mean occupancy of the buffer \p instance, whose behaviour \p behavior
/// carries the occupancy as its first argument, up to \p capacity.  The
/// measure language cannot spell it: its IN_STATE prefixes are identifiers,
/// and this needs "Queue(3," for occupancy 3.
[[nodiscard]] adl::Measure mean_occupancy(const std::string& instance,
                                          const std::string& behavior, long capacity);

/// Position of the measure named \p name in \p measures; throws ModelError
/// when absent.
[[nodiscard]] std::size_t measure_index(const std::vector<adl::Measure>& measures,
                                        std::string_view name);

}  // namespace dpma::models
