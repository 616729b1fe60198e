#pragma once

/// \file parser.hpp
/// Recursive-descent parser for a faithful subset of the Æmilia concrete
/// syntax used throughout the paper, e.g.:
///
///     ARCHI_TYPE RPC_DPM_Untimed(void)
///     ARCHI_ELEM_TYPES
///       ELEM_TYPE Server_Type(void)
///         BEHAVIOR
///           Idle_Server(void; void) = choice {
///             <receive_rpc_packet, _> . Busy_Server(),
///             <receive_shutdown, _> . Sleeping_Server()
///           };
///           ...
///         INPUT_INTERACTIONS UNI receive_rpc_packet; receive_shutdown
///         OUTPUT_INTERACTIONS UNI send_result_packet
///     ARCHI_TOPOLOGY
///       ARCHI_ELEM_INSTANCES
///         S : Server_Type();
///         ...
///       ARCHI_ATTACHMENTS
///         FROM C.send_rpc_packet TO RCS.get_packet;
///         ...
///     END
///
/// Extensions beyond the untimed fragment shown in the paper:
///  * rates: `_` (passive), `exp(r)`, `inf` / `inf(prio, weight)`,
///    `det(t)`, `norm(mean, sd)`, `unif(lo, hi)`, `erlang(k, r)`,
///    `weibull(shape, scale)`, `lognorm(mu, sigma)`;
///  * integer behaviour parameters: `Buffer(integer n, integer cap; void)`,
///    guarded alternatives `cond(n < cap) -> <put, _> . Buffer(n + 1, cap)`;
///  * instance arguments: `AP : AP_Type(0, 10)`.
///
/// The companion measure language is parsed by parse_measures:
///
///     MEASURE throughput IS
///       ENABLED(C.process_result_packet) -> TRANS_REWARD(1);
///     MEASURE energy IS
///       IN_STATE(S, Idle_Server)  -> STATE_REWARD(2)
///       IN_STATE(S, Busy_Server)  -> STATE_REWARD(3)

#include <string_view>
#include <vector>

#include "adl/measure.hpp"
#include "adl/model.hpp"

namespace dpma::aemilia {

/// Parses a full architectural type.  Throws ParseError (with position) on
/// syntax errors and ModelError (also with position) on semantic ones (via
/// adl::validate, which is run on the result before returning).  Every AST
/// node of the result carries the SourceLoc of its defining token.
[[nodiscard]] adl::ArchiType parse_archi_type(std::string_view input);

/// Parses without running adl::validate on the result: the AST may be
/// semantically ill-formed (unknown behaviours, dangling attachments, ...).
/// This is the entry point of the semantic linter (dpma::analysis), which
/// wants to collect *all* problems instead of throwing on the first one.
[[nodiscard]] adl::ArchiType parse_archi_type_unchecked(std::string_view input);

/// Parses a sequence of MEASURE definitions.
///
/// Every entry point is traced as span "aemilia.parse" with the input's
/// `bytes` and what it yields: `instances` for an architectural type,
/// `measures` for a measure file.
[[nodiscard]] std::vector<adl::Measure> parse_measures(std::string_view input);

}  // namespace dpma::aemilia
