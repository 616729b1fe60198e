#pragma once

/// \file model.hpp
/// The architectural model: element types (AETs) with behaviours, instances
/// and UNI attachments — a faithful in-memory form of the Æmilia
/// specifications used throughout the paper.  Models come from the Æmilia
/// parser (dpma::aemilia; the case studies are the shipped specs embedded
/// in dpma::models) or are assembled in code, as small test models are.

#include <string>
#include <vector>

#include "adl/expr.hpp"
#include "core/source.hpp"
#include "lts/rate.hpp"

namespace dpma::adl {

/// One action occurrence in a behaviour: `<name, rate>`.
struct Action {
    std::string name;
    lts::Rate rate = lts::RateUnspecified{};
    SourceLoc loc = {};  ///< position of the action name
};

/// Invocation of a behaviour with argument expressions: `Beh(n + 1)`.
struct BehaviorCall {
    std::string behavior;
    std::vector<ExprPtr> args;
    SourceLoc loc = {};  ///< position of the invoked behaviour name
};

/// One alternative of a `choice`: an optional guard, a non-empty sequence of
/// action prefixes and the behaviour invoked afterwards:
/// `cond(n < size) -> <a, r> . <b, r'> . Beh(n + 1)`.
struct Alternative {
    BoolExprPtr guard;  ///< null means always enabled
    std::vector<Action> actions;
    BehaviorCall continuation;
    SourceLoc loc = {};  ///< position of the first token of the alternative
};

/// A named behaviour equation with integer parameters.
struct BehaviorDef {
    std::string name;
    std::vector<std::string> params;
    std::vector<Alternative> alternatives;
    SourceLoc loc = {};  ///< position of the equation name
};

/// An architectural element type.  The first behaviour is the initial one,
/// as in Æmilia.  Interactions are classified UNI input / UNI output; every
/// other action occurring in the behaviours is internal.
/// The *_locs vectors parallel the interaction name lists; they are empty
/// for programmatic models.
struct ElemType {
    std::string name;
    std::vector<BehaviorDef> behaviors;
    std::vector<std::string> input_interactions;
    std::vector<std::string> output_interactions;
    SourceLoc loc = {};  ///< position of the type name
    std::vector<SourceLoc> input_interaction_locs;
    std::vector<SourceLoc> output_interaction_locs;

    /// Location of the i-th input/output interaction declaration; falls back
    /// to the type's own location for programmatic models.
    [[nodiscard]] SourceLoc input_loc(std::size_t i) const noexcept {
        return i < input_interaction_locs.size() ? input_interaction_locs[i] : loc;
    }
    [[nodiscard]] SourceLoc output_loc(std::size_t i) const noexcept {
        return i < output_interaction_locs.size() ? output_interaction_locs[i] : loc;
    }
};

/// An instance of an element type: `S : Server_Type(10)`.
struct Instance {
    std::string name;
    std::string type;
    std::vector<long> args;
    SourceLoc loc = {};  ///< position of the instance name
};

/// A UNI attachment: `FROM A.out_port TO B.in_port`.
struct Attachment {
    std::string from_instance;
    std::string from_port;
    std::string to_instance;
    std::string to_port;
    SourceLoc loc = {};       ///< position of the FROM keyword
    SourceLoc from_loc = {};  ///< position of the source port name
    SourceLoc to_loc = {};    ///< position of the target port name
};

/// A complete architectural type (system description).
struct ArchiType {
    std::string name;
    std::vector<ElemType> elem_types;
    std::vector<Instance> instances;
    std::vector<Attachment> attachments;
    SourceLoc loc = {};  ///< position of the architecture name

    [[nodiscard]] const ElemType* find_type(const std::string& name) const;
    [[nodiscard]] const Instance* find_instance(const std::string& name) const;
};

/// Structural validation; throws ModelError with a precise message on the
/// first problem found.  Checks: type/behaviour resolution, parameter
/// arities, interaction declarations, attachment well-formedness (output to
/// input, each port attached at most once), and that interactions are not
/// used in the middle of an action sequence without being declared.
void validate(const ArchiType& archi);

}  // namespace dpma::adl
