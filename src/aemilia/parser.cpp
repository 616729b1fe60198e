#include "aemilia/parser.hpp"

#include <cstdlib>
#include <unordered_map>

#include "aemilia/lexer.hpp"
#include "lts/rate.hpp"
#include "obs/trace.hpp"

namespace dpma::aemilia {
namespace {

SourceLoc loc_of(const Token& token) {
    return SourceLoc{token.line, token.column};
}

class Parser {
public:
    explicit Parser(std::string_view input) : tokens_(tokenize(input)) {}

    adl::ArchiType parse_archi_type(bool run_validate) {
        adl::ArchiType archi;
        expect_keyword("ARCHI_TYPE");
        archi.loc = loc_of(current());
        archi.name = expect(TokenKind::Identifier).text;
        expect(TokenKind::LParen);
        expect_keyword("void");
        expect(TokenKind::RParen);

        expect_keyword("ARCHI_ELEM_TYPES");
        while (peek_keyword("ELEM_TYPE")) {
            archi.elem_types.push_back(parse_elem_type());
        }

        expect_keyword("ARCHI_TOPOLOGY");
        expect_keyword("ARCHI_ELEM_INSTANCES");
        archi.instances.push_back(parse_instance());
        while (accept(TokenKind::Semicolon)) {
            if (peek_keyword("ARCHI_ATTACHMENTS") || peek_keyword("END")) break;
            archi.instances.push_back(parse_instance());
        }
        if (accept_keyword("ARCHI_ATTACHMENTS")) {
            archi.attachments.push_back(parse_attachment());
            while (accept(TokenKind::Semicolon)) {
                if (peek_keyword("END")) break;
                archi.attachments.push_back(parse_attachment());
            }
        }
        expect_keyword("END");
        expect(TokenKind::EndOfInput);
        if (run_validate) adl::validate(archi);
        return archi;
    }

    std::vector<adl::Measure> parse_measures() {
        std::vector<adl::Measure> measures;
        while (!at(TokenKind::EndOfInput)) {
            expect_keyword("MEASURE");
            adl::Measure measure;
            measure.loc = loc_of(current());
            measure.name = expect(TokenKind::Identifier).text;
            expect_keyword("IS");
            do {
                measure.clauses.push_back(parse_reward_clause());
                while (accept(TokenKind::Semicolon)) {
                }
            } while (peek_keyword("ENABLED") || peek_keyword("IN_STATE"));
            measures.push_back(std::move(measure));
        }
        if (measures.empty()) {
            throw ParseError("expected at least one MEASURE definition",
                             current().line, current().column);
        }
        return measures;
    }

private:
    // --- token plumbing -----------------------------------------------------

    [[nodiscard]] const Token& current() const { return tokens_[pos_]; }

    [[nodiscard]] bool at(TokenKind kind) const { return current().kind == kind; }

    [[nodiscard]] bool peek_keyword(std::string_view keyword) const {
        return current().kind == TokenKind::Identifier && current().text == keyword;
    }

    bool accept(TokenKind kind) {
        if (!at(kind)) return false;
        ++pos_;
        return true;
    }

    bool accept_keyword(std::string_view keyword) {
        if (!peek_keyword(keyword)) return false;
        ++pos_;
        return true;
    }

    Token expect(TokenKind kind) {
        if (!at(kind)) {
            throw ParseError(std::string("expected ") + token_kind_name(kind) +
                                 ", found '" + current().text + "'",
                             current().line, current().column);
        }
        return tokens_[pos_++];
    }

    void expect_keyword(std::string_view keyword) {
        if (!accept_keyword(keyword)) {
            throw ParseError("expected keyword '" + std::string(keyword) + "', found '" +
                                 current().text + "'",
                             current().line, current().column);
        }
    }

    double expect_number() {
        bool negative = false;
        if (accept(TokenKind::Minus)) negative = true;
        const Token token = expect(TokenKind::Number);
        const double value = std::strtod(token.text.c_str(), nullptr);
        return negative ? -value : value;
    }

    long expect_integer(const char* what) {
        bool negative = false;
        if (accept(TokenKind::Minus)) negative = true;
        const Token token = expect(TokenKind::Number);
        if (token.text.find('.') != std::string::npos) {
            throw ParseError(std::string(what) + " must be integer valued, got '" +
                                 token.text + "'",
                             token.line, token.column);
        }
        const long value = std::strtol(token.text.c_str(), nullptr, 10);
        return negative ? -value : value;
    }

    // --- element types ------------------------------------------------------

    adl::ElemType parse_elem_type() {
        expect_keyword("ELEM_TYPE");
        adl::ElemType type;
        type.loc = loc_of(current());
        type.name = expect(TokenKind::Identifier).text;
        expect(TokenKind::LParen);
        expect_keyword("void");
        expect(TokenKind::RParen);
        expect_keyword("BEHAVIOR");
        type.behaviors.push_back(parse_behavior());
        while (accept(TokenKind::Semicolon)) {
            if (peek_keyword("INPUT_INTERACTIONS")) break;
            type.behaviors.push_back(parse_behavior());
        }
        expect_keyword("INPUT_INTERACTIONS");
        parse_interaction_list(type.input_interactions, type.input_interaction_locs);
        expect_keyword("OUTPUT_INTERACTIONS");
        parse_interaction_list(type.output_interactions, type.output_interaction_locs);
        return type;
    }

    [[nodiscard]] bool at_section_boundary() const {
        return peek_keyword("OUTPUT_INTERACTIONS") || peek_keyword("ELEM_TYPE") ||
               peek_keyword("ARCHI_TOPOLOGY");
    }

    void parse_interaction_list(std::vector<std::string>& names,
                                std::vector<SourceLoc>& locs) {
        if (accept_keyword("void")) return;
        expect_keyword("UNI");
        while (true) {
            locs.push_back(loc_of(current()));
            names.push_back(expect(TokenKind::Identifier).text);
            if (!accept(TokenKind::Semicolon)) break;
            accept_keyword("UNI");  // optional repeated qualifier
            if (at_section_boundary()) break;  // trailing semicolon
        }
    }

    adl::BehaviorDef parse_behavior() {
        adl::BehaviorDef def;
        def.loc = loc_of(current());
        def.name = expect(TokenKind::Identifier).text;
        expect(TokenKind::LParen);
        if (!accept_keyword("void")) {
            do {
                expect_keyword("integer");
                def.params.push_back(expect(TokenKind::Identifier).text);
            } while (accept(TokenKind::Comma));
        }
        expect(TokenKind::Semicolon);
        expect_keyword("void");
        expect(TokenKind::RParen);
        expect(TokenKind::Equal);

        params_ = &def.params;
        if (accept_keyword("choice")) {
            expect(TokenKind::LBrace);
            def.alternatives.push_back(parse_alternative());
            while (accept(TokenKind::Comma)) {
                def.alternatives.push_back(parse_alternative());
            }
            expect(TokenKind::RBrace);
        } else {
            def.alternatives.push_back(parse_alternative());
        }
        params_ = nullptr;
        return def;
    }

    adl::Alternative parse_alternative() {
        adl::Alternative alt;
        alt.loc = loc_of(current());
        if (accept_keyword("cond")) {
            expect(TokenKind::LParen);
            alt.guard = parse_bool_expr();
            expect(TokenKind::RParen);
            expect(TokenKind::Arrow);
        }
        alt.actions.push_back(parse_action());
        expect(TokenKind::Dot);
        while (at(TokenKind::Less)) {
            alt.actions.push_back(parse_action());
            expect(TokenKind::Dot);
        }
        alt.continuation.loc = loc_of(current());
        alt.continuation.behavior = expect(TokenKind::Identifier).text;
        expect(TokenKind::LParen);
        if (!at(TokenKind::RParen)) {
            alt.continuation.args.push_back(parse_expr());
            while (accept(TokenKind::Comma)) {
                alt.continuation.args.push_back(parse_expr());
            }
        }
        expect(TokenKind::RParen);
        return alt;
    }

    adl::Action parse_action() {
        expect(TokenKind::Less);
        adl::Action action;
        action.loc = loc_of(current());
        action.name = expect(TokenKind::Identifier).text;
        expect(TokenKind::Comma);
        action.rate = parse_rate();
        expect(TokenKind::Greater);
        return action;
    }

    lts::Rate parse_rate() {
        if (accept(TokenKind::Underscore)) return lts::RatePassive{};
        const Token token = expect(TokenKind::Identifier);
        const std::string& kind = token.text;
        const auto args = [&](int count) {
            std::vector<double> values;
            expect(TokenKind::LParen);
            for (int i = 0; i < count; ++i) {
                if (i != 0) expect(TokenKind::Comma);
                values.push_back(expect_number());
            }
            expect(TokenKind::RParen);
            return values;
        };
        if (kind == "exp") {
            return lts::RateExp{args(1)[0]};
        }
        if (kind == "inf") {
            if (!at(TokenKind::LParen)) return lts::RateImmediate{1, 1.0};
            const auto v = args(2);
            return lts::RateImmediate{static_cast<int>(v[0]), v[1]};
        }
        if (kind == "det") {
            return lts::RateGeneral{Dist::deterministic(args(1)[0])};
        }
        if (kind == "norm") {
            const auto v = args(2);
            return lts::RateGeneral{Dist::normal(v[0], v[1])};
        }
        if (kind == "unif") {
            const auto v = args(2);
            return lts::RateGeneral{Dist::uniform(v[0], v[1])};
        }
        if (kind == "erlang") {
            const auto v = args(2);
            return lts::RateGeneral{Dist::erlang(static_cast<int>(v[0]), v[1])};
        }
        if (kind == "weibull") {
            const auto v = args(2);
            return lts::RateGeneral{Dist::weibull(v[0], v[1])};
        }
        if (kind == "lognorm") {
            const auto v = args(2);
            return lts::RateGeneral{Dist::lognormal(v[0], v[1])};
        }
        throw ParseError("unknown rate '" + kind + "'", token.line, token.column);
    }

    // --- expressions ----------------------------------------------------

    adl::ExprPtr parse_expr() {
        adl::ExprPtr lhs = parse_term();
        while (at(TokenKind::Plus) || at(TokenKind::Minus)) {
            const bool plus = accept(TokenKind::Plus);
            if (!plus) expect(TokenKind::Minus);
            lhs = adl::Expr::binary(plus ? adl::Expr::Kind::Add : adl::Expr::Kind::Sub,
                                    lhs, parse_term());
        }
        return lhs;
    }

    adl::ExprPtr parse_term() {
        adl::ExprPtr lhs = parse_factor();
        while (at(TokenKind::Star) || at(TokenKind::Slash) || at(TokenKind::Percent)) {
            adl::Expr::Kind op;
            if (accept(TokenKind::Star)) {
                op = adl::Expr::Kind::Mul;
            } else if (accept(TokenKind::Slash)) {
                op = adl::Expr::Kind::Div;
            } else {
                expect(TokenKind::Percent);
                op = adl::Expr::Kind::Mod;
            }
            lhs = adl::Expr::binary(op, lhs, parse_factor());
        }
        return lhs;
    }

    adl::ExprPtr parse_factor() {
        if (accept(TokenKind::LParen)) {
            adl::ExprPtr inner = parse_expr();
            expect(TokenKind::RParen);
            return inner;
        }
        if (accept(TokenKind::Minus)) {
            return adl::Expr::binary(adl::Expr::Kind::Sub, adl::Expr::constant(0),
                                     parse_factor());
        }
        if (at(TokenKind::Number)) {
            const Token token = expect(TokenKind::Number);
            if (token.text.find('.') != std::string::npos) {
                throw ParseError("behaviour expressions are integer valued",
                                 token.line, token.column);
            }
            return adl::Expr::constant(std::strtol(token.text.c_str(), nullptr, 10));
        }
        const Token token = expect(TokenKind::Identifier);
        if (params_ != nullptr) {
            for (std::size_t i = 0; i < params_->size(); ++i) {
                if ((*params_)[i] == token.text) {
                    return adl::Expr::param(i, token.text);
                }
            }
        }
        throw ParseError("unknown parameter '" + token.text + "'", token.line,
                         token.column);
    }

    adl::BoolExprPtr parse_bool_expr() {
        adl::BoolExprPtr lhs = parse_bool_term();
        while (accept(TokenKind::OrOr)) {
            lhs = adl::BoolExpr::disj(lhs, parse_bool_term());
        }
        return lhs;
    }

    adl::BoolExprPtr parse_bool_term() {
        adl::BoolExprPtr lhs = parse_bool_factor();
        while (accept(TokenKind::AndAnd)) {
            lhs = adl::BoolExpr::conj(lhs, parse_bool_factor());
        }
        return lhs;
    }

    adl::BoolExprPtr parse_bool_factor() {
        if (accept(TokenKind::Not)) {
            return adl::BoolExpr::negate(parse_bool_factor());
        }
        // Parenthesised boolean vs parenthesised arithmetic: try boolean
        // first by scanning — simpler to require comparisons not to start
        // with '(' around the whole comparison, which Æmilia specs satisfy.
        adl::ExprPtr lhs = parse_expr();
        adl::BoolExpr::CmpOp op;
        if (accept(TokenKind::Less)) {
            op = adl::BoolExpr::CmpOp::Lt;
        } else if (accept(TokenKind::LessEq)) {
            op = adl::BoolExpr::CmpOp::Le;
        } else if (accept(TokenKind::EqEq)) {
            op = adl::BoolExpr::CmpOp::Eq;
        } else if (accept(TokenKind::NotEq)) {
            op = adl::BoolExpr::CmpOp::Ne;
        } else if (accept(TokenKind::GreaterEq)) {
            op = adl::BoolExpr::CmpOp::Ge;
        } else if (accept(TokenKind::Greater)) {
            op = adl::BoolExpr::CmpOp::Gt;
        } else {
            throw ParseError("expected comparison operator in cond(...)",
                             current().line, current().column);
        }
        return adl::BoolExpr::compare(op, lhs, parse_expr());
    }

    // --- topology ---------------------------------------------------------

    adl::Instance parse_instance() {
        adl::Instance inst;
        inst.loc = loc_of(current());
        inst.name = expect(TokenKind::Identifier).text;
        expect(TokenKind::Colon);
        inst.type = expect(TokenKind::Identifier).text;
        expect(TokenKind::LParen);
        if (!at(TokenKind::RParen)) {
            inst.args.push_back(expect_integer("instance arguments"));
            while (accept(TokenKind::Comma)) {
                inst.args.push_back(expect_integer("instance arguments"));
            }
        }
        expect(TokenKind::RParen);
        return inst;
    }

    adl::Attachment parse_attachment() {
        adl::Attachment att;
        att.loc = loc_of(current());
        expect_keyword("FROM");
        att.from_instance = expect(TokenKind::Identifier).text;
        expect(TokenKind::Dot);
        att.from_loc = loc_of(current());
        att.from_port = expect(TokenKind::Identifier).text;
        expect_keyword("TO");
        att.to_instance = expect(TokenKind::Identifier).text;
        expect(TokenKind::Dot);
        att.to_loc = loc_of(current());
        att.to_port = expect(TokenKind::Identifier).text;
        return att;
    }

    // --- measures ---------------------------------------------------------

    adl::RewardClause parse_reward_clause() {
        adl::RewardClause clause;
        clause.loc = loc_of(current());
        if (accept_keyword("ENABLED")) {
            expect(TokenKind::LParen);
            const std::string instance = expect(TokenKind::Identifier).text;
            expect(TokenKind::Dot);
            const std::string action = expect(TokenKind::Identifier).text;
            expect(TokenKind::RParen);
            clause.predicate = adl::EnabledPredicate{instance, action};
        } else if (accept_keyword("IN_STATE")) {
            expect(TokenKind::LParen);
            const std::string instance = expect(TokenKind::Identifier).text;
            expect(TokenKind::Comma);
            const std::string prefix = expect(TokenKind::Identifier).text;
            expect(TokenKind::RParen);
            clause.predicate = adl::InStatePredicate{instance, prefix};
        } else {
            throw ParseError("expected ENABLED(...) or IN_STATE(...)",
                             current().line, current().column);
        }
        expect(TokenKind::Arrow);
        if (accept_keyword("STATE_REWARD")) {
            clause.target = adl::RewardClause::Target::State;
        } else if (accept_keyword("TRANS_REWARD")) {
            clause.target = adl::RewardClause::Target::Trans;
        } else {
            throw ParseError("expected STATE_REWARD or TRANS_REWARD",
                             current().line, current().column);
        }
        expect(TokenKind::LParen);
        clause.reward = expect_number();
        expect(TokenKind::RParen);
        return clause;
    }

    std::vector<Token> tokens_;
    std::size_t pos_ = 0;
    const std::vector<std::string>* params_ = nullptr;
};

}  // namespace

namespace {

/// Both architectural entry points, traced as span "aemilia.parse".
adl::ArchiType parse_archi(std::string_view input, bool run_validate) {
    DPMA_NAMED_SPAN(span, "aemilia.parse", "aemilia");
    span.arg("bytes", static_cast<double>(input.size()));
    Parser parser(input);
    adl::ArchiType out = parser.parse_archi_type(run_validate);
    span.arg("instances", static_cast<double>(out.instances.size()));
    return out;
}

}  // namespace

adl::ArchiType parse_archi_type(std::string_view input) {
    return parse_archi(input, /*run_validate=*/true);
}

adl::ArchiType parse_archi_type_unchecked(std::string_view input) {
    return parse_archi(input, /*run_validate=*/false);
}

std::vector<adl::Measure> parse_measures(std::string_view input) {
    DPMA_NAMED_SPAN(span, "aemilia.parse", "aemilia");
    span.arg("bytes", static_cast<double>(input.size()));
    Parser parser(input);
    std::vector<adl::Measure> out = parser.parse_measures();
    span.arg("measures", static_cast<double>(out.size()));
    return out;
}

}  // namespace dpma::aemilia
