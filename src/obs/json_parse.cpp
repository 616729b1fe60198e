#include "obs/json_parse.hpp"

#include <cctype>
#include <cstdint>
#include <cstdlib>

#include "core/error.hpp"

namespace dpma::obs {

const Json* Json::find(std::string_view key) const noexcept {
    if (kind != Kind::Object) return nullptr;
    for (const auto& [name, value] : object) {
        if (name == key) return &value;
    }
    return nullptr;
}

double Json::number_at(std::string_view key, double fallback) const noexcept {
    const Json* value = find(key);
    return value != nullptr && value->is_number() ? value->number : fallback;
}

std::string Json::string_at(std::string_view key, std::string_view fallback) const {
    const Json* value = find(key);
    return value != nullptr && value->is_string() ? value->string
                                                  : std::string(fallback);
}

namespace {

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json run() {
        skip_ws();
        Json root = value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing content");
        return root;
    }

private:
    [[noreturn]] void fail(const char* message) const {
        throw Error(std::string("JSON parse error: ") + message + " at offset " +
                    std::to_string(pos_));
    }

    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    [[nodiscard]] char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    void expect(char c) {
        if (peek() != c) fail("unexpected character");
        ++pos_;
    }

    void literal(std::string_view word) {
        if (text_.substr(pos_, word.size()) != word) fail("bad literal");
        pos_ += word.size();
    }

    unsigned hex4() {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i, ++pos_) {
            const char c = peek();
            if (std::isxdigit(static_cast<unsigned char>(c)) == 0) {
                fail("bad \\u escape");
            }
            code = code * 16 +
                   static_cast<unsigned>(c <= '9' ? c - '0' : (c | 0x20) - 'a' + 10);
        }
        return code;
    }

    static void append_utf8(std::string& out, std::uint32_t code) {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    std::string string() {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const unsigned char c = static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                ++pos_;
                return out;
            }
            if (c < 0x20) fail("raw control character in string");
            if (c != '\\') {
                out += static_cast<char>(c);
                ++pos_;
                continue;
            }
            ++pos_;
            const char e = peek();
            ++pos_;
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    std::uint32_t code = hex4();
                    if (code >= 0xD800 && code <= 0xDBFF) {
                        // High surrogate: a low surrogate must follow.
                        if (peek() != '\\') fail("unpaired surrogate");
                        ++pos_;
                        if (peek() != 'u') fail("unpaired surrogate");
                        ++pos_;
                        const std::uint32_t low = hex4();
                        if (low < 0xDC00 || low > 0xDFFF) fail("unpaired surrogate");
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    } else if (code >= 0xDC00 && code <= 0xDFFF) {
                        fail("unpaired surrogate");
                    }
                    append_utf8(out, code);
                    break;
                }
                default: --pos_; fail("bad escape");
            }
        }
    }

    double number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        if (peek() == '0') {
            ++pos_;
        } else if (std::isdigit(static_cast<unsigned char>(peek())) != 0) {
            while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
        } else {
            fail("expected number");
        }
        if (peek() == '.') {
            ++pos_;
            if (std::isdigit(static_cast<unsigned char>(peek())) == 0) {
                fail("digit required after decimal point");
            }
            while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-') ++pos_;
            if (std::isdigit(static_cast<unsigned char>(peek())) == 0) {
                fail("digit required in exponent");
            }
            while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
        }
        // strtod, not stod: an out-of-range literal (1e999) is still valid
        // JSON and reads as +-inf or 0 instead of throwing.
        return std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(), nullptr);
    }

    Json value() {
        if (++depth_ > 256) fail("nesting too deep");
        Json out;
        switch (peek()) {
            case '{': {
                out.kind = Json::Kind::Object;
                ++pos_;
                skip_ws();
                if (peek() == '}') {
                    ++pos_;
                    break;
                }
                for (;;) {
                    skip_ws();
                    std::string key = string();
                    skip_ws();
                    expect(':');
                    skip_ws();
                    out.object.emplace_back(std::move(key), value());
                    skip_ws();
                    if (peek() == ',') {
                        ++pos_;
                        continue;
                    }
                    expect('}');
                    break;
                }
                break;
            }
            case '[': {
                out.kind = Json::Kind::Array;
                ++pos_;
                skip_ws();
                if (peek() == ']') {
                    ++pos_;
                    break;
                }
                for (;;) {
                    skip_ws();
                    out.array.push_back(value());
                    skip_ws();
                    if (peek() == ',') {
                        ++pos_;
                        continue;
                    }
                    expect(']');
                    break;
                }
                break;
            }
            case '"':
                out.kind = Json::Kind::String;
                out.string = string();
                break;
            case 't':
                literal("true");
                out.kind = Json::Kind::Bool;
                out.boolean = true;
                break;
            case 'f':
                literal("false");
                out.kind = Json::Kind::Bool;
                out.boolean = false;
                break;
            case 'n':
                literal("null");
                out.kind = Json::Kind::Null;
                break;
            default:
                out.kind = Json::Kind::Number;
                out.number = number();
                break;
        }
        --depth_;
        return out;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

}  // namespace

Json json_parse(std::string_view text) { return Parser(text).run(); }

}  // namespace dpma::obs
