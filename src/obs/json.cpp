#include "obs/json.hpp"

#include <cmath>
#include <cstdio>

#include "core/error.hpp"
#include "obs/json_parse.hpp"

namespace dpma::obs {

std::string json_quote(std::string_view text) {
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buffer[8];
                    std::snprintf(buffer, sizeof buffer, "\\u%04x",
                                  static_cast<unsigned char>(c));
                    out += buffer;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
    return out;
}

std::string json_number(double value) {
    if (!std::isfinite(value)) return "null";
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

bool json_valid(std::string_view text, std::string* error) {
    try {
        (void)json_parse(text);
        return true;
    } catch (const Error& e) {
        if (error != nullptr) *error = e.what();
        return false;
    }
}

}  // namespace dpma::obs
