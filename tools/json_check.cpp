/// \file json_check.cpp
/// Tiny JSON artifact validator used by the ctest suite:
///
///   json_check <file> [--contains STRING]...
///
/// Exits 0 when <file> parses as strict JSON (obs::json_valid) and contains
/// every --contains substring; prints the reason and exits 1 otherwise.
/// Keeps the artifact checks (trace files, metrics dumps, ResultSet JSON,
/// run records) dependency-free: no python/jq needed in the test
/// environment.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

int main(int argc, char** argv) {
    if (argc < 2) {
        std::fprintf(stderr, "usage: json_check <file> [--contains STRING]...\n");
        return 1;
    }
    const std::string path = argv[1];
    std::vector<std::string> needles;
    for (int i = 2; i < argc; ++i) {
        if (std::string(argv[i]) == "--contains" && i + 1 < argc) {
            needles.emplace_back(argv[++i]);
        } else {
            std::fprintf(stderr, "json_check: unexpected argument '%s'\n", argv[i]);
            return 1;
        }
    }

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "json_check: cannot open %s\n", path.c_str());
        return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    std::string error;
    if (!dpma::obs::json_valid(text, &error)) {
        std::fprintf(stderr, "json_check: %s is not valid JSON: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    for (const std::string& needle : needles) {
        if (text.find(needle) == std::string::npos) {
            std::fprintf(stderr, "json_check: %s does not contain '%s'\n",
                         path.c_str(), needle.c_str());
            return 1;
        }
    }
    std::printf("json_check: %s ok (%zu bytes, %zu substrings)\n", path.c_str(),
                text.size(), needles.size());
    return 0;
}
