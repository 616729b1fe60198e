#include "tracer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

struct Record {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t id;
    std::uint32_t parent;
    std::int64_t point;
    std::uint32_t thread;
    double states;
    double rss_delta_mb;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{0};
std::mutex g_mutex;
std::vector<Record> g_records;  // guarded by g_mutex

thread_local std::uint32_t t_current = 0;
thread_local std::uint32_t t_thread = g_next_thread.fetch_add(1);

}  // namespace

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

double peak_rss_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kb = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kb / 1024.0;
}

void set_tracing(bool enabled) { g_enabled.store(enabled, std::memory_order_relaxed); }

Span::Span(const char* name, std::int64_t point, std::uint32_t parent, bool rss)
    : name_(name), point_(point) {
    if (!g_enabled.load(std::memory_order_relaxed)) return;
    id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
    parent_ = parent != 0 ? parent : t_current;
    saved_current_ = t_current;
    t_current = id_;
    if (rss) rss_before_mb_ = peak_rss_mb();
    start_ns_ = now_ns();
}

Span::~Span() {
    if (id_ == 0) return;
    const std::uint64_t end = now_ns();
    const double rss_delta = rss_before_mb_ < 0.0 ? 0.0 : peak_rss_mb() - rss_before_mb_;
    t_current = saved_current_;
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_records.push_back(Record{name_, start_ns_, end, id_, parent_, point_, t_thread,
                               states_, rss_delta});
}

SpanReport summarize() {
    const std::lock_guard<std::mutex> lock(g_mutex);
    // Children of each span, for self time: a span's self time is its
    // duration minus the union of its children's intervals inside it (pool
    // children of one parent overlap each other).
    std::unordered_map<std::uint32_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        children;
    for (const Record& r : g_records) {
        if (r.parent != 0) children[r.parent].emplace_back(r.start_ns, r.end_ns);
    }
    SpanReport report;
    for (const Record& r : g_records) {
        LayerRow& row = report.layers[r.name];
        const double total = static_cast<double>(r.end_ns - r.start_ns);
        double covered = 0.0;
        if (const auto it = children.find(r.id); it != children.end()) {
            auto& spans = it->second;
            std::sort(spans.begin(), spans.end());
            std::uint64_t cursor = r.start_ns;
            for (const auto& [start, end] : spans) {
                const std::uint64_t lo = std::max(start, cursor);
                const std::uint64_t hi = std::min(end, r.end_ns);
                if (hi > lo) {
                    covered += static_cast<double>(hi - lo);
                    cursor = hi;
                }
            }
        }
        row.count += 1;
        row.total_ms += total / 1e6;
        row.self_ms += std::max(0.0, total - covered) / 1e6;
        row.states += r.states;
        row.rss_delta_mb += r.rss_delta_mb;
        if (std::strcmp(r.name, "result") == 0 || std::strcmp(r.name, "setup") == 0) {
            report.wrapped_ms += total / 1e6;
            report.covered_ms += covered / 1e6;
        }
    }
    return report;
}

std::string chrome_trace_json() {
    const std::lock_guard<std::mutex> lock(g_mutex);
    const std::uint64_t origin = g_records.empty() ? 0 : std::min_element(
        g_records.begin(), g_records.end(),
        [](const Record& a, const Record& b) { return a.start_ns < b.start_ns; })->start_ns;
    std::string out = "{\"traceEvents\": [\n";
    char buffer[512];
    for (std::size_t i = 0; i < g_records.size(); ++i) {
        const Record& r = g_records[i];
        std::snprintf(buffer, sizeof buffer,
                      "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": "
                      "{\"id\": %u, \"parent\": %u, \"point\": %lld, \"states\": %.17g}}",
                      i == 0 ? "" : ",\n", r.name,
                      static_cast<double>(r.start_ns - origin) / 1e3,
                      static_cast<double>(r.end_ns - r.start_ns) / 1e3, r.thread, r.id,
                      r.parent, static_cast<long long>(r.point), r.states);
        out += buffer;
    }
    out += "\n], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

}  // namespace perfbench
