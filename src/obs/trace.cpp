#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace dpma::obs {
namespace {

struct SpanRecord {
    const char* name;
    const char* category;
    std::uint64_t start_ns;
    std::uint64_t duration_ns;
    std::uint32_t tid;
    std::array<const char*, Span::kMaxArgs> arg_keys;
    std::array<double, Span::kMaxArgs> arg_values;
};

/// Keep a long sweep visible but bound memory: ~1M records = ~80 MB worst
/// case is too much; 1<<18 records (~20 MB of JSON) is plenty of timeline.
constexpr std::size_t kMaxRecords = std::size_t{1} << 18;

struct Tracer {
    std::atomic<bool> enabled{false};
    std::mutex mutex;
    std::vector<SpanRecord> records;
    std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
};

Tracer& tracer() {
    static Tracer* instance = new Tracer;  // leaked: spans may end at exit
    return *instance;
}

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - tracer().epoch)
            .count());
}

/// Small dense thread ids for the "tid" field (std::thread::id is opaque).
std::uint32_t thread_tid() {
    static std::atomic<std::uint32_t> next{1};
    thread_local std::uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

}  // namespace

bool tracing_enabled() noexcept {
    return tracer().enabled.load(std::memory_order_relaxed);
}

void set_tracing(bool enabled) noexcept {
    tracer().enabled.store(enabled, std::memory_order_relaxed);
}

void clear_trace() {
    Tracer& t = tracer();
    const std::lock_guard<std::mutex> lock(t.mutex);
    t.records.clear();
    counter("obs.trace.dropped").reset();
}

std::size_t trace_size() noexcept {
    Tracer& t = tracer();
    const std::lock_guard<std::mutex> lock(t.mutex);
    return t.records.size();
}

Span::Span(const char* name, const char* category) noexcept
    : name_(name),
      category_(category),
      active_(tracing_enabled()) {
    if (active_) start_ns_ = now_ns();
}

void Span::arg(const char* key, double value) noexcept {
    if (!active_) return;
    for (std::size_t i = 0; i < kMaxArgs; ++i) {
        if (arg_keys_[i] == nullptr) {
            arg_keys_[i] = key;
            arg_values_[i] = value;
            return;
        }
    }
}

Span::~Span() {
    if (!active_) return;
    const std::uint64_t end_ns = now_ns();
    Tracer& t = tracer();
    const std::lock_guard<std::mutex> lock(t.mutex);
    if (t.records.size() >= kMaxRecords) {
        counter("obs.trace.dropped").add();
        return;
    }
    SpanRecord record{name_,
                      category_,
                      start_ns_,
                      end_ns - start_ns_,
                      thread_tid(),
                      arg_keys_,
                      arg_values_};
    t.records.push_back(record);
}

std::string trace_json() {
    Tracer& t = tracer();
    std::vector<SpanRecord> records;
    {
        const std::lock_guard<std::mutex> lock(t.mutex);
        records = t.records;
    }
    // Chrome sorts by ts itself, but emitting in start order keeps the file
    // diffable across runs with the same schedule.
    std::sort(records.begin(), records.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                  return a.start_ns < b.start_ns;
              });
    std::string out = "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const SpanRecord& r = records[i];
        out += "  {\"name\": " + json_quote(r.name) +
               ", \"cat\": " + json_quote(r.category) +
               ", \"ph\": \"X\", \"ts\": " +
               json_number(static_cast<double>(r.start_ns) / 1000.0) +
               ", \"dur\": " +
               json_number(static_cast<double>(r.duration_ns) / 1000.0) +
               ", \"pid\": 1, \"tid\": " + std::to_string(r.tid);
        if (r.arg_keys[0] != nullptr) {
            out += ", \"args\": {";
            for (std::size_t a = 0; a < Span::kMaxArgs && r.arg_keys[a] != nullptr; ++a) {
                if (a > 0) out += ", ";
                out += json_quote(r.arg_keys[a]) + ": " + json_number(r.arg_values[a]);
            }
            out += "}";
        }
        out += i + 1 < records.size() ? "},\n" : "}\n";
    }
    out += "], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

std::vector<SpanStats> span_summary() {
    Tracer& t = tracer();
    std::map<std::string, SpanStats> by_name;
    {
        const std::lock_guard<std::mutex> lock(t.mutex);
        for (const SpanRecord& r : t.records) {
            SpanStats& stats = by_name[r.name];
            stats.name = r.name;
            ++stats.count;
            stats.total_us += static_cast<double>(r.duration_ns) / 1000.0;
        }
    }
    std::vector<SpanStats> out;
    out.reserve(by_name.size());
    for (auto& [name, stats] : by_name) out.push_back(std::move(stats));
    std::sort(out.begin(), out.end(), [](const SpanStats& a, const SpanStats& b) {
        return a.total_us > b.total_us;
    });
    return out;
}

}  // namespace dpma::obs
