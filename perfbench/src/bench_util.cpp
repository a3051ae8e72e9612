#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "support/json.hpp"

namespace perfbench {

namespace json = ld::support::json;

double percentile(std::vector<double> samples, double q) {
    if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
    const auto n = samples.size();
    auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
    return samples[rank - 1];
}

double median(const std::vector<double>& samples) { return percentile(samples, 0.5); }

Tail tail_percentile(const std::vector<double>& samples) {
    static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.90, 0.75, 0.50};
    const auto n = static_cast<double>(samples.size());
    for (const double q : kLadder) {
        const double rank = std::ceil(q * n);
        if (n - rank >= 10.0) return {q, percentile(samples, q)};
    }
    return {0.0, std::numeric_limits<double>::quiet_NaN()};
}

std::string percentile_label(double q) {
    std::ostringstream os;
    os << 'p' << std::round(q * 1000.0) / 10.0;
    return os.str();
}

OpenLoopLog::OpenLoopLog(Clock::time_point start, double rate_per_s, std::size_t count)
    : start_(start), rate_(rate_per_s), sent_(count, 0.0), received_(count, 0.0) {}

Clock::time_point OpenLoopLog::due(std::size_t i) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_s(i)));
}

void OpenLoopLog::mark_sent(std::size_t i, Clock::time_point when) {
    // Never earlier than due: a sender that fires early would hide lateness.
    sent_[i] = std::max(seconds_between(start_, when), due_s(i));
}

void OpenLoopLog::mark_received(std::size_t i, Clock::time_point when) {
    // A strictly positive stamp doubles as the "answered" flag.
    received_[i] = std::max(seconds_between(start_, when), 1e-12);
}

bool eval_response_matches(std::string_view line, const ExpectedEval& expected) {
    try {
        const json::Value response = json::parse(line);
        const json::Value* ok = response.find("ok");
        const json::Value* result = response.find("result");
        if (!ok || !ok->is_bool() || !ok->as_bool() || !result || !result->is_object()) {
            return false;
        }
        const auto field = [&](const char* key) {
            const json::Value* v = result->find(key);
            return v && v->is_number() ? v->as_number()
                                       : std::numeric_limits<double>::quiet_NaN();
        };
        // Exact comparisons on purpose: the served path promises
        // bit-identity with in-process estimate_gain at equal (seed, threads).
        return field("pd") == expected.pd && field("pm") == expected.pm &&
               field("pm_stderr") == expected.pm_stderr && field("gain") == expected.gain &&
               field("mean_max_weight") == expected.mean_max_weight &&
               field("replications") == expected.replications;
    } catch (const std::exception&) {
        return false;
    }
}

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::map<std::string, Metric>& metrics) {
    json::Object body;
    json::Object rendered;
    for (const auto& [name, metric] : metrics) {
        json::Object entry;
        if (!std::isfinite(metric.value)) {
            correct = false;  // a metric that could not be measured is a failure
            entry.emplace("value", json::Value(-1.0));
        } else {
            entry.emplace("value", json::Value(metric.value));
        }
        entry.emplace("unit", json::Value(metric.unit));
        rendered.emplace(name, json::Value(std::move(entry)));
    }
    body.emplace("correct", json::Value(correct));
    body.emplace("attempted", json::Value(static_cast<double>(std::max<std::uint64_t>(attempted, 1))));
    body.emplace("failed", json::Value(static_cast<double>(failed)));
    body.emplace("metrics", json::Value(std::move(rendered)));
    return json::dump(json::Value(std::move(body)));
}

namespace {

std::string row(const std::string& name, double value, const std::string& unit,
                std::size_t samples) {
    std::ostringstream os;
    os << "  " << std::left << std::setw(30) << name << " " << std::setprecision(6) << value
       << " " << unit << "  (n=" << samples << ")";
    return os.str();
}

}  // namespace

void WorkloadReport::metric(const std::string& name, double value, const std::string& unit,
                            std::size_t samples) {
    metrics[name] = Metric{value, unit};
    notes.push_back(row(name, value, unit, samples));
}

void WorkloadReport::not_called(
    const std::vector<std::pair<std::string, std::string>>& layer_metrics) {
    for (const auto& [name, unit] : layer_metrics) metric(name, 0.0, unit, 0);
}

void WorkloadReport::note(const std::string& name, double value, const std::string& unit,
                          std::size_t samples) {
    notes.push_back(row(name, value, unit, samples));
}

void WorkloadReport::latency_notes(const std::string& stem,
                                   const std::vector<double>& samples_ms) {
    note(stem + "_p50", median(samples_ms), "ms", samples_ms.size());
    const Tail tail = tail_percentile(samples_ms);
    if (tail.q > 0.5) {
        note(stem + "_" + percentile_label(tail.q), tail.value, "ms", samples_ms.size());
    }
}

void WorkloadReport::check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 5) notes.push_back("  CHECK FAILED: " + what);
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

TraceLog::TraceLog() : origin_(Clock::now()) {}

void TraceLog::span(const std::string& name, Clock::time_point begin, Clock::time_point end,
                    int tid, std::uint64_t request, const std::string& parent) {
    Span s{name, parent, seconds_between(origin_, begin) * 1e6,
           seconds_between(begin, end) * 1e6, tid, request};
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
}

std::size_t TraceLog::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

void TraceLog::write(const std::string& path) const {
    json::Array events;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        events.reserve(spans_.size());
        for (const Span& s : spans_) {
            json::Object args;
            args.emplace("request", json::Value(static_cast<double>(s.request)));
            if (!s.parent.empty()) args.emplace("parent", json::Value(s.parent));
            json::Object event;
            event.emplace("name", json::Value(s.name));
            event.emplace("cat", json::Value(s.name.substr(0, s.name.find('.'))));
            event.emplace("ph", json::Value(std::string("X")));
            event.emplace("ts", json::Value(s.ts_us));
            event.emplace("dur", json::Value(s.dur_us));
            event.emplace("pid", json::Value(1.0));
            event.emplace("tid", json::Value(static_cast<double>(s.tid)));
            event.emplace("args", json::Value(std::move(args)));
            events.emplace_back(std::move(event));
        }
    }
    json::Object doc;
    doc.emplace("traceEvents", json::Value(std::move(events)));
    doc.emplace("displayTimeUnit", json::Value(std::string("ms")));
    std::ofstream out(path, std::ios::trunc);
    json::write(out, json::Value(std::move(doc)));
    out << "\n";
}

}  // namespace perfbench
