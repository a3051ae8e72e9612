// Helpers shared by the perfbench workloads: exact percentiles over raw
// samples, the open-loop schedule's due-time accounting, response checks,
// the result line the benchmark prints last, and a span recorder that
// writes Chrome trace-event JSON.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Percentiles

/// Nearest-rank percentile of raw samples: the ceil(q·N)-th smallest value
/// (q in (0, 1]).  Exact — no buckets, no interpolation.  NaN when empty.
double percentile(std::vector<double> samples, double q);

double median(const std::vector<double>& samples);

/// The highest percentile of the ladder {99.9, 99, 95, 90, 75, 50} that
/// leaves at least ten samples above its rank, with its value.  With
/// fewer than 20 samples no rung qualifies and `q` is 0 (value NaN).
struct Tail {
    double q = 0.0;
    double value = 0.0;
};
Tail tail_percentile(const std::vector<double>& samples);

/// "p99", "p99.9", "p50" — the label for a ladder rung (q in (0, 1]).
std::string percentile_label(double q);

// ---------------------------------------------------------------------------
// Open-loop schedule

/// Request i of an open-loop client is due at start + i / rate.  Latency is
/// measured from the due time, so a stalled sender's backlog counts against
/// every request it delays (no coordinated omission); the sender's own
/// lateness (send − due) is reported separately.
class OpenLoopLog {
public:
    OpenLoopLog(Clock::time_point start, double rate_per_s, std::size_t count);

    Clock::time_point due(std::size_t i) const;
    void mark_sent(std::size_t i, Clock::time_point when);
    void mark_received(std::size_t i, Clock::time_point when);

    bool answered(std::size_t i) const noexcept { return received_[i] > 0.0; }
    /// Seconds from due to response (requires answered(i)).
    double latency_s(std::size_t i) const noexcept { return received_[i] - due_s(i); }
    /// Seconds the sender ran behind the schedule for request i.
    double lateness_s(std::size_t i) const noexcept { return sent_[i] - due_s(i); }

private:
    double due_s(std::size_t i) const noexcept {
        return static_cast<double>(i) / rate_;
    }

    Clock::time_point start_;
    double rate_;
    std::vector<double> sent_;      ///< seconds since start (0 = not yet)
    std::vector<double> received_;  ///< seconds since start (0 = not yet)
};

// ---------------------------------------------------------------------------
// Response checks

/// What a served eval must reproduce bit for bit.
struct ExpectedEval {
    double pd = 0.0;
    double pm = 0.0;
    double pm_stderr = 0.0;
    double gain = 0.0;
    double mean_max_weight = 0.0;
    double replications = 0.0;
};

/// True when `line` is a well-formed ok response whose result fields equal
/// `expected` exactly.  A corrupted, truncated or error response is false.
bool eval_response_matches(std::string_view line, const ExpectedEval& expected);

// ---------------------------------------------------------------------------
// Result line

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::map<std::string, Metric>& metrics);

/// What a workload hands back to main: its result-line fields plus the
/// human-readable rows printed above the result line.
struct WorkloadReport {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    std::vector<std::string> notes;

    /// A metric for the result line (and the human-readable table).
    void metric(const std::string& name, double value, const std::string& unit,
                std::size_t samples);
    /// Per-layer metrics of layers this workload never calls, as
    /// (name, unit) pairs: each reads 0 with no samples.
    void not_called(const std::vector<std::pair<std::string, std::string>>& metrics);
    /// A human-readable row only.
    void note(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
    /// Median plus the tail percentile of `samples_ms`, as `<stem>_p50` and
    /// `<stem>_<tail>` notes.
    void latency_notes(const std::string& stem, const std::vector<double>& samples_ms);
    /// Count one checked operation; a false `ok` counts as failed.
    void check(bool ok, const std::string& what);
};

/// Peak resident set size of this process in MiB (VmHWM), 0 if unknown.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Tracing

/// In-memory span recorder, written out once as Chrome trace-event JSON
/// (Perfetto and chrome://tracing open it).  Thread-safe.
class TraceLog {
public:
    TraceLog();

    /// Record a complete span [begin, end] on lane `tid`; `parent` names the
    /// enclosing span and `request` groups the spans of one unit of work.
    void span(const std::string& name, Clock::time_point begin, Clock::time_point end,
              int tid, std::uint64_t request, const std::string& parent = {});

    std::size_t size() const;
    void write(const std::string& path) const;

private:
    struct Span {
        std::string name;
        std::string parent;
        double ts_us = 0.0;
        double dur_us = 0.0;
        int tid = 0;
        std::uint64_t request = 0;
    };

    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

}  // namespace perfbench
