// Self-tests for the benchmark's own helpers: the percentile rule, the
// open-loop lateness accounting, and response checks that count a
// corrupted answer as a failure.  perfbench/run.py runs this before every
// workload; `python3 perfbench/run.py --selftest` runs it alone.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "support/json.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    if (!ok) {
        ++failures;
        std::cout << "FAIL: " << what << "\n";
    }
}

std::vector<double> one_to(int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    return v;
}

void percentile_rule() {
    using perfbench::percentile;
    using perfbench::tail_percentile;
    const auto hundred = one_to(100);
    expect(percentile(hundred, 0.5) == 50, "p50 of 1..100 is 50 (nearest rank)");
    expect(percentile(hundred, 0.99) == 99, "p99 of 1..100 is 99");
    expect(percentile(hundred, 1.0) == 100, "p100 is the maximum");
    expect(percentile(hundred, 0.001) == 1, "a tiny q is the minimum");
    expect(std::isnan(percentile({}, 0.5)), "no samples give NaN");

    // Raw samples, not buckets: a constant 1.16 s reads 1.16 at every
    // percentile (a 1-2-5 bucket ladder would say 2 s).
    const std::vector<double> flat(500, 1.16);
    expect(percentile(flat, 0.5) == 1.16 && percentile(flat, 0.99) == 1.16,
           "constant samples read exactly at p50 and p99");

    // The tail rung leaves at least ten samples above its rank.
    expect(tail_percentile(one_to(1000)).q == 0.99, "1000 samples: p99 (10 beyond)");
    expect(tail_percentile(one_to(999)).q == 0.95, "999 samples: p95 (p99 has 9 beyond)");
    expect(tail_percentile(one_to(10000)).q == 0.999, "10000 samples: p99.9");
    expect(tail_percentile(one_to(100)).q == 0.90, "100 samples: p90");
    expect(tail_percentile(one_to(20)).q == 0.50, "20 samples: p50");
    expect(tail_percentile(one_to(19)).q == 0.0, "19 samples: no rung qualifies");
    expect(tail_percentile(one_to(1000)).value == 990, "p99 of 1..1000 is 990");
    expect(perfbench::percentile_label(0.999) == "p99.9" &&
               perfbench::percentile_label(0.99) == "p99",
           "percentile labels");
}

void open_loop_accounting() {
    using perfbench::Clock;
    using std::chrono::milliseconds;
    const auto start = Clock::now();
    // 100 requests/s: request i is due at start + 10·i ms.
    perfbench::OpenLoopLog log(start, 100.0, 4);
    expect(log.due(3) - start == milliseconds(30), "due time is start + i/rate");

    // Request 0 on time, answered after 5 ms.
    log.mark_sent(0, start);
    log.mark_received(0, start + milliseconds(5));
    // The sender stalls 50 ms before request 1; request 2 goes out right
    // after it, both answered 2 ms after sending.  A closed-loop clock
    // (send → answer) would say 2 ms; from the due time they took 52 and
    // 42 ms, and the sender ran 50 and 40 ms late.
    log.mark_sent(1, start + milliseconds(60));
    log.mark_received(1, start + milliseconds(62));
    log.mark_sent(2, start + milliseconds(60));
    log.mark_received(2, start + milliseconds(62));
    // Request 3 "sent early" is clamped to its due time: no negative lateness.
    log.mark_sent(3, start + milliseconds(20));

    const auto near = [](double a, double b) { return std::abs(a - b) < 1e-6; };
    expect(near(log.latency_s(0), 0.005) && near(log.lateness_s(0), 0.0), "on-time request");
    expect(near(log.latency_s(1), 0.052) && near(log.lateness_s(1), 0.050),
           "a stall counts against the delayed request");
    expect(near(log.latency_s(2), 0.042) && near(log.lateness_s(2), 0.040),
           "and against the requests queued behind it");
    expect(near(log.lateness_s(3), 0.0), "early sends clamp to the due time");
    expect(log.answered(0) && log.answered(2) && !log.answered(3),
           "unanswered requests stay visible");
}

void corrupted_response_fails() {
    namespace json = ld::support::json;
    perfbench::ExpectedEval expected{0.59779095, 1.0, 0.0, 0.40220905, 689.125, 20.0};
    json::Object result;
    result.emplace("pd", json::Value(expected.pd));
    result.emplace("pm", json::Value(expected.pm));
    result.emplace("pm_stderr", json::Value(expected.pm_stderr));
    result.emplace("gain", json::Value(expected.gain));
    result.emplace("mean_max_weight", json::Value(expected.mean_max_weight));
    result.emplace("replications", json::Value(expected.replications));
    json::Object response;
    response.emplace("id", json::Value(7.0));
    response.emplace("ok", json::Value(true));
    response.emplace("result", json::Value(result));
    const std::string good = json::dump(json::Value(response));

    perfbench::WorkloadReport report;
    report.check(perfbench::eval_response_matches(good, expected), "good response");
    expect(report.attempted == 1 && report.failed == 0, "an exact response passes");

    std::string flipped = good;
    flipped[flipped.find("0.597") + 4] = '8';  // one digit of P^D
    const std::vector<std::string> corrupted = {
        good.substr(0, good.size() / 2),  // truncated line
        flipped,
        R"({"id": 7, "ok": false, "error": {"code": "overloaded", "message": "full"}})",
        R"({"id": 7, "ok": true, "result": {"pd": 0.59779095}})",  // fields missing
        "not json at all",
        "",
    };
    for (const std::string& line : corrupted) {
        report.check(perfbench::eval_response_matches(line, expected), "corrupted response");
    }
    expect(report.attempted == 1 + corrupted.size() && report.failed == corrupted.size(),
           "every corrupted response counts as failed");

    // A failed check makes the result line say so.
    const json::Value line = json::parse(
        perfbench::result_line(report.failed == 0, report.attempted, report.failed, {}));
    expect(!line.at("correct").as_bool() &&
               line.at("failed").as_number() == static_cast<double>(corrupted.size()),
           "result line carries the failures");
}

}  // namespace

int main() {
    percentile_rule();
    open_loop_accounting();
    corrupted_response_fails();
    if (failures > 0) {
        std::cout << "perfbench selftest: " << failures << " failure(s)\n";
        return 1;
    }
    std::cout << "perfbench selftest: ok\n";
    return 0;
}
