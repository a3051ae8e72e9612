// run_large: one liquidd run on a large heavy-tailed graph, report after
// report.  A report is spec → graph → instance → exact P^D → 64
// replications on 4 threads with the ε-truncated tally → GainReport.
// Chosen because the O(n²) P^D DP and the truncated tally at large sink
// weights dominate here, while no serve layer runs.

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "ld/cli/specs.hpp"
#include "ld/election/evaluator.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "traced_eval.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr const char* kGraph = "cl:2.5,8";
constexpr const char* kCompetencies = "uniform:0.3,0.7";
constexpr const char* kMechanism = "threshold:1";
constexpr std::size_t kVoters = 100'000;
constexpr double kAlpha = 0.05;
constexpr std::size_t kReplications = 64;
constexpr double kTallyEps = 1e-12;
constexpr std::size_t kThreads = 4;
constexpr int kSetupRepeats = 3;
/// |exact P^D − Lemma-4 normal approximation| allowed at n = 10⁵ (σ ≈ 150).
/// The largest gap over seeds 1–12 was 3.2e-7; the margin leaves room for
/// an exact P^D computed another way, never for a wrong one.
constexpr double kPdTolerance = 1e-4;

ld::election::EvalOptions eval_options() {
    ld::election::EvalOptions eval;
    eval.replications = kReplications;
    eval.tally_epsilon = kTallyEps;
    eval.threads = kThreads;
    return eval;
}

ld::model::Instance build_instance(ld::rng::Rng& rng) {
    auto graph = ld::cli::make_graph(kGraph, kVoters, rng);
    auto competencies = ld::cli::make_competencies(kCompetencies, graph.vertex_count(), rng);
    return ld::model::Instance(std::move(graph), std::move(competencies), kAlpha);
}

/// One untraced report, timed from the spec to the finished GainReport.
struct TimedReport {
    ld::election::GainReport report;
    double approx_pd = 0.0;
    double wall_s = 0.0;
};

TimedReport timed_report(std::uint64_t seed) {
    TimedReport out;
    const auto t0 = Clock::now();
    ld::rng::Rng rng(seed);
    const ld::model::Instance instance = build_instance(rng);
    const auto mechanism = ld::cli::make_mechanism(kMechanism);
    out.report = ld::election::estimate_gain(*mechanism, instance, rng, eval_options());
    out.wall_s = seconds_between(t0, Clock::now());
    out.approx_pd = ld::election::approx_direct_probability(instance);
    return out;
}

bool same_report(const ld::election::GainReport& a, const ld::election::GainReport& b) {
    return a.pd == b.pd && a.pm.value == b.pm.value && a.pm.std_error == b.pm.std_error &&
           a.mean_max_weight == b.mean_max_weight;
}

}  // namespace

WorkloadReport run_large(const WorkloadArgs& args) {
    WorkloadReport out;

    // Set-up: pool start, a cold instance build and a short warm-up
    // estimate that creates every worker's workspace.  Repeated; the
    // median is reported.
    std::vector<double> setup_s;
    for (int k = 0; k < kSetupRepeats; ++k) {
        const auto t0 = Clock::now();
        ld::support::ThreadPool::global();
        ld::rng::Rng rng(args.seed);
        const ld::model::Instance instance = build_instance(rng);
        const auto mechanism = ld::cli::make_mechanism(kMechanism);
        auto warm = eval_options();
        warm.replications = kThreads;
        const auto estimate =
            ld::election::estimate_correct_probability(*mechanism, instance, rng, warm);
        setup_s.push_back(seconds_between(t0, Clock::now()));
        out.check(estimate.value >= 0.0 && estimate.value <= 1.0, "warm-up P^M in [0,1]");
    }

    const auto check_report = [&](const TimedReport& r, const TimedReport* first) {
        out.check(r.report.pm.value >= 0.0 && r.report.pm.value <= 1.0, "P^M in [0,1]");
        out.check(std::abs(r.report.pd - r.approx_pd) <= kPdTolerance,
                  "exact P^D within 1e-4 of the normal approximation");
        if (first) out.check(same_report(r.report, first->report), "reports identical for one seed");
    };

    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    LayerTimes layers;
    double busy_share = 0.0, reuse_ratio = 0.0, window_max = 0.0;
    TracedPipeline pipeline("run.report");
    TraceLog trace_log;
    std::optional<TimedReport> first;
    auto& registry = ld::support::MetricsRegistry::global();

    const auto start = Clock::now();
    while (untraced_s.empty() || seconds_between(start, Clock::now()) < args.seconds) {
        registry.reset();
        TimedReport r = timed_report(args.seed);
        const auto counters = registry.snapshot();
        const double wall_s = r.wall_s;
        untraced_s.push_back(wall_s);
        check_report(r, first ? &*first : nullptr);
        if (!first) first = std::move(r);
        if (!args.trace) continue;

        const EngineCounters engine = engine_counters(counters, wall_s);
        busy_share += engine.busy_share;
        reuse_ratio += engine.reuse_ratio;
        window_max = std::max(window_max, engine.window_max);

        // The same report through the traced pipeline.
        LayerTimes t;
        TraceLog* log = traced_s.empty() ? &trace_log : nullptr;
        const auto t0 = Clock::now();
        ld::rng::Rng rng(args.seed);
        const auto instance = pipeline.build_instance(kGraph, kCompetencies, kVoters, kAlpha,
                                                      rng, t, log, traced_s.size());
        const auto mechanism = ld::cli::make_mechanism(kMechanism);
        const TracedGain g =
            pipeline.gain(*mechanism, instance, rng, eval_options(), t, log, traced_s.size());
        const auto t1 = Clock::now();
        t.wall = seconds_between(t0, t1);
        if (log) log->span("run.report", t0, t1, 0, 0);
        traced_s.push_back(t.wall);
        layers += t;
        out.check(g.pd == first->report.pd && g.pm == first->report.pm.value &&
                      g.pm_stderr == first->report.pm.std_error &&
                      g.mean_max_weight == first->report.mean_max_weight,
                  "traced pipeline bit-identical to estimate_gain");
    }

    const std::size_t reports = untraced_s.size();
    double total = 0.0;
    for (const double s : untraced_s) total += s;
    out.note("run_s", median(untraced_s), "s", reports);
    out.note("pd", first->report.pd, "prob", 1);
    out.note("pm", first->report.pm.value, "prob", 1);
    out.note("mean_max_weight", first->report.mean_max_weight, "count", 1);

    if (!args.trace) {
        out.metric("setup_s", median(setup_s), "s", setup_s.size());
        out.metric("op_ms_p50", median(untraced_s) * 1e3, "ms", reports);
        out.metric("ops_per_s", static_cast<double>(reports) / total, "1/s", reports);
        out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
        return out;
    }

    const auto units = static_cast<double>(traced_s.size());
    out.metric("gen.generate_s", layers.gen / units, "s", traced_s.size());
    out.metric("model.instance_s", layers.instance / units, "s", traced_s.size());
    out.metric("election.pd_s", layers.pd / units, "s", traced_s.size());
    out.metric("election.replicate_s", layers.replicate / units, "s", traced_s.size());
    out.metric("mech.act_s", layers.act / units, "s", traced_s.size());
    out.metric("delegation.realize_s", layers.realize / units, "s", traced_s.size());
    out.metric("prob.tally_s", layers.tally / units, "s", traced_s.size());
    out.metric("prob.tally_window_max", window_max, "count", reports);
    out.metric("engine.pool_busy_share", busy_share / double(reports), "ratio", reports);
    out.metric("engine.workspace_reuse_ratio", reuse_ratio / double(reports), "ratio", reports);
    out.metric("run.unattributed_s", layers.unattributed() / units, "s", traced_s.size());
    out.metric("unattributed_share", layers.unattributed() / layers.wall, "ratio",
               traced_s.size());
    out.metric("trace.overhead_share",
               median(traced_s) / median(untraced_s) - 1.0, "ratio", traced_s.size());
    out.not_called(sweep_layer_metrics());
    out.not_called(serve_layer_metrics());
    const std::string path = args.out_dir + "/run_large-seed" + std::to_string(args.seed) +
                             ".trace.json";
    trace_log.write(path);
    out.notes.push_back("trace file: " + path + " (" + std::to_string(trace_log.size()) +
                        " spans)");
    return out;
}

}  // namespace perfbench
