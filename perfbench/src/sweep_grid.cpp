// sweep_grid: repeated passes of a 36-cell SweepEngine grid — n ∈ {500,
// 2000} × {complete, ba:8, cl:2.5,8} × {uniform:0.3,0.7, pc:0.02,0.25} ×
// {threshold:1, alg1:sqrt, direct}, 200 replications, exact tally, 4
// threads.  Chosen because per-cell set-up (graph build, the dense
// approval CSR of `complete`, a small-n P^D) dominates and the batched
// exact tally runs at small n, so P^D and tally changes show differently
// here than in run_large.  Per-cell wall times come from outside the
// engine, by timestamping each poll of SweepOptions::cancel.

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "ld/cli/specs.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/experiments/sweep.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "traced_eval.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace json = ld::support::json;
using ld::experiments::SweepEngine;
using ld::experiments::SweepSpec;

constexpr std::size_t kReplications = 200;
constexpr std::size_t kThreads = 4;
constexpr int kSetupRepeats = 5;

SweepSpec grid_spec(std::uint64_t seed) {
    const auto strings = [](std::initializer_list<const char*> items) {
        json::Array out;
        for (const char* s : items) out.emplace_back(std::string(s));
        return json::Value(std::move(out));
    };
    json::Object axes;
    axes.emplace("n", json::Value(json::Array{json::Value(500.0), json::Value(2000.0)}));
    axes.emplace("alpha", json::Value(json::Array{json::Value(0.05)}));
    axes.emplace("graph", strings({"complete", "ba:8", "cl:2.5,8"}));
    axes.emplace("competencies", strings({"uniform:0.3,0.7", "pc:0.02,0.25"}));
    axes.emplace("mechanism", strings({"threshold:1", "alg1:sqrt", "direct"}));
    json::Object options;
    options.emplace("threads", json::Value(static_cast<double>(kThreads)));
    json::Object doc;
    doc.emplace("schema", json::Value(std::string("liquidd.sweep-spec.v1")));
    doc.emplace("name", json::Value(std::string("perfbench_grid")));
    doc.emplace("seed", json::Value(static_cast<double>(seed)));
    doc.emplace("replications", json::Value(static_cast<double>(kReplications)));
    doc.emplace("axes", json::Value(std::move(axes)));
    doc.emplace("options", json::Value(std::move(options)));
    return SweepSpec::from_json(json::Value(std::move(doc)));
}

/// One engine pass: wall time, per-cell wall times, and the rows it wrote.
struct Pass {
    double wall_s = 0.0;
    std::vector<double> cell_s;
    std::map<std::size_t, json::Value> rows;  ///< by cell index
    bool finished = false;
    std::size_t completed = 0;
};

Pass run_pass(const SweepSpec& spec, const std::string& out_dir, std::size_t max_cells) {
    const std::string rows_path = out_dir + "/sweep-pass.jsonl";
    std::vector<Clock::time_point> polls;
    ld::experiments::SweepOptions options;
    options.output_path = rows_path;
    options.checkpoint_path = out_dir + "/sweep-pass.ckpt.json";
    options.quiet = true;
    options.max_cells = max_cells;
    options.cancel = [&polls] {
        polls.push_back(Clock::now());
        return false;
    };
    Pass pass;
    const auto t0 = Clock::now();
    SweepEngine engine(spec, options);
    std::ostringstream log;
    const auto result = engine.run(log);
    const auto t1 = Clock::now();
    pass.wall_s = seconds_between(t0, t1);
    pass.finished = result.finished;
    pass.completed = result.cells_completed;
    polls.push_back(t1);
    for (std::size_t i = 0; i + 1 < polls.size(); ++i) {
        pass.cell_s.push_back(seconds_between(polls[i], polls[i + 1]));
    }
    std::ifstream in(rows_path);
    std::string line;
    while (std::getline(in, line)) {
        json::Value row = json::parse(line);
        const auto index = static_cast<std::size_t>(row.at("cell").as_number());
        if (!pass.rows.emplace(index, std::move(row)).second) pass.rows.clear();  // duplicate
    }
    return pass;
}

ld::election::EvalOptions cell_options() {
    ld::election::EvalOptions eval;
    eval.replications = kReplications;
    eval.threads = kThreads;
    return eval;
}

/// One cell through the public calls the engine makes, untraced: P^D and
/// P^M of its report.
std::pair<double, double> untraced_cell(const ld::experiments::SweepCell& cell) {
    ld::rng::Rng rng(cell.seed);
    auto graph = ld::cli::make_graph(cell.graph, cell.n, rng);
    auto competencies = ld::cli::make_competencies(cell.competency, graph.vertex_count(), rng);
    const ld::model::Instance instance(std::move(graph), std::move(competencies), cell.alpha);
    const auto mechanism = ld::cli::make_mechanism(cell.mechanism);
    const auto report = ld::election::estimate_gain(*mechanism, instance, rng, cell_options());
    return {report.pd, report.pm.value};
}

bool rows_valid(const Pass& pass, std::size_t cells) {
    if (pass.rows.size() != cells) return false;
    for (std::size_t i = 0; i < cells; ++i) {
        const auto it = pass.rows.find(i);
        if (it == pass.rows.end()) return false;
        const double pd = it->second.at("pd").as_number();
        const double pm = it->second.at("pm").as_number();
        if (!(pd >= 0.0 && pd <= 1.0 && pm >= 0.0 && pm <= 1.0)) return false;
    }
    return true;
}

}  // namespace

WorkloadReport sweep_grid(const WorkloadArgs& args) {
    WorkloadReport out;
    auto& registry = ld::support::MetricsRegistry::global();

    // Set-up: spec parse, engine construction, pool start and the first
    // cell (first-touch of every buffer the cells share).  Repeated; the
    // median is reported.
    std::vector<double> setup_s;
    for (int k = 0; k < kSetupRepeats; ++k) {
        const auto t0 = Clock::now();
        ld::support::ThreadPool::global();
        const Pass warm = run_pass(grid_spec(args.seed), args.out_dir, 1);
        setup_s.push_back(seconds_between(t0, Clock::now()));
        out.check(warm.completed == 1 && warm.rows.size() == 1, "warm-up cell written");
    }

    const SweepSpec spec = grid_spec(args.seed);
    const std::size_t cells = spec.cell_count();
    const auto grid = SweepEngine(spec, {}).cells();

    std::vector<double> pass_s, cell_s, untraced_s, traced_s;
    std::size_t completed = 0;
    std::optional<Pass> first;
    LayerTimes layers;
    double io_s = 0.0, busy_share = 0.0, reuse_ratio = 0.0, window_max = 0.0;
    std::size_t replayed_cells = 0, engine_passes_traced = 0;
    TracedPipeline pipeline("sweep.cell");
    TraceLog trace_log;

    const auto start = Clock::now();
    while (pass_s.empty() || seconds_between(start, Clock::now()) < args.seconds) {
        registry.reset();
        Pass pass = run_pass(spec, args.out_dir, 0);
        const auto counters = registry.snapshot();
        pass_s.push_back(pass.wall_s);
        completed += pass.completed;
        cell_s.insert(cell_s.end(), pass.cell_s.begin(), pass.cell_s.end());
        out.check(pass.finished && pass.completed == cells && pass.cell_s.size() == cells,
                  "every cell completed");
        out.check(counters.counter_value("sweep.cells_failed") == 0, "no cell failed");
        out.check(rows_valid(pass, cells), "every cell row present once, P^M and P^D in [0,1]");
        if (first) out.check(pass.rows == first->rows, "passes write identical rows");
        if (!args.trace) {
            if (!first) first = std::move(pass);
            continue;
        }

        const EngineCounters engine = engine_counters(counters, pass.wall_s);
        busy_share += engine.busy_share;
        reuse_ratio += engine.reuse_ratio;
        window_max = std::max(window_max, engine.window_max);
        ++engine_passes_traced;

        // Replay every cell untraced, then through the traced pipeline.
        // The engine's cell wall minus the untraced replayed cell is its row
        // and checkpoint I/O; traced over untraced replay is the tracing
        // overhead.
        const auto u0 = Clock::now();
        for (const auto& cell : grid) {
            const auto c0 = Clock::now();
            const auto [pd, pm] = untraced_cell(cell);
            io_s += pass.cell_s[cell.index] - seconds_between(c0, Clock::now());
            const auto& row = pass.rows.at(cell.index);
            out.check(pd == row.at("pd").as_number() && pm == row.at("pm").as_number(),
                      "untraced replay bit-identical to the engine row");
        }
        untraced_s.push_back(seconds_between(u0, Clock::now()));

        TraceLog* log = traced_s.empty() ? &trace_log : nullptr;
        const auto r0 = Clock::now();
        for (const auto& cell : grid) {
            LayerTimes t;
            const auto c0 = Clock::now();
            ld::rng::Rng rng(cell.seed);
            const auto instance = pipeline.build_instance(cell.graph, cell.competency, cell.n,
                                                          cell.alpha, rng, t, log, cell.index);
            const auto mechanism = ld::cli::make_mechanism(cell.mechanism);
            const TracedGain g = pipeline.gain(*mechanism, instance, rng, cell_options(), t, log,
                                               cell.index);
            const auto c1 = Clock::now();
            t.wall = seconds_between(c0, c1);
            if (log) log->span("sweep.cell", c0, c1, 0, cell.index);
            layers += t;
            ++replayed_cells;
            const auto& row = pass.rows.at(cell.index);
            out.check(g.pd == row.at("pd").as_number() && g.pm == row.at("pm").as_number(),
                      "traced replay bit-identical to the engine row");
        }
        traced_s.push_back(seconds_between(r0, Clock::now()));
        if (!first) first = std::move(pass);
    }

    double total_s = 0.0;
    for (const double s : pass_s) total_s += s;
    out.note("cells_per_s", static_cast<double>(completed) / total_s, "1/s", pass_s.size());
    out.note("pass_s", median(pass_s), "s", pass_s.size());
    out.latency_notes("cell_ms", [&] {
        std::vector<double> ms;
        for (const double s : cell_s) ms.push_back(s * 1e3);
        return ms;
    }());

    if (!args.trace) {
        out.metric("setup_s", median(setup_s), "s", setup_s.size());
        // Per pass, wall time per cell; the median over passes.  (The
        // median single cell would jump between cell shapes from seed to
        // seed.)
        std::vector<double> per_cell_ms;
        for (const double s : pass_s) per_cell_ms.push_back(s * 1e3 / double(cells));
        out.metric("op_ms_p50", median(per_cell_ms), "ms", pass_s.size());
        out.metric("ops_per_s", static_cast<double>(completed) / total_s, "1/s", pass_s.size());
        out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
        return out;
    }

    const auto n = static_cast<double>(replayed_cells);
    const auto passes = static_cast<double>(engine_passes_traced);
    out.metric("gen.generate_s", layers.gen / n, "s", replayed_cells);
    out.metric("model.instance_s", layers.instance / n, "s", replayed_cells);
    out.metric("election.pd_s", layers.pd / n, "s", replayed_cells);
    out.metric("election.replicate_s", layers.replicate / n, "s", replayed_cells);
    out.metric("mech.act_s", layers.act / n, "s", replayed_cells);
    out.metric("delegation.realize_s", layers.realize / n, "s", replayed_cells);
    out.metric("prob.tally_s", layers.tally / n, "s", replayed_cells);
    out.metric("prob.tally_window_max", window_max, "count", engine_passes_traced);
    out.metric("engine.pool_busy_share", busy_share / passes, "ratio", engine_passes_traced);
    out.metric("engine.workspace_reuse_ratio", reuse_ratio / passes, "ratio",
               engine_passes_traced);
    out.metric("sweep.cell_setup_s", (layers.gen + layers.instance) / n, "s", replayed_cells);
    out.metric("sweep.cell_eval_s", (layers.pd + layers.replicate) / n, "s", replayed_cells);
    out.metric("sweep.cell_io_s", io_s / n, "s", replayed_cells);
    out.metric("run.unattributed_s", layers.unattributed() / n, "s", replayed_cells);
    out.metric("unattributed_share", layers.unattributed() / layers.wall, "ratio",
               replayed_cells);
    out.metric("trace.overhead_share", median(traced_s) / median(untraced_s) - 1.0, "ratio",
               traced_s.size());
    out.not_called(serve_layer_metrics());
    const std::string path =
        args.out_dir + "/sweep_grid-seed" + std::to_string(args.seed) + ".trace.json";
    trace_log.write(path);
    out.notes.push_back("trace file: " + path + " (" + std::to_string(trace_log.size()) +
                        " spans)");
    return out;
}

}  // namespace perfbench
