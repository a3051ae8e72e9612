#include "ld/cli/runner.hpp"

#include <algorithm>
#include <chrono>
#include <climits>
#include <fstream>
#include <ostream>
#include <string_view>
#include <tuple>

#include <unistd.h>

#include "gen/factory.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "ld/cli/specs.hpp"
#include "ld/delegation/realize.hpp"
#include "ld/dnh/conditions.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/experiments/sweep.hpp"
#include "ld/game/delegation_game.hpp"
#include "ld/model/instance.hpp"
#include "ld/model/instance_io.hpp"
#include "ld/serve/server.hpp"
#include "ld/serve/shard_router.hpp"
#include "prob/convolve.hpp"
#include "stats/confidence_sequence.hpp"
#include "support/build_info.hpp"
#include "support/expect.hpp"
#include "support/cpu_features.hpp"
#include "support/metrics.hpp"
#include "support/signal_drain.hpp"
#include "support/table_printer.hpp"
#include "support/thread_pool.hpp"

namespace ld::cli {

namespace {

using election::eval_spec;
using election::Option;
using election::OptionError;
using election::OptionSpec;

/// Apply a `--simd` value (run/sweep/serve all accept it).  "auto" keeps
/// or resolves the widest supported tier; naming a tier the host cannot
/// execute is a hard error — silently downgrading would make published
/// numbers unattributable to a lane width.
void apply_simd_override(const std::string& value) {
    if (value == "auto") {
        // Force first-use resolution now — LIQUIDD_SIMD if set and
        // runnable (warning + fallback otherwise), else the widest
        // supported tier — so --version / handshakes / manifests report
        // the tier the run will actually use.  Pinning best_simd_tier()
        // here instead would silently override a valid env request.
        prob::kernel_tier();
        return;
    }
    const auto tier = support::parse_simd_tier(value);
    if (!tier.has_value()) {
        throw SpecError("--simd: expected auto|scalar|avx2|avx512, got '" + value +
                        "'");
    }
    if (!prob::set_kernel_tier(*tier)) {
        throw SpecError("--simd: tier '" + value +
                        "' is not supported on this host (best: " +
                        support::simd_tier_name(support::best_simd_tier()) + ")");
    }
}

// Flags several subcommands share; the evaluation knobs come from the
// shared table (ld/election/option_table.hpp).
const OptionSpec kGraph{.flag = "--graph", .metavar = "<spec>", .help = "topology"};
const OptionSpec kCompetencies{
    .flag = "--competencies", .metavar = "<spec>", .help = "competency profile"};
const OptionSpec kLoadInstance{
    .flag = "--load-instance", .metavar = "<path>",
    .help = "load a saved instance (overrides --graph/--competencies)"};
const OptionSpec kMetricsOut{
    .flag = "--metrics-out", .metavar = "<path>",
    .help = "write the end-of-run metrics report as JSON; set LIQUIDD_METRICS=1 for "
            "a console table instead"};
const OptionSpec kSimd{
    .flag = "--simd", .metavar = "<tier>",
    .help = "pin the tally kernel tier: auto | scalar | avx2 | avx512 (every tier is "
            "bit-identical; env: LIQUIDD_SIMD)"};
const OptionSpec kHelp{.flag = "--help", .help = "show this text"};
const OptionSpec kShard{.flag = "--shard", .metavar = "<i>/<k>",
                        .help = "run only cells with index % k == i; the union of all "
                                "k shards equals the unsharded run"};

/// Walk argv against `table`, mapping OptionError onto SpecError with the
/// flag as prefix.  Returns the flags seen.
template <class T>
std::vector<std::string> parse_into(T& out, const std::vector<Option<T>>& table,
                                    const std::vector<std::string>& args,
                                    std::string T::*positional = nullptr) {
    try {
        return election::parse_args(args, table, out, positional);
    } catch (const OptionError& e) {
        throw SpecError(e.field().empty() ? e.what() : e.field() + ": " + e.what());
    }
}

template <class T>
std::vector<std::string> flags_of(const std::vector<Option<T>>& table) {
    std::vector<std::string> flags;
    for (const auto& option : table) {
        if (flags.empty() || flags.back() != option.spec.flag) {
            flags.push_back(option.spec.flag);
        }
    }
    return flags;
}

/// The end-of-run metrics report: a console table under LIQUIDD_METRICS=1,
/// a liquidd.metrics.v1 JSON file at `--metrics-out`.
void write_metrics_report(const std::optional<std::string>& path, std::ostream& out) {
    if (!path && !support::metrics_env_enabled()) return;
    const auto snapshot = support::MetricsRegistry::global().snapshot();
    if (support::metrics_env_enabled()) {
        out << "\n-- metrics --\n";
        support::print_metrics_table(out, snapshot);
    }
    if (path) {
        std::ofstream metrics(*path);
        if (!metrics) throw SpecError("--metrics-out: cannot open '" + *path + "'");
        support::write_metrics_json(metrics, snapshot);
        out << "\nwrote metrics report to " << *path << "\n";
    }
}

/// The stream a `--out`-style flag names: stdout for "-", else `file`.
std::ostream& output_for(const std::string& path, const char* flag, std::ostream& out,
                         std::ofstream& file) {
    if (path == "-") return out;
    file.open(path);
    if (!file) throw SpecError(std::string(flag) + ": cannot open '" + path + "'");
    return file;
}

/// Build the instance the run/game flags describe (or load it).
model::Instance build_instance(const std::optional<std::string>& load_path,
                               const std::string& graph_spec,
                               const std::string& competency_spec, std::size_t n,
                               double alpha, rng::Rng& rng) {
    if (load_path.has_value()) return model::load_instance(*load_path);
    auto graph = make_graph(graph_spec, n, rng);
    auto competencies = make_competencies(competency_spec, graph.vertex_count(), rng);
    return model::Instance(std::move(graph), std::move(competencies), alpha);
}

/// `--shard i/k` (sweep and gen): only cells with index % k == i.
template <class T>
void set_shard(T& options, const std::string& value) {
    const auto slash = value.find('/');
    if (slash == std::string::npos) {
        throw OptionError("", "expected <index>/<count>, got '" + value + "'");
    }
    const auto count_of = [](const std::string& text) {
        return election::require_count(election::parse_double(text), {});
    };
    options.shard_index = count_of(value.substr(0, slash));
    options.shard_count = count_of(value.substr(slash + 1));
    if (options.shard_count == 0 || options.shard_index >= options.shard_count) {
        throw OptionError("", "need index < count, got '" + value + "'");
    }
}

const std::vector<Option<Options>>& run_table() {
    static const auto table = [] {
        std::vector<Option<Options>> t = {
            {kGraph, &Options::graph_spec},
            {kCompetencies, &Options::competency_spec},
            {{.flag = "--mechanism", .metavar = "<spec>", .help = "delegation mechanism"},
             &Options::mechanism_spec}};
        for (auto& option : election::cli_options<Options>()) t.push_back(option);
        t.insert(t.end(),
                 {{{.flag = "--audit", .help = "also run the Lemma 3 / Lemma 5 audits"},
                   &Options::audit},
                  {kLoadInstance, &Options::load_path},
                  {{.flag = "--save-instance", .metavar = "<path>",
                    .help = "save the built instance for replay"},
                   &Options::save_path},
                  {{.flag = "--dot", .metavar = "<path>",
                    .help = "write one delegation realization as GraphViz DOT"},
                   &Options::dot_path},
                  {kMetricsOut, &Options::metrics_out},
                  {kSimd, &Options::simd},
                  {kHelp, &Options::help}});
        return t;
    }();
    return table;
}

const std::vector<Option<SweepOptions>>& sweep_table() {
    using S = SweepOptions;
    static const std::vector<Option<S>> table = {
        {{.flag = "--out", .metavar = "<path>",
          .help = "row output, .jsonl for JSON lines (default <spec stem>.csv here; "
                  "sharded runs add .shard<i>of<k>)"},
         &S::output_path},
        {{.flag = "--ckpt", .metavar = "<path>",
          .help = "checkpoint manifest (default <out>.ckpt.json)"},
         &S::checkpoint_path},
        {{.flag = "--resume", .help = "replay finished cells from the checkpoint, then "
                                      "continue; output is byte-identical"},
         &S::resume},
        {kShard, set_shard<S>},
        {eval_spec("threads", "override the spec's replication workers (0 = auto)"),
         &S::threads},
        {{.flag = "--max-cells", .metavar = "<count>",
          .help = "stop after this many new cells (0 = unlimited)"},
         &S::max_cells},
        {kMetricsOut, &S::metrics_out},
        {kSimd, &S::simd},
        {kHelp, &S::help}};
    return table;
}

const std::vector<Option<ServeOptions>>& serve_table() {
    using S = ServeOptions;
    static const std::vector<Option<S>> table = {
        {{.flag = "--socket", .metavar = "<path>", .help = "Unix-domain socket path"},
         &S::unix_socket},
        {{.flag = "--tcp", .metavar = "<port>", .range = {.hi = 65535},
          .help = "TCP loopback port (0 = ephemeral, printed on startup); at least one "
                  "of --socket/--tcp is required"},
         &S::tcp_port},
        {{.flag = "--queue-capacity", .metavar = "<n>",
          .help = "admission bound: evals queued beyond it get `overloaded`"},
         &S::queue_capacity},
        {{.flag = "--batch-max", .metavar = "<n>", .range = {.lo = 1},
          .help = "evals coalesced per dispatcher pass on one cached instance"},
         &S::batch_max},
        {eval_spec("threads", "eval threads for requests that name none (0 = auto)"),
         &S::threads},
        {eval_spec("tally_eps", "truncation eps for eval requests that name no "
                                "tally_eps (0 = exact)"),
         &S::tally_eps},
        {{.flag = "--deadline-ms", .metavar = "<ms>",
          .help = "deadline for requests that carry no deadline_ms (0 = none)"},
         &S::deadline_ms},
        {{.flag = "--write-timeout-ms", .metavar = "<ms>",
          .help = "drop a client whose response write blocks this long (0 = never)"},
         &S::write_timeout_ms},
        {{.flag = "--metrics-out", .metavar = "<path>",
          .help = "flush a liquidd.metrics.v1 report here as the last drain step"},
         &S::metrics_out},
        {kSimd, &S::simd},
        {{.flag = "--route", .metavar = "<b1,b2,...>",
          .help = "shard-router mode: forward requests to these backends (unix:/path, "
                  "tcp:PORT, a bare path or port), hashed by instance fingerprint"},
         +[](S& o, const std::string& list) {
             // Validate each backend now, so a typo fails here, not mid-serve.
             for (std::size_t start = 0, comma = 0; comma != std::string::npos;
                  start = comma + 1) {
                 comma = list.find(',', start);
                 const std::string item = list.substr(start, comma - start);
                 if (item.empty()) continue;
                 try {
                     serve::parse_backend_spec(item);
                 } catch (const support::net::NetError& e) {
                     throw OptionError("", e.what());
                 }
                 o.route.push_back(item);
             }
             if (o.route.empty()) throw OptionError("", "need at least one backend");
         }},
        {{.flag = "--health-interval-ms", .metavar = "<ms>", .range = {.lo = 1},
          .help = "router health-probe cadence (3 missed probes mark a backend down)"},
         &S::health_interval_ms},
        {{.flag = "--ready-file", .metavar = "<path>",
          .help = "write \"ready\\n\" here once the listeners accept (a FIFO works)"},
         &S::ready_file},
        {{.flag = "--ready-fd", .metavar = "<fd>", .range = {.hi = INT_MAX},
          .help = "write \"ready\\n\" to this inherited fd, then close it"},
         &S::ready_fd},
        {kHelp, &S::help}};
    return table;
}

const std::vector<Option<GenOptions>>& gen_table() {
    using S = GenOptions;
    static const std::vector<Option<S>> table = {
        {{.flag = "--graph", .metavar = "<spec>",
          .help = "facade spec: cl:<gamma>,<avgdeg>[,<maxw>] | hyper:... | girg:... | "
                  "rmat:<m>[,<a>,<b>,<c>] | gen:<family>[:<params>]; bare family specs "
                  "such as gnp:0.01 mean gen:..."},
         &S::graph_spec},
        {eval_spec("n", "number of vertices"), &S::n},
        {eval_spec("seed", "root seed for per-cell derivation"), &S::seed},
        {kShard, set_shard<S>},
        {{.flag = "--chunk-edges", .metavar = "<c>", .range = {.lo = 1},
          .help = "edges per sink flush (output-invariant)"},
         &S::chunk_edges},
        {eval_spec("threads", "generation workers (0 = auto; output-invariant)"),
         &S::threads},
        {{.flag = "--budget-mb", .metavar = "<mb>", .range = {.hi = 0x1p44 - 1},
          .help = "refuse to exceed this pipeline footprint (0 = LIQUIDD_GEN_BUDGET_MB "
                  "env, else unlimited)"},
         &S::budget_mb},
        {{.flag = "--out", .metavar = "<path>",
          .help = "write the generated graph (\"-\" for stdout)"},
         &S::out_path},
        {{.flag = "--format", .metavar = "<fmt>", .choices = {"edges", "csr"},
          .help = "dump format: sorted \"u v\" lines or CSR adjacency"},
         &S::format},
        {kMetricsOut, &S::metrics_out},
        {kHelp, &S::help}};
    return table;
}

const std::vector<Option<GameCliOptions>>& game_table() {
    using S = GameCliOptions;
    static const std::vector<Option<S>> table = {
        {kGraph, &S::graph_spec},
        {kCompetencies, &S::competency_spec},
        {eval_spec("n"), &S::n},
        {eval_spec("alpha"), &S::alpha},
        {eval_spec("seed"), &S::seed},
        {{.flag = "--utility", .metavar = "<name>", .choices = {"selfish", "coop"},
          .help = "sink competency (viscosity-decayed) or group correct probability"},
         &S::utility},
        {{.flag = "--max-rounds", .metavar = "<count>", .range = {.lo = 1},
          .help = "passes over the voters before giving up"},
         &S::max_rounds},
        {{.flag = "--viscosity", .metavar = "<v>",
          .range = {.lo = 0, .hi = 1, .lo_open = true},
          .help = "a selfish sink at delegation depth d is worth v^d * competency"},
         &S::viscosity},
        {eval_spec("tally_eps", "certified clip budget for cooperative probes and "
                                "trajectory points (the equilibrium P stays exact)"),
         &S::tally_eps},
        {{.flag = "--shuffle-seed", .metavar = "<value>",
          .help = "seed the per-round order shuffle, so the trajectory replays "
                  "byte-identically (default: drawn from --seed)"},
         &S::shuffle_seed},
        {{.flag = "--fixed-order", .help = "visit voters in id order every round"},
         &S::fixed_order},
        {kLoadInstance, &S::load_path},
        {{.flag = "--trajectory-out", .metavar = "<path>",
          .help = "write the deviation trajectory as CSV (\"-\" for stdout)"},
         &S::trajectory_out},
        {kMetricsOut, &S::metrics_out},
        {kSimd, &S::simd},
        {kHelp, &S::help}};
    return table;
}

}  // namespace

std::string usage() {
    return R"(liquidd — liquid democracy experiment runner

usage: liquidd [run] [flags]
       liquidd sweep <spec.json> [flags]  parameter sweeps (docs/SWEEPS.md)
       liquidd serve [flags]              evaluation server (docs/SERVING.md)
       liquidd gen [flags]                graph generation (docs/GENERATORS.md)
       liquidd game [flags]               best-response dynamics (docs/CHURN.md)
       liquidd --version                  git describe, build type, compiler
`liquidd <subcommand> --help` lists a subcommand's flags.

)" + election::describe_options(run_table()) +
           R"(
specs (see src/ld/cli/specs.hpp for the full grammar):
  graph:        complete | star | dregular:16 | ba:8 | ws:12,0.2 | er:0.05
                | twotier:10,2 | mindeg:8 | maxdeg:6 | file:edges.txt
                | cl:2.5,8 | hyper:2.7,12 | rmat:800000 | gen:<family>:...
                (cl/hyper/rmat/gen route through the chunked-CSR streaming
                facade — docs/GENERATORS.md) | ...
  competencies: uniform:0.3,0.7 | pc:0.02,0.25 | beta:8,8.3 | const:0.6
                | star:0.75,0.55 | twopoint:0.3,0.8,0.2 | figure2 | ...
  mechanism:    direct | threshold:2 | alg1:sqrt | alg1:lin,0.25
                | alg2:16,2,nbr | fraction:0.333 | best | noisy:1,0.2
                | multi:3,1 | abstain:0.5/threshold:2

example:
  liquidd --graph ba:8 --competencies pc:0.02,0.25 --mechanism threshold:2 \
          --n 2000 --reps 400 --audit
)";
}

Options parse_options(const std::vector<std::string>& args) {
    Options options;
    const auto seen = parse_into(options, run_table(), args);
    if (options.certify_delta == 0.0 &&
        std::find(seen.begin(), seen.end(), "--certify") != seen.end()) {
        throw SpecError("--certify <delta>: must be > 0 (0 turns certification off)");
    }
    return options;
}

int run(const Options& options, std::ostream& out) {
    if (options.help) {
        out << usage();
        return 0;
    }
    apply_simd_override(options.simd);
    rng::Rng rng(options.seed);
    const model::Instance instance =
        build_instance(options.load_path, options.graph_spec, options.competency_spec,
                       options.n, options.alpha, rng);
    if (options.save_path.has_value()) {
        model::save_instance(*options.save_path, instance);
        out << "saved instance to " << *options.save_path << "\n";
    }
    const auto mechanism = make_mechanism(options.mechanism_spec);

    if (!mechanism->approval_respecting() && !options.discard_cycles) {
        throw SpecError("mechanism '" + options.mechanism_spec +
                        "' can create delegation cycles; pass --discard-cycles");
    }

    out << instance.describe() << "\n";
    const auto deg = graph::degree_stats(instance.graph());
    out << "degrees: min " << deg.min << ", max " << deg.max << ", mean " << deg.mean
        << ", asymmetry " << deg.asymmetry << "\n";
    out << "mechanism: " << mechanism->name() << "\n\n";

    const election::EvalOptions eval = options.eval_options();
    const auto report = election::estimate_gain(*mechanism, instance, rng, eval);

    support::TablePrinter table({"metric", "value"}, 5);
    table.add_row({std::string("P^D (exact)"), report.pd});
    table.add_row({std::string("P^M (estimated)"), report.pm.value});
    table.add_row({std::string("P^M std error"), report.pm.std_error});
    table.add_row({std::string("P^M replications"),
                   static_cast<double>(report.pm.replications)});
    table.add_row({std::string("gain"), report.gain});
    table.add_row({std::string("gain CI lo"), report.gain_ci.lo});
    table.add_row({std::string("gain CI hi"), report.gain_ci.hi});
    table.add_row({std::string("mean delegators"), report.mean_delegators});
    table.add_row({std::string("mean voting sinks"), report.mean_sinks});
    table.add_row({std::string("mean max weight"), report.mean_max_weight});
    table.add_row({std::string("mean longest path"), report.mean_longest_path});
    if (report.pm.certified && report.certified_gain) {
        const auto& cert = *report.pm.certified;
        table.add_row({std::string("certified gain lo"), report.certified_gain->lo});
        table.add_row({std::string("certified gain hi"), report.certified_gain->hi});
        table.add_row({std::string("certified delta"), cert.delta});
        table.add_row({std::string("certified looks"),
                       static_cast<double>(cert.looks)});
    }
    table.print(out);

    if (report.pm.certified && report.certified_gain) {
        // The certificate in words: what was decided, at what error, and
        // where the loop stopped.  "inconclusive" keeps the interval —
        // it is valid at δ even when the threshold was not cleared.
        const auto& cert = *report.pm.certified;
        out << "\ncertified verdict: ";
        switch (cert.stop) {
            case stats::CertStop::DecidedAbove:
                out << "gain >= " << options.certify_gamma;
                break;
            case stats::CertStop::DecidedBelow:
                out << "gain < " << options.certify_gamma;
                break;
            case stats::CertStop::BudgetExhausted:
                out << "inconclusive (budget exhausted at " << cert.replications
                    << " replications)";
                break;
        }
        out << " [statistical error <= " << cert.delta
            << ", tally error <= " << cert.numerical_error
            << " folded into the interval; stopped after " << cert.replications
            << " replications, " << cert.looks << " looks, boundary "
            << stats::cs_boundary_name(eval.certify.boundary) << "]\n";
    }

    if (options.audit) {
        const auto l3 = dnh::audit_lemma3(instance, *mechanism, rng, 0.1);
        const auto l5 = dnh::audit_lemma5(instance, *mechanism, rng, 0.2, 2.0, 24);
        out << "\nLemma 3 audit (bounded competency + delegation budget):\n"
            << "  bounded competency: " << (l3.bounded_competency ? "yes" : "NO")
            << " (beta " << l3.beta << ")\n"
            << "  delegations " << l3.mean_delegators << " vs budget n^{1/2-eps} = "
            << l3.delegation_budget << " => "
            << (l3.within_budget ? "within" : "EXCEEDED") << "\n"
            << "  erf flip-probability bound: " << l3.flip_probability_bound << "\n"
            << "  hypotheses hold: " << (l3.hypotheses_hold ? "yes" : "NO") << "\n";
        out << "Lemma 5 audit (max sink weight / variance):\n"
            << "  mean max weight " << l5.mean_max_weight << ", worst "
            << l5.worst_max_weight << "\n"
            << "  delegated margin " << l5.mean_margin << " vs sigma " << l5.mean_sigma
            << " => " << (l5.weight_small_enough ? "safe (margin >= 2 sigma)"
                                                 : "AT RISK (margin < 2 sigma)")
            << "\n";
    }

    if (options.dot_path.has_value()) {
        const auto outcome = delegation::realize_weighted(
            *mechanism, instance, rng, {},
            options.discard_cycles ? delegation::CyclePolicy::Discard
                                   : delegation::CyclePolicy::Throw);
        std::ofstream dot(*options.dot_path);
        if (!dot) throw SpecError("--dot: cannot open '" + *options.dot_path + "'");
        std::vector<std::string> labels;
        labels.reserve(instance.voter_count());
        for (graph::Vertex v = 0; v < instance.voter_count(); ++v) {
            std::string label = "v";
            label += std::to_string(v);
            label += " p=";
            label += std::to_string(instance.competency(v)).substr(0, 5);
            labels.push_back(std::move(label));
        }
        graph::write_dot(dot, outcome.as_digraph(), labels, "delegation");
        out << "\nwrote one delegation realization to " << *options.dot_path << "\n";
    }

    write_metrics_report(options.metrics_out, out);
    return 0;
}

std::string sweep_usage() {
    return R"(liquidd sweep — declarative, checkpointed parameter sweeps

usage: liquidd sweep <spec.json> [flags]

The spec describes a cartesian grid over n × alpha × graph ×
competencies × mechanism (axis values use the same spec grammar as the
single-run flags); every grid cell is evaluated with a seed derived from
(sweep seed, cell index), so runs reproduce bit-for-bit.  Rows stream to
CSV (or JSON lines when the output ends in .jsonl) and a checkpoint
manifest is rewritten atomically after every cell.

)" + election::describe_options(sweep_table()) +
           R"(
Spec reference, worked examples, and the checkpoint/shard semantics:
docs/SWEEPS.md.  Ready-made specs: examples/sweeps/.
)";
}

SweepOptions parse_sweep_options(const std::vector<std::string>& args) {
    SweepOptions options;
    parse_into(options, sweep_table(), args, &SweepOptions::spec_path);
    if (!options.help && options.spec_path.empty()) {
        throw SpecError("sweep: missing <spec.json> (try `liquidd sweep --help`)");
    }
    return options;
}

namespace {

/// `examples/sweeps/alpha_grid.json` -> `alpha_grid` (current directory).
std::string spec_stem(const std::string& path) {
    const auto dir = path.find_last_of("/\\");
    std::string stem = dir == std::string::npos ? path : path.substr(dir + 1);
    if (std::string_view(stem).ends_with(".json")) stem.resize(stem.size() - 5);
    if (stem.empty()) stem = "sweep";
    return stem;
}

}  // namespace

int run_sweep(const SweepOptions& options, std::ostream& out) {
    if (options.help) {
        out << sweep_usage();
        return 0;
    }
    apply_simd_override(options.simd);
    const auto spec = experiments::SweepSpec::load(options.spec_path);

    experiments::SweepOptions engine_options;
    engine_options.shard.index = options.shard_index;
    engine_options.shard.count = options.shard_count;
    engine_options.resume = options.resume;
    engine_options.max_cells = options.max_cells;
    engine_options.threads = options.threads;
    if (options.output_path) {
        engine_options.output_path = *options.output_path;
    } else {
        engine_options.output_path = spec_stem(options.spec_path);
        if (options.shard_count > 1) {
            engine_options.output_path += ".shard" + std::to_string(options.shard_index) +
                                          "of" + std::to_string(options.shard_count);
        }
        engine_options.output_path += ".csv";
    }
    if (options.checkpoint_path) engine_options.checkpoint_path = *options.checkpoint_path;
    // SIGINT/SIGTERM: finish the cell in flight, keep the published
    // checkpoint, and exit 0 so supervisors see a clean stop; the user
    // reruns with --resume to continue.
    engine_options.cancel = [] { return support::SignalDrain::requested(); };

    support::SignalDrain drain_on_signal;
    experiments::SweepEngine engine(spec, engine_options);
    engine.run(out);

    write_metrics_report(options.metrics_out, out);
    return 0;
}

std::string serve_usage() {
    return R"(liquidd serve — long-running evaluation server (liquidd.rpc.v1)

usage: liquidd serve [flags]

Listens on a Unix-domain socket and/or a TCP loopback port and answers
newline-delimited JSON requests: eval, instance.load, instance.info,
metrics, health, shutdown.  Evals against a cached instance are
micro-batched onto the shared replication engine; results are
bit-identical to the one-shot CLI with the same (params, seed, threads).
SIGTERM/SIGINT (or a `shutdown` request) drains gracefully: stop
accepting, finish admitted work, flush metrics, exit 0.

)" + election::describe_options(serve_table()) +
           R"(
Protocol reference, backpressure semantics, and a load-generator
walkthrough: docs/SERVING.md.  Load generator: liquidd_loadgen.
)";
}

ServeOptions parse_serve_options(const std::vector<std::string>& args) {
    ServeOptions options;
    parse_into(options, serve_table(), args);
    if (!options.help && !options.unix_socket && !options.tcp_port) {
        throw SpecError("serve: need --socket <path> and/or --tcp <port>");
    }
    return options;
}

int run_serve(const ServeOptions& options, std::ostream& out) {
    if (options.help) {
        out << serve_usage();
        return 0;
    }
    apply_simd_override(options.simd);
    support::SignalDrain drain_on_signal;  // SIGINT/SIGTERM -> graceful drain
    const auto serve_until_drained = [&](auto& server, const std::string& mode) {
        server.start();
        out << support::version_line() << "\n";
        if (options.unix_socket) {
            out << "listening on unix:" << *options.unix_socket << "\n";
        }
        if (options.tcp_port) {
            out << "listening on tcp:127.0.0.1:" << server.tcp_port() << "\n";
        }
        out << mode << "serving (SIGTERM/SIGINT or a shutdown request drains)\n"
            << std::flush;
        // --ready-fd is range-checked to [0, INT_MAX] at parse.
        const int ready_keep = serve::signal_ready(
            options.ready_file.value_or(""),
            options.ready_fd ? static_cast<int>(*options.ready_fd) : -1);
        const int code = server.wait();
        if (ready_keep >= 0) ::close(ready_keep);
        out << "drained cleanly";
        if (options.metrics_out) out << "; metrics flushed to " << *options.metrics_out;
        out << "\n";
        return code;
    };

    if (!options.route.empty()) {
        // Shard-router mode: no local evaluation — hash instance
        // fingerprints across the named backend liquidds.
        serve::ShardRouterConfig config;
        if (options.unix_socket) config.unix_socket = *options.unix_socket;
        if (options.tcp_port) config.tcp_port = static_cast<std::uint16_t>(*options.tcp_port);
        for (const std::string& spec : options.route) {
            config.backends.push_back(serve::parse_backend_spec(spec));
        }
        config.health_interval = std::chrono::milliseconds(options.health_interval_ms);
        config.write_timeout = std::chrono::milliseconds(options.write_timeout_ms);
        config.drain_on_signal = true;
        if (options.metrics_out) config.metrics_out = *options.metrics_out;
        serve::ShardRouter router(std::move(config));
        const std::size_t backends = options.route.size();
        return serve_until_drained(
            router, "routing to " + std::to_string(backends) + " backend(s)\n");
    }

    serve::ServerConfig config;
    if (options.unix_socket) config.unix_socket = *options.unix_socket;
    if (options.tcp_port) config.tcp_port = static_cast<std::uint16_t>(*options.tcp_port);
    config.queue_capacity = options.queue_capacity;
    config.batch_max = options.batch_max;
    config.eval_threads = options.threads;
    config.tally_epsilon = options.tally_eps;
    config.default_deadline = std::chrono::milliseconds(options.deadline_ms);
    config.write_timeout = std::chrono::milliseconds(options.write_timeout_ms);
    config.drain_on_signal = true;
    if (options.metrics_out) config.metrics_out = *options.metrics_out;
    serve::Server server(std::move(config));
    return serve_until_drained(server, "");
}

std::string gen_usage() {
    return R"(liquidd gen — standalone streaming graph generation

usage: liquidd gen [flags]

Generates a graph (or one shard of it) through the chunked-CSR streaming
facade and prints size/degree/latency stats.  The emitted edge set depends
only on (--graph, --n, --seed): chunk size, shard partition, and thread
count never change it, so shards generated on different machines union to
exactly the unsharded graph.  See docs/GENERATORS.md.

)" + election::describe_options(gen_table()) +
           R"(
examples:
  liquidd gen --graph hyper:2.7,12 --n 10000000 --budget-mb 2048
  liquidd gen --graph gen:gnp:0.001 --n 100000 --shard 0/4 --out shard0.txt
)";
}

GenOptions parse_gen_options(const std::vector<std::string>& args) {
    GenOptions options;
    parse_into(options, gen_table(), args);
    return options;
}

int run_gen(const GenOptions& options, std::ostream& out) {
    if (options.help) {
        out << gen_usage();
        return 0;
    }
    const std::string spec = is_generator_spec(options.graph_spec)
                                 ? options.graph_spec
                                 : "gen:" + options.graph_spec;
    gen::GeneratorConfig config = parse_generator_spec(spec, options.n, options.seed);
    config.chunk_edges = options.chunk_edges;
    config.shard.index = options.shard_index;
    config.shard.count = options.shard_count;
    config.threads = options.threads;
    config.memory_budget_bytes = options.budget_mb << 20;

    const support::Stopwatch timer;
    gen::BuildStats stats;
    const graph::Graph graph = gen::generate_graph(config, &stats);
    const double elapsed = timer.elapsed_seconds();

    out << "generated " << config.describe() << "\n";
    out << "vertices " << graph.vertex_count() << ", edges " << graph.edge_count()
        << " (emitted " << stats.edges_emitted << " in " << stats.chunks
        << " chunks)\n";
    const auto deg = graph::degree_stats(graph);
    out << "degrees: min " << deg.min << ", max " << deg.max << ", mean " << deg.mean
        << "\n";
    out << "elapsed " << elapsed << " s, pipeline peak ~" << (stats.peak_bytes >> 20)
        << " MB\n";

    if (options.out_path.has_value()) {
        std::ofstream file;
        std::ostream& dump = output_for(*options.out_path, "--out", out, file);
        if (options.format == "edges") {
            graph::write_edge_list(dump, graph);
        } else {
            // CSR dump: one offsets line, then one adjacency line per vertex.
            dump << "csr " << graph.vertex_count() << " " << graph.edge_count() << "\n";
            for (graph::Vertex v = 0; v < graph.vertex_count(); ++v) {
                dump << v << ":";
                for (graph::Vertex u : graph.neighbours(v)) dump << " " << u;
                dump << "\n";
            }
        }
        if (&dump == &file) {
            out << "wrote " << options.format << " dump to " << *options.out_path << "\n";
        }
    }

    write_metrics_report(options.metrics_out, out);
    return 0;
}

std::string game_usage() {
    return R"(liquidd game — best-response trajectory workload

usage: liquidd game [flags]

Runs best-response dynamics (selfish or cooperative utility) from the
all-vote profile over the incremental churn engine: the evolving profile
lives in a DynamicResolution and candidate deviations are probed against
the live product-tree tally instead of re-resolving from scratch.  With
--trajectory-out every applied deviation is streamed with the group
correct-probability after it — the gain-along-the-path measurement of
docs/CHURN.md.

)" + election::describe_options(game_table()) +
           R"(
examples:
  liquidd game --graph dregular:16 --n 2000 --utility selfish --viscosity 0.9
  liquidd game --n 500 --utility coop --shuffle-seed 7 --trajectory-out path.csv
)";
}

GameCliOptions parse_game_options(const std::vector<std::string>& args) {
    GameCliOptions options;
    parse_into(options, game_table(), args);
    return options;
}

int run_game(const GameCliOptions& options, std::ostream& out) {
    if (options.help) {
        out << game_usage();
        return 0;
    }
    apply_simd_override(options.simd);
    rng::Rng rng(options.seed);
    const model::Instance instance =
        build_instance(options.load_path, options.graph_spec, options.competency_spec,
                       options.n, options.alpha, rng);

    game::GameOptions game;
    game.utility = options.utility == "coop" ? game::Utility::Cooperative
                                             : game::Utility::Selfish;
    game.max_rounds = options.max_rounds;
    game.random_order = !options.fixed_order;
    game.shuffle_seed = options.shuffle_seed;
    game.viscosity = options.viscosity;
    game.tally_epsilon = options.tally_eps;
    game.record_trajectory = true;

    out << instance.describe() << "\n";
    out << "utility: " << options.utility << ", viscosity " << options.viscosity
        << ", max rounds " << options.max_rounds << "\n\n";

    const support::Stopwatch timer;
    const auto result = game::best_response_dynamics(instance, rng, game);
    const double elapsed = timer.elapsed_seconds();

    support::TablePrinter table({"metric", "value"}, 5);
    table.add_row({std::string("converged"), result.converged ? 1.0 : 0.0});
    table.add_row({std::string("rounds"), static_cast<double>(result.rounds)});
    table.add_row({std::string("deviations"), static_cast<double>(result.deviations)});
    table.add_row({std::string("P (equilibrium, exact)"),
                   result.group_correct_probability});
    table.add_row({std::string("gain vs direct"), result.gain_vs_direct});
    table.add_row({std::string("delegators"),
                   static_cast<double>(result.stats.delegator_count)});
    table.add_row({std::string("voting sinks"),
                   static_cast<double>(result.stats.voting_sink_count)});
    table.add_row({std::string("max weight"),
                   static_cast<double>(result.stats.max_weight)});
    table.add_row({std::string("longest path"),
                   static_cast<double>(result.stats.longest_path)});
    table.add_row({std::string("elapsed s"), elapsed});
    table.print(out);

    if (options.trajectory_out.has_value()) {
        std::ofstream file;
        std::ostream& dump =
            output_for(*options.trajectory_out, "--trajectory-out", out, file);
        dump << "round,voter,from,to,correct_probability,gain\n";
        dump.precision(17);
        for (const auto& point : result.trajectory) {
            dump << point.round << "," << point.voter << "," << point.from << ","
                 << point.to << "," << point.correct_probability << ","
                 << point.gain << "\n";
        }
        if (&dump == &file) {
            out << "wrote " << result.trajectory.size() << " trajectory points to "
                << *options.trajectory_out << "\n";
        }
    }

    write_metrics_report(options.metrics_out, out);
    return 0;
}

std::vector<std::string> subcommand_flags(const std::string& subcommand) {
    if (subcommand == "run") return flags_of(run_table());
    if (subcommand == "sweep") return flags_of(sweep_table());
    if (subcommand == "serve") return flags_of(serve_table());
    if (subcommand == "gen") return flags_of(gen_table());
    if (subcommand == "game") return flags_of(game_table());
    return {};
}

int dispatch(const std::vector<std::string>& args, std::ostream& out) {
    if (!args.empty() && (args[0] == "--version" || args[0] == "-V")) {
        out << support::version_line() << "\n";
        // Active kernel tier (resolving LIQUIDD_SIMD, exactly as a run
        // would) plus the host's widest, so results are attributable to
        // a lane width from the version string alone.
        out << "simd: " << support::simd_tier_name(prob::kernel_tier())
            << " (best supported: "
            << support::simd_tier_name(support::best_simd_tier()) << ")\n";
        return 0;
    }
    if (!args.empty() && !args[0].empty() && args[0][0] != '-') {
        const std::vector<std::string> rest(args.begin() + 1, args.end());
        if (args[0] == "run") return run(parse_options(rest), out);
        if (args[0] == "sweep") return run_sweep(parse_sweep_options(rest), out);
        if (args[0] == "serve") return run_serve(parse_serve_options(rest), out);
        if (args[0] == "gen") return run_gen(parse_gen_options(rest), out);
        if (args[0] == "game") return run_game(parse_game_options(rest), out);
        throw SpecError("unknown subcommand '" + args[0] +
                        "'; valid subcommands: run, sweep, serve, gen, game "
                        "(bare flags run a single evaluation; try --help)");
    }
    return run(parse_options(args), out);
}

}  // namespace ld::cli
