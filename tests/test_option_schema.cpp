// Tests for the shared option table (ld/election/option_table.hpp): the
// option surface of every front end against golden lists, hostile numbers
// refused by the CLI, sweep manifests and serve params with one message,
// one valid value per descriptor giving the same EvalOptions through each
// front end, and the inputs the front ends used to disagree on.

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "ld/cli/runner.hpp"
#include "ld/cli/specs.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/election/option_table.hpp"
#include "ld/experiments/sweep.hpp"
#include "ld/serve/router.hpp"
#include "support/json.hpp"

namespace {

namespace cli = ld::cli;
namespace election = ld::election;
namespace exp = ld::experiments;
namespace json = ld::support::json;
namespace serve = ld::serve;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Front-end drivers -------------------------------------------------------

json::Object sweep_doc() {
    return json::parse(R"({"name": "schema", "axes": {"n": [100], "alpha": [0.05],
        "graph": ["complete"], "competencies": ["uniform:0.3,0.7"],
        "mechanism": ["threshold:1"]}})")
        .as_object();
}

/// Set `value` where the sweep manifest spells descriptor `name`.
void put_sweep(json::Object& doc, const election::OptionSpec& spec, json::Value value) {
    const std::string name = spec.name;
    if (name == "n" || name == "alpha") {
        json::Object axes = doc.at("axes").as_object();
        axes[name] = std::move(value);
        doc["axes"] = json::Value(std::move(axes));
    } else if (name == "seed" || name == "replications") {
        doc[name] = std::move(value);
    } else {
        json::Object options =
            doc.count("options") ? doc.at("options").as_object() : json::Object{};
        options[spec.sweep_key] = std::move(value);
        doc["options"] = json::Value(std::move(options));
    }
}

std::string sweep_where(const election::OptionSpec& spec) {
    const std::string name = spec.name;
    if (name == "n" || name == "alpha") return "axes." + name;
    if (name == "seed" || name == "replications") return name;
    return std::string("options.") + spec.sweep_key;
}

json::Object eval_params() {
    json::Object params;
    params.emplace("mechanism", json::Value(std::string("threshold:1")));
    params.emplace("graph", json::Value(std::string("complete")));
    params.emplace("competencies", json::Value(std::string("uniform:0.3,0.7")));
    params.emplace("n", json::Value(30.0));
    params.emplace("alpha", json::Value(0.05));
    params.emplace("seed", json::Value(7.0));
    params.emplace("replications", json::Value(20.0));
    params.emplace("threads", json::Value(1.0));
    return params;
}

serve::Router::Outcome execute(const std::string& method, json::Object params) {
    serve::InstanceCache cache;
    serve::Router router({}, cache);
    serve::Request request;
    request.id = json::Value(1.0);
    request.method = method;
    request.params = json::Value(std::move(params));
    request.admitted_at = std::chrono::steady_clock::now();
    return router.execute(request);
}

/// The CLI spelling of a number: shortest round-trip text, 2^64 in full.
std::string cli_text(double value) {
    if (value == 0x1p64) return "18446744073709551616";
    char buffer[32];
    return {buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr};
}

/// `run` argv setting descriptor `spec` to `text` (--certify takes both).
std::vector<std::string> cli_args(const election::OptionSpec& spec,
                                  const std::string& text) {
    const std::string name = spec.name;
    if (name == "certify_gamma") return {"--certify", text, "0.05"};
    if (name == "certify_delta") return {"--certify", "0", text};
    return {spec.flag, text};
}

std::string cli_prefix(const election::OptionSpec& spec) {
    const std::string flag = spec.flag;
    return flag == "--certify" ? flag + " " + spec.metavar + ": " : flag + ": ";
}

bool integral(const election::Option<election::EvalSettings>& option) {
    return option.slot.index() == 0;
}

bool numeric(const election::Option<election::EvalSettings>& option) {
    return option.slot.index() <= 1;
}

/// Independent of the code under test: is `v` a legal value of `spec`?
bool legal(const election::OptionSpec& spec, bool whole, double v) {
    const election::Range& r = spec.range;
    if (!std::isfinite(v)) return false;
    if (whole && (v != std::floor(v) || v < 0 || v >= 0x1p64)) return false;
    if (r.lo_open ? !(v > r.lo) : !(v >= r.lo)) return false;
    return r.hi_open ? v < r.hi : v <= r.hi;
}

std::vector<double> hostile_values(
    const election::Option<election::EvalSettings>& option) {
    const election::Range& r = option.spec.range;
    const bool whole = integral(option);
    std::vector<double> values = {kNan, kInf, -kInf, -1.0, 0x1p64};
    if (whole) values.push_back(1.5);
    if (std::isfinite(r.lo)) {
        values.push_back(whole     ? r.lo - 1
                         : r.lo_open ? r.lo
                                     : std::nextafter(r.lo, -kInf));
    }
    if (std::isfinite(r.hi)) {
        values.push_back(whole     ? r.hi + 1
                         : r.hi_open ? r.hi
                                     : std::nextafter(r.hi, kInf));
    }
    std::erase_if(values, [&](double v) { return legal(option.spec, whole, v); });
    return values;
}

/// Strip `prefix` from `message`; record a failure when it is missing.
std::string after_prefix(const std::string& message, const std::string& prefix) {
    EXPECT_EQ(message.rfind(prefix, 0), 0u) << message << " lacks prefix " << prefix;
    return message.substr(std::min(prefix.size(), message.size()));
}

/// Every EvalOptions field a front end can set, as text.
std::string signature(const election::EvalOptions& o) {
    std::ostringstream os;
    os.precision(17);
    os << o.replications << ' ' << o.target_std_error << ' ' << o.adaptive_batch << ' '
       << o.max_replications << ' ' << o.tally_epsilon << ' ' << o.inner_samples << ' '
       << static_cast<int>(o.cycle_policy) << ' ' << o.threads << ' '
       << o.approximate_tally << ' ' << o.certify.gamma << ' ' << o.certify.delta << ' '
       << static_cast<int>(o.certify.boundary);
    return os.str();
}

void expect_same(const election::EvalOptions& a, const election::EvalOptions& b,
                 const std::string& context) {
    SCOPED_TRACE(context);
    EXPECT_EQ(a.replications, b.replications);
    EXPECT_EQ(a.target_std_error, b.target_std_error);
    EXPECT_EQ(a.adaptive_batch, b.adaptive_batch);
    EXPECT_EQ(a.max_replications, b.max_replications);
    EXPECT_EQ(a.tally_epsilon, b.tally_epsilon);
    EXPECT_EQ(a.inner_samples, b.inner_samples);
    EXPECT_EQ(a.confidence, b.confidence);
    EXPECT_EQ(a.initial_weights, b.initial_weights);
    EXPECT_EQ(a.cycle_policy, b.cycle_policy);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.approximate_tally, b.approximate_tally);
    EXPECT_EQ(a.engine, b.engine);
    EXPECT_EQ(a.certify.gamma, b.certify.gamma);
    EXPECT_EQ(a.certify.delta, b.certify.delta);
    EXPECT_EQ(a.certify.boundary, b.certify.boundary);
}

// The option surface ------------------------------------------------------

TEST(OptionSchema, CliFlagsMatchGoldenLists) {
    const std::map<std::string, std::vector<std::string>> golden = {
        {"run",
         {"--graph", "--competencies", "--mechanism", "--n", "--alpha", "--reps",
          "--target-se", "--max-reps", "--tally-eps", "--certify", "--cs-boundary",
          "--seed", "--audit", "--threads", "--approx", "--load-instance",
          "--save-instance", "--discard-cycles", "--dot", "--metrics-out", "--simd",
          "--help"}},
        {"sweep",
         {"--out", "--ckpt", "--resume", "--shard", "--threads", "--max-cells",
          "--metrics-out", "--simd", "--help"}},
        {"serve",
         {"--socket", "--tcp", "--queue-capacity", "--batch-max", "--threads",
          "--tally-eps", "--deadline-ms", "--write-timeout-ms", "--metrics-out", "--simd",
          "--route", "--health-interval-ms", "--ready-file", "--ready-fd", "--help"}},
        {"gen",
         {"--graph", "--n", "--seed", "--shard", "--chunk-edges", "--threads",
          "--budget-mb", "--out", "--format", "--metrics-out", "--help"}},
        {"game",
         {"--graph", "--competencies", "--n", "--alpha", "--seed", "--utility",
          "--max-rounds", "--viscosity", "--tally-eps", "--shuffle-seed", "--fixed-order",
          "--load-instance", "--trajectory-out", "--metrics-out", "--simd", "--help"}},
    };
    for (const auto& [command, flags] : golden) {
        std::vector<std::string> want = flags;
        std::vector<std::string> got = cli::subcommand_flags(command);
        std::sort(want.begin(), want.end());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << command;
    }
    EXPECT_EQ(golden.at("run").size(), 22u);
    EXPECT_EQ(golden.at("sweep").size(), 9u);
    EXPECT_EQ(golden.at("serve").size(), 15u);
    EXPECT_EQ(golden.at("gen").size(), 11u);
    EXPECT_EQ(golden.at("game").size(), 16u);
    // Every flag is documented in the generated help.
    const std::map<std::string, std::string> usage = {
        {"run", cli::usage()},         {"sweep", cli::sweep_usage()},
        {"serve", cli::serve_usage()}, {"gen", cli::gen_usage()},
        {"game", cli::game_usage()}};
    for (const auto& [command, flags] : golden) {
        for (const auto& flag : flags) {
            EXPECT_NE(usage.at(command).find("  " + flag), std::string::npos)
                << command << " " << flag;
        }
    }
}

TEST(OptionSchema, JsonKeysMatchGoldenLists) {
    std::set<std::string> sweep;
    std::set<std::string> serve_keys;
    for (const auto& option : election::eval_option_table()) {
        if (*option.spec.sweep_key) sweep.insert(option.spec.sweep_key);
        if (*option.spec.serve_key) serve_keys.insert(option.spec.serve_key);
    }
    EXPECT_EQ(sweep, (std::set<std::string>{
                         "adaptive_batch", "approximate", "certify_boundary",
                         "certify_delta", "certify_gamma", "discard_cycles",
                         "inner_samples", "max_reps", "target_se", "tally_eps",
                         "threads"}));
    EXPECT_EQ(serve_keys, (std::set<std::string>{
                              "alpha", "approximate", "certify_boundary", "certify_delta",
                              "certify_gamma", "discard_cycles", "inner_samples",
                              "max_replications", "n", "replications", "seed",
                              "target_se", "tally_eps", "threads"}));
    // The other four eval params are spec strings the router reads itself.
    for (const char* key : {"mechanism", "graph", "competencies"}) {
        auto params = eval_params();
        params.erase(key);
        const auto outcome = execute("eval", std::move(params));
        EXPECT_EQ(outcome.code, serve::ErrorCode::BadRequest) << key;
        EXPECT_EQ(outcome.message, std::string("params.") + key + ": missing");
    }
    auto cached = eval_params();
    cached.emplace("instance", json::Value(std::string("0xdead")));
    EXPECT_EQ(execute("eval", std::move(cached)).code, serve::ErrorCode::NotFound);
}

TEST(OptionSchema, DefaultsAreUnchanged) {
    const election::EvalSettings d;
    EXPECT_EQ(d.n, 100u);
    EXPECT_EQ(d.alpha, 0.05);
    EXPECT_EQ(d.seed, 1u);
    EXPECT_EQ(d.replications, 200u);
    EXPECT_EQ(d.inner_samples, 8u);
    EXPECT_EQ(d.threads, 1u);
    EXPECT_FALSE(d.discard_cycles);
    EXPECT_FALSE(d.approximate);
    EXPECT_EQ(d.target_std_error, 0.0);
    EXPECT_EQ(d.adaptive_batch, 64u);
    EXPECT_EQ(d.max_replications, 100'000u);
    EXPECT_EQ(d.tally_epsilon, 0.0);
    EXPECT_EQ(d.certify_gamma, 0.0);
    EXPECT_EQ(d.certify_delta, 0.0);
    EXPECT_EQ(d.certify_boundary, "empirical_bernstein");

    // Omitting every option gives EvalOptions' own defaults everywhere.
    const election::EvalOptions defaults;
    expect_same(cli::parse_options({}).eval_options(), defaults, "cli");
    expect_same(exp::SweepSpec::from_json(json::Value(sweep_doc())).eval_options(),
                defaults, "sweep");
    election::EvalSettings served;
    serve::read_params(json::Value(json::Object{}), served);
    expect_same(served.eval_options(), defaults, "serve");

    const cli::ServeOptions serve_cli;
    EXPECT_EQ(serve_cli.threads, 0u);
    EXPECT_EQ(serve_cli.tally_eps, 0.0);
    EXPECT_EQ(serve_cli.queue_capacity, 128u);
    EXPECT_EQ(serve_cli.batch_max, 16u);
    EXPECT_EQ(serve_cli.deadline_ms, 0u);
    EXPECT_EQ(serve_cli.write_timeout_ms, 5000u);
    EXPECT_EQ(serve_cli.health_interval_ms, 1000u);
    const cli::GenOptions gen;
    EXPECT_EQ(gen.graph_spec, "cl:2.5,8");
    EXPECT_EQ(gen.n, 100'000u);
    EXPECT_EQ(gen.chunk_edges, 65536u);
    EXPECT_EQ(gen.threads, 0u);
    EXPECT_EQ(gen.format, "edges");
    const cli::GameCliOptions game;
    EXPECT_EQ(game.n, 100u);
    EXPECT_EQ(game.utility, "selfish");
    EXPECT_EQ(game.max_rounds, 64u);
    EXPECT_EQ(game.viscosity, 1.0);
    EXPECT_EQ(game.tally_eps, 0.0);
    const cli::SweepOptions sweep_cli;
    EXPECT_EQ(sweep_cli.shard_count, 1u);
    EXPECT_FALSE(sweep_cli.threads.has_value());
}

// Hostile numbers ---------------------------------------------------------

TEST(OptionSchema, HostileNumbersAreRefusedWithOneMessageByEveryFrontEnd) {
    std::size_t checked = 0;
    for (const auto& option : election::eval_option_table()) {
        if (!numeric(option)) continue;
        const election::OptionSpec& spec = option.spec;
        for (const double value : hostile_values(option)) {
            SCOPED_TRACE(std::string(spec.name) + " = " + cli_text(value));
            std::vector<std::string> messages;
            if (*spec.flag) {
                try {
                    cli::parse_options(cli_args(spec, cli_text(value)));
                    ADD_FAILURE() << "CLI accepted it";
                } catch (const cli::SpecError& e) {
                    messages.push_back(after_prefix(e.what(), cli_prefix(spec)));
                }
            }
            {
                json::Object doc = sweep_doc();
                put_sweep(doc, spec, json::Value(value));
                try {
                    exp::SweepSpec::from_json(json::Value(std::move(doc)));
                    ADD_FAILURE() << "sweep accepted it";
                } catch (const exp::SweepError& e) {
                    const std::string prefix = "sweep spec: " + sweep_where(spec) + ": ";
                    messages.push_back(after_prefix(e.what(), prefix));
                }
            }
            if (*spec.serve_key) {
                auto params = eval_params();
                params[spec.serve_key] = json::Value(value);
                const auto outcome = execute("eval", std::move(params));
                EXPECT_EQ(outcome.code, serve::ErrorCode::BadRequest);
                messages.push_back(after_prefix(
                    outcome.message, std::string("params.") + spec.serve_key + ": "));
            }
            ASSERT_FALSE(messages.empty());
            EXPECT_EQ(messages.front().rfind("must be ", 0), 0u) << messages.front();
            for (const auto& message : messages) EXPECT_EQ(message, messages.front());
            ++checked;
        }
    }
    EXPECT_GE(checked, 60u);
}

TEST(OptionSchema, WrongJsonTypesAreRefused) {
    auto params = eval_params();
    params["replications"] = json::Value(std::string("20"));
    EXPECT_EQ(execute("eval", std::move(params)).message,
              "params.replications: expected a number");
    params = eval_params();
    params["approximate"] = json::Value(1.0);
    EXPECT_EQ(execute("eval", std::move(params)).message,
              "params.approximate: expected a bool");
    json::Object doc = sweep_doc();
    doc["options"] = json::parse(R"({"certify_boundary": 3})");
    EXPECT_THROW(exp::SweepSpec::from_json(json::Value(doc)), exp::SweepError);
    doc["options"] = json::parse(R"({"bogus": 3})");
    try {
        exp::SweepSpec::from_json(json::Value(doc));
        ADD_FAILURE() << "unknown option accepted";
    } catch (const exp::SweepError& e) {
        EXPECT_STREQ(e.what(), "sweep spec: options.bogus: unknown option");
    }
}

// Valid values ------------------------------------------------------------

TEST(OptionSchema, ValidValuesGiveTheSameEvalOptionsThroughEveryFrontEnd) {
    const std::map<std::string, json::Value> valid = {
        {"n", json::Value(37.0)},
        {"alpha", json::Value(0.125)},
        {"seed", json::Value(99.0)},
        {"replications", json::Value(123.0)},
        {"target_se", json::Value(0.01)},
        {"max_replications", json::Value(5000.0)},
        {"adaptive_batch", json::Value(32.0)},
        {"tally_eps", json::Value(1e-9)},
        {"inner_samples", json::Value(3.0)},
        {"threads", json::Value(2.0)},
        {"approximate", json::Value(true)},
        {"discard_cycles", json::Value(true)},
        {"certify_gamma", json::Value(0.02)},
        {"certify_delta", json::Value(0.05)},
        {"certify_boundary", json::Value(std::string("hoeffding"))},
    };
    ASSERT_EQ(valid.size(), election::eval_option_table().size());
    for (const auto& option : election::eval_option_table()) {
        const election::OptionSpec& spec = option.spec;
        const std::string name = spec.name;
        SCOPED_TRACE(name);
        const json::Value& value = valid.at(name);
        // certify_gamma and the boundary only act when delta > 0.
        const bool certify = name.rfind("certify_", 0) == 0;

        std::vector<election::EvalOptions> got;
        std::vector<std::tuple<std::size_t, double, std::uint64_t>> instance;
        if (*spec.flag) {
            std::vector<std::string> args;
            if (certify) {
                args = {"--certify", name == "certify_gamma" ? "0.02" : "0", "0.05"};
                if (name == "certify_boundary") {
                    args.insert(args.end(), {spec.flag, "hoeffding"});
                }
            } else if (value.is_bool()) {
                args = {spec.flag};
            } else {
                args = {spec.flag, value.is_string() ? value.as_string()
                                                     : cli_text(value.as_number())};
            }
            const cli::Options parsed = cli::parse_options(args);
            got.push_back(parsed.eval_options());
            instance.emplace_back(parsed.n, parsed.alpha, parsed.seed);
        }
        {
            json::Object doc = sweep_doc();
            put_sweep(doc, spec, value);
            if (certify) {
                put_sweep(doc, election::eval_spec("certify_delta"), json::Value(0.05));
            }
            const auto parsed = exp::SweepSpec::from_json(json::Value(std::move(doc)));
            got.push_back(parsed.eval_options());
            instance.emplace_back(parsed.ns.at(0), parsed.alphas.at(0), parsed.seed);
        }
        if (*spec.serve_key) {
            json::Object params;
            params[spec.serve_key] = value;
            if (certify) params["certify_delta"] = json::Value(0.05);
            election::EvalSettings parsed;
            serve::read_params(json::Value(std::move(params)), parsed);
            got.push_back(parsed.eval_options());
            instance.emplace_back(parsed.n, parsed.alpha, parsed.seed);
        }
        ASSERT_FALSE(got.empty());
        // The value took effect, and every front end agrees on it.
        const decltype(instance)::value_type default_instance{100, 0.05, 1};
        EXPECT_TRUE(signature(got[0]) != signature(election::EvalOptions{}) ||
                    instance[0] != default_instance);
        for (std::size_t i = 1; i < got.size(); ++i) {
            expect_same(got[i], got[0], "front end " + std::to_string(i));
            EXPECT_EQ(instance[i], instance[0]);
        }
    }
}

TEST(OptionSchema, ServedEvalMatchesTheCliOptionsBitForBit) {
    const std::vector<std::string> args = {
        "--n", "30", "--alpha", "0.05", "--seed", "7", "--reps", "20", "--threads", "1",
        "--tally-eps", "1e-12", "--certify", "0.02", "0.1", "--max-reps", "640"};
    const cli::Options options = cli::parse_options(args);
    ld::rng::Rng rng(options.seed);
    auto graph = cli::make_graph("complete", options.n, rng);
    auto competencies =
        cli::make_competencies("uniform:0.3,0.7", graph.vertex_count(), rng);
    const ld::model::Instance instance(std::move(graph), std::move(competencies),
                                       options.alpha);
    const auto expected = election::estimate_gain(*cli::make_mechanism("threshold:1"),
                                                  instance, rng, options.eval_options());

    auto params = eval_params();
    params["tally_eps"] = json::Value(1e-12);
    params["certify_gamma"] = json::Value(0.02);
    params["certify_delta"] = json::Value(0.1);
    params["max_replications"] = json::Value(640.0);
    const auto outcome = execute("eval", std::move(params));
    ASSERT_TRUE(outcome.ok) << outcome.message;
    EXPECT_EQ(outcome.result.at("pm").as_number(), expected.pm.value);
    EXPECT_EQ(outcome.result.at("gain").as_number(), expected.gain);
    EXPECT_EQ(outcome.result.at("cert_gain_lo").as_number(), expected.certified_gain->lo);
}

// The inputs the front ends used to disagree on -----------------------------

TEST(OptionSchema, DriftRunCertifyWithNanDeltaIsRefused) {
    EXPECT_THROW(
        cli::parse_options({"--n", "20", "--reps", "4", "--certify", "0", "nan"}),
        cli::SpecError);
}

TEST(OptionSchema, DriftRunNonFiniteValuesAreRefused) {
    EXPECT_THROW(cli::parse_options({"--n", "20", "--tally-eps", "nan"}), cli::SpecError);
    EXPECT_THROW(cli::parse_options({"--n", "20", "--target-se", "nan"}), cli::SpecError);
    EXPECT_THROW(cli::parse_options({"--n", "20", "--alpha", "inf"}), cli::SpecError);
}

TEST(OptionSchema, DriftGameTallyEpsIsAFlagError) {
    EXPECT_THROW(cli::parse_game_options({"--utility", "coop", "--tally-eps", "-1"}),
                 cli::SpecError);
    EXPECT_THROW(cli::parse_game_options({"--utility", "coop", "--tally-eps", "5"}),
                 cli::SpecError);
}

TEST(OptionSchema, DriftServeZeroInnerSamplesIsABadRequest) {
    auto params = eval_params();
    params["mechanism"] = json::Value(std::string("multi:3,1"));
    params["inner_samples"] = json::Value(0.0);
    EXPECT_EQ(execute("eval", std::move(params)).code, serve::ErrorCode::BadRequest);
}

TEST(OptionSchema, DriftServeInlineNegativeAlphaIsABadRequest) {
    auto params = eval_params();
    params["alpha"] = json::Value(-1.0);
    EXPECT_EQ(execute("eval", std::move(params)).code, serve::ErrorCode::BadRequest);
}

TEST(OptionSchema, DriftSweepHugeAxisCountIsRefusedBeforeTheCast) {
    try {
        exp::SweepSpec::from_json(json::parse(R"({"name": "x", "axes": {"n": 1e30,
            "alpha": 0.05, "graph": "complete", "competencies": "uniform:0.3,0.7",
            "mechanism": "direct"}})"));
        ADD_FAILURE() << "accepted n = 1e30";
    } catch (const exp::SweepError& e) {
        EXPECT_STREQ(e.what(), "sweep spec: axes.n: must be an integer >= 1, got 1e+30");
    }
}

TEST(OptionSchema, DriftServeReadyFdMustFitAnInt) {
    EXPECT_THROW(
        cli::parse_serve_options({"--socket", "/tmp/x.sock", "--ready-fd", "4294967296"}),
        cli::SpecError);
}

}  // namespace
