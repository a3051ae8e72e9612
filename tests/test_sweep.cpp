// Tests for the declarative sweep engine: spec parsing, cell expansion
// and seeding, byte-identical determinism, checkpoint/resume after an
// interruption, shard-union equivalence, and the JSON serializer the
// checkpoints are built on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ld/cli/runner.hpp"
#include "ld/cli/specs.hpp"
#include "ld/experiments/sweep.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"

namespace {

namespace exp = ld::experiments;
namespace json = ld::support::json;

// A 6-cell grid small enough that every test runs in milliseconds.
constexpr const char* kTinySpec = R"({
  "schema": "liquidd.sweep-spec.v1",
  "name": "tiny",
  "seed": 11,
  "replications": 20,
  "axes": {
    "n": [30],
    "alpha": [0.05, 0.1, 0.2],
    "graph": ["complete"],
    "competencies": ["uniform:0.3,0.7"],
    "mechanism": ["threshold:1", "direct"]
  },
  "options": {"threads": 1}
})";

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "/sweep_" + name;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

exp::SweepSpec tiny_spec() { return exp::SweepSpec::from_json(json::parse(kTinySpec)); }

exp::SweepOptions options_for(const std::string& tag) {
    exp::SweepOptions options;
    options.output_path = temp_path(tag + ".csv");
    options.quiet = true;
    return options;
}

// --- JSON serializer -------------------------------------------------------

TEST(JsonWriter, RoundTripsDocuments) {
    const char* text = R"({"a": [1, 2.5, "x"], "b": {"nested": true}, "c": null})";
    const json::Value doc = json::parse(text);
    const std::string compact = json::dump(doc);
    const json::Value reparsed = json::parse(compact);
    EXPECT_EQ(json::dump(reparsed), compact);
    EXPECT_EQ(reparsed.at("a").as_array()[1].as_number(), 2.5);
    EXPECT_TRUE(reparsed.at("b").at("nested").as_bool());
    EXPECT_TRUE(reparsed.at("c").is_null());
}

TEST(JsonWriter, EscapesAndFormatsNumbers) {
    EXPECT_EQ(json::quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    EXPECT_EQ(json::quote(std::string(1, '\x01')), "\"\\u0001\"");
    EXPECT_EQ(json::format_number(100.0), "100");
    // Round-trip: parse(format(x)) == x for a value with no short decimal.
    const double x = 0.1 + 0.2;
    EXPECT_EQ(json::parse(json::format_number(x)).as_number(), x);
    EXPECT_THROW(json::format_number(std::numeric_limits<double>::infinity()),
                 json::Error);
}

TEST(JsonWriter, PrettyPrintParsesBack) {
    const json::Value doc = json::parse(R"({"rows": [[1, "a"], [2, "b"]]})");
    const std::string pretty = json::dump(doc, 2);
    EXPECT_NE(pretty.find('\n'), std::string::npos);
    EXPECT_EQ(json::dump(json::parse(pretty)), json::dump(doc));
}

// --- Spec parsing ----------------------------------------------------------

TEST(SweepSpec, ParsesEveryField) {
    const auto spec = tiny_spec();
    EXPECT_EQ(spec.name, "tiny");
    EXPECT_EQ(spec.seed, 11u);
    EXPECT_EQ(spec.replications, 20u);
    EXPECT_EQ(spec.threads, 1u);
    EXPECT_EQ(spec.ns, (std::vector<std::size_t>{30}));
    EXPECT_EQ(spec.alphas, (std::vector<double>{0.05, 0.1, 0.2}));
    EXPECT_EQ(spec.mechanisms, (std::vector<std::string>{"threshold:1", "direct"}));
    EXPECT_EQ(spec.cell_count(), 6u);
}

TEST(SweepSpec, ScalarAxesAreAccepted) {
    const auto spec = exp::SweepSpec::from_json(json::parse(R"({
      "name": "scalar",
      "axes": {"n": 20, "alpha": 0.1, "graph": "complete",
               "competencies": "const:0.6", "mechanism": "direct"}
    })"));
    EXPECT_EQ(spec.cell_count(), 1u);
    EXPECT_EQ(spec.graphs, (std::vector<std::string>{"complete"}));
}

TEST(SweepSpec, MalformedSpecsAreDiagnosed) {
    const auto parse_spec = [](const std::string& text) {
        return exp::SweepSpec::from_json(json::parse(text));
    };
    // Missing name, missing axes, empty axis, bad types, unknown keys.
    EXPECT_THROW(parse_spec(R"({"axes": {}})"), exp::SweepError);
    EXPECT_THROW(parse_spec(R"({"name": "x"})"), exp::SweepError);
    EXPECT_THROW(parse_spec(R"({"name": "x", "axes": {"n": [], "alpha": 0.1,
        "graph": "complete", "competencies": "const:0.6", "mechanism": "direct"}})"),
                 exp::SweepError);
    EXPECT_THROW(parse_spec(R"({"name": "x", "axes": {"n": 10, "alpha": -0.1,
        "graph": "complete", "competencies": "const:0.6", "mechanism": "direct"}})"),
                 exp::SweepError);
    EXPECT_THROW(parse_spec(R"({"name": "x", "axes": {"n": 10, "alpha": 0.1,
        "graph": 7, "competencies": "const:0.6", "mechanism": "direct"}})"),
                 exp::SweepError);
    EXPECT_THROW(parse_spec(R"({"name": "x", "axes": {"n": 10, "alpha": 0.1,
        "graph": "complete", "competencies": "const:0.6", "mechanism": "direct",
        "bogus": 1}})"),
                 exp::SweepError);
    EXPECT_THROW(parse_spec(R"({"name": "x", "replications": 0, "axes": {"n": 10,
        "alpha": 0.1, "graph": "complete", "competencies": "const:0.6",
        "mechanism": "direct"}})"),
                 exp::SweepError);
    EXPECT_THROW(parse_spec(R"({"schema": "wrong.v9", "name": "x", "axes": {"n": 10,
        "alpha": 0.1, "graph": "complete", "competencies": "const:0.6",
        "mechanism": "direct"}})"),
                 exp::SweepError);
    // Not JSON at all.
    EXPECT_THROW(json::parse("not json"), json::Error);
}

TEST(SweepSpec, FingerprintTracksResultAffectingFields) {
    const auto base = tiny_spec();
    auto changed = base;
    EXPECT_EQ(base.fingerprint(), tiny_spec().fingerprint());
    changed.seed = 12;
    EXPECT_NE(base.fingerprint(), changed.fingerprint());
    changed = base;
    changed.alphas.push_back(0.3);
    EXPECT_NE(base.fingerprint(), changed.fingerprint());
}

// --- Cell expansion and seeding ---------------------------------------------

TEST(SweepCells, ExpansionOrderIsMechanismInnermost) {
    exp::SweepEngine engine(tiny_spec(), options_for("order"));
    const auto cells = engine.cells();
    ASSERT_EQ(cells.size(), 6u);
    EXPECT_EQ(cells[0].alpha, 0.05);
    EXPECT_EQ(cells[0].mechanism, "threshold:1");
    EXPECT_EQ(cells[1].alpha, 0.05);
    EXPECT_EQ(cells[1].mechanism, "direct");
    EXPECT_EQ(cells[2].alpha, 0.1);
    for (std::size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(cells[i].index, i);
}

TEST(SweepCells, SeedsDependOnlyOnSweepSeedAndIndex) {
    EXPECT_EQ(exp::derive_cell_seed(1, 0), exp::derive_cell_seed(1, 0));
    EXPECT_NE(exp::derive_cell_seed(1, 0), exp::derive_cell_seed(1, 1));
    EXPECT_NE(exp::derive_cell_seed(1, 0), exp::derive_cell_seed(2, 0));
    // No collisions over a healthy range.
    std::set<std::uint64_t> seen;
    for (std::size_t i = 0; i < 10000; ++i) seen.insert(exp::derive_cell_seed(42, i));
    EXPECT_EQ(seen.size(), 10000u);
}

// --- Determinism, resume, sharding ------------------------------------------

TEST(SweepEngine, SameSpecTwiceIsByteIdentical) {
    auto a = options_for("det_a");
    auto b = options_for("det_b");
    exp::SweepEngine(tiny_spec(), a).run(std::cout);
    exp::SweepEngine(tiny_spec(), b).run(std::cout);
    const std::string bytes = read_file(a.output_path);
    EXPECT_EQ(bytes, read_file(b.output_path));
    EXPECT_NE(bytes.find("cell,n,alpha"), std::string::npos);
    EXPECT_EQ(std::count(bytes.begin(), bytes.end(), '\n'), 7);  // header + 6 rows
}

TEST(SweepEngine, InterruptAndResumeIsByteIdentical) {
    auto uninterrupted = options_for("resume_full");
    exp::SweepEngine(tiny_spec(), uninterrupted).run(std::cout);

    auto interrupted = options_for("resume_partial");
    interrupted.max_cells = 2;  // simulate a kill after two finished cells
    const auto partial = exp::SweepEngine(tiny_spec(), interrupted).run(std::cout);
    EXPECT_FALSE(partial.finished);
    EXPECT_EQ(partial.cells_completed, 2u);

    auto resumed = interrupted;
    resumed.max_cells = 0;
    resumed.resume = true;
    const auto rest = exp::SweepEngine(tiny_spec(), resumed).run(std::cout);
    EXPECT_TRUE(rest.finished);
    EXPECT_EQ(rest.cells_skipped, 2u);
    EXPECT_EQ(rest.cells_completed, 4u);
    EXPECT_EQ(read_file(uninterrupted.output_path), read_file(resumed.output_path));
}

TEST(SweepEngine, CancelHookStopsBetweenCellsAndResumes) {
    // The cancel hook is what SIGINT/SIGTERM drive through the CLI: the
    // cell in flight finishes, the checkpoint stays published, and a
    // resumed run reproduces the uninterrupted output byte for byte.
    auto uninterrupted = options_for("cancel_full");
    exp::SweepEngine(tiny_spec(), uninterrupted).run(std::cout);

    auto cancelled = options_for("cancel_partial");
    int polls = 0;
    cancelled.cancel = [&polls] { return ++polls > 1; };  // stop after cell 0
    const auto partial = exp::SweepEngine(tiny_spec(), cancelled).run(std::cout);
    EXPECT_FALSE(partial.finished);
    EXPECT_TRUE(partial.cancelled);
    EXPECT_EQ(partial.cells_completed, 1u);

    // The checkpoint written for the finished cell records build info.
    const json::Value manifest = json::parse_file(cancelled.output_path + ".ckpt.json");
    EXPECT_TRUE(manifest.at("build").at("git_describe").is_string());

    auto resumed = cancelled;
    resumed.cancel = {};
    resumed.resume = true;
    const auto rest = exp::SweepEngine(tiny_spec(), resumed).run(std::cout);
    EXPECT_TRUE(rest.finished);
    EXPECT_FALSE(rest.cancelled);
    EXPECT_EQ(rest.cells_skipped, 1u);
    EXPECT_EQ(read_file(uninterrupted.output_path), read_file(resumed.output_path));
}

TEST(SweepEngine, ResumeRefusesAChangedSpec) {
    auto options = options_for("resume_guard");
    options.max_cells = 1;
    exp::SweepEngine(tiny_spec(), options).run(std::cout);

    auto changed = tiny_spec();
    changed.seed = 999;
    options.resume = true;
    options.max_cells = 0;
    exp::SweepEngine engine(changed, options);
    EXPECT_THROW(engine.run(std::cout), exp::SweepError);
}

/// `text` with the value after the first `"key": ` replaced by `value`.
std::string with_value(std::string text, const std::string& key,
                       const std::string& value) {
    const std::size_t at = text.find("\"" + key + "\": ");
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t start = at + key.size() + 4;
    text.replace(start, text.find_first_of(",\n}", start) - start, value);
    return text;
}

TEST(SweepEngine, ResumeRefusesACorruptCheckpoint) {
    auto options = options_for("resume_corrupt");
    options.checkpoint_path = options.output_path + ".ckpt.json";
    options.max_cells = 1;
    exp::SweepEngine(tiny_spec(), options).run(std::cout);
    const std::string manifest = read_file(options.checkpoint_path);
    ASSERT_NE(manifest.find("\"0\": "), std::string::npos);

    std::vector<std::string> corrupt;
    for (const std::string bad : {"1e300", "-1", "\"18446744073709551616\"", "\"abc\""}) {
        corrupt.push_back(with_value(manifest, "threads", bad));
        corrupt.push_back(with_value(manifest, "index", bad));
        corrupt.push_back(with_value(manifest, "count", bad));
    }
    for (const std::string key : {"18446744073709551616", "abc", "-1", "", "1x"}) {
        std::string text = manifest;
        text.replace(text.find("\"0\": "), 3, "\"" + key + "\"");
        corrupt.push_back(text);
    }
    // Every key the loader reads, deleted in turn, and wrong-typed cells.
    const json::Object doc = json::parse(manifest).as_object();
    for (const std::string key :
         {"schema", "spec_fingerprint", "shard", "threads", "cells"}) {
        json::Object without = doc;
        ASSERT_EQ(without.erase(key), 1u) << key;
        corrupt.push_back(json::dump(json::Value(std::move(without)), 2));
    }
    for (const std::string key : {"index", "count"}) {
        json::Object shard = doc.at("shard").as_object();
        ASSERT_EQ(shard.erase(key), 1u) << key;
        json::Object without = doc;
        without["shard"] = json::Value(std::move(shard));
        corrupt.push_back(json::dump(json::Value(std::move(without)), 2));
    }
    json::Object cell_as_object = doc.at("cells").as_object();
    cell_as_object["0"] = json::Value(json::Object{});
    for (json::Value cells : {json::Value(json::Array{}), json::Value(7.0),
                              json::Value(std::move(cell_as_object))}) {
        json::Object wrong = doc;
        wrong["cells"] = std::move(cells);
        corrupt.push_back(json::dump(json::Value(std::move(wrong)), 2));
    }
    corrupt.push_back(manifest.substr(0, manifest.size() / 2));  // truncated JSON
    options.resume = true;
    options.max_cells = 0;
    for (const auto& text : corrupt) {
        SCOPED_TRACE(text);
        std::ofstream(options.checkpoint_path, std::ios::trunc) << text;
        try {
            exp::SweepEngine(tiny_spec(), options).run(std::cout);
            ADD_FAILURE() << "corrupt checkpoint accepted";
        } catch (const exp::SweepError& e) {
            EXPECT_NE(std::string(e.what()).find(options.checkpoint_path),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(SweepEngine, ShardUnionEqualsUnshardedRun) {
    auto full = options_for("shard_full");
    exp::SweepEngine(tiny_spec(), full).run(std::cout);

    std::vector<std::string> rows;
    for (std::size_t shard = 0; shard < 2; ++shard) {
        auto options = options_for("shard_" + std::to_string(shard));
        options.shard.index = shard;
        options.shard.count = 2;
        const auto result = exp::SweepEngine(tiny_spec(), options).run(std::cout);
        EXPECT_EQ(result.cells_total, 3u);
        std::istringstream in(read_file(options.output_path));
        std::string line;
        std::getline(in, line);  // drop the header
        while (std::getline(in, line)) rows.push_back(line);
    }
    // Rows carry their cell index in column 0; shard 0 took the even
    // cells, so interleaving the two shard outputs restores grid order.
    ASSERT_EQ(rows.size(), 6u);
    std::vector<std::string> merged;
    for (std::size_t i = 0; i < 3; ++i) {
        merged.push_back(rows[i]);
        merged.push_back(rows[3 + i]);
    }
    std::istringstream in(read_file(full.output_path));
    std::string line;
    std::getline(in, line);
    for (const auto& expected : merged) {
        ASSERT_TRUE(std::getline(in, line));
        EXPECT_EQ(line, expected);
    }
}

TEST(SweepEngine, JsonlRowsParseBack) {
    auto options = options_for("rows");
    options.output_path = temp_path("rows.jsonl");
    exp::SweepEngine(tiny_spec(), options).run(std::cout);
    std::istringstream in(read_file(options.output_path));
    std::string line;
    std::size_t count = 0;
    while (std::getline(in, line)) {
        const json::Value row = json::parse(line);
        EXPECT_EQ(static_cast<std::size_t>(row.at("cell").as_number()), count);
        EXPECT_EQ(row.at("n").as_number(), 30.0);
        EXPECT_TRUE(row.contains("gain"));
        ++count;
    }
    EXPECT_EQ(count, 6u);
}

TEST(SweepEngine, FailedCellNamesItsCoordinates) {
    auto spec = tiny_spec();
    spec.mechanisms = {"noisy:1,0.2"};  // needs discard_cycles
    exp::SweepEngine engine(spec, options_for("fail"));
    try {
        engine.run(std::cout);
        FAIL() << "expected SweepError";
    } catch (const exp::SweepError& e) {
        EXPECT_NE(std::string(e.what()).find("cell #0"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("discard_cycles"), std::string::npos);
    }
}

TEST(SweepEngine, MetricsCountCells) {
    auto& registry = ld::support::MetricsRegistry::global();
    const auto before = registry.snapshot();
    exp::SweepEngine(tiny_spec(), options_for("metrics")).run(std::cout);
    const auto delta = registry.snapshot().since(before);
    EXPECT_GE(delta.counter_value("sweep.cells_completed"), 6u);
    ASSERT_NE(delta.find_histogram("sweep.cell_latency"), nullptr);
    EXPECT_GE(delta.find_histogram("sweep.cell_latency")->count, 6u);
}

// --- CLI surface -------------------------------------------------------------

TEST(SweepCli, ParsesFlags) {
    const auto options = ld::cli::parse_sweep_options(
        {"spec.json", "--shard", "1/4", "--resume", "--out", "rows.csv", "--ckpt",
         "c.json", "--threads", "2", "--max-cells", "5", "--metrics-out", "m.json"});
    EXPECT_EQ(options.spec_path, "spec.json");
    EXPECT_EQ(options.shard_index, 1u);
    EXPECT_EQ(options.shard_count, 4u);
    EXPECT_TRUE(options.resume);
    EXPECT_EQ(options.max_cells, 5u);
    ASSERT_TRUE(options.threads.has_value());
    EXPECT_EQ(*options.threads, 2u);
    EXPECT_EQ(*options.output_path, "rows.csv");
    EXPECT_EQ(*options.checkpoint_path, "c.json");
    EXPECT_EQ(*options.metrics_out, "m.json");
}

TEST(SweepCli, ErrorsAreDiagnosed) {
    using ld::cli::SpecError;
    EXPECT_THROW(ld::cli::parse_sweep_options({}), SpecError);
    EXPECT_THROW(ld::cli::parse_sweep_options({"a.json", "--shard", "2"}), SpecError);
    EXPECT_THROW(ld::cli::parse_sweep_options({"a.json", "--shard", "2/2"}), SpecError);
    EXPECT_THROW(ld::cli::parse_sweep_options({"a.json", "--bogus"}), SpecError);
    EXPECT_THROW(ld::cli::parse_sweep_options({"a.json", "extra.json"}), SpecError);
}

TEST(SweepCli, HelpAndEndToEndRun) {
    ld::cli::SweepOptions help;
    help.help = true;
    std::ostringstream out;
    EXPECT_EQ(ld::cli::run_sweep(help, out), 0);
    EXPECT_NE(out.str().find("usage: liquidd sweep"), std::string::npos);

    const std::string spec_path = temp_path("cli_spec.json");
    {
        std::ofstream spec(spec_path);
        spec << kTinySpec;
    }
    ld::cli::SweepOptions options;
    options.spec_path = spec_path;
    options.output_path = temp_path("cli_rows.csv");
    options.metrics_out = temp_path("cli_metrics.json");
    std::ostringstream log;
    EXPECT_EQ(ld::cli::run_sweep(options, log), 0);
    EXPECT_NE(log.str().find("sweep tiny: 6 run"), std::string::npos);
    EXPECT_EQ(json::parse_file(*options.metrics_out).at("schema").as_string(),
              "liquidd.metrics.v1");
    const std::string rows = read_file(*options.output_path);
    EXPECT_EQ(std::count(rows.begin(), rows.end(), '\n'), 7);
    std::remove(spec_path.c_str());
}

TEST(SweepCli, MissingSpecFileIsAnError) {
    ld::cli::SweepOptions options;
    options.spec_path = temp_path("does_not_exist.json");
    std::ostringstream out;
    EXPECT_THROW(ld::cli::run_sweep(options, out), exp::SweepError);
}

}  // namespace
