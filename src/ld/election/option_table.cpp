#include "ld/election/option_table.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "stats/confidence_sequence.hpp"
#include "support/thread_pool.hpp"

namespace ld::election {

namespace json = support::json;

namespace {

/// Shortest text that reads back as `value` ("0.05", "1e+30", "nan").
std::string shortest(double value) {
    char buffer[32];
    return {buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr};
}

[[noreturn]] void refuse(bool integral, const Range& range, double value) {
    throw OptionError("", "must be " + describe_range(integral, range) + ", got " +
                              shortest(value));
}

std::string join_choices(const OptionSpec& spec) {
    std::string text;
    for (const std::string_view choice : spec.choices) {
        if (!text.empty()) text += '|';
        text += choice;
    }
    return text;
}

double number_of(const RawValue& raw) {
    if (const double* value = std::get_if<double>(&raw)) return *value;
    throw OptionError("", "expected a number");
}

}  // namespace

double parse_double(std::string_view text) {
    const std::string copy(text);
    char* end = nullptr;
    const double parsed = std::strtod(copy.c_str(), &end);
    if (copy.empty() || end != copy.c_str() + copy.size()) {
        throw OptionError("", "cannot parse '" + copy + "'");
    }
    return parsed;
}

double require_number(double value, const Range& range) {
    const bool above = range.lo_open ? value > range.lo : value >= range.lo;
    const bool below = range.hi_open ? value < range.hi : value <= range.hi;
    if (!std::isfinite(value) || !above || !below) refuse(false, range, value);
    return value;
}

std::size_t require_count(double value, const Range& range) {
    // Casting a NaN, an infinity or a value >= 2^64 to size_t is undefined
    // behaviour, so every check runs before the one cast.
    static_assert(std::numeric_limits<std::size_t>::digits == 64);
    if (!(value >= std::max(range.lo, 0.0) && value <= range.hi && value < 0x1p64) ||
        value != std::floor(value)) {
        refuse(true, range, value);
    }
    return static_cast<std::size_t>(value);
}

std::string describe_range(bool integral, const Range& range) {
    if (integral) {
        const auto integer = [](double bound) {
            return std::to_string(static_cast<unsigned long long>(bound));
        };
        const std::string lo = integer(std::max(range.lo, 0.0));
        if (!(range.hi < 0x1p64)) return "an integer >= " + lo;
        return "an integer in [" + lo + ", " + integer(range.hi) + "]";
    }
    if (std::isinf(range.lo) && std::isinf(range.hi)) return "a finite number";
    const std::string lo = shortest(range.lo);
    if (std::isinf(range.hi)) {
        return std::string("a finite number ") + (range.lo_open ? "> " : ">= ") + lo;
    }
    return "a finite number in " + std::string(range.lo_open ? "(" : "[") + lo + ", " +
           shortest(range.hi) + (range.hi_open ? ")" : "]");
}

void store(const OptionSpec& spec, const RawValue& raw, std::size_t& field) {
    field = require_count(number_of(raw), spec.range);
}

void store(const OptionSpec& spec, const RawValue& raw, double& field) {
    field = require_number(number_of(raw), spec.range);
}

void store(const OptionSpec&, const RawValue& raw, bool& field) {
    const bool* value = std::get_if<bool>(&raw);
    if (!value) throw OptionError("", "expected a bool");
    field = *value;
}

void store(const OptionSpec& spec, const RawValue& raw, std::string& field) {
    const std::string* value = std::get_if<std::string>(&raw);
    if (!value || value->empty()) throw OptionError("", "expected a non-empty string");
    const auto& choices = spec.choices;
    if (!choices.empty() &&
        std::find(choices.begin(), choices.end(), *value) == choices.end()) {
        throw OptionError("", "must be one of " + join_choices(spec) + ", got '" +
                                  *value + "'");
    }
    field = *value;
}

void store(const OptionSpec& spec, const RawValue& raw,
           std::optional<std::size_t>& field) {
    store(spec, raw, field.emplace());
}

void store(const OptionSpec& spec, const RawValue& raw,
           std::optional<std::string>& field) {
    store(spec, raw, field.emplace());
}

std::string help_suffix(const OptionSpec& spec, const std::size_t& value) {
    return " (" + describe_range(true, spec.range) + "; default " +
           std::to_string(value) + ")";
}

std::string help_suffix(const OptionSpec& spec, const double& value) {
    return " (" + describe_range(false, spec.range) + "; default " + shortest(value) +
           ")";
}

std::string help_suffix(const OptionSpec& spec, const std::string& value) {
    std::string text = join_choices(spec);
    if (!value.empty()) text += (text.empty() ? "default " : "; default ") + value;
    return text.empty() ? text : " (" + text + ")";
}

std::string help_suffix(const OptionSpec& spec, const std::optional<std::size_t>&) {
    return " (" + describe_range(true, spec.range) + ")";
}

void append_help(std::string& out, const std::string& head, const std::string& text) {
    constexpr std::size_t kIndent = 25;
    constexpr std::size_t kWidth = 79;
    std::string line = "  " + head;
    if (line.size() >= kIndent) {
        out += line + "\n";
        line.clear();
    }
    line.resize(kIndent, ' ');
    for (std::size_t start = 0, end = 0; start < text.size(); start = end + 1) {
        end = std::min(text.find(' ', start), text.size());
        if (line.size() > kIndent && line.size() + end - start >= kWidth) {
            out += line + "\n";
            line.assign(kIndent, ' ');
        }
        if (line.size() > kIndent) line += ' ';
        line += text.substr(start, end - start);
    }
    out += line + "\n";
}

EvalOptions EvalSettings::eval_options() const {
    EvalOptions eval;
    eval.replications = replications;
    eval.target_std_error = target_std_error;
    eval.adaptive_batch = adaptive_batch;
    eval.max_replications = max_replications;
    eval.tally_epsilon = tally_epsilon;
    eval.inner_samples = inner_samples;
    eval.threads = resolve_threads(threads);
    eval.approximate_tally = approximate;
    if (discard_cycles) eval.cycle_policy = delegation::CyclePolicy::Discard;
    if (certify_delta > 0.0) {
        eval.certify.gamma = certify_gamma;
        eval.certify.delta = certify_delta;
        eval.certify.boundary = stats::parse_cs_boundary(certify_boundary);
    }
    return eval;
}

std::size_t resolve_threads(std::size_t threads) {
    return threads == 0 ? support::ThreadPool::global().worker_count() : threads;
}

const std::vector<Option<EvalSettings>>& eval_option_table() {
    using S = EvalSettings;
    static const std::vector<Option<S>> table = {
        {{.name = "n", .flag = "--n", .metavar = "<count>", .serve_key = "n",
          .range = {.lo = 1}, .help = "number of voters"},
         &S::n},
        {{.name = "alpha", .flag = "--alpha", .metavar = "<margin>", .serve_key = "alpha",
          .range = {.lo = 0, .lo_open = true}, .help = "approval margin"},
         &S::alpha},
        {{.name = "seed", .flag = "--seed", .metavar = "<value>", .serve_key = "seed",
          .help = "RNG seed"},
         &S::seed},
        {{.name = "replications", .flag = "--reps", .metavar = "<count>",
          .serve_key = "replications", .range = {.lo = 1},
          .help = "Monte-Carlo replications"},
         &S::replications},
        {{.name = "target_se", .flag = "--target-se", .metavar = "<se>",
          .sweep_key = "target_se", .serve_key = "target_se", .range = {.lo = 0},
          .help = "adaptive stopping: replicate in batches until the P^M standard "
                  "error reaches <se> (overrides --reps; 0 = fixed reps)"},
         &S::target_std_error},
        {{.name = "max_replications", .flag = "--max-reps", .metavar = "<count>",
          .sweep_key = "max_reps", .serve_key = "max_replications", .range = {.lo = 1},
          .help = "ceiling on adaptive and certified replications"},
         &S::max_replications},
        {{.name = "adaptive_batch", .sweep_key = "adaptive_batch", .range = {.lo = 1},
          .help = "replications per adaptive round"},
         &S::adaptive_batch},
        {{.name = "tally_eps", .flag = "--tally-eps", .metavar = "<eps>",
          .sweep_key = "tally_eps", .serve_key = "tally_eps",
          .range = {.lo = 0, .hi = 1, .hi_open = true},
          .help = "certified eps-truncated inner tally: each per-realization P^M term "
                  "is within eps/2 of the exact DP (0 = exact; try 1e-12)"},
         &S::tally_epsilon},
        {{.name = "inner_samples", .sweep_key = "inner_samples",
          .serve_key = "inner_samples", .range = {.lo = 1},
          .help = "vote-propagation samples per multi-delegation realization"},
         &S::inner_samples},
        {{.name = "threads", .flag = "--threads", .metavar = "<count>",
          .sweep_key = "threads", .serve_key = "threads",
          .help = "replication worker threads (0 = auto, one per hardware thread)"},
         &S::threads},
        {{.name = "approximate", .flag = "--approx", .sweep_key = "approximate",
          .serve_key = "approximate",
          .help = "use the Lemma-4 normal-approximation tally (big n)"},
         &S::approximate},
        {{.name = "discard_cycles", .flag = "--discard-cycles",
          .sweep_key = "discard_cycles", .serve_key = "discard_cycles",
          .help = "discard votes trapped in delegation cycles (noisy:* needs it)"},
         &S::discard_cycles},
        {{.name = "certify_gamma", .flag = "--certify", .metavar = "<gamma>",
          .sweep_key = "certify_gamma", .serve_key = "certify_gamma",
          .help = "certified anytime-valid stopping: replicate until a confidence "
                  "sequence decides \"gain >= gamma\" with statistical error <= delta "
                  "> 0, or --max-reps runs out (overrides --reps and --target-se; "
                  "docs/STATISTICS.md)"},
         &S::certify_gamma},
        {{.name = "certify_delta", .flag = "--certify", .metavar = "<delta>",
          .sweep_key = "certify_delta", .serve_key = "certify_delta",
          .range = {.lo = 0, .hi = 1, .hi_open = true},
          .help = "certified error budget (0 = certification off)"},
         &S::certify_delta},
        {{.name = "certify_boundary", .flag = "--cs-boundary", .metavar = "<name>",
          .sweep_key = "certify_boundary", .serve_key = "certify_boundary",
          .choices = {"empirical_bernstein", "hoeffding", "empirical-bernstein", "eb"},
          .help = "certify boundary: variance-adaptive or variance-free"},
         &S::certify_boundary},
    };
    return table;
}

namespace {

const Option<EvalSettings>& option_named(std::string_view name) {
    for (const auto& option : eval_option_table()) {
        if (name == option.spec.name) return option;
    }
    throw std::out_of_range("no option named '" + std::string(name) + "'");
}

void read_keyed(const Option<EvalSettings>& option, const std::string& key,
                const json::Value& value, EvalSettings& out) {
    RawValue raw;
    if (value.is_number()) raw = value.as_number();
    if (value.is_bool()) raw = value.as_bool();
    if (value.is_string()) raw = value.as_string();
    try {
        assign(option, raw, out);
    } catch (const OptionError& e) {
        throw OptionError(key, e.what());
    }
}

}  // namespace

OptionSpec eval_spec(std::string_view name, const char* help) {
    OptionSpec spec = option_named(name).spec;
    if (help) spec.help = help;
    return spec;
}

void read_sweep_options(const json::Value& options, EvalSettings& out) {
    const auto& table = eval_option_table();
    for (const auto& [key, value] : options.as_object()) {
        const auto it = std::find_if(table.begin(), table.end(), [&](const auto& o) {
            return *o.spec.sweep_key && key == o.spec.sweep_key;
        });
        if (it == table.end()) throw OptionError(key, "unknown option");
        read_keyed(*it, key, value, out);
    }
}

void read_serve_params(const json::Value& params, EvalSettings& out,
                       std::initializer_list<std::string_view> names) {
    if (!params.is_object()) return;
    for (const auto& option : eval_option_table()) {
        const json::Value* value = params.find(option.spec.serve_key);
        const bool named =
            names.size() == 0 ||
            std::find(names.begin(), names.end(), option.spec.name) != names.end();
        if (*option.spec.serve_key && named && value) {
            read_keyed(option, option.spec.serve_key, *value, out);
        }
    }
}

void read_json_value(std::string_view name, const json::Value& value, EvalSettings& out) {
    read_keyed(option_named(name), std::string(name), value, out);
}

}  // namespace ld::election
