// One table of option descriptors for every liquidd front end: the command
// line (ld/cli/runner.cpp), sweep manifests (ld/experiments/sweep.cpp) and
// serve's params (ld/serve/router.cpp).  A descriptor names a field once —
// CLI flag, JSON keys, range, help line — and binds it to the member it
// fills.  Two walkers read values into those members: parse_args() for
// argv, read_*() for json::Value.  Every number passes one range-checked
// cast (require_number / require_count): finite, inside its range,
// integral where required, checked before any cast to size_t.  Walkers
// throw OptionError without a prefix; each front end adds its own
// ("--flag: ", "sweep spec: options.key: ", "params.key: ").
//
// Defaults are the member initialisers of the target struct; the
// generated help reads them from a value-initialised one, so help text
// cannot drift from the code.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "ld/election/evaluator.hpp"
#include "support/json.hpp"

namespace ld::election {

// Seeds bind to count slots: one integer type serves both.
static_assert(std::is_same_v<std::uint64_t, std::size_t>);

/// A refused option value: what() has no front-end prefix; field() names
/// the flag or key that failed ("" when the error names none).
class OptionError : public std::runtime_error {
public:
    OptionError(std::string field, const std::string& message)
        : std::runtime_error(message), field_(std::move(field)) {}
    const std::string& field() const noexcept { return field_; }

private:
    std::string field_;
};

/// Numbers must be finite and inside the interval; counts must be
/// integers in [max(lo, 0), hi] and below 2^64.
struct Range {
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool lo_open = false;
    bool hi_open = false;
};

/// The front-end independent half of a descriptor.
struct OptionSpec {
    const char* name = "";       ///< field name, as the docs spell it
    const char* flag = "";       ///< CLI flag ("" = not on the command line)
    const char* metavar = "";    ///< CLI value placeholder, e.g. "<eps>"
    const char* sweep_key = "";  ///< sweep manifest `options` key ("" = none)
    const char* serve_key = "";  ///< serve `eval` param ("" = none)
    Range range{};
    std::vector<std::string_view> choices{};  ///< allowed strings (empty = any)
    const char* help = "";
};

/// Text → double over the whole string ("nan" and "inf" parse; the range
/// checks refuse them).  Throws OptionError.
double parse_double(std::string_view text);

/// The range-checked casts every front end shares.  Throw OptionError.
double require_number(double value, const Range& range);
std::size_t require_count(double value, const Range& range);

/// "a finite number in [0, 1)", "an integer >= 1", ...
std::string describe_range(bool integral, const Range& range);

/// A value before its checks.  Non-scalar JSON arrives as monostate.
using RawValue = std::variant<std::monostate, double, bool, std::string>;

/// Check `raw` against `spec` and store it; throw OptionError on a wrong
/// type, a value out of range or a string not among the choices.
void store(const OptionSpec& spec, const RawValue& raw, std::size_t& field);
void store(const OptionSpec& spec, const RawValue& raw, double& field);
void store(const OptionSpec& spec, const RawValue& raw, bool& field);
void store(const OptionSpec& spec, const RawValue& raw, std::string& field);
void store(const OptionSpec& spec, const RawValue& raw,
           std::optional<std::size_t>& field);
void store(const OptionSpec& spec, const RawValue& raw,
           std::optional<std::string>& field);

/// " (range; default X)" for a field's help line.
std::string help_suffix(const OptionSpec& spec, const std::size_t& value);
std::string help_suffix(const OptionSpec& spec, const double& value);
std::string help_suffix(const OptionSpec& spec, const std::string& value);
std::string help_suffix(const OptionSpec& spec, const std::optional<std::size_t>& value);
template <class F>
std::string help_suffix(const OptionSpec&, const F&) { return {}; }

/// Append "  --flag <v>    help..." wrapped to 79 columns.
void append_help(std::string& out, const std::string& head, const std::string& text);

/// A composite CLI value (e.g. `--shard i/k`) parsed by hand.
template <class T>
using Setter = void (*)(T&, const std::string&);

/// Where a descriptor stores its value inside a T.  Alternatives 0, 1 and
/// 4 are numeric.
template <class T>
using Slot = std::variant<std::size_t T::*, double T::*, bool T::*, std::string T::*,
                          std::optional<std::size_t> T::*,
                          std::optional<std::string> T::*, Setter<T>>;

/// One field descriptor bound to a member of T.
template <class T>
struct Option {
    OptionSpec spec;
    Slot<T> slot;
};

template <class T>
void assign(const Option<T>& option, const RawValue& raw, T& out) {
    std::visit(
        [&](auto slot) {
            if constexpr (std::is_same_v<decltype(slot), Setter<T>>) {
                std::string text;
                store(option.spec, raw, text);
                slot(out, text);
            } else {
                store(option.spec, raw, out.*slot);
            }
        },
        option.slot);
}

/// The one argv walker.  Bool slots are bare flags; other slots take the
/// next argument.  Descriptors sharing a flag (`--certify <gamma>
/// <delta>`) take one value each, in table order.  "-h" spells "--help".
/// A non-flag argument fills `positional` once.  Returns the flags seen.
template <class T>
std::vector<std::string> parse_args(const std::vector<std::string>& args,
                                    const std::vector<Option<T>>& table, T& out,
                                    std::string T::*positional = nullptr) {
    std::vector<std::string> seen;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string flag = args[i] == "-h" ? "--help" : args[i];
        std::size_t sharing = 0;
        for (const auto& option : table) sharing += flag == option.spec.flag;
        if (sharing == 0 && positional && !flag.starts_with('-') &&
            (out.*positional).empty()) {
            out.*positional = flag;
            continue;
        }
        if (sharing == 0 || flag.empty()) {
            throw OptionError("", (flag.starts_with('-') ? "unknown flag '"
                                                          : "unexpected argument '") +
                                      flag + "'");
        }
        for (const auto& option : table) {
            if (flag != option.spec.flag) continue;
            if (const auto* bare = std::get_if<bool T::*>(&option.slot)) {
                out.**bare = true;
                continue;
            }
            const std::string field =
                sharing > 1 ? flag + " " + option.spec.metavar : flag;
            if (i + 1 >= args.size()) throw OptionError(field, "missing value");
            const std::size_t kind = option.slot.index();
            try {
                const std::string& text = args[++i];
                assign(option,
                       kind == 0 || kind == 1 || kind == 4 ? RawValue(parse_double(text))
                                                           : RawValue(text),
                       out);
            } catch (const OptionError& e) {
                throw OptionError(field, e.what());
            }
        }
        seen.push_back(flag);
    }
    return seen;
}

/// The flag lines of a usage text: flag and metavars, help, the enforced
/// range and the default of a value-initialised T.
template <class T>
std::string describe_options(const std::vector<Option<T>>& table) {
    static const T defaults{};
    std::string out;
    for (std::size_t i = 0; i < table.size(); ++i) {
        const OptionSpec& spec = table[i].spec;
        if (i > 0 && std::string_view(spec.flag) == table[i - 1].spec.flag) continue;
        std::string head = spec.flag;
        for (std::size_t j = i; j < table.size() && table[j].spec.flag == head; ++j) {
            if (*table[j].spec.metavar) head += std::string(" ") + table[j].spec.metavar;
        }
        std::string text = spec.help;
        std::visit(
            [&](auto slot) {
                if constexpr (!std::is_same_v<decltype(slot), Setter<T>>) {
                    text += help_suffix(spec, defaults.*slot);
                }
            },
            table[i].slot);
        append_help(out, head, text);
    }
    return out;
}

/// Everything a front end states about one evaluation: the EvalOptions
/// knobs it exposes plus the instance parameters n, alpha and seed.  The
/// initialisers are every front end's defaults (serve first swaps in its
/// RouterConfig defaults for threads, tally_epsilon and the reps cap).
struct EvalSettings {
    std::size_t n = 100;                     ///< voters
    double alpha = 0.05;                     ///< approval margin
    std::uint64_t seed = 1;                  ///< RNG seed
    std::size_t replications = 200;          ///< fixed-mode replications
    std::size_t inner_samples = 8;           ///< multi-delegation vote samples
    std::size_t threads = 1;                 ///< replication workers (0 = auto)
    bool discard_cycles = false;             ///< CyclePolicy::Discard
    bool approximate = false;                ///< Lemma-4 normal-approximation tally
    double target_std_error = 0.0;           ///< adaptive stopping (0 = fixed reps)
    std::size_t adaptive_batch = 64;         ///< replications per adaptive round
    std::size_t max_replications = 100'000;  ///< adaptive / certified ceiling
    double tally_epsilon = 0.0;              ///< certified truncated tally (0 = exact)
    double certify_gamma = 0.0;              ///< certified gain threshold
    double certify_delta = 0.0;              ///< certified error budget (0 = off)
    std::string certify_boundary = "empirical_bernstein";  ///< CS half-width formula

    /// The EvalOptions these settings describe, threads resolved.
    EvalOptions eval_options() const;
};

/// "0 = auto": one worker per thread of the shared pool.  The one place
/// run, sweep and serve resolve it.
std::size_t resolve_threads(std::size_t threads);

/// The shared descriptor table, in help order.
const std::vector<Option<EvalSettings>>& eval_option_table();

/// The shared descriptors that have a CLI flag, lifted onto a struct
/// derived from EvalSettings.
template <class Derived>
std::vector<Option<Derived>> cli_options() {
    std::vector<Option<Derived>> out;
    for (const auto& option : eval_option_table()) {
        std::visit(
            [&](auto member) {
                if constexpr (std::is_member_object_pointer_v<decltype(member)>) {
                    if (*option.spec.flag) out.push_back({option.spec, member});
                }
            },
            option.slot);
    }
    return out;
}

/// A shared descriptor's spec, optionally with another help line (for a
/// front end whose field means something narrower, e.g. gen's --threads).
OptionSpec eval_spec(std::string_view name, const char* help = nullptr);

/// Read a sweep manifest's `options` object; every key must be a
/// descriptor's sweep_key.  OptionError::field() is the key.
void read_sweep_options(const support::json::Value& options, EvalSettings& out);

/// Read the serve params among `names` (all serve-keyed descriptors when
/// empty) that `params` holds; other keys are left alone.
void read_serve_params(const support::json::Value& params, EvalSettings& out,
                       std::initializer_list<std::string_view> names = {});

/// Read one JSON value into the descriptor named `name`.
void read_json_value(std::string_view name, const support::json::Value& value,
                     EvalSettings& out);

}  // namespace ld::election
