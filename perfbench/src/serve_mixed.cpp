// serve_mixed: a real ld::serve::Server on a Unix socket, driven open loop
// by a fixed read/write mix.
//
//   reads   `eval` against a cached ba:8 instance (n = 2000, 20
//           replications, 1 thread); every other eval repeats one of the
//           seven eval templates of examples/serve/slo_requests.jsonl (the
//           stream the latency SLO job replays), so coalescing and dedup
//           have work, the rest are threshold:1 with unique seeds.
//   writes  liquidd_loadgen's --churn stream: single-op `instance.patch`
//           requests (delegate / vote / abstain / competency in the ratio
//           4 : 2 : 1 : 1) against a live session on cl:2.5,8 (n = 10⁵),
//           with an `instance.state` read every 8th write.
//
// The repository holds no measured production mix, so reads and writes
// take equal shares, and so do hot-template and unique-seed evals: the
// simplest default, not a tuned one.
//
// Chosen because it is the only workload that runs the event front,
// admission, the dispatcher, the Router, the InstanceCache, LiveState and
// the factor tree, and because patches and evals share one dispatcher: a
// gain on one kind that costs the other shows up.  The two working sets
// differ on purpose: the n = 2000 instance fits in cache, the n = 10⁵
// session does not.
//
// Phases: a ladder of fixed rates (×1.2 per step) until one rate meets
// the latency limit and the next misses it (the median latency of evals
// or of patches is over the limit, or a request is refused or left
// unanswered, twice in a row), then one rate between those two; the
// highest rate meeting the limit is interpolated across the final
// bracket.  Before each rate runs a segment of the reference phase at a
// fixed low rate, so the reference latencies sample the whole run, not
// one stretch of it.

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>

#include "ld/cli/specs.hpp"
#include "ld/delegation/delegation_graph.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/election/tally.hpp"
#include "ld/serve/instance_cache.hpp"
#include "ld/serve/protocol.hpp"
#include "ld/serve/router.hpp"
#include "ld/serve/server.hpp"
#include "serve_client.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "traced_eval.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace json = ld::support::json;
namespace serve = ld::serve;

constexpr const char* kCompetencies = "uniform:0.3,0.7";
constexpr double kAlpha = 0.05;
constexpr const char* kEvalGraph = "ba:8";
constexpr std::size_t kEvalVoters = 2000;
constexpr std::size_t kEvalReplications = 20;

struct EvalTemplate {
    const char* mechanism;
    std::uint64_t seed;
};
/// The hot eval templates: the eval requests of
/// examples/serve/slo_requests.jsonl, in order.
constexpr EvalTemplate kHotTemplates[] = {{"threshold:1", 11}, {"threshold:2", 13},
                                          {"direct", 17},      {"threshold:1", 19},
                                          {"threshold:3", 23}, {"threshold:1", 29},
                                          {"threshold:2", 31}};
constexpr std::size_t kHotTemplateCount = std::size(kHotTemplates);
/// Mechanism and first seed of the unique-seed evals.
constexpr const char* kUniqueMechanism = "threshold:1";
constexpr std::uint64_t kUniqueSeedBase = 1'000'000;

constexpr const char* kLiveGraph = "cl:2.5,8";
constexpr std::size_t kLiveVoters = 100'000;
constexpr std::uint64_t kStateEvery = 8;
constexpr std::size_t kConnections = 2;
/// Offered rate of the reference phase, requests/s: about a sixth of what
/// the dispatcher sustained on a 4-core VM when this benchmark was
/// written, so its latencies stay mostly service time, not queueing, even
/// when outside load slows the machine.
constexpr double kReferenceRate = 25.0;
/// Shares of the run: the reference phase and each ladder rung.
constexpr double kReferenceShare = 0.6;
/// Segments the reference phase is cut into, one before each ladder rate
/// (any left over when the ladder ends run after it).
constexpr std::size_t kReferenceSegments = 5;
constexpr double kRungShare = 0.15;
constexpr double kLadderStartRate = 100.0;
/// The limit the median latency of both evals and patches must meet at a
/// ladder rate: ten times the unloaded latency, so a rate meets it while
/// the backlog stays bounded.  A tail percentile of a few seconds of
/// requests would turn on single stalls of a shared machine instead.
constexpr double kLatencyLimitMs = 100.0;
constexpr double kVerdictPercentile = 0.50;
/// load() of a rung with refused or unanswered requests, at least.
constexpr double kMissedLoad = 10.0;
constexpr double kRungFactor = 1.2;
constexpr int kMaxRungs = 16;
constexpr int kSetupRepeats = 5;
/// How long a phase waits past its last due time for answers.  A late
/// answer keeps its true receive time; only one that never comes within
/// this wait is unanswered.
constexpr double kAnswerTimeoutS = 30.0;
/// ε of the from-scratch tallies the final live state is checked against;
/// each is within ε/2 of exact.
constexpr double kCheckEpsilon = 1e-12;
/// Floating-point slack on top of the certified bounds (different DP
/// orders round differently).
constexpr double kFloatSlack = 1e-12;
constexpr std::size_t kIdCapacity = 1 << 16;

enum class Kind { Eval, Patch, State };

const char* kind_name(Kind kind) {
    switch (kind) {
        case Kind::Eval: return "eval";
        case Kind::Patch: return "patch";
        default: return "state";
    }
}

struct PatchOp {
    enum class Op { Delegate, Vote, Abstain, Competency };
    Op op = Op::Vote;
    std::size_t voter = 0;
    std::size_t to = 0;
    double p = 0.0;
};

/// An eval's identity: mechanism and seed.
using EvalKey = std::pair<std::string, std::uint64_t>;

struct Item {
    Kind kind = Kind::Eval;
    std::string line;
    EvalTemplate eval{kUniqueMechanism, 0};
    PatchOp patch{};

    EvalKey eval_key() const { return {eval.mechanism, eval.seed}; }
};

std::string request_line(std::uint64_t id, const std::string& method,
                         const std::string& params) {
    return "{\"id\": " + std::to_string(id) + ", \"method\": \"" + method +
           "\", \"params\": " + params + "}";
}

std::string load_params(const char* graph, std::size_t n, std::uint64_t seed) {
    return std::string("{\"graph\": \"") + graph + "\", \"competencies\": \"" + kCompetencies +
           "\", \"n\": " + std::to_string(n) + ", \"alpha\": " + json::format_number(kAlpha) +
           ", \"seed\": " + std::to_string(seed) + "}";
}

/// The fixed traffic mix, request by request, from the workload seed.
/// Even slots are evals (hot template and unique seed alternating), odd
/// slots the write stream (every kStateEvery-th an instance.state).  The
/// patch ops follow liquidd_loadgen's synthesize_churn: a uniform voter,
/// then 4 in 8 delegate to a uniform other voter, 2 in 8 vote, 1 in 8
/// abstain and 1 in 8 set a uniform competency in [0, 1).
class TrafficMix {
public:
    TrafficMix(std::uint64_t seed, std::size_t live_voters, std::string eval_fp,
               std::string live_fp)
        : rng_(seed ^ 0x5eed'feed'cafe'f00dULL), live_voters_(live_voters),
          eval_fp_(std::move(eval_fp)), live_fp_(std::move(live_fp)) {}

    Item make(std::uint64_t id) {
        Item item;
        if (slot_++ % 2 == 0) {
            const std::uint64_t k = evals_++;
            item.kind = Kind::Eval;
            item.eval = k % 2 == 0 ? kHotTemplates[(k / 2) % kHotTemplateCount]
                                   : EvalTemplate{kUniqueMechanism, kUniqueSeedBase + k};
            item.line = eval_line(id, item.eval);
        } else if (++writes_ % kStateEvery == 0) {
            item.kind = Kind::State;
            item.line = request_line(id, "instance.state", "{\"instance\": \"" + live_fp_ + "\"}");
        } else {
            item.kind = Kind::Patch;
            item.patch = next_op();
            item.line = request_line(id, "instance.patch",
                                     "{\"instance\": \"" + live_fp_ + "\", \"ops\": [" +
                                         render(item.patch) + "]}");
        }
        return item;
    }

private:
    std::string eval_line(std::uint64_t id, const EvalTemplate& eval) const {
        return request_line(id, "eval",
                            "{\"instance\": \"" + eval_fp_ + "\", \"mechanism\": \"" +
                                eval.mechanism + "\", \"replications\": " +
                                std::to_string(kEvalReplications) +
                                ", \"threads\": 1, \"seed\": " + std::to_string(eval.seed) + "}");
    }

    PatchOp next_op() {
        const std::size_t n = live_voters_;
        PatchOp op;
        op.voter = rng_.next_below(n);
        const std::uint64_t pick = rng_.next_below(8);
        if (pick < 4) {
            op.op = PatchOp::Op::Delegate;
            op.to = rng_.next_below(n - 1);
            if (op.to >= op.voter) ++op.to;
        } else if (pick < 6) {
            op.op = PatchOp::Op::Vote;
        } else if (pick == 6) {
            op.op = PatchOp::Op::Abstain;
        } else {
            op.op = PatchOp::Op::Competency;
            op.p = rng_.next_double();
        }
        return op;
    }

    static std::string render(const PatchOp& op) {
        const std::string voter = ", \"voter\": " + std::to_string(op.voter);
        switch (op.op) {
            case PatchOp::Op::Delegate:
                return "{\"op\": \"delegate\"" + voter + ", \"to\": " + std::to_string(op.to) + "}";
            case PatchOp::Op::Vote: return "{\"op\": \"vote\"" + voter + "}";
            case PatchOp::Op::Abstain: return "{\"op\": \"abstain\"" + voter + "}";
            default:
                return "{\"op\": \"competency\"" + voter + ", \"p\": " + json::format_number(op.p) +
                       "}";
        }
    }

    ld::rng::Rng rng_;
    std::size_t live_voters_;
    std::string eval_fp_;
    std::string live_fp_;
    std::uint64_t slot_ = 0;
    std::uint64_t evals_ = 0;
    std::uint64_t writes_ = 0;
};

/// The result object of an ok response, nullopt otherwise.
std::optional<json::Value> ok_result(const std::string& line) {
    try {
        json::Value response = json::parse(line);
        const json::Value* ok = response.find("ok");
        const json::Value* result = response.find("result");
        if (ok && ok->is_bool() && ok->as_bool() && result && result->is_object()) return *result;
    } catch (const std::exception&) {
    }
    return std::nullopt;
}

bool is_overload_refusal(const std::string& line) {
    try {
        const json::Value response = json::parse(line);
        return !response.at("ok").as_bool() &&
               response.at("error").at("code").as_string() == "overloaded";
    } catch (const std::exception&) {
        return false;
    }
}

/// A server plus a connected client, with both instances loaded and the
/// live session born.
struct Session {
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<ServeClient> client;
    std::string eval_fp;
    std::string live_fp;

    Session() = default;
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;
    ~Session() {
        client.reset();
        if (server) {
            server->request_drain();
            server->wait();
        }
    }
};

std::unique_ptr<Session> start_session(const std::string& socket_path, std::uint64_t seed,
                                       WorkloadReport& out) {
    auto s = std::make_unique<Session>();
    serve::ServerConfig config;
    config.unix_socket = socket_path;
    config.eval_threads = 1;
    s->server = std::make_unique<serve::Server>(config);
    s->server->start();
    s->client = std::make_unique<ServeClient>(socket_path, kConnections, kIdCapacity);
    ServeClient& client = *s->client;
    const auto load = [&](const char* graph, std::size_t n) {
        const auto result = ok_result(client.call(
            request_line(client.next_id(), "instance.load", load_params(graph, n, seed))));
        out.check(result.has_value(), std::string("instance.load ") + graph);
        return result ? result->at("instance").as_string() : std::string("missing");
    };
    s->eval_fp = load(kEvalGraph, kEvalVoters);
    s->live_fp = load(kLiveGraph, kLiveVoters);
    const auto born = ok_result(client.call(request_line(
        client.next_id(), "instance.state", "{\"instance\": \"" + s->live_fp + "\"}")));
    out.check(born && born->at("epoch").as_number() == 0.0, "live session born at epoch 0");
    return s;
}

struct PhaseStats {
    std::vector<double> eval_ms, patch_ms, state_ms, lateness_ms;
    std::size_t refused = 0;
    std::size_t unanswered = 0;

    PhaseStats& operator+=(const PhaseStats& other) {
        for (auto [to, from] : {std::pair{&eval_ms, &other.eval_ms},
                                {&patch_ms, &other.patch_ms},
                                {&state_ms, &other.state_ms},
                                {&lateness_ms, &other.lateness_ms}}) {
            to->insert(to->end(), from->begin(), from->end());
        }
        refused += other.refused;
        unanswered += other.unanswered;
        return *this;
    }

    /// The larger of the eval and patch median as a multiple of the limit; a
    /// refused or unanswered request misses the limit outright.  A rate
    /// meets the limit when this is at most 1.
    double load() const {
        if (eval_ms.empty() || patch_ms.empty()) return kMissedLoad;
        const double worst = std::max(percentile(eval_ms, kVerdictPercentile),
                                      percentile(patch_ms, kVerdictPercentile)) /
                             kLatencyLimitMs;
        return refused + unanswered > 0 ? std::max(worst, kMissedLoad) : worst;
    }
};

PhaseStats analyse(const OpenLoopLog& log, const std::vector<Item>& items,
                   std::uint64_t first_id, const ServeClient& client) {
    PhaseStats stats;
    for (std::size_t i = 0; i < items.size(); ++i) {
        stats.lateness_ms.push_back(log.lateness_s(i) * 1e3);
        if (!log.answered(i)) {
            ++stats.unanswered;
            continue;
        }
        if (!ok_result(client.response(first_id + i))) {
            ++stats.refused;
            continue;
        }
        const double ms = log.latency_s(i) * 1e3;
        switch (items[i].kind) {
            case Kind::Eval: stats.eval_ms.push_back(ms); break;
            case Kind::Patch: stats.patch_ms.push_back(ms); break;
            default: stats.state_ms.push_back(ms); break;
        }
    }
    return stats;
}

/// One open-loop phase of the mix: its requests, schedule log and
/// latency statistics.
struct Phase {
    std::uint64_t first_id = 0;
    std::vector<Item> items;
    OpenLoopLog log{Clock::now(), 1.0, 0};
    PhaseStats stats;
    /// Whether a refused request is a failure (in the reference phase, not
    /// on the ladder, whose refusals are how its top is found).
    bool strict = true;
};

Phase run_phase(ServeClient& client, TrafficMix& mix, double rate, std::size_t count) {
    Phase phase;
    phase.first_id = client.next_id();
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < count; ++i) {
        phase.items.push_back(mix.make(phase.first_id + i));
        lines.push_back(phase.items.back().line);
    }
    phase.log = client.run(lines, rate, kAnswerTimeoutS);
    phase.stats = analyse(phase.log, phase.items, phase.first_id, client);
    return phase;
}

ld::election::EvalOptions eval_options() {
    ld::election::EvalOptions eval;
    eval.replications = kEvalReplications;
    eval.threads = 1;
    return eval;
}

ExpectedEval expected_eval(const ld::model::Instance& instance, const EvalKey& key) {
    const auto mechanism = ld::cli::make_mechanism(key.first);
    ld::rng::Rng rng(key.second);
    const auto report = ld::election::estimate_gain(*mechanism, instance, rng, eval_options());
    return {report.pd,        report.pm.value,        report.pm.std_error,
            report.gain,      report.mean_max_weight, static_cast<double>(report.pm.replications)};
}

/// Exact checks on every answer: evals bit-identical to in-process
/// estimate_gain, patches applied in one epoch sequence, and the final
/// live state within its certified bound of a from-scratch tally.
/// Returns the in-process result of every eval that was answered.
std::map<EvalKey, ExpectedEval> check_outputs(const std::vector<const Phase*>& phases,
                                              const ld::model::Instance& eval_instance,
                                              const ld::model::Instance& live_instance,
                                              const json::Value& final_state,
                                              const ServeClient& client, WorkloadReport& out) {
    std::map<EvalKey, std::vector<std::string>> evals_by_key;
    std::map<double, std::pair<PatchOp, bool>> patches_by_epoch;
    for (const Phase* phase : phases) {
        for (std::size_t i = 0; i < phase->items.size(); ++i) {
            const Item& item = phase->items[i];
            const std::string line = client.response(phase->first_id + i);
            const auto result = ok_result(line);
            if (!result) {
                // Overload refusals on the ladder are how its top is found;
                // anything else that is not ok is a failure.
                if (phase->strict || !is_overload_refusal(line)) {
                    out.check(false, std::string("not ok: ") + kind_name(item.kind) + " " + line);
                }
                continue;
            }
            try {
                if (item.kind == Kind::Eval) {
                    evals_by_key[item.eval_key()].push_back(line);
                } else if (item.kind == Kind::Patch) {
                    const auto& results = result->at("results").as_array();
                    const bool applied = results.size() == 1 && results[0].at("applied").as_bool();
                    const bool fresh = patches_by_epoch
                                           .emplace(result->at("epoch").as_number(),
                                                    std::make_pair(item.patch, applied))
                                           .second;
                    out.check(fresh, "patch epochs unique");
                } else {
                    const double pm = result->at("pm").as_number();
                    out.check(pm >= 0.0 && pm <= 1.0, "instance.state P^M in [0,1]");
                }
            } catch (const std::exception&) {
                out.check(false, std::string("malformed ") + kind_name(item.kind) + " response");
            }
        }
    }

    // Evals: one in-process estimate_gain per distinct eval, on the pool.
    std::vector<EvalKey> keys;
    for (const auto& entry : evals_by_key) keys.push_back(entry.first);
    std::vector<ExpectedEval> expected(keys.size());
    {
        ld::support::TaskGroup group(ld::support::ThreadPool::global());
        for (std::size_t k = 0; k < keys.size(); ++k) {
            group.submit([&, k] { expected[k] = expected_eval(eval_instance, keys[k]); });
        }
        group.wait();
    }
    std::map<EvalKey, ExpectedEval> by_key;
    for (std::size_t k = 0; k < keys.size(); ++k) {
        for (const std::string& line : evals_by_key[keys[k]]) {
            out.check(eval_response_matches(line, expected[k]),
                      "eval bit-identical to in-process estimate_gain (" + keys[k].first +
                          ", seed " + std::to_string(keys[k].second) + ")");
        }
        by_key.emplace(keys[k], expected[k]);
    }

    // Patches: replay the applied ops in epoch order onto a from-scratch
    // profile, then tally it.
    const std::size_t n = live_instance.voter_count();
    std::vector<ld::mech::Action> actions(n);
    const auto base = live_instance.competencies().values();
    std::vector<double> p(base.begin(), base.end());
    double expected_epoch = 1.0;
    bool contiguous = true;
    for (const auto& [epoch, entry] : patches_by_epoch) {
        contiguous = contiguous && epoch == expected_epoch++;
        const auto& [op, applied] = entry;
        switch (op.op) {
            case PatchOp::Op::Delegate:
                if (applied) actions[op.voter] = ld::mech::Action::delegate_to(op.to);
                break;
            case PatchOp::Op::Vote: actions[op.voter] = ld::mech::Action::vote(); break;
            case PatchOp::Op::Abstain: actions[op.voter] = ld::mech::Action::abstain(); break;
            case PatchOp::Op::Competency: p[op.voter] = op.p; break;
        }
    }
    try {
        out.check(contiguous && final_state.at("epoch").as_number() == expected_epoch - 1.0,
                  "every answered patch advanced the epoch once");
        const ld::model::CompetencyVector competencies(p);
        ld::election::TallyScratch scratch;
        const ld::delegation::DelegationOutcome profile(actions);
        const double pm = ld::election::truncated_correct_probability(
            profile, competencies, kCheckEpsilon, scratch);
        const ld::delegation::DelegationOutcome direct{std::vector<ld::mech::Action>(n)};
        const double pd = ld::election::truncated_correct_probability(
            direct, competencies, kCheckEpsilon, scratch);
        const double slack = kCheckEpsilon / 2 + kFloatSlack;
        out.check(std::abs(final_state.at("pm").as_number() - pm) <=
                      final_state.at("pm_error_bound").as_number() + slack,
                  "final live P^M within its certified bound of a from-scratch tally");
        out.check(std::abs(final_state.at("pd").as_number() - pd) <=
                      final_state.at("pd_error_bound").as_number() + slack,
                  "final live P^D within its certified bound of a from-scratch tally");
    } catch (const std::exception& e) {
        out.check(false, std::string("from-scratch tally of the final profile: ") + e.what());
    }
    return by_key;
}

/// In-process replay of the phases' requests, in order, through a fresh
/// Router: the per-request Router::execute times when `timed` (phase by
/// phase, request by request), and the loop's wall.
struct Replay {
    std::vector<std::vector<double>> execute_ms;
    double wall_s = 0.0;
};

Replay replay(const std::vector<const Phase*>& phases, std::uint64_t seed, bool timed,
              TraceLog* trace) {
    serve::InstanceCache cache;
    serve::RouterConfig config;
    config.eval_threads = 1;
    serve::Router router(config, cache);
    const auto now = Clock::now();
    const auto exec = [&](const std::string& line) {
        return router.execute(serve::parse_request(line, now));
    };
    exec(request_line(0, "instance.load", load_params(kEvalGraph, kEvalVoters, seed)));
    const auto live = exec(request_line(0, "instance.load", load_params(kLiveGraph, kLiveVoters, seed)));
    exec(request_line(0, "instance.state",
                      "{\"instance\": \"" + live.result.at("instance").as_string() + "\"}"));

    std::vector<std::vector<serve::Request>> requests;
    Replay out;
    for (const Phase* phase : phases) {
        requests.emplace_back();
        for (const Item& item : phase->items) {
            requests.back().push_back(serve::parse_request(item.line, now));
        }
        out.execute_ms.emplace_back(phase->items.size());
    }
    const auto t0 = Clock::now();
    for (std::size_t p = 0; p < phases.size(); ++p) {
        for (std::size_t i = 0; i < requests[p].size(); ++i) {
            if (!timed) {
                router.execute(requests[p][i]);
                continue;
            }
            const auto c0 = Clock::now();
            router.execute(requests[p][i]);
            const auto c1 = Clock::now();
            out.execute_ms[p][i] = seconds_between(c0, c1) * 1e3;
            if (trace) {
                trace->span(std::string("serve.execute.") + kind_name(phases[p]->items[i].kind), c0,
                            c1, 0, phases[p]->first_id + i, "serve.request");
            }
        }
    }
    out.wall_s = seconds_between(t0, Clock::now());
    return out;
}

double counter(const ld::support::MetricsSnapshot& snapshot, const std::string& name) {
    return static_cast<double>(snapshot.counter_value(name));
}

/// Mean observation of a histogram (its `seconds` are whatever the server
/// records: batch sizes, dirty-voter counts).
double histogram_mean(const ld::support::MetricsSnapshot& snapshot, const std::string& name) {
    const auto* h = snapshot.find_histogram(name);
    return h && h->count > 0 ? h->total_seconds / static_cast<double>(h->count) : 0.0;
}

}  // namespace

WorkloadReport serve_mixed(const WorkloadArgs& args) {
    WorkloadReport out;
    auto& registry = ld::support::MetricsRegistry::global();

    // Set-up: server start, connections, both instance.loads and the live
    // session's birth.  The first set-up serves; the repeats that only time
    // set-up run on fresh servers after the served phases, so no freed
    // session shapes the served peak RSS.
    std::vector<double> setup_s;
    const auto set_up = [&](int k) {
        const auto t0 = Clock::now();
        auto s = start_session(args.out_dir + "/serve-" + std::to_string(k) + ".sock", args.seed,
                               out);
        setup_s.push_back(seconds_between(t0, Clock::now()));
        return s;
    };
    std::unique_ptr<Session> session = set_up(0);
    ServeClient& client = *session->client;
    TrafficMix mix(args.seed, kLiveVoters, session->eval_fp, session->live_fp);

    // The ladder: rates ×kRungFactor up from kLadderStartRate (down, if it
    // misses) until the limit is bracketed, then the geometric midpoint of
    // the bracket; each rate after a reference segment.  The top rate is
    // where log(latency / limit) crosses 0 between the highest rate that
    // met the limit and the lowest that missed it.
    registry.reset();
    const auto served_t0 = Clock::now();
    const auto segment_count = static_cast<std::size_t>(
        kReferenceRate * args.seconds * kReferenceShare / double(kReferenceSegments));
    std::vector<std::unique_ptr<Phase>> reference;
    const auto reference_segment = [&] {
        if (reference.size() < kReferenceSegments) {
            reference.push_back(std::make_unique<Phase>(
                run_phase(client, mix, kReferenceRate, segment_count)));
        }
    };
    const double step_s = std::max(1.0, args.seconds * kRungShare);
    std::vector<std::unique_ptr<Phase>> ladder;
    double met_rate = 0.0, met_load = 0.0, missed_rate = 0.0, missed_load = 0.0;
    // One rung at `rate`: its load(), with a printed row.
    const auto rung = [&](double rate) {
        ladder.push_back(std::make_unique<Phase>(run_phase(
            client, mix, rate, static_cast<std::size_t>(std::ceil(rate * step_s)))));
        ladder.back()->strict = false;
        const PhaseStats& stats = ladder.back()->stats;
        const double load = stats.load();
        std::ostringstream row;
        row << "  rate " << std::setw(7) << std::fixed << std::setprecision(1) << rate
            << "/s: eval p50 " << median(stats.eval_ms) << " p90 "
            << percentile(stats.eval_ms, 0.90) << " ms, patch p50 " << median(stats.patch_ms)
            << " p90 " << percentile(stats.patch_ms, 0.90)
            << " ms, refused " << stats.refused << ", unanswered " << stats.unanswered << " -> "
            << (load <= 1.0 ? "meets" : "misses") << " the limit";
        out.notes.push_back(row.str());
        return load;
    };
    // The load at `rate`, after a reference segment.  A rate that misses
    // runs once more and misses only if both do: on a shared machine a
    // burst of outside load can sink a single rung.
    const auto try_rate = [&](double rate) {
        reference_segment();
        double load = rung(rate);
        if (load > 1.0) load = std::min(load, rung(rate));
        (load <= 1.0 ? met_rate : missed_rate) = rate;
        (load <= 1.0 ? met_load : missed_load) = load;
    };
    for (double rate = kLadderStartRate;
         (met_rate == 0.0 || missed_rate == 0.0) && ladder.size() < std::size_t{kMaxRungs};) {
        try_rate(rate);
        rate = missed_rate == 0.0 ? rate * kRungFactor : rate / kRungFactor;
    }
    double max_rps = met_rate;
    if (met_rate > 0.0 && missed_rate > 0.0) {
        try_rate(std::sqrt(met_rate * missed_rate));
        max_rps = met_rate + (missed_rate - met_rate) * std::log(1.0 / met_load) /
                                 std::log(missed_load / met_load);
    } else if (missed_rate > 0.0) {
        max_rps = missed_rate / missed_load;
    }
    while (reference.size() < kReferenceSegments) reference_segment();
    const double served_s = seconds_between(served_t0, Clock::now());
    const auto counters = registry.snapshot();
    // The server's own high-water mark: read before the client loads its
    // fixture copies of the instances and runs the checks.
    const double served_rss_mb = peak_rss_mb();

    // Final state, then every check.
    out.check(client.wait_all(kAnswerTimeoutS), "every request answered");
    std::vector<const Phase*> reference_phases;
    PhaseStats ref;
    for (const auto& segment : reference) {
        reference_phases.push_back(segment.get());
        ref += segment->stats;
    }
    const std::size_t reference_requests = segment_count * reference.size();
    out.check(ref.unanswered == 0, "every reference-phase request answered");
    const auto final_state = ok_result(client.call(request_line(
        client.next_id(), "instance.state", "{\"instance\": \"" + session->live_fp + "\"}")));
    out.check(final_state.has_value(), "final instance.state");

    // The client's own copies of both instances (same cache code path, so
    // the same realizations): the eval instance for expected results, the
    // live one's competencies for the final check.
    serve::InstanceCache fixtures;
    const auto eval_instance =
        fixtures.load(kEvalGraph, kCompetencies, kEvalVoters, kAlpha, args.seed);
    const auto live_instance =
        fixtures.load(kLiveGraph, kCompetencies, kLiveVoters, kAlpha, args.seed);
    out.check(session->eval_fp == eval_instance->fingerprint &&
                  session->live_fp == live_instance->fingerprint &&
                  live_instance->instance.voter_count() == kLiveVoters,
              "served fingerprints match the client's");
    std::vector<const Phase*> phases = reference_phases;
    for (const auto& phase : ladder) phases.push_back(phase.get());
    std::map<EvalKey, ExpectedEval> expected;
    if (final_state) {
        expected = check_outputs(phases, eval_instance->instance, live_instance->instance,
                                 *final_state, client, out);
    }
    out.check(client.unmatched() == 0, "no response line without a matching request");
    const std::pair served_fps{session->eval_fp, session->live_fp};
    session.reset();
    for (int k = 1; k < kSetupRepeats; ++k) {
        const auto again = set_up(k);
        out.check(std::pair{again->eval_fp, again->live_fp} == served_fps,
                  "every set-up serves the same fingerprints");
    }

    out.note("offered_rps", kReferenceRate, "1/s", reference_requests);
    out.note("reference.unanswered", static_cast<double>(ref.unanswered), "count",
             reference_requests);
    out.latency_notes("eval_ms", ref.eval_ms);
    out.latency_notes("patch_ms", ref.patch_ms);
    out.latency_notes("state_ms", ref.state_ms);
    out.note("serve_max_rps", max_rps, "1/s", ladder.size());
    // Sender lateness over every phase of the run.
    std::vector<double> lateness_ms = ref.lateness_ms;
    for (const auto& phase : ladder) {
        lateness_ms.insert(lateness_ms.end(), phase->stats.lateness_ms.begin(),
                           phase->stats.lateness_ms.end());
    }
    out.latency_notes("client.lateness_ms", lateness_ms);

    if (!args.trace) {
        out.metric("setup_s", median(setup_s), "s", setup_s.size());
        out.metric("op_ms_p50", median(ref.eval_ms), "ms", ref.eval_ms.size());
        out.metric("ops_per_s", max_rps, "1/s", ladder.size());
        out.metric("peak_rss_mb", served_rss_mb, "MB", 1);
        return out;
    }

    // Traced: replay the reference stream in-process, untimed then timed;
    // the timed replay gives Router::execute per request.  Then run the
    // reference evals through the traced pipeline for their layer times.
    TraceLog trace_log;
    const Replay plain = replay(reference_phases, args.seed, false, nullptr);
    const Replay timed = replay(reference_phases, args.seed, true, &trace_log);
    TracedPipeline pipeline("serve.eval");
    LayerTimes layers;
    std::size_t traced_evals = 0;
    for (const Phase* segment : reference_phases) {
        for (std::size_t i = 0; i < segment->items.size(); ++i) {
            const Item& item = segment->items[i];
            if (item.kind != Kind::Eval) continue;
            const auto mechanism = ld::cli::make_mechanism(item.eval.mechanism);
            ld::rng::Rng rng(item.eval.seed);
            LayerTimes t;
            const auto c0 = Clock::now();
            const TracedGain g =
                pipeline.gain(*mechanism, eval_instance->instance, rng, eval_options(), t,
                              &trace_log, segment->first_id + i);
            t.wall = seconds_between(c0, Clock::now());
            layers += t;
            ++traced_evals;
            const auto it = expected.find(item.eval_key());
            out.check(it != expected.end() && g.pd == it->second.pd && g.pm == it->second.pm &&
                          g.pm_stderr == it->second.pm_stderr,
                      "traced eval bit-identical to estimate_gain");
        }
    }

    std::map<Kind, std::vector<double>> execute_ms, wait_ms;
    double latency_sum = 0.0, unattributed_sum = 0.0;
    std::size_t answered = 0;
    for (std::size_t p = 0; p < reference_phases.size(); ++p) {
        const Phase& segment = *reference_phases[p];
        // Each segment starts with every earlier request answered: an empty
        // queue.
        double queue_free = 0.0;
        for (std::size_t i = 0; i < segment.items.size(); ++i) {
            const Kind kind = segment.items[i].kind;
            const double exec = timed.execute_ms[p][i];
            execute_ms[kind].push_back(exec);
            const double sent_ms = (segment.log.lateness_s(i) + double(i) / kReferenceRate) * 1e3;
            // FIFO model of the dispatcher (Lindley recursion over the
            // replayed execute times); instance.state runs inline on the
            // event loop.
            double queued = 0.0;
            if (kind != Kind::State) {
                const double start = std::max(sent_ms, queue_free);
                queued = start - sent_ms;
                queue_free = start + exec;
            }
            if (!segment.log.answered(i)) continue;
            const double latency = segment.log.latency_s(i) * 1e3;
            wait_ms[kind].push_back(latency - exec);
            latency_sum += latency;
            unattributed_sum += latency - segment.log.lateness_s(i) * 1e3 - exec - queued;
            ++answered;
            trace_log.span(std::string("serve.request.") + kind_name(kind), segment.log.due(i),
                           segment.log.due(i) +
                               std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(segment.log.latency_s(i))),
                           10 + static_cast<int>(i % 16), segment.first_id + i);
        }
    }

    // Server counters over the served phases; an eval answered from a
    // shared dedup result is not executed, so it is not in serve.evals.
    const double dedup = counter(counters, "serve.dedup_shared");
    const double evals = counter(counters, "serve.evals") + dedup;
    const double hits = counter(counters, "serve.instance_cache_hits");
    const double misses = counter(counters, "serve.instance_cache_misses");
    const double patches = counter(counters, "patch.requests");
    std::size_t count = reference_requests;
    for (const auto& phase : ladder) count += phase->items.size();
    const EngineCounters engine = engine_counters(counters, served_s);
    const auto per_eval = static_cast<double>(traced_evals);

    // The steady state builds no graph or instance: instance.load is set-up.
    out.not_called({{"gen.generate_s", "s"}, {"model.instance_s", "s"}});
    out.not_called(sweep_layer_metrics());
    out.metric("election.pd_s", layers.pd / per_eval, "s", traced_evals);
    out.metric("election.replicate_s", layers.replicate / per_eval, "s", traced_evals);
    out.metric("mech.act_s", layers.act / per_eval, "s", traced_evals);
    out.metric("delegation.realize_s", layers.realize / per_eval, "s", traced_evals);
    out.metric("prob.tally_s", layers.tally / per_eval, "s", traced_evals);
    out.metric("run.unattributed_s", layers.unattributed() / per_eval, "s", traced_evals);
    out.metric("prob.tally_window_max", engine.window_max, "count", count);
    out.metric("engine.pool_busy_share", engine.busy_share, "ratio", count);
    out.metric("engine.workspace_reuse_ratio", engine.reuse_ratio, "ratio", count);
    for (const Kind kind : {Kind::Eval, Kind::Patch, Kind::State}) {
        out.metric(std::string("serve.execute_ms.") + kind_name(kind), median(execute_ms[kind]),
                   "ms", execute_ms[kind].size());
    }
    for (const Kind kind : {Kind::Eval, Kind::Patch}) {
        out.metric(std::string("serve.wait_ms.") + kind_name(kind), median(wait_ms[kind]), "ms",
                   wait_ms[kind].size());
    }
    out.metric("serve.batch_size_mean", histogram_mean(counters, "dispatch.batch_size"), "count",
               count);
    out.metric("serve.dedup_share", evals > 0 ? dedup / evals : 0.0, "ratio", count);
    out.metric("serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
               count);
    out.metric("serve.rejected_overload", counter(counters, "serve.rejected_overload"), "count",
               count);
    out.metric("serve.rejected_deadline", counter(counters, "serve.rejected_deadline"), "count",
               count);
    out.metric("patch.dirty_mean", histogram_mean(counters, "patch.dirty"), "count", count);
    out.metric("patch.tally_delta_per_patch",
               patches > 0 ? counter(counters, "patch.tally_delta") / patches : 0.0, "count",
               count);
    out.metric("patch.resolution_rebuilds", counter(counters, "patch.resolution_rebuilds"),
               "count", count);
    out.metric("serve.unattributed_ms", answered ? unattributed_sum / double(answered) : 0.0, "ms",
               answered);
    out.metric("unattributed_share", latency_sum > 0 ? unattributed_sum / latency_sum : 0.0,
               "ratio", answered);
    out.metric("client.lateness_ms_p99", percentile(lateness_ms, 0.99), "ms",
               lateness_ms.size());
    out.metric("trace.overhead_share", timed.wall_s / plain.wall_s - 1.0, "ratio", count);
    const std::string path =
        args.out_dir + "/serve_mixed-seed" + std::to_string(args.seed) + ".trace.json";
    trace_log.write(path);
    out.notes.push_back("trace file: " + path + " (" + std::to_string(trace_log.size()) +
                        " spans)");
    return out;
}

}  // namespace perfbench
