#include "ld/serve/router.hpp"

#include <algorithm>
#include <sstream>

#include "ld/cli/specs.hpp"
#include "ld/delegation/delegation_graph.hpp"
#include "ld/election/evaluator.hpp"
#include "stats/confidence_sequence.hpp"
#include "support/expect.hpp"
#include "support/metrics.hpp"
#include "support/stopwatch.hpp"

namespace ld::serve {

namespace {

json::Object report_to_json(const election::GainReport& report) {
    json::Object result;
    result.emplace("pd", json::Value(report.pd));
    result.emplace("pm", json::Value(report.pm.value));
    result.emplace("pm_stderr", json::Value(report.pm.std_error));
    result.emplace("gain", json::Value(report.gain));
    result.emplace("gain_ci_lo", json::Value(report.gain_ci.lo));
    result.emplace("gain_ci_hi", json::Value(report.gain_ci.hi));
    result.emplace("mean_delegators", json::Value(report.mean_delegators));
    result.emplace("mean_sinks", json::Value(report.mean_sinks));
    result.emplace("mean_max_weight", json::Value(report.mean_max_weight));
    result.emplace("mean_longest_path", json::Value(report.mean_longest_path));
    result.emplace("replications",
                   json::Value(static_cast<double>(report.pm.replications)));
    if (report.pm.certified && report.certified_gain) {
        const auto& cert = *report.pm.certified;
        result.emplace("cert_gain_lo", json::Value(report.certified_gain->lo));
        result.emplace("cert_gain_hi", json::Value(report.certified_gain->hi));
        result.emplace("cert_pm_lo", json::Value(cert.lo));
        result.emplace("cert_pm_hi", json::Value(cert.hi));
        result.emplace("cert_delta", json::Value(cert.delta));
        result.emplace("cert_stop",
                       json::Value(std::string(stats::cert_stop_name(cert.stop))));
        result.emplace("cert_looks", json::Value(static_cast<double>(cert.looks)));
    }
    return result;
}

}  // namespace

Router::Router(RouterConfig config, InstanceCache& cache, ServeStatus* status)
    : config_(config), cache_(cache), status_(status) {}

Router::Outcome Router::execute(const Request& request) {
    auto& registry = support::MetricsRegistry::global();
    registry.counter("serve.requests").add(1);
    const support::Stopwatch clock;

    Outcome outcome;
    try {
        json::Object result;
        if (request.method == "eval") {
            result = do_eval(request.params);
        } else if (request.method == "instance.load") {
            result = do_instance_load(request.params);
        } else if (request.method == "instance.info") {
            result = do_instance_info(request.params);
        } else if (request.method == "instance.patch") {
            result = do_instance_patch(request.params);
        } else if (request.method == "instance.state") {
            result = do_instance_state(request.params);
        } else if (request.method == "metrics") {
            result = do_metrics();
        } else if (request.method == "health") {
            result = do_health();
        } else if (request.method == "shutdown") {
            result.emplace("draining", json::Value(true));
            if (shutdown_hook_) shutdown_hook_();
        } else {
            throw ProtocolError(ErrorCode::UnknownMethod,
                                "unknown method '" + request.method + "'");
        }
        outcome.ok = true;
        outcome.result = std::move(result);
    } catch (const ProtocolError& e) {
        registry.counter("serve.errors").add(1);
        outcome.code = e.code();
        outcome.message = e.what();
    } catch (const std::exception& e) {
        registry.counter("serve.errors").add(1);
        outcome.code = ErrorCode::Internal;
        outcome.message = e.what();
    }

    registry.histogram("serve.latency." + request.method).record(clock.elapsed_seconds());
    return outcome;
}

std::string Router::render(const json::Value& id, const Outcome& outcome) {
    if (outcome.ok) return render_result(id, outcome.result);
    return render_error(id, outcome.code, outcome.message);
}

std::string Router::handle(const Request& request) {
    auto& registry = support::MetricsRegistry::global();

    // A request that waited past its deadline in the queue is dead on
    // arrival — reject before burning evaluation time on it.
    if (request.expired(std::chrono::steady_clock::now())) {
        registry.counter("serve.rejected_deadline").add(1);
        return render_error(request.id, ErrorCode::DeadlineExceeded,
                            "deadline expired before execution");
    }

    const Outcome outcome = execute(request);

    // The result is worthless if the caller's deadline passed while we
    // computed it; report the expiry so clients can trust deadlines.
    if (outcome.ok && request.expired(std::chrono::steady_clock::now())) {
        registry.counter("serve.rejected_deadline").add(1);
        return render_error(request.id, ErrorCode::DeadlineExceeded,
                            "deadline expired during execution");
    }
    return render(request.id, outcome);
}

json::Object Router::do_eval(const json::Value& params) {
    const std::string mechanism_spec = string_param(params, "mechanism");
    // Every knob and instance parameter comes through the shared option
    // table, over this server's defaults; the replication counts then
    // face the admission cap.
    election::EvalSettings settings;
    settings.threads = config_.eval_threads;
    settings.tally_epsilon = config_.default_tally_epsilon;
    settings.max_replications =
        std::min(settings.max_replications, config_.max_replications);
    read_params(params, settings);
    const std::string cap =
        "must be in [1, " + std::to_string(config_.max_replications) + "]";
    if (settings.replications > config_.max_replications) bad_param("replications", cap);
    if (settings.max_replications > config_.max_replications) {
        bad_param("max_replications", cap);
    }
    // Certified anytime-valid stopping (≡ CLI `--certify γ δ`): a
    // confidence sequence decides "gain ≥ certify_gamma" at error
    // certify_delta; results carry cert_* fields (docs/STATISTICS.md).
    if (settings.certify_delta > 0.0 && settings.approximate) {
        bad_param("certify_delta",
                  "certification is incompatible with approximate tallies");
    }
    const election::EvalOptions eval = settings.eval_options();

    const auto mechanism = cli::make_mechanism(mechanism_spec);
    if (!mechanism->approval_respecting() && !settings.discard_cycles) {
        bad_param("mechanism", "'" + mechanism_spec +
                                   "' can create delegation cycles; set "
                                   "\"discard_cycles\": true");
    }

    json::Object result;
    election::GainReport report;
    if (params.is_object() && params.find("instance")) {
        // Cached-instance path ≡ CLI `--load-instance`: the RNG starts
        // fresh at `seed` and drives only the replication loop.
        const std::string fingerprint = string_param(params, "instance");
        const auto cached = cache_.find(fingerprint);
        if (!cached) {
            throw ProtocolError(ErrorCode::NotFound,
                                "instance '" + fingerprint +
                                    "' not cached (call instance.load first)");
        }
        rng::Rng rng(settings.seed);
        report = election::estimate_gain(*mechanism, cached->instance, rng, eval);
        result.emplace("instance", json::Value(fingerprint));
    } else {
        // Inline path ≡ CLI `--graph/--competencies`: one RNG seeded at
        // `seed` realizes the graph, then the competencies, then runs the
        // replications — the same draws in the same order.
        const std::string graph_spec = string_param(params, "graph");
        const std::string competency_spec = string_param(params, "competencies");
        require_param(params, "n");
        require_param(params, "alpha");
        rng::Rng rng(settings.seed);
        auto graph = cli::make_graph(graph_spec, settings.n, rng);
        auto competencies =
            cli::make_competencies(competency_spec, graph.vertex_count(), rng);
        const model::Instance instance(std::move(graph), std::move(competencies),
                                       settings.alpha);
        report = election::estimate_gain(*mechanism, instance, rng, eval);
    }

    auto fields = report_to_json(report);
    result.merge(fields);
    result.emplace("threads", json::Value(static_cast<double>(eval.threads)));
    result.emplace("seed", json::Value(static_cast<double>(settings.seed)));
    support::MetricsRegistry::global().counter("serve.evals").add(1);
    return result;
}

json::Object Router::do_instance_load(const json::Value& params) {
    const std::string graph_spec = string_param(params, "graph");
    const std::string competency_spec = string_param(params, "competencies");
    require_param(params, "n");
    require_param(params, "alpha");
    election::EvalSettings settings;
    read_params(params, settings, {"n", "alpha", "seed"});

    bool was_hit = false;
    const auto entry = cache_.load(graph_spec, competency_spec, settings.n,
                                   settings.alpha, settings.seed, &was_hit);
    json::Object result;
    result.emplace("instance", json::Value(entry->fingerprint));
    result.emplace("voters",
                   json::Value(static_cast<double>(entry->instance.voter_count())));
    result.emplace("alpha", json::Value(entry->alpha));
    result.emplace("cached", json::Value(was_hit));
    result.emplace("description", json::Value(entry->instance.describe()));
    return result;
}

json::Object Router::do_instance_info(const json::Value& params) {
    const std::string fingerprint = string_param(params, "instance");
    const auto entry = cache_.find(fingerprint);
    if (!entry) {
        throw ProtocolError(ErrorCode::NotFound,
                            "instance '" + fingerprint + "' not cached");
    }
    json::Object result;
    result.emplace("instance", json::Value(entry->fingerprint));
    result.emplace("graph", json::Value(entry->graph_spec));
    result.emplace("competencies", json::Value(entry->competency_spec));
    result.emplace("n", json::Value(static_cast<double>(entry->n)));
    result.emplace("alpha", json::Value(entry->alpha));
    result.emplace("seed", json::Value(static_cast<double>(entry->seed)));
    result.emplace("voters",
                   json::Value(static_cast<double>(entry->instance.voter_count())));
    result.emplace("description", json::Value(entry->instance.describe()));
    return result;
}

std::shared_ptr<LiveState> Router::open_live(const json::Value& params) {
    const std::string fingerprint = string_param(params, "instance");
    const auto cached = cache_.find(fingerprint);
    if (!cached) {
        throw ProtocolError(ErrorCode::NotFound,
                            "instance '" + fingerprint +
                                "' not cached (call instance.load first)");
    }
    election::EvalSettings settings;
    settings.tally_epsilon = config_.live_tally_epsilon;
    read_params(params, settings, {"tally_eps"});
    return live_.open(cached, settings.tally_epsilon);
}

json::Object Router::do_instance_patch(const json::Value& params) {
    return open_live(params)->apply_patch(params);
}

json::Object Router::do_instance_state(const json::Value& params) {
    return open_live(params)->state();
}

json::Object Router::do_metrics() {
    // Reuse the liquidd.metrics.v1 writer verbatim, re-parsed into the
    // response — one schema for files and RPC alike.
    std::ostringstream os;
    support::write_metrics_json(os, support::MetricsRegistry::global().snapshot());
    json::Object result;
    result.emplace("report", json::parse(os.str()));
    return result;
}

json::Object Router::do_health() {
    json::Object result;
    const bool draining = status_ && status_->draining.load(std::memory_order_relaxed);
    result.emplace("status", json::Value(std::string(draining ? "draining" : "ok")));
    result.emplace(
        "queue_depth",
        json::Value(static_cast<double>(
            status_ ? status_->queue_depth.load(std::memory_order_relaxed) : 0)));
    result.emplace(
        "connections",
        json::Value(static_cast<double>(
            status_ ? status_->connections.load(std::memory_order_relaxed) : 0)));
    result.emplace("instances", json::Value(static_cast<double>(cache_.size())));
    return result;
}

}  // namespace ld::serve
