#include "ld/election/evaluator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <optional>
#include <vector>

#include "ld/delegation/realize.hpp"
#include "ld/election/engine.hpp"
#include "ld/election/tally.hpp"
#include "ld/election/workspace.hpp"
#include "prob/normal.hpp"
#include "prob/poisson_binomial.hpp"
#include "prob/weighted_bernoulli_sum.hpp"
#include "support/expect.hpp"
#include "support/metrics.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace ld::election {

using support::expects;

double exact_direct_probability(const model::Instance& instance) {
    return prob::direct_majority_probability(instance.competencies().values());
}

double exact_direct_probability_weighted(
    const model::Instance& instance, std::span<const std::uint64_t> initial_weights) {
    if (initial_weights.empty()) return exact_direct_probability(instance);
    expects(initial_weights.size() == instance.voter_count(),
            "exact_direct_probability_weighted: one weight per voter required");
    prob::WeightedBernoulliSum dist(initial_weights, instance.competencies().values());
    return dist.majority_probability();
}

double approx_direct_probability(const model::Instance& instance,
                                 std::span<const std::uint64_t> initial_weights) {
    expects(initial_weights.empty() ||
                initial_weights.size() == instance.voter_count(),
            "approx_direct_probability: one weight per voter required");
    const auto probs = instance.competencies().values();
    const std::size_t n = probs.size();
    if (n == 0) return 0.0;
    // Small juries: the exact DP is cheap and the CLT is not trustworthy.
    if (n <= 64) return exact_direct_probability_weighted(instance, initial_weights);
    double total = 0.0, mean = 0.0, var = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double w =
            initial_weights.empty() ? 1.0 : static_cast<double>(initial_weights[i]);
        total += w;
        mean += w * probs[i];
        var += w * w * probs[i] * (1.0 - probs[i]);
    }
    if (var <= 0.0) return mean > total / 2.0 ? 1.0 : 0.0;
    return 1.0 - prob::normal_cdf(total / 2.0 + 0.5, mean, std::sqrt(var));
}

double exact_direct_mean_votes(const model::Instance& instance) {
    return instance.competencies().mean() * static_cast<double>(instance.voter_count());
}

namespace {

/// Validate eval options against the mechanism/instance up front, so a
/// misconfiguration fails before any replication runs instead of
/// mid-estimate (e.g. inner_samples == 0 used to surface only when the
/// first non-functional outcome appeared).
void validate_options(const mech::Mechanism& mechanism, const model::Instance& instance,
                      const EvalOptions& options) {
    expects(options.replications > 0, "estimate: need at least one replication");
    expects(options.threads >= 1, "estimate: need at least one thread");
    expects(options.initial_weights.empty() ||
                options.initial_weights.size() == instance.voter_count(),
            "estimate: initial_weights must be empty or one per voter");
    expects(!mechanism.multi_delegation() || options.inner_samples > 0,
            "estimate: inner_samples must be positive for multi-delegation "
            "mechanisms (their P^M has no exact inner step)");
    if (options.certify.enabled()) {
        expects(options.certify.delta < 1.0, "certify: delta must lie in (0, 1)");
        expects(std::isfinite(options.certify.gamma), "certify: gamma must be finite");
        expects(!options.approximate_tally,
                "certify: the Lemma-4 normal tally has no certified error "
                "bound; use the exact or truncated (tally_epsilon) route");
    }
    expects((options.target_std_error <= 0.0 && !options.certify.enabled()) ||
                (options.adaptive_batch > 0 && options.max_replications > 0),
            "estimate: adaptive_batch and max_replications must be positive");
}

ReplicationEngine& engine_for(const EvalOptions& options) {
    return options.engine ? *options.engine : ReplicationEngine::shared();
}

/// RAII wall-clock accounting for one estimate_* call: on destruction,
/// credits `replications` and the elapsed time to the engine counters and
/// records the call's latency in the per-estimate histogram.  The
/// registry references are resolved once (they stay valid across reset()).
struct EstimateTimer {
    explicit EstimateTimer(std::size_t n = 0) : replications(n) {}
    EstimateTimer(const EstimateTimer&) = delete;
    EstimateTimer& operator=(const EstimateTimer&) = delete;

    ~EstimateTimer() {
        static support::Counter& replications_counter =
            support::MetricsRegistry::global().counter("engine.replications");
        static support::Counter& replication_ns =
            support::MetricsRegistry::global().counter("engine.replication_ns");
        static support::LatencyHistogram& latency =
            support::MetricsRegistry::global().histogram("estimate.latency");
        replications_counter.add(replications);
        replication_ns.add(clock.elapsed_ns());
        latency.record(clock.elapsed_seconds());
    }

    std::size_t replications;
    support::Stopwatch clock;
};

/// One replication's outputs: its P^M term and the realized delegation shape.
struct Sample {
    double pm = 0.0;
    double delegators = 0.0;
    double max_weight = 0.0;
    double sinks = 0.0;
    double longest = 0.0;
    bool functional = false;
};

/// Rebuild `ws.outcome` from one sampled delegation realization, reusing
/// the workspace's buffers (no copy of the initial weights is taken), and
/// return its shape (P^M still 0).
Sample realize_with(const mech::Mechanism& mechanism, const model::Instance& instance,
                    rng::Rng& rng, const EvalOptions& options,
                    ReplicationWorkspace& ws) {
    delegation::realize_into(ws.outcome, ws.resolve, mechanism, instance, rng,
                             options.initial_weights, options.cycle_policy);
    const auto& st = ws.outcome.stats();
    return {0.0,
            static_cast<double>(st.delegator_count),
            static_cast<double>(st.max_weight),
            static_cast<double>(st.voting_sink_count),
            static_cast<double>(st.longest_path),
            ws.outcome.functional()};
}

Estimate finish(const stats::RunningStats& acc, double confidence) {
    Estimate e;
    e.value = acc.mean();
    e.std_error = acc.standard_error();
    e.ci = stats::mean_interval(acc.mean(), acc.standard_error(), confidence);
    e.replications = acc.count();
    return e;
}

/// Welford accumulators over samples.  The weight, sink and path shape
/// is defined only for functional outcomes, so only those feed it.
struct ReplicationStats {
    stats::RunningStats pm;
    stats::RunningStats delegators;
    stats::RunningStats max_weight;
    stats::RunningStats sinks;
    stats::RunningStats longest;

    void add(const Sample& s) {
        pm.add(s.pm);
        delegators.add(s.delegators);
        if (s.functional) {
            max_weight.add(s.max_weight);
            sinks.add(s.sinks);
            longest.add(s.longest);
        }
    }

    void merge(const ReplicationStats& other) {
        pm.merge(other.pm);
        delegators.merge(other.delegators);
        max_weight.merge(other.max_weight);
        sinks.merge(other.sinks);
        longest.merge(other.longest);
    }
};

/// P^M given the realization in `ws.outcome`, one replication at a time:
/// the exact, truncated or approximate tally for a functional outcome,
/// inner vote sampling from `rng` otherwise.
double tally_one(const EvalOptions& options, const model::CompetencyVector& p,
                 rng::Rng& rng, ReplicationWorkspace& ws) {
    const auto& outcome = ws.outcome;
    if (outcome.functional()) {
        if (options.approximate_tally) {
            return approx_correct_probability(outcome, p, ws.tally);
        }
        if (options.tally_epsilon > 0.0) {
            return truncated_correct_probability(outcome, p, options.tally_epsilon,
                                                 ws.tally);
        }
        return exact_correct_probability(outcome, p, ws.tally);
    }
    expects(options.inner_samples > 0, "estimate: need inner samples");
    // One topological order per realization, shared by all inner samples
    // (the digraph is fixed within a replication).
    ws.topo_order = outcome.as_digraph().topological_order();
    std::size_t correct = 0;
    for (std::size_t i = 0; i < options.inner_samples; ++i) {
        if (sample_outcome_correct(outcome, p, rng, ws.topo_order, ws.tally)) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(options.inner_samples);
}

/// The one replication body: realize, then tally, replications
/// [first, first + count) on the calling thread's workspace, passing one
/// Sample each to `emit` in index order.  `rng_for(i)` is replication i's
/// generator: the worker's stream (one object for every i) or its own.
///
/// The exact route with always-functional outcomes (!multi_delegation())
/// tallies up to TallyBatch::kMaxLanes realizations in lockstep
/// (prob/batch_tally): those tallies draw no randomness, so batching keeps
/// every RNG stream, and the batched tally is bit-identical per lane.
template <class RngFor, class Emit>
void run_chunk(const mech::Mechanism& mechanism, const model::Instance& instance,
               const EvalOptions& options, std::size_t first, std::size_t count,
               const RngFor& rng_for, Emit&& emit) {
    ReplicationWorkspace& ws = engine_for(options).local_workspace();
    const auto& p = instance.competencies();
    const bool batched = !mechanism.multi_delegation() && !options.approximate_tally &&
                         options.tally_epsilon == 0.0 && count > 1;
    const std::size_t width = batched ? TallyBatch::kMaxLanes : 1;
    std::array<Sample, TallyBatch::kMaxLanes> lanes;
    for (std::size_t done = 0; done < count; done += width) {
        const std::size_t n = std::min(width, count - done);
        ws.tally_batch.clear();
        for (std::size_t k = 0; k < n; ++k) {
            auto&& rng = rng_for(first + done + k);
            lanes[k] = realize_with(mechanism, instance, rng, options, ws);
            if (!batched) {
                lanes[k].pm = tally_one(options, p, rng, ws);
                continue;
            }
            expects(lanes[k].functional,
                    "estimate: batched tally requires functional outcomes");
            stage_tally_lane(ws.tally_batch, ws.outcome, p);
        }
        if (batched) tally_staged(ws.tally_batch);
        for (std::size_t k = 0; k < n; ++k) {
            if (batched) lanes[k].pm = ws.tally_batch.result[k];
            emit(lanes[k]);
        }
    }
}

/// The one fan-out: rounds of up to `batch` replications until `cap` are
/// done or `stop(round size)`, asked after every round, says so; returns
/// and credits (EstimateTimer) the count.  Slice t of a round takes base
/// + (t < extra) replications, and `chunk(t, first, offset, count)` runs
/// replications [first + offset, +count) on the engine's pool, inline
/// when threads == 1.  `beside` runs once on the caller while the first
/// round runs (before it when threads == 1); it draws no randomness.
template <class Chunk, class Stop>
std::size_t run_rounds(const EvalOptions& options, std::size_t threads, std::size_t batch,
                       std::size_t cap, const Chunk& chunk, Stop&& stop,
                       const std::function<void()>& beside) {
    EstimateTimer timer;  // credits the rounds run, also when a chunk throws
    std::size_t& done = timer.replications;
    while (true) {
        const std::size_t round = std::min(batch, cap - done);
        if (threads == 1) {
            if (done == 0) beside();
            chunk(0, done, 0, round);
        } else {
            support::TaskGroup group(engine_for(options).pool());
            const std::size_t base = round / threads;
            const std::size_t extra = round % threads;
            for (std::size_t t = 0, offset = 0; t < threads; ++t) {
                const std::size_t count = base + (t < extra ? 1 : 0);
                if (count > 0) {
                    group.submit([&chunk, t, done, offset, count] {
                        chunk(t, done, offset, count);
                    });
                }
                offset += count;
            }
            if (done == 0) beside();
            group.wait();
        }
        done += round;
        if (stop(round) || done >= cap) return done;
    }
}

/// Fixed-N and `--target-se` routes.  Worker t draws from its own stream
/// (split once up front; the caller's own when threads == 1), folds its
/// chunk with Welford and merges that into partial t; the partials merge
/// in worker order.  Fixed N is one round of N; `--target-se` runs rounds
/// of `adaptive_batch` until the merged P^M standard error (needs two
/// samples) reaches the target or `max_replications` is hit.  Nothing
/// depends on scheduling: a fixed (seed, threads) pair is reproducible.
void run_streams(const mech::Mechanism& mechanism, const model::Instance& instance,
                 rng::Rng& rng, const EvalOptions& options,
                 const std::function<void()>& beside, ReplicationStats& merged) {
    static support::Counter& rounds_counter =
        support::MetricsRegistry::global().counter("eval.adaptive_batches");
    const bool adaptive = options.target_std_error > 0.0;
    const std::size_t cap = adaptive ? options.max_replications : options.replications;
    const std::size_t batch = adaptive ? std::min(options.adaptive_batch, cap) : cap;
    const std::size_t threads = std::min(options.threads, batch);
    // split() advances the parent, so the streams depend on (seed, threads).
    std::vector<rng::Rng> streams;
    while (threads > 1 && streams.size() < threads) streams.push_back(rng.split());
    std::vector<ReplicationStats> partials(threads);
    const auto chunk = [&](std::size_t t, std::size_t first, std::size_t,
                           std::size_t count) {
        rng::Rng& stream = threads == 1 ? rng : streams[t];
        ReplicationStats local;
        run_chunk(
            mechanism, instance, options, first, count,
            [&stream](std::size_t) -> rng::Rng& { return stream; },
            [&local](const Sample& s) { local.add(s); });
        partials[t].merge(local);
    };
    const auto stop = [&](std::size_t) {
        merged = ReplicationStats{};
        for (const auto& partial : partials) merged.merge(partial);
        if (!adaptive) return true;
        rounds_counter.add(1);
        return merged.pm.count() >= 2 &&
               merged.pm.standard_error() <= options.target_std_error;
    };
    run_rounds(options, threads, batch, cap, chunk, stop, beside);
}

/// Seed of the i-th replication of a certified run.  The same SplitMix64
/// remix the sweep engine uses for per-cell seeds: one master value
/// (drawn once from the caller's stream) fans out to decorrelated
/// per-index seeds, so replication i's samples depend only on
/// (master, i) — never on which worker ran it or how many workers exist.
std::uint64_t certified_replication_seed(std::uint64_t master, std::size_t index) {
    rng::SplitMix64 mix(master ^ (0x9e3779b97f4a7c15ULL *
                                  (static_cast<std::uint64_t>(index) + 1)));
    return mix.next();
}

/// `--certify` route: rounds of `adaptive_batch` replications with a
/// confidence-sequence look after each, stopping once the certified
/// interval (statistical half-width + the ε/2 truncated-tally bound)
/// clears `threshold` on either side or `max_replications` is exhausted.
/// Replication i draws from Rng(certified_replication_seed(master, i))
/// alone and the fold walks the round buffer in index order, so every
/// output is bit-identical across thread counts for a fixed seed.
void run_certified(const mech::Mechanism& mechanism, const model::Instance& instance,
                   rng::Rng& rng, const EvalOptions& options, double threshold,
                   ReplicationStats& acc, stats::CertifiedEstimate& cert) {
    const CertifySpec& spec = options.certify;
    static support::Counter& looks_counter =
        support::MetricsRegistry::global().counter("cert.boundary_evals");
    const std::uint64_t master = rng.next();
    const std::size_t cap = options.max_replications;
    const std::size_t batch = std::min(options.adaptive_batch, cap);
    // Each truncated-tally sample is within ε/2 of its exact value, so the
    // sample mean is within ε/2 of the exact-tally sample mean; widening
    // the statistical interval by ε/2 per side covers it (exact DP: 0).
    const double num_err = options.tally_epsilon / 2.0;
    stats::ConfidenceSequence cs(spec.boundary, spec.delta);
    cert.delta = spec.delta;
    cert.numerical_error = num_err;
    std::vector<Sample> round(batch);

    const auto chunk = [&](std::size_t, std::size_t first, std::size_t offset,
                           std::size_t count) {
        run_chunk(
            mechanism, instance, options, first + offset, count,
            [master](std::size_t i) {
                return rng::Rng(certified_replication_seed(master, i));
            },
            [out = round.data() + offset](const Sample& s) mutable { *out++ = s; });
    };
    const auto stop = [&](std::size_t round_n) {
        for (std::size_t k = 0; k < round_n; ++k) {
            Sample s = round[k];
            // Truncated-tally midpoints can poke ε/2 past [0, 1]; clamping
            // moves a sample by at most its own numerical error, which the
            // ε/2 widening below already budgets for.
            s.pm = std::clamp(s.pm, 0.0, 1.0);
            cs.add(s.pm);
            acc.add(s);
        }
        // The empirical-Bernstein half-width divides by t − 1; defer the
        // first look until two observations exist (batch == cap == 1).
        if (spec.boundary == stats::CsBoundary::EmpiricalBernstein && cs.count() < 2) {
            return false;
        }
        const stats::Interval iv = cs.look();
        looks_counter.add(1);
        cert.lo = std::clamp(iv.lo - num_err, 0.0, 1.0);
        cert.hi = std::clamp(iv.hi + num_err, 0.0, 1.0);
        if (cert.lo >= threshold) {
            cert.stop = stats::CertStop::DecidedAbove;
        } else if (cert.hi < threshold) {
            cert.stop = stats::CertStop::DecidedBelow;
        }
        return cert.decided();
    };
    cert.replications = run_rounds(options, std::min(options.threads, batch), batch, cap,
                                   chunk, stop, [] {});
    cert.looks = cs.looks();
    auto& registry = support::MetricsRegistry::global();
    registry.gauge("cert.stop_reason").set(static_cast<std::int64_t>(cert.stop));
    registry.gauge("cert.final_half_width_ppm")
        .set(static_cast<std::int64_t>(std::llround(cert.half_width() * 1e6)));
}

/// Replication statistics plus, on the certified route, the certificate.
struct Run {
    ReplicationStats stats;
    std::optional<stats::CertifiedEstimate> certificate;
};

/// Validate, then run the replications.  `direct` computes the P^D
/// baseline (none: 0) and draws no randomness.  The certified route
/// decides P^M ≥ P^D + γ, so it runs `direct` first; the other routes run
/// it beside the first round.
Run replicate(const mech::Mechanism& mechanism, const model::Instance& instance,
              rng::Rng& rng, const EvalOptions& options,
              const std::function<double()>& direct = [] { return 0.0; }) {
    validate_options(mechanism, instance, options);
    Run run;
    if (options.certify.enabled()) {
        run_certified(mechanism, instance, rng, options, direct() + options.certify.gamma,
                      run.stats, run.certificate.emplace());
    } else {
        run_streams(mechanism, instance, rng, options, [&] { direct(); }, run.stats);
    }
    return run;
}

}  // namespace

Estimate estimate_correct_probability(const mech::Mechanism& mechanism,
                                      const model::Instance& instance, rng::Rng& rng,
                                      const EvalOptions& options) {
    // No baseline: a certificate decides P^M ≥ γ directly.
    const Run run = replicate(mechanism, instance, rng, options);
    Estimate e = finish(run.stats.pm, options.confidence);
    e.certified = run.certificate;
    return e;
}

Estimate estimate_correct_probability_naive(const mech::Mechanism& mechanism,
                                            const model::Instance& instance,
                                            rng::Rng& rng, const EvalOptions& options) {
    validate_options(mechanism, instance, options);
    const EstimateTimer timer(options.replications);
    stats::RunningStats acc;
    const auto& p = instance.competencies();
    ReplicationWorkspace& ws = engine_for(options).local_workspace();
    for (std::size_t r = 0; r < options.replications; ++r) {
        realize_with(mechanism, instance, rng, options, ws);
        acc.add(sample_outcome_correct(ws.outcome, p, rng) ? 1.0 : 0.0);
    }
    return finish(acc, options.confidence);
}

GainReport estimate_gain(const mech::Mechanism& mechanism,
                         const model::Instance& instance, rng::Rng& rng,
                         const EvalOptions& options) {
    GainReport report;
    const Run run = replicate(mechanism, instance, rng, options, [&] {
        report.pd = options.approximate_tally
                        ? approx_direct_probability(instance, options.initial_weights)
                        : exact_direct_probability_weighted(instance,
                                                            options.initial_weights);
        return report.pd;
    });
    const ReplicationStats& acc = run.stats;
    report.pm = finish(acc.pm, options.confidence);
    report.pm.certified = run.certificate;
    if (run.certificate) {
        // P^D is exact, so "gain ≥ γ" is the certified "P^M ≥ P^D + γ".
        report.certified_gain = stats::Interval{run.certificate->lo - report.pd,
                                                run.certificate->hi - report.pd};
    }
    report.gain = report.pm.value - report.pd;
    report.gain_ci = {report.pm.ci.lo - report.pd, report.pm.ci.hi - report.pd};
    report.mean_delegators = acc.delegators.mean();
    report.mean_max_weight = acc.max_weight.mean();
    report.mean_sinks = acc.sinks.mean();
    report.mean_longest_path = acc.longest.mean();
    return report;
}

VarianceReport estimate_variance(const mech::Mechanism& mechanism,
                                 const model::Instance& instance, rng::Rng& rng,
                                 const EvalOptions& options) {
    validate_options(mechanism, instance, options);
    expects(options.replications > 1, "estimate_variance: need >= 2 replications");
    const EstimateTimer timer(options.replications);
    VarianceReport report;
    report.direct_variance = instance.competencies().outcome_variance();

    stats::RunningStats cond_var, cond_mean;
    const auto& p = instance.competencies();
    ReplicationWorkspace& ws = engine_for(options).local_workspace();
    for (std::size_t r = 0; r < options.replications; ++r) {
        realize_with(mechanism, instance, rng, options, ws);
        expects(ws.outcome.functional(),
                "estimate_variance: multi-delegation outcomes unsupported");
        cond_var.add(conditional_vote_variance(ws.outcome, p));
        cond_mean.add(conditional_vote_mean(ws.outcome, p));
    }
    report.mean_conditional_variance = cond_var.mean();
    report.variance_of_conditional_mean = cond_mean.variance();
    report.total_variance =
        report.mean_conditional_variance + report.variance_of_conditional_mean;
    report.mean_conditional_mean = cond_mean.mean();
    return report;
}

}  // namespace ld::election
