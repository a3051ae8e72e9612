#include "traced_eval.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "ld/cli/specs.hpp"
#include "ld/election/tally.hpp"
#include "stats/running_stats.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

namespace election = ld::election;

LayerTimes& LayerTimes::operator+=(const LayerTimes& o) {
    gen += o.gen;
    instance += o.instance;
    pd += o.pd;
    replicate += o.replicate;
    act += o.act;
    realize += o.realize;
    tally += o.tally;
    wall += o.wall;
    return *this;
}

EngineCounters engine_counters(const ld::support::MetricsSnapshot& snapshot, double wall_s) {
    EngineCounters out;
    const auto workers = static_cast<double>(ld::support::ThreadPool::global().worker_count());
    out.busy_share =
        static_cast<double>(snapshot.counter_value("pool.busy_ns")) / (workers * wall_s * 1e9);
    const auto reused = static_cast<double>(snapshot.counter_value("engine.workspace_reused"));
    const auto created = static_cast<double>(snapshot.counter_value("engine.workspace_created"));
    out.reuse_ratio = reused + created > 0 ? reused / (reused + created) : 0.0;
    for (const auto& g : snapshot.gauges) {
        if (g.name == "tally.window_width") out.window_max = static_cast<double>(g.max);
    }
    return out;
}

namespace {

/// What one replication chunk accumulates; merged in chunk order exactly
/// like the evaluator's ReplicationStats (only the fields the check reads).
struct ChunkStats {
    ld::stats::RunningStats pm;
    ld::stats::RunningStats max_weight;
    double act = 0.0;
    double realize = 0.0;
    double tally = 0.0;
};

class ChunkRunner {
public:
    ChunkRunner(const ld::mech::Mechanism& mechanism, const ld::model::Instance& instance,
                const election::EvalOptions& options, election::ReplicationWorkspace& ws,
                TraceLog* trace, int tid, std::uint64_t request)
        : mechanism_(mechanism), instance_(instance), options_(options), ws_(ws),
          trace_(trace), tid_(tid), request_(request) {}

    ChunkStats run(ld::rng::Rng& rng, std::size_t count) {
        // Same route choice as the evaluator: the exact tally batches lanes,
        // the truncated tally runs one replication at a time.
        if (options_.tally_epsilon == 0.0 && count > 1) return run_batched(rng, count);
        ChunkStats acc;
        for (std::size_t r = 0; r < count; ++r) {
            realize(rng, acc);
            const auto t0 = Clock::now();
            const double pm = options_.tally_epsilon > 0.0
                                  ? election::truncated_correct_probability(
                                        ws_.outcome, instance_.competencies(),
                                        options_.tally_epsilon, ws_.tally)
                                  : election::exact_correct_probability(
                                        ws_.outcome, instance_.competencies(), ws_.tally);
            const auto t1 = Clock::now();
            note(acc.tally, "prob.tally", t0, t1);
            acc.max_weight.add(static_cast<double>(ws_.outcome.stats().max_weight));
            acc.pm.add(pm);
        }
        return acc;
    }

private:
    ChunkStats run_batched(ld::rng::Rng& rng, std::size_t count) {
        ChunkStats acc;
        election::TallyBatch& batch = ws_.tally_batch;
        std::array<double, election::TallyBatch::kMaxLanes> lane_max_weight{};
        for (std::size_t done = 0; done < count;) {
            const std::size_t lanes = std::min(election::TallyBatch::kMaxLanes, count - done);
            batch.clear();
            double stage = 0.0;
            for (std::size_t k = 0; k < lanes; ++k) {
                realize(rng, acc);
                const auto t0 = Clock::now();
                election::stage_tally_lane(batch, ws_.outcome, instance_.competencies());
                stage += seconds_between(t0, Clock::now());
                lane_max_weight[k] = static_cast<double>(ws_.outcome.stats().max_weight);
            }
            const auto t0 = Clock::now();
            election::tally_staged(batch);
            const auto t1 = Clock::now();
            acc.tally += stage;
            note(acc.tally, "prob.tally", t0, t1);
            for (std::size_t k = 0; k < lanes; ++k) {
                acc.max_weight.add(lane_max_weight[k]);
                acc.pm.add(batch.result[k]);
            }
            done += lanes;
        }
        return acc;
    }

    void realize(ld::rng::Rng& rng, ChunkStats& acc) {
        const auto t0 = Clock::now();
        auto& actions = ws_.outcome.begin_rebuild();
        actions.resize(instance_.voter_count());
        for (ld::graph::Vertex v = 0; v < instance_.voter_count(); ++v) {
            mechanism_.act_into(instance_, v, rng, actions[v]);
        }
        const auto t1 = Clock::now();
        ws_.outcome.finish_rebuild({}, options_.cycle_policy, ws_.resolve);
        const auto t2 = Clock::now();
        if (!ws_.outcome.functional()) {
            throw std::runtime_error("traced pipeline: mechanism gave a non-functional outcome");
        }
        note(acc.act, "mech.act", t0, t1);
        note(acc.realize, "delegation.realize", t1, t2);
    }

    void note(double& total, const char* name, Clock::time_point t0, Clock::time_point t1) {
        total += seconds_between(t0, t1);
        if (trace_) trace_->span(name, t0, t1, tid_, request_, "election.replicate");
    }

    const ld::mech::Mechanism& mechanism_;
    const ld::model::Instance& instance_;
    const election::EvalOptions& options_;
    election::ReplicationWorkspace& ws_;
    TraceLog* trace_;
    int tid_;
    std::uint64_t request_;
};

}  // namespace

ld::model::Instance TracedPipeline::build_instance(const std::string& graph_spec,
                                                   const std::string& competency_spec,
                                                   std::size_t n, double alpha,
                                                   ld::rng::Rng& rng, LayerTimes& times,
                                                   TraceLog* trace, std::uint64_t request) {
    const auto t0 = Clock::now();
    auto graph = ld::cli::make_graph(graph_spec, n, rng);
    const auto t1 = Clock::now();
    auto competencies = ld::cli::make_competencies(competency_spec, graph.vertex_count(), rng);
    ld::model::Instance instance(std::move(graph), std::move(competencies), alpha);
    const auto t2 = Clock::now();
    times.gen += seconds_between(t0, t1);
    times.instance += seconds_between(t1, t2);
    if (trace) {
        trace->span("gen.generate", t0, t1, 0, request, unit_);
        trace->span("model.instance", t1, t2, 0, request, unit_);
    }
    return instance;
}

TracedGain TracedPipeline::gain(const ld::mech::Mechanism& mechanism,
                                const ld::model::Instance& instance, ld::rng::Rng& rng,
                                const election::EvalOptions& options, LayerTimes& times,
                                TraceLog* trace, std::uint64_t request) {
    if (mechanism.multi_delegation() || options.approximate_tally ||
        options.certify.enabled() || options.target_std_error > 0.0) {
        throw std::invalid_argument("traced pipeline: unsupported evaluation options");
    }
    TracedGain out;
    const auto t0 = Clock::now();
    out.pd = election::exact_direct_probability_weighted(instance, {});
    const auto t1 = Clock::now();

    const std::size_t threads = std::min(options.threads, options.replications);
    while (workspaces_.size() < threads) {
        workspaces_.push_back(std::make_unique<election::ReplicationWorkspace>());
    }
    std::vector<ChunkStats> partials(threads);
    if (threads == 1) {
        partials[0] = ChunkRunner(mechanism, instance, options, *workspaces_[0], trace, 1,
                                  request)
                          .run(rng, options.replications);
    } else {
        // One jumped stream per chunk, split up front: the evaluator's
        // determinism contract for a fixed (seed, threads).
        std::vector<ld::rng::Rng> streams;
        streams.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t) streams.push_back(rng.split());
        const std::size_t base = options.replications / threads;
        const std::size_t extra = options.replications % threads;
        ld::support::TaskGroup group(ld::support::ThreadPool::global());
        for (std::size_t t = 0; t < threads; ++t) {
            const std::size_t count = base + (t < extra ? 1 : 0);
            group.submit([&, t, count] {
                partials[t] = ChunkRunner(mechanism, instance, options, *workspaces_[t], trace,
                                          static_cast<int>(t) + 1, request)
                                  .run(streams[t], count);
            });
        }
        group.wait();
    }
    ChunkStats merged;
    for (const ChunkStats& part : partials) {
        merged.pm.merge(part.pm);
        merged.max_weight.merge(part.max_weight);
        merged.act += part.act;
        merged.realize += part.realize;
        merged.tally += part.tally;
    }
    const auto t2 = Clock::now();

    out.pm = merged.pm.mean();
    out.pm_stderr = merged.pm.standard_error();
    out.mean_max_weight = merged.max_weight.mean();
    const auto workers = static_cast<double>(threads);
    times.pd += seconds_between(t0, t1);
    times.replicate += seconds_between(t1, t2);
    times.act += merged.act / workers;
    times.realize += merged.realize / workers;
    times.tally += merged.tally / workers;
    if (trace) {
        trace->span("election.pd", t0, t1, 0, request, unit_);
        trace->span("election.replicate", t1, t2, 0, request, unit_);
    }
    return out;
}

}  // namespace perfbench
