// The traced run's copy of the run pipeline: spec → graph → instance →
// P^D → replication loop → report, built only from public liquidd calls so
// a span can sit around each layer.  The replication loop mirrors
// election::estimate_gain's fixed-count path (same stream split, chunking,
// batched exact route and fold order), so its P^M is bit-identical to the
// untraced call — the workloads check that, which keeps the traced numbers
// honest about doing the same work.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/election/workspace.hpp"
#include "ld/mech/mechanism.hpp"
#include "ld/model/instance.hpp"
#include "rng/rng.hpp"
#include "support/metrics.hpp"

namespace perfbench {

/// Layer times of one unit of work, in seconds.  The replication loop's
/// act/realize/tally parts are worker-seconds divided by the worker count,
/// so they compare with the loop's wall time.
struct LayerTimes {
    double gen = 0.0;        ///< cli::make_graph (gen:: stream for cl:)
    double instance = 0.0;   ///< competencies + model::Instance (approval CSR)
    double pd = 0.0;         ///< exact_direct_probability_weighted
    double replicate = 0.0;  ///< replication loop wall time
    double act = 0.0;        ///< Mechanism::act_into over all voters
    double realize = 0.0;    ///< DelegationOutcome::finish_rebuild
    double tally = 0.0;      ///< truncated / exact / batched tally
    double wall = 0.0;       ///< the whole unit, spans and gaps between them

    LayerTimes& operator+=(const LayerTimes& o);
    /// Wall time no layer span covers.
    double unattributed() const { return wall - (gen + instance + pd + replicate); }
};

/// Replication-engine counters of one untraced unit, from a registry
/// snapshot taken after a reset: the pool's busy share over `wall_s`, the
/// workspace reuse ratio, and the widest truncated-tally window.
struct EngineCounters {
    double busy_share = 0.0;
    double reuse_ratio = 0.0;
    double window_max = 0.0;
};
EngineCounters engine_counters(const ld::support::MetricsSnapshot& snapshot, double wall_s);

/// P^M/P^D of a traced evaluation, for the bit-identity check.
struct TracedGain {
    double pd = 0.0;
    double pm = 0.0;
    double pm_stderr = 0.0;
    double mean_max_weight = 0.0;
};

/// Runs traced evaluations; owns one workspace per replication chunk so
/// buffers are reused across calls like the engine's.
class TracedPipeline {
public:
    /// `unit` names the span one unit of work (a report, a cell) records;
    /// it is the parent of the layer spans.
    explicit TracedPipeline(std::string unit) : unit_(std::move(unit)) {}

    /// Build the instance of (graph, competencies, n, alpha) from `rng`,
    /// exactly like the CLI, timing gen and instance.
    ld::model::Instance build_instance(const std::string& graph_spec,
                                       const std::string& competency_spec, std::size_t n,
                                       double alpha, ld::rng::Rng& rng, LayerTimes& times,
                                       TraceLog* trace, std::uint64_t request);

    /// P^D plus the fixed-count replication loop.  `options` may set only
    /// replications, threads and tally_epsilon; the mechanism must give
    /// functional outcomes.
    TracedGain gain(const ld::mech::Mechanism& mechanism, const ld::model::Instance& instance,
                    ld::rng::Rng& rng, const ld::election::EvalOptions& options,
                    LayerTimes& times, TraceLog* trace, std::uint64_t request);

private:
    std::string unit_;
    std::vector<std::unique_ptr<ld::election::ReplicationWorkspace>> workspaces_;
};

}  // namespace perfbench
