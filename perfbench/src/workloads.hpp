// The three perfbench workloads.  Each runs in its own process, makes its
// inputs from the seed, measures for the given number of seconds, checks
// its outputs, and fills a WorkloadReport: the end-to-end metrics when
// untraced, the per-layer metrics when traced.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"

namespace perfbench {

struct WorkloadArgs {
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".";  ///< scratch files, sockets and the trace file
};

/// Per-layer metrics (name, unit) of the layers only serve_mixed calls.
inline std::vector<std::pair<std::string, std::string>> serve_layer_metrics() {
    return {{"serve.execute_ms.eval", "ms"},  {"serve.execute_ms.patch", "ms"},
            {"serve.execute_ms.state", "ms"}, {"serve.wait_ms.eval", "ms"},
            {"serve.wait_ms.patch", "ms"},    {"serve.batch_size_mean", "count"},
            {"serve.dedup_share", "ratio"},   {"serve.cache_hit_ratio", "ratio"},
            {"serve.rejected_overload", "count"}, {"serve.rejected_deadline", "count"},
            {"patch.dirty_mean", "count"},    {"patch.tally_delta_per_patch", "count"},
            {"patch.resolution_rebuilds", "count"}, {"serve.unattributed_ms", "ms"},
            {"client.lateness_ms_p99", "ms"}};
}

/// Per-layer metrics (name, unit) of the layers only sweep_grid calls.
inline std::vector<std::pair<std::string, std::string>> sweep_layer_metrics() {
    return {{"sweep.cell_setup_s", "s"}, {"sweep.cell_eval_s", "s"}, {"sweep.cell_io_s", "s"}};
}

WorkloadReport run_large(const WorkloadArgs& args);
WorkloadReport sweep_grid(const WorkloadArgs& args);
WorkloadReport serve_mixed(const WorkloadArgs& args);

}  // namespace perfbench
