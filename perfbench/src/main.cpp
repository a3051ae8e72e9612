// perfbench: end-to-end benchmark driver for liquidd.
//
//   perfbench --workload run_large|sweep_grid|serve_mixed --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--git-describe STR]
//
// Prints a stamp line, one human-readable row per metric (name, value,
// unit, sample count), and as its last line the JSON result object with
// the metrics the workload measured.  Normally started through
// perfbench/run.py, which builds it first and adds the per-layer metrics
// of layers the workload never calls, as 0.

#include <algorithm>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "prob/convolve.hpp"
#include "support/build_info.hpp"
#include "support/cpu_features.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
    using namespace perfbench;
    std::string workload;
    std::string git_describe = ld::support::build_info().git_describe;
    WorkloadArgs args;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
            const std::string value = argv[++i];
            if (flag == "--workload") workload = value;
            else if (flag == "--seed") args.seed = std::stoull(value);
            else if (flag == "--seconds") args.seconds = std::stod(value);
            else if (flag == "--trace") args.trace = value == "1";
            else if (flag == "--out-dir") args.out_dir = value;
            else if (flag == "--git-describe") git_describe = value;
            else throw std::invalid_argument("unknown flag " + flag);
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
    const std::map<std::string, std::function<WorkloadReport(const WorkloadArgs&)>> table = {
        {"run_large", run_large}, {"sweep_grid", sweep_grid}, {"serve_mixed", serve_mixed}};
    const auto it = table.find(workload);
    if (it == table.end()) {
        std::cerr << "perfbench: --workload must be run_large, sweep_grid or serve_mixed\n";
        return 2;
    }

    std::cout << "perfbench " << workload << " seed=" << args.seed
              << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0) << "\n"
              << "stamp: num_cpus=" << std::thread::hardware_concurrency()
              << " simd=" << ld::support::simd_tier_name(ld::prob::kernel_tier())
              << " build_type=" << ld::support::build_info().build_type
              << " git_describe=" << git_describe << " seed=" << args.seed << std::endl;

    WorkloadReport report;
    try {
        report = it->second(args);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
        return 1;
    }
    report.note("fail_ratio",
                static_cast<double>(report.failed) /
                    static_cast<double>(std::max<std::uint64_t>(report.attempted, 1)),
                "ratio", report.attempted);
    for (const auto& line : report.notes) std::cout << line << "\n";
    std::cout << result_line(report.failed == 0, report.attempted, report.failed,
                             report.metrics)
              << std::endl;
    return 0;
}
