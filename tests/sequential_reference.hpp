// Sequential reference for the evaluator's fixed-count replication loop,
// built only from public calls: the per-worker stream split
// (`rng.split()`, once per worker, or the caller's own stream at one
// worker), `delegation::realize_into`, the one-outcome tally functions and
// `RunningStats::add/merge`.  Worker t's share of the replications runs
// after worker t − 1's, on the calling thread; each worker folds its own
// samples and the folds merge in worker order.  The pooled estimators must
// equal it bit for bit at every thread count.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ld/delegation/realize.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/election/tally.hpp"
#include "stats/running_stats.hpp"

namespace ld::test {

/// GainReport of `options.replications` replications (fixed route) on
/// `rng`, which advances exactly as the library's would.
inline election::GainReport sequential_reference(const mech::Mechanism& mechanism,
                                                 const model::Instance& instance,
                                                 rng::Rng& rng,
                                                 const election::EvalOptions& options) {
    const std::size_t threads = std::min(options.threads, options.replications);
    std::vector<rng::Rng> streams;
    while (threads > 1 && streams.size() < threads) streams.push_back(rng.split());

    const auto& p = instance.competencies();
    delegation::DelegationOutcome outcome;
    delegation::DelegationOutcome::ResolveScratch resolve;
    election::TallyScratch tally;
    stats::RunningStats pm, delegators, max_weight, sinks, longest;
    for (std::size_t t = 0; t < threads; ++t) {
        rng::Rng& stream = threads == 1 ? rng : streams[t];
        const std::size_t count = options.replications / threads +
                                  (t < options.replications % threads ? 1 : 0);
        stats::RunningStats w_pm, w_delegators, w_max_weight, w_sinks, w_longest;
        for (std::size_t r = 0; r < count; ++r) {
            delegation::realize_into(outcome, resolve, mechanism, instance, stream,
                                     options.initial_weights, options.cycle_policy);
            const auto& st = outcome.stats();
            double value = 0.0;
            if (!outcome.functional()) {
                std::size_t correct = 0;
                for (std::size_t s = 0; s < options.inner_samples; ++s) {
                    if (election::sample_outcome_correct(outcome, p, stream)) ++correct;
                }
                value = static_cast<double>(correct) /
                        static_cast<double>(options.inner_samples);
            } else {
                if (options.approximate_tally) {
                    value = election::approx_correct_probability(outcome, p);
                } else if (options.tally_epsilon > 0.0) {
                    value = election::truncated_correct_probability(
                        outcome, p, options.tally_epsilon, tally);
                } else {
                    value = election::exact_correct_probability(outcome, p);
                }
                w_max_weight.add(static_cast<double>(st.max_weight));
                w_sinks.add(static_cast<double>(st.voting_sink_count));
                w_longest.add(static_cast<double>(st.longest_path));
            }
            w_pm.add(value);
            w_delegators.add(static_cast<double>(st.delegator_count));
        }
        pm.merge(w_pm);
        delegators.merge(w_delegators);
        max_weight.merge(w_max_weight);
        sinks.merge(w_sinks);
        longest.merge(w_longest);
    }

    election::GainReport report;
    report.pd = options.approximate_tally
                    ? election::approx_direct_probability(instance,
                                                          options.initial_weights)
                    : election::exact_direct_probability_weighted(
                          instance, options.initial_weights);
    report.pm.value = pm.mean();
    report.pm.std_error = pm.standard_error();
    report.pm.ci =
        stats::mean_interval(pm.mean(), pm.standard_error(), options.confidence);
    report.pm.replications = pm.count();
    report.gain = report.pm.value - report.pd;
    report.gain_ci = {report.pm.ci.lo - report.pd, report.pm.ci.hi - report.pd};
    report.mean_delegators = delegators.mean();
    report.mean_max_weight = max_weight.mean();
    report.mean_sinks = sinks.mean();
    report.mean_longest_path = longest.mean();
    return report;
}

/// Every GainReport field equal, bit for bit.
inline void expect_same_report(const election::GainReport& a,
                               const election::GainReport& b) {
    EXPECT_EQ(a.pd, b.pd);
    EXPECT_EQ(a.pm.value, b.pm.value);
    EXPECT_EQ(a.pm.std_error, b.pm.std_error);
    EXPECT_EQ(a.pm.ci.lo, b.pm.ci.lo);
    EXPECT_EQ(a.pm.ci.hi, b.pm.ci.hi);
    EXPECT_EQ(a.pm.replications, b.pm.replications);
    EXPECT_EQ(a.pm.certified.has_value(), b.pm.certified.has_value());
    EXPECT_EQ(a.gain, b.gain);
    EXPECT_EQ(a.gain_ci.lo, b.gain_ci.lo);
    EXPECT_EQ(a.gain_ci.hi, b.gain_ci.hi);
    EXPECT_EQ(a.mean_delegators, b.mean_delegators);
    EXPECT_EQ(a.mean_max_weight, b.mean_max_weight);
    EXPECT_EQ(a.mean_sinks, b.mean_sinks);
    EXPECT_EQ(a.mean_longest_path, b.mean_longest_path);
    EXPECT_EQ(a.certified_gain.has_value(), b.certified_gain.has_value());
}

}  // namespace ld::test
