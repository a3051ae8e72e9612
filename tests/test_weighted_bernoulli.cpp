// Tests for the weighted Bernoulli-sum DP — the law of the delegated-
// voting tally.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ld/cli/specs.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/model/instance.hpp"
#include "prob/convolve.hpp"
#include "prob/poisson_binomial.hpp"
#include "prob/weighted_bernoulli_sum.hpp"
#include "rng/rng.hpp"
#include "support/expect.hpp"
#include "support/fpu.hpp"

namespace {

using ld::prob::PoissonBinomial;
using ld::prob::WeightedBernoulliSum;
using ld::support::ContractViolation;

/// The full-width DP the live-window kernel replaced: every step
/// convolves the whole pmf so far with the scalar reference kernel, under
/// the same flush-to-zero mode as the production DP.
std::vector<double> full_width_pmf(const std::vector<std::uint64_t>& weights,
                                   const std::vector<double>& probs) {
    std::size_t total = 0;
    for (std::uint64_t w : weights) total += w;
    std::vector<double> front(total + 1), back(total + 1);
    front[0] = 1.0;
    const ld::support::ScopedFlushDenormals ftz;
    std::size_t width = 1;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        if (weights[i] == 0) continue;
        ld::prob::detail::convolve_two_point_scalar(front.data(), back.data(), width,
                                                    weights[i], probs[i]);
        front.swap(back);
        width += weights[i];
    }
    return front;
}

/// P[S > W/2] from a pmf: the plain top-down sum both exact tallies use.
double top_down_majority(const std::vector<double>& pmf) {
    const double threshold = static_cast<double>(pmf.size() - 1) / 2.0;
    double acc = 0.0;
    for (std::size_t s = pmf.size(); s-- > 0 && static_cast<double>(s) > threshold;) {
        acc += pmf[s];
    }
    return std::min(acc, 1.0);
}

/// Weights with gaps: mostly 1, every 10th 0, every 100th 7, every
/// 1000th 300.
std::vector<std::uint64_t> gapped_weights(std::size_t n) {
    std::vector<std::uint64_t> weights(n);
    for (std::size_t i = 0; i < n; ++i) {
        weights[i] = i % 1000 == 0 ? 300 : i % 100 == 0 ? 7 : i % 10 == 0 ? 0 : 1;
    }
    return weights;
}

/// Both exact entry points against the full-width reference, bit for bit.
/// `scratch` is reused across calls on purpose: a dirty buffer must not
/// leak into the next DP.
void expect_matches_full_width(const std::vector<std::uint64_t>& weights,
                               const std::vector<double>& probs,
                               ld::prob::ConvolveScratch& scratch) {
    const std::vector<double> reference = full_width_pmf(weights, probs);
    const WeightedBernoulliSum ws(weights, probs);
    ASSERT_EQ(ws.total_weight() + 1, reference.size());
    for (std::size_t s = 0; s < reference.size(); ++s) {
        ASSERT_EQ(ws.pmf(s), reference[s]) << "n=" << weights.size() << " s=" << s;
    }
    const double majority = top_down_majority(reference);
    EXPECT_EQ(ws.majority_probability(), majority);
    EXPECT_EQ(ld::prob::weighted_majority_probability(weights, probs, scratch), majority);
}

TEST(WeightedSum, UnitWeightsMatchPoissonBinomial) {
    const std::vector<double> probs{0.2, 0.5, 0.8, 0.35, 0.6};
    const std::vector<std::uint64_t> weights(probs.size(), 1);
    const WeightedBernoulliSum ws(weights, probs);
    const PoissonBinomial pb(probs);
    EXPECT_EQ(ws.total_weight(), probs.size());
    for (std::size_t s = 0; s <= probs.size(); ++s) {
        EXPECT_NEAR(ws.pmf(s), pb.pmf(s), 1e-12) << "s=" << s;
    }
    EXPECT_NEAR(ws.majority_probability(), pb.majority_probability(), 1e-12);
}

TEST(WeightedSum, SingleHeavyVoterIsBernoulli) {
    // One sink holding all 9 votes: the "dictator" of Figure 1.
    const WeightedBernoulliSum ws(std::vector<std::uint64_t>{9},
                                  std::vector<double>{0.75});
    EXPECT_NEAR(ws.pmf(0), 0.25, 1e-15);
    EXPECT_NEAR(ws.pmf(9), 0.75, 1e-15);
    EXPECT_NEAR(ws.majority_probability(), 0.75, 1e-15);
}

TEST(WeightedSum, TwoSinksHandWorkedCase) {
    // Weights 3 (p=0.9) and 2 (p=0.2); W = 5, majority needs > 2.5.
    // Correct iff the weight-3 sink votes correctly: 0.9.
    const WeightedBernoulliSum ws(std::vector<std::uint64_t>{3, 2},
                                  std::vector<double>{0.9, 0.2});
    EXPECT_NEAR(ws.pmf(0), 0.1 * 0.8, 1e-15);
    EXPECT_NEAR(ws.pmf(2), 0.1 * 0.2, 1e-15);
    EXPECT_NEAR(ws.pmf(3), 0.9 * 0.8, 1e-15);
    EXPECT_NEAR(ws.pmf(5), 0.9 * 0.2, 1e-15);
    EXPECT_NEAR(ws.majority_probability(), 0.9, 1e-15);
}

TEST(WeightedSum, ZeroWeightEntriesAreIgnored) {
    const WeightedBernoulliSum ws(std::vector<std::uint64_t>{0, 2, 0},
                                  std::vector<double>{0.99, 0.5, 0.01});
    EXPECT_EQ(ws.total_weight(), 2u);
    EXPECT_NEAR(ws.pmf(0), 0.5, 1e-15);
    EXPECT_NEAR(ws.pmf(2), 0.5, 1e-15);
    EXPECT_NEAR(ws.pmf(1), 0.0, 1e-15);
}

TEST(WeightedSum, MeanAndVariance) {
    const std::vector<std::uint64_t> weights{1, 3, 5};
    const std::vector<double> probs{0.5, 0.4, 0.9};
    const WeightedBernoulliSum ws(weights, probs);
    double mean = 0.0, var = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        mean += static_cast<double>(weights[i]) * probs[i];
        var += static_cast<double>(weights[i] * weights[i]) * probs[i] * (1 - probs[i]);
    }
    EXPECT_NEAR(ws.mean(), mean, 1e-12);
    EXPECT_NEAR(ws.variance(), var, 1e-12);

    // Moments from the pmf agree.
    double m1 = 0.0, m2 = 0.0;
    for (std::uint64_t s = 0; s <= ws.total_weight(); ++s) {
        m1 += static_cast<double>(s) * ws.pmf(s);
        m2 += static_cast<double>(s) * static_cast<double>(s) * ws.pmf(s);
    }
    EXPECT_NEAR(m1, mean, 1e-12);
    EXPECT_NEAR(m2 - m1 * m1, var, 1e-12);
}

TEST(WeightedSum, PmfSumsToOne) {
    const WeightedBernoulliSum ws(std::vector<std::uint64_t>{2, 3, 4, 1},
                                  std::vector<double>{0.3, 0.6, 0.2, 0.95});
    double total = 0.0;
    for (std::uint64_t s = 0; s <= ws.total_weight(); ++s) total += ws.pmf(s);
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(WeightedSum, TiesLose) {
    // Two sinks of equal weight 2, both fair: majority needs > 2 of 4.
    // P[S = 4] = 1/4 is the only winning outcome.
    const WeightedBernoulliSum ws(std::vector<std::uint64_t>{2, 2},
                                  std::vector<double>{0.5, 0.5});
    EXPECT_NEAR(ws.majority_probability(), 0.25, 1e-15);
}

TEST(WeightedSum, InputValidation) {
    EXPECT_THROW(WeightedBernoulliSum(std::vector<std::uint64_t>{1},
                                      std::vector<double>{0.5, 0.5}),
                 ContractViolation);
    EXPECT_THROW(WeightedBernoulliSum(std::vector<std::uint64_t>{1},
                                      std::vector<double>{1.5}),
                 ContractViolation);
}

TEST(WeightedSum, EmptyProfile) {
    const WeightedBernoulliSum ws(std::vector<std::uint64_t>{}, std::vector<double>{});
    EXPECT_EQ(ws.total_weight(), 0u);
    EXPECT_NEAR(ws.majority_probability(), 0.0, 1e-15);
}

// The live window skips only entries that are exactly +0.0, so the pmf
// and both majority probabilities are the full-width DP's bits.
TEST(WeightedSum, LiveWindowIsBitIdenticalToFullWidth) {
    ld::rng::Rng rng(21);
    ld::prob::ConvolveScratch scratch;
    for (std::size_t n : {1, 64, 2000, 30000}) {
        std::vector<double> probs(n);
        for (double& p : probs) p = 0.3 + 0.4 * rng.next_double();
        expect_matches_full_width(gapped_weights(n), probs, scratch);
    }
}

TEST(WeightedSum, LiveWindowHandlesCertainAndFairTrials) {
    ld::rng::Rng rng(22);
    ld::prob::ConvolveScratch scratch;
    std::vector<double> mixed(2000);
    for (std::size_t i = 0; i < mixed.size(); ++i) {
        mixed[i] = i % 7 == 0 ? 0.0 : i % 11 == 0 ? 1.0 : rng.next_double();
    }
    expect_matches_full_width(gapped_weights(2000), mixed, scratch);
    expect_matches_full_width(gapped_weights(64), std::vector<double>(64, 1.0), scratch);
    expect_matches_full_width(gapped_weights(64), std::vector<double>(64, 0.0), scratch);
    expect_matches_full_width(gapped_weights(2001), std::vector<double>(2001, 0.5),
                              scratch);
}

// Evaluator level: P^D on run_large's instance family, through both the
// unit-weight (`PoissonBinomial`) and the weighted path.
TEST(WeightedSum, ExactDirectProbabilityMatchesFullWidth) {
    const std::size_t n = 30000;
    ld::rng::Rng rng(1);
    auto g = ld::cli::make_graph("cl:2.5,8", n, rng);
    auto p = ld::cli::make_competencies("uniform:0.3,0.7", n, rng);
    const ld::model::Instance instance(std::move(g), std::move(p), 0.05);
    const std::vector<double> probs(instance.competencies().values().begin(),
                                    instance.competencies().values().end());
    const std::vector<std::uint64_t> unit(n, 1);
    const std::vector<double> reference = full_width_pmf(unit, probs);
    // The flanks underflow, so the live window is a strict sub-range.
    EXPECT_EQ(reference.front(), 0.0);
    EXPECT_EQ(reference.back(), 0.0);

    double sum = 0.0, carry = 0.0;  // PoissonBinomial's Kahan suffix sum
    for (std::size_t k = n + 1; k-- > n / 2 + 1;) {
        const double y = reference[k] - carry;
        const double t = sum + y;
        carry = (t - sum) - y;
        sum = t;
    }
    EXPECT_EQ(ld::election::exact_direct_probability_weighted(instance, {}),
              std::min(sum, 1.0));
    EXPECT_EQ(ld::election::exact_direct_probability_weighted(instance, unit),
              top_down_majority(reference));
}

}  // namespace
