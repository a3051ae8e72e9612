// Tests for the exact Poisson-binomial distribution — the law of the
// direct-voting outcome.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "prob/convolve.hpp"
#include "prob/poisson_binomial.hpp"
#include "rng/rng.hpp"
#include "support/expect.hpp"
#include "support/fpu.hpp"
#include "support/metrics.hpp"

namespace {

using ld::prob::PoissonBinomial;
using ld::support::ContractViolation;

/// The full-width DP the live-window kernel replaced: every step
/// convolves all t + 1 entries with the scalar reference kernel, under the
/// same flush-to-zero mode as the production DP.
std::vector<double> full_width_pmf(const std::vector<double>& probs) {
    const std::size_t n = probs.size();
    std::vector<double> front(n + 1), back(n + 1);
    front[0] = 1.0;
    const ld::support::ScopedFlushDenormals ftz;
    for (std::size_t t = 0; t < n; ++t) {
        ld::prob::detail::convolve_two_point_scalar(front.data(), back.data(), t + 1, 1,
                                                    probs[t]);
        front.swap(back);
    }
    return front;
}

/// P[X > n/2] from a pmf, with the Kahan top-down suffix sum
/// `PoissonBinomial` precomputes.
double kahan_majority(const std::vector<double>& pmf) {
    const std::size_t n = pmf.size() - 1;
    double sum = 0.0, carry = 0.0;
    for (std::size_t k = n + 1; k-- > n / 2 + 1;) {
        const double y = pmf[k] - carry;
        const double t = sum + y;
        carry = (t - sum) - y;
        sum = t;
    }
    return std::min(sum, 1.0);
}

void expect_matches_full_width(const std::vector<double>& probs) {
    const PoissonBinomial pb(probs);
    const std::vector<double> reference = full_width_pmf(probs);
    ASSERT_EQ(pb.pmf_span().size(), reference.size());
    for (std::size_t k = 0; k < reference.size(); ++k) {
        ASSERT_EQ(pb.pmf(k), reference[k]) << "n=" << probs.size() << " k=" << k;
    }
    EXPECT_EQ(pb.majority_probability(), kahan_majority(reference));
}

double binomial_pmf(int n, int k, double p) {
    double log_choose = std::lgamma(n + 1) - std::lgamma(k + 1) - std::lgamma(n - k + 1);
    return std::exp(log_choose + k * std::log(p) + (n - k) * std::log1p(-p));
}

TEST(PoissonBinomial, EmptySumIsZero) {
    const PoissonBinomial pb(std::vector<double>{});
    EXPECT_EQ(pb.trial_count(), 0u);
    EXPECT_DOUBLE_EQ(pb.pmf(0), 1.0);
    EXPECT_DOUBLE_EQ(pb.mean(), 0.0);
    EXPECT_DOUBLE_EQ(pb.majority_probability(), 0.0);  // 0 > 0 is false
}

TEST(PoissonBinomial, SingleTrial) {
    const PoissonBinomial pb(std::vector<double>{0.3});
    EXPECT_NEAR(pb.pmf(0), 0.7, 1e-15);
    EXPECT_NEAR(pb.pmf(1), 0.3, 1e-15);
    EXPECT_NEAR(pb.majority_probability(), 0.3, 1e-15);  // X > 1/2 ⇔ X = 1
}

TEST(PoissonBinomial, MatchesBinomialWhenHomogeneous) {
    const int n = 20;
    const double p = 0.35;
    const PoissonBinomial pb(std::vector<double>(n, p));
    for (int k = 0; k <= n; ++k) {
        EXPECT_NEAR(pb.pmf(k), binomial_pmf(n, k, p), 1e-12) << "k=" << k;
    }
}

TEST(PoissonBinomial, PmfSumsToOne) {
    const std::vector<double> probs{0.1, 0.9, 0.5, 0.3, 0.7, 0.25, 0.99, 0.01};
    const PoissonBinomial pb(probs);
    double total = 0.0;
    for (std::size_t k = 0; k <= probs.size(); ++k) total += pb.pmf(k);
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(PoissonBinomial, MeanAndVarianceFormulas) {
    const std::vector<double> probs{0.2, 0.4, 0.6, 0.8};
    const PoissonBinomial pb(probs);
    EXPECT_NEAR(pb.mean(), 2.0, 1e-15);
    double var = 0.0;
    for (double p : probs) var += p * (1 - p);
    EXPECT_NEAR(pb.variance(), var, 1e-15);

    // Cross-check against the pmf moments.
    double m1 = 0.0, m2 = 0.0;
    for (std::size_t k = 0; k <= probs.size(); ++k) {
        m1 += static_cast<double>(k) * pb.pmf(k);
        m2 += static_cast<double>(k * k) * pb.pmf(k);
    }
    EXPECT_NEAR(m1, pb.mean(), 1e-12);
    EXPECT_NEAR(m2 - m1 * m1, pb.variance(), 1e-12);
}

TEST(PoissonBinomial, CdfIsMonotone) {
    const std::vector<double> probs{0.3, 0.5, 0.7, 0.2, 0.9};
    const PoissonBinomial pb(probs);
    double prev = 0.0;
    for (std::size_t k = 0; k <= probs.size(); ++k) {
        EXPECT_GE(pb.cdf(k), prev - 1e-15);
        prev = pb.cdf(k);
    }
    EXPECT_NEAR(pb.cdf(probs.size()), 1.0, 1e-12);
}

TEST(PoissonBinomial, TailComplementsCdf) {
    const std::vector<double> probs{0.4, 0.6, 0.1};
    const PoissonBinomial pb(probs);
    for (std::size_t k = 0; k <= probs.size(); ++k) {
        EXPECT_NEAR(pb.tail_above(static_cast<double>(k)) + pb.cdf(k), 1.0, 1e-12);
    }
}

TEST(PoissonBinomial, MajorityOfFairCoinsIsSymmetric) {
    // Odd n of fair coins: strict majority happens with probability 1/2.
    const PoissonBinomial pb(std::vector<double>(9, 0.5));
    EXPECT_NEAR(pb.majority_probability(), 0.5, 1e-12);
}

TEST(PoissonBinomial, EvenTiesCountAsFailure) {
    // Two fair coins: P[X > 1] = P[X = 2] = 1/4 (the tie X = 1 loses).
    const PoissonBinomial pb(std::vector<double>(2, 0.5));
    EXPECT_NEAR(pb.majority_probability(), 0.25, 1e-12);
}

TEST(PoissonBinomial, DegenerateProbabilities) {
    const PoissonBinomial pb(std::vector<double>{1.0, 1.0, 0.0});
    EXPECT_NEAR(pb.pmf(2), 1.0, 1e-15);
    EXPECT_NEAR(pb.majority_probability(), 1.0, 1e-15);  // 2 > 1.5
}

TEST(PoissonBinomial, MajorityProbabilityGrowsWithCompetence) {
    // Condorcet jury: for p > 1/2, majority probability grows with n.
    double prev = 0.0;
    for (int n : {11, 31, 101, 301}) {
        const PoissonBinomial pb(std::vector<double>(n, 0.6));
        EXPECT_GT(pb.majority_probability(), prev);
        prev = pb.majority_probability();
    }
    EXPECT_GT(prev, 0.97);
}

TEST(PoissonBinomial, RejectsBadProbability) {
    EXPECT_THROW(PoissonBinomial(std::vector<double>{0.5, 1.2}), ContractViolation);
    EXPECT_THROW(PoissonBinomial(std::vector<double>{-0.1}), ContractViolation);
}

TEST(PoissonBinomial, ConvenienceWrapperAgrees) {
    const std::vector<double> probs{0.55, 0.65, 0.45, 0.7, 0.5};
    EXPECT_NEAR(ld::prob::direct_majority_probability(probs),
                PoissonBinomial(probs).majority_probability(), 1e-15);
}

TEST(PoissonBinomial, LargeInstanceIsStable) {
    const PoissonBinomial pb(std::vector<double>(2000, 0.52));
    EXPECT_NEAR(pb.mean(), 1040.0, 1e-9);
    double total = 0.0;
    for (std::size_t k = 0; k <= 2000; ++k) total += pb.pmf(k);
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_GT(pb.majority_probability(), 0.9);  // 2σ ≈ 45 above the line
}

// The live window skips only entries that are exactly +0.0, so the pmf
// and the majority probability are the full-width DP's bits.
TEST(PoissonBinomial, LiveWindowIsBitIdenticalToFullWidth) {
    ld::rng::Rng rng(13);
    for (std::size_t n : {1, 64, 2000, 30000}) {
        std::vector<double> probs(n);
        for (double& p : probs) p = 0.3 + 0.4 * rng.next_double();
        expect_matches_full_width(probs);
    }
}

TEST(PoissonBinomial, LiveWindowHandlesCertainAndFairTrials) {
    ld::rng::Rng rng(14);
    std::vector<double> mixed(2000);
    for (std::size_t i = 0; i < mixed.size(); ++i) {
        mixed[i] = i % 7 == 0 ? 0.0 : i % 11 == 0 ? 1.0 : rng.next_double();
    }
    expect_matches_full_width(mixed);
    expect_matches_full_width(std::vector<double>(64, 1.0));
    expect_matches_full_width(std::vector<double>(64, 0.0));
    expect_matches_full_width(std::vector<double>(2001, 0.5));
}

TEST(PoissonBinomial, FlanksUnderflowAtLargeN) {
    ld::support::MetricsRegistry::global().reset();
    const std::size_t n = 30000;
    const PoissonBinomial pb(std::vector<double>(n, 0.5));
    // 2⁻³⁰⁰⁰⁰ is far below the smallest normal double: both tails are
    // exactly zero, which is what the live window leaves untouched.
    EXPECT_EQ(pb.pmf(0), 0.0);
    EXPECT_EQ(pb.pmf(n), 0.0);
    const auto peak =
        ld::support::MetricsRegistry::global().gauge("prob.exact_window_width").max();
    EXPECT_GT(peak, 0);
    EXPECT_LT(peak, static_cast<std::int64_t>(n / 3));
}

}  // namespace
