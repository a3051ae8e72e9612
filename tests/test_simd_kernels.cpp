// Property suite for the runtime-dispatched SIMD tally kernels
// (prob/convolve_simd.cpp, prob/batch_tally.hpp).
//
// The dispatch layer promises *bit-identity*: every tier — scalar,
// AVX2, AVX-512 — and every batch composition evaluates the same
// mul/mul/add expression per element, so results never depend on the
// host or the batching.  The tests below therefore assert exact
// equality (0 ulp, strictly stronger than the ≤1-ulp acceptance bound)
// and skip cleanly on hosts that lack an ISA tier.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ld/delegation/delegation_graph.hpp"
#include "ld/election/tally.hpp"
#include "prob/batch_tally.hpp"
#include "prob/convolve.hpp"
#include "prob/truncated.hpp"
#include "prob/weighted_bernoulli_sum.hpp"
#include "rng/rng.hpp"
#include "support/cpu_features.hpp"
#include "support/metrics.hpp"

namespace {

using ld::prob::BatchTallyLane;
using ld::prob::BatchTallyScratch;
using ld::prob::ConvolveScratch;
using ld::support::SimdTier;

/// RAII pin of the kernel tier; restores the previous tier on exit so
/// test order never leaks a pinned tier into unrelated tests.
class TierGuard {
public:
    explicit TierGuard(SimdTier tier)
        : previous_(ld::prob::kernel_tier()),
          pinned_(ld::prob::set_kernel_tier(tier)) {}
    ~TierGuard() { ld::prob::set_kernel_tier(previous_); }
    bool pinned() const noexcept { return pinned_; }

    TierGuard(const TierGuard&) = delete;
    TierGuard& operator=(const TierGuard&) = delete;

private:
    SimdTier previous_;
    bool pinned_;
};

constexpr std::array<SimdTier, 2> kWideTiers = {SimdTier::kAvx2,
                                               SimdTier::kAvx512};

/// Random pmf-shaped vector (non-negative, roughly normalized).
std::vector<double> random_pmf(ld::rng::Rng& rng, std::size_t n) {
    std::vector<double> pmf(n);
    double total = 0.0;
    for (double& x : pmf) {
        x = rng.next_double();
        total += x;
    }
    for (double& x : pmf) x /= total;
    return pmf;
}

ld::mech::Action vote_action() {
    ld::mech::Action a;
    a.kind = ld::mech::ActionKind::Vote;
    return a;
}

ld::mech::Action delegate_action(ld::graph::Vertex target) {
    ld::mech::Action a;
    a.kind = ld::mech::ActionKind::Delegate;
    a.targets = {target};
    return a;
}

TEST(CpuFeatures, ParseAndNames) {
    EXPECT_EQ(ld::support::parse_simd_tier("scalar"), SimdTier::kScalar);
    EXPECT_EQ(ld::support::parse_simd_tier("avx2"), SimdTier::kAvx2);
    EXPECT_EQ(ld::support::parse_simd_tier("avx512"), SimdTier::kAvx512);
    EXPECT_EQ(ld::support::parse_simd_tier("auto"),
              ld::support::best_simd_tier());
    EXPECT_FALSE(ld::support::parse_simd_tier("sse9").has_value());
    EXPECT_FALSE(ld::support::parse_simd_tier("").has_value());
    EXPECT_STREQ(ld::support::simd_tier_name(SimdTier::kScalar), "scalar");
    EXPECT_STREQ(ld::support::simd_tier_name(SimdTier::kAvx2), "avx2");
    EXPECT_STREQ(ld::support::simd_tier_name(SimdTier::kAvx512), "avx512");
}

TEST(CpuFeatures, ScalarAlwaysSupported) {
    EXPECT_TRUE(ld::support::simd_tier_supported(SimdTier::kScalar));
    // The auto-detected best tier must itself be runnable.
    EXPECT_TRUE(ld::support::simd_tier_supported(ld::support::best_simd_tier()));
}

TEST(KernelDispatch, PinningUpdatesTierAndGauge) {
    TierGuard guard(SimdTier::kScalar);
    ASSERT_TRUE(guard.pinned());
    EXPECT_EQ(ld::prob::kernel_tier(), SimdTier::kScalar);
    EXPECT_EQ(ld::support::MetricsRegistry::global().gauge("tally.kernel").value(),
              static_cast<std::int64_t>(SimdTier::kScalar));
}

TEST(KernelDispatch, UnsupportedPinIsRejected) {
    // At most one of these can be unsupported-but-requestable everywhere,
    // so probe both wide tiers; on a host with full support this test
    // degenerates to "pin succeeds", which is fine.
    for (SimdTier tier : kWideTiers) {
        if (ld::support::simd_tier_supported(tier)) continue;
        const SimdTier before = ld::prob::kernel_tier();
        EXPECT_FALSE(ld::prob::set_kernel_tier(tier));
        EXPECT_EQ(ld::prob::kernel_tier(), before);  // unchanged on failure
    }
}

/// Scalar vs wide tiers on one convolution step, across shapes that hit
/// every region of the kernel: w = 1 (Poisson-binomial), w < n, w = n,
/// w > n (gap region), p ∈ {0, 1/3, 1}.
TEST(SimdKernelAgreement, SingleStepAllRegions) {
    ld::rng::Rng rng(20260808u);
    const std::array<std::pair<std::size_t, std::size_t>, 6> shapes = {{
        {1, 1}, {7, 1}, {129, 1}, {64, 17}, {33, 33}, {9, 40},
    }};
    const std::array<double, 3> ps = {0.0, 1.0 / 3.0, 1.0};
    for (SimdTier tier : kWideTiers) {
        if (!ld::support::simd_tier_supported(tier)) {
            GTEST_LOG_(INFO) << "skipping unsupported tier "
                             << ld::support::simd_tier_name(tier);
            continue;
        }
        for (const auto& [n, w] : shapes) {
            for (double p : ps) {
                const std::vector<double> in = random_pmf(rng, n);
                std::vector<double> expected(n + w, -1.0);
                ld::prob::detail::convolve_two_point_scalar(
                    in.data(), expected.data(), n, w, p);
                std::vector<double> got(n + w, -1.0);
                {
                    TierGuard guard(tier);
                    ASSERT_TRUE(guard.pinned());
                    ld::prob::convolve_two_point(in.data(), got.data(), n, w, p);
                }
                for (std::size_t s = 0; s < n + w; ++s) {
                    EXPECT_EQ(expected[s], got[s])
                        << ld::support::simd_tier_name(tier) << " n=" << n
                        << " w=" << w << " p=" << p << " s=" << s;
                }
            }
        }
    }
}

/// Full randomized weighted-majority tallies agree bit-for-bit across
/// tiers (stacked convolutions amplify any per-step divergence).
TEST(SimdKernelAgreement, RandomizedTalliesAcrossTiers) {
    ld::rng::Rng rng(97531u);
    for (std::size_t trial = 0; trial < 20; ++trial) {
        const std::size_t terms = 1 + rng.next_below(60);
        std::vector<std::uint64_t> weights(terms);
        std::vector<double> probs(terms);
        for (std::size_t i = 0; i < terms; ++i) {
            weights[i] = rng.next_below(5);  // zeros included on purpose
            probs[i] = rng.next_double();
        }
        ConvolveScratch scratch;
        double reference = 0.0;
        {
            TierGuard guard(SimdTier::kScalar);
            ASSERT_TRUE(guard.pinned());
            reference = ld::prob::weighted_majority_probability(weights, probs,
                                                                scratch);
        }
        for (SimdTier tier : kWideTiers) {
            if (!ld::support::simd_tier_supported(tier)) continue;
            TierGuard guard(tier);
            ASSERT_TRUE(guard.pinned());
            const double got =
                ld::prob::weighted_majority_probability(weights, probs, scratch);
            EXPECT_EQ(reference, got)
                << ld::support::simd_tier_name(tier) << " trial " << trial;
        }
    }
}

/// The ε-truncated tally keeps its certified bound and its exact values
/// under every tier: same tail, same error_bound ≤ ε/2, same window.
/// Profiles: light weights in [1, 3], and a heavy-tailed one (weights in
/// [1, 700], Pareto-like) where the ascending-weight visit order
/// reorders the most.
TEST(SimdKernelAgreement, TruncatedTallyCertifiedOnEveryTier) {
    ld::rng::Rng rng(44221u);
    for (const bool heavy : {false, true}) {
        const std::size_t terms = heavy ? 1500 : 300;
        std::vector<std::uint64_t> weights(terms);
        std::vector<double> probs(terms);
        for (std::size_t i = 0; i < terms; ++i) {
            if (heavy) {
                // P[w ≥ k] ~ k^(−1.5), capped at 700.
                const double u = 1.0 - rng.next_double();
                weights[i] = std::min<std::uint64_t>(
                    700, static_cast<std::uint64_t>(std::pow(u, -1.0 / 1.5)));
            } else {
                weights[i] = 1 + rng.next_below(3);
            }
            probs[i] = 0.3 + 0.4 * rng.next_double();
        }
        if (heavy) weights[terms / 3] = 700;  // the cap is always reached
        const double epsilon = 1e-8;
        ConvolveScratch scratch;
        ld::prob::TruncatedTally reference;
        {
            TierGuard guard(SimdTier::kScalar);
            ASSERT_TRUE(guard.pinned());
            reference = ld::prob::truncated_weighted_majority(weights, probs,
                                                              epsilon, scratch);
        }
        EXPECT_LE(reference.error_bound, epsilon / 2.0);
        // Exact (untruncated) value for the certification check.
        const double exact =
            ld::prob::weighted_majority_probability(weights, probs, scratch);
        EXPECT_NEAR(reference.tail, exact, reference.error_bound + 1e-15)
            << "heavy=" << heavy;
        for (SimdTier tier : kWideTiers) {
            if (!ld::support::simd_tier_supported(tier)) continue;
            TierGuard guard(tier);
            ASSERT_TRUE(guard.pinned());
            const auto got = ld::prob::truncated_weighted_majority(weights, probs,
                                                                   epsilon, scratch);
            EXPECT_EQ(reference.tail, got.tail) << "heavy=" << heavy;
            EXPECT_EQ(reference.error_bound, got.error_bound) << "heavy=" << heavy;
            EXPECT_EQ(reference.max_window, got.max_window) << "heavy=" << heavy;
            EXPECT_EQ(reference.window_work, got.window_work) << "heavy=" << heavy;
            EXPECT_LE(got.error_bound, epsilon / 2.0);
        }
    }
}

/// Batched lockstep tally == sequential tally, lane by lane and bit for
/// bit, on the scalar tier (the reference) — including ragged batches,
/// zero weights, empty lanes, and heterogeneous weights that force the
/// gather path.
TEST(BatchTally, BitIdenticalToSequentialScalar) {
    TierGuard guard(SimdTier::kScalar);
    ASSERT_TRUE(guard.pinned());
    ld::rng::Rng rng(181818u);
    BatchTallyScratch batch_scratch;
    ConvolveScratch seq_scratch;
    for (std::size_t trial = 0; trial < 12; ++trial) {
        const std::size_t lane_count = 1 + rng.next_below(ld::prob::kBatchTallyLanes);
        std::vector<std::vector<std::uint64_t>> weights(lane_count);
        std::vector<std::vector<double>> probs(lane_count);
        std::vector<BatchTallyLane> lanes(lane_count);
        for (std::size_t k = 0; k < lane_count; ++k) {
            // Lane 0 of every fourth trial is empty (nobody voted).
            const std::size_t terms =
                (k == 0 && trial % 4 == 0) ? 0 : 1 + rng.next_below(40);
            weights[k].resize(terms);
            probs[k].resize(terms);
            for (std::size_t i = 0; i < terms; ++i) {
                weights[k][i] = rng.next_below(6);  // heterogeneous, with zeros
                probs[k][i] = rng.next_double();
            }
            lanes[k] = {weights[k], probs[k]};
        }
        std::array<double, ld::prob::kBatchTallyLanes> out{};
        ld::prob::batch_weighted_majority(lanes, out, batch_scratch);
        for (std::size_t k = 0; k < lane_count; ++k) {
            const double expected =
                weights[k].empty()
                    ? 0.0
                    : ld::prob::weighted_majority_probability(weights[k], probs[k],
                                                              seq_scratch);
            EXPECT_EQ(expected, out[k]) << "trial " << trial << " lane " << k;
        }
    }
}

/// The same lanes produce the same bits on every wide tier, and
/// regrouping lanes into different batch sizes changes nothing.
TEST(BatchTally, TierAndCompositionInvariance) {
    ld::rng::Rng rng(272727u);
    constexpr std::size_t kLanes = ld::prob::kBatchTallyLanes;
    std::vector<std::vector<std::uint64_t>> weights(kLanes);
    std::vector<std::vector<double>> probs(kLanes);
    std::vector<BatchTallyLane> lanes(kLanes);
    for (std::size_t k = 0; k < kLanes; ++k) {
        const std::size_t terms = 20 + rng.next_below(20);
        weights[k].resize(terms);
        probs[k].resize(terms);
        for (std::size_t i = 0; i < terms; ++i) {
            // Mostly unit weights: exercises the uniform-w fast path with
            // occasional heavy terms that drop to the gather path.
            weights[k][i] = (rng.next_below(10) == 0) ? 1 + rng.next_below(7) : 1;
            probs[k][i] = rng.next_double();
        }
        lanes[k] = {weights[k], probs[k]};
    }
    BatchTallyScratch scratch;
    std::array<double, kLanes> reference{};
    {
        TierGuard guard(SimdTier::kScalar);
        ASSERT_TRUE(guard.pinned());
        ld::prob::batch_weighted_majority(lanes, reference, scratch);
    }
    for (SimdTier tier : kWideTiers) {
        if (!ld::support::simd_tier_supported(tier)) continue;
        TierGuard guard(tier);
        ASSERT_TRUE(guard.pinned());
        // Full batch.
        std::array<double, kLanes> full{};
        ld::prob::batch_weighted_majority(lanes, full, scratch);
        // Split batches: 3 + 5 lanes.
        std::array<double, kLanes> split{};
        ld::prob::batch_weighted_majority(
            std::span<const BatchTallyLane>(lanes.data(), 3),
            std::span<double>(split.data(), 3), scratch);
        ld::prob::batch_weighted_majority(
            std::span<const BatchTallyLane>(lanes.data() + 3, kLanes - 3),
            std::span<double>(split.data() + 3, kLanes - 3), scratch);
        for (std::size_t k = 0; k < kLanes; ++k) {
            EXPECT_EQ(reference[k], full[k])
                << ld::support::simd_tier_name(tier) << " lane " << k;
            EXPECT_EQ(reference[k], split[k])
                << ld::support::simd_tier_name(tier) << " split lane " << k;
        }
    }
}

/// All-unit-weight, equal-length lanes drive the fused multi-step kernel
/// (runs of up to kMaxFusedSteps per pass, including lengths that are
/// not multiples of the depth).  Partial batches mirror lane 0 through
/// the fused path and must not disturb real lanes; a heavier term
/// breaks fusion mid-tally — uniformly (all lanes, widths stay equal)
/// or in one lane only (widths diverge, no re-fusing) — and must splice
/// back bit-exactly.
TEST(BatchTally, FusedUnitWeightRunsMatchSequential) {
    constexpr std::size_t kLanes = ld::prob::kBatchTallyLanes;
    ConvolveScratch seq_scratch;
    BatchTallyScratch batch_scratch;
    for (SimdTier tier :
         {SimdTier::kScalar, SimdTier::kAvx2, SimdTier::kAvx512}) {
        if (!ld::support::simd_tier_supported(tier)) {
            GTEST_LOG_(INFO) << "host lacks " << ld::support::simd_tier_name(tier)
                             << "; skipping";
            continue;
        }
        TierGuard guard(tier);
        ASSERT_TRUE(guard.pinned());
        ld::rng::Rng rng(434343u);  // same streams on every tier
        for (std::size_t lane_count : {kLanes, std::size_t{3}, std::size_t{1}}) {
            for (std::size_t terms : {std::size_t{1}, std::size_t{7},
                                      std::size_t{8}, std::size_t{9},
                                      std::size_t{23}, std::size_t{61}}) {
                for (int variant = 0; variant < 3; ++variant) {
                    std::vector<std::vector<std::uint64_t>> weights(lane_count);
                    std::vector<std::vector<double>> probs(lane_count);
                    std::vector<BatchTallyLane> lanes(lane_count);
                    for (std::size_t k = 0; k < lane_count; ++k) {
                        weights[k].assign(terms, 1);
                        if (variant == 1) weights[k][terms / 2] = 2;
                        if (variant == 2 && k == 0) weights[k][terms / 2] = 3;
                        probs[k].resize(terms);
                        for (double& p : probs[k]) p = rng.next_double();
                        lanes[k] = {weights[k], probs[k]};
                    }
                    std::array<double, kLanes> out{};
                    ld::prob::batch_weighted_majority(lanes, out, batch_scratch);
                    for (std::size_t k = 0; k < lane_count; ++k) {
                        const double expected = ld::prob::weighted_majority_probability(
                            weights[k], probs[k], seq_scratch);
                        EXPECT_EQ(expected, out[k])
                            << ld::support::simd_tier_name(tier) << " lanes="
                            << lane_count << " terms=" << terms
                            << " variant=" << variant << " lane " << k;
                    }
                }
            }
        }
    }
}

/// Election-level staging: TallyBatch results equal
/// exact_correct_probability on the same realized outcomes.
TEST(BatchTally, ElectionStagingMatchesExactTally) {
    // Star: voters 1..4 delegate to 0; voters 5..9 vote directly.
    const std::size_t n = 10;
    std::vector<ld::mech::Action> actions;
    actions.push_back(vote_action());
    for (std::size_t v = 1; v <= 4; ++v) actions.push_back(delegate_action(0));
    for (std::size_t v = 5; v < n; ++v) actions.push_back(vote_action());

    ld::delegation::DelegationOutcome outcome(actions);
    std::vector<double> comps(n);
    for (std::size_t v = 0; v < n; ++v)
        comps[v] = 0.5 + 0.04 * static_cast<double>(v);
    ld::model::CompetencyVector p(std::move(comps));

    ld::election::TallyBatch batch;
    const std::size_t lanes = 3;
    for (std::size_t k = 0; k < lanes; ++k)
        ld::election::stage_tally_lane(batch, outcome, p);
    ASSERT_EQ(batch.lanes, lanes);
    ld::election::tally_staged(batch);

    const double expected = ld::election::exact_correct_probability(outcome, p);
    for (std::size_t k = 0; k < lanes; ++k) EXPECT_EQ(expected, batch.result[k]);

    batch.clear();
    EXPECT_EQ(batch.lanes, 0u);
}

}  // namespace
