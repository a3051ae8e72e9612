// Tests for the windowed ε-truncated tally kernels (prob/truncated.hpp)
// and the adaptive replication stopping mode (EvalOptions::target_std_error).
//
// The property suite checks the *certified* error contract: for every
// random profile, |truncated − exact| must be within the bound the kernel
// itself reports (≤ ε/2), not merely within ε of something plausible.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ld/delegation/realize.hpp"
#include "ld/election/engine.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/election/tally.hpp"
#include "ld/mech/approval_size_threshold.hpp"
#include "ld/model/instance.hpp"
#include "prob/poisson_binomial.hpp"
#include "prob/truncated.hpp"
#include "prob/weighted_bernoulli_sum.hpp"
#include "rng/rng.hpp"
#include "support/expect.hpp"
#include "support/fpu.hpp"
#include "support/thread_pool.hpp"
#include "ld/experiments/workloads.hpp"

namespace {

using ld::prob::ConvolveScratch;
using ld::prob::PoissonBinomial;
using ld::prob::TruncatedPoissonBinomial;
using ld::prob::TruncatedTally;
using ld::prob::WeightedBernoulliSum;
using ld::prob::truncated_weighted_majority;
using ld::support::ContractViolation;

// Floating-point slack on top of the certified bound: the truncated and
// exact kernels accumulate their tails in different orders, so the last
// few ulps may differ even when no mass was dropped.
constexpr double kFpSlack = 1e-12;

TEST(TruncatedPoissonBinomial, EpsilonZeroMatchesExactEverywhere) {
    const std::vector<double> probs{0.2, 0.5, 0.8, 0.35, 0.6, 0.9, 0.1};
    const TruncatedPoissonBinomial tr(probs, 0.0);
    const PoissonBinomial pb(probs);
    EXPECT_EQ(tr.certified_error(), 0.0);
    for (std::size_t k = 0; k <= probs.size(); ++k) {
        EXPECT_NEAR(tr.pmf(k), pb.pmf(k), 1e-15) << "k=" << k;
    }
    EXPECT_NEAR(tr.majority_probability(), pb.majority_probability(), 1e-15);
    EXPECT_NEAR(tr.mean(), pb.mean(), 1e-12);
    EXPECT_NEAR(tr.variance(), pb.variance(), 1e-12);
}

TEST(TruncatedPoissonBinomial, DroppedMassStaysInsideBudget) {
    ld::rng::Rng rng(11);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 20 + static_cast<std::size_t>(rng.next_below(200));
        std::vector<double> probs(n);
        for (auto& p : probs) p = rng.next_double();
        const double eps = trial % 2 == 0 ? 1e-9 : 1e-12;
        const TruncatedPoissonBinomial tr(probs, eps);
        const PoissonBinomial pb(probs);
        EXPECT_LE(tr.certified_error(), eps);
        // The truncated pmf is a pointwise sub-measure of the exact pmf.
        for (std::size_t k = 0; k <= n; ++k) {
            EXPECT_LE(tr.pmf(k), pb.pmf(k) + 1e-15) << "k=" << k;
        }
        // Any tail query lands within the certified deficit.
        for (double t : {static_cast<double>(n) / 2.0, tr.mean(), 3.0}) {
            const double exact = pb.tail_above(t);
            const double trunc = tr.tail_above(t);
            EXPECT_LE(exact - trunc, tr.certified_error() + kFpSlack) << "t=" << t;
            EXPECT_LE(trunc - exact, kFpSlack) << "t=" << t;
        }
        // The window actually shrinks for small ε on wide instances.
        EXPECT_LE(tr.window_width(), n + 1);
    }
}

TEST(TruncatedPoissonBinomial, RejectsBadEpsilon) {
    const std::vector<double> probs{0.5};
    EXPECT_THROW(TruncatedPoissonBinomial(probs, -0.1), ContractViolation);
    EXPECT_THROW(TruncatedPoissonBinomial(probs, 1.0), ContractViolation);
}

TEST(TruncatedWeightedMajority, PropertyAgainstExactDP) {
    // Randomized profiles: heterogeneous weights (including zeros =
    // abstentions), competencies across [0, 1].  The certified interval
    // must always contain the exact majority probability.
    ld::rng::Rng rng(7);
    ConvolveScratch scratch;
    double worst_gap = 0.0;
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t m = 1 + static_cast<std::size_t>(rng.next_below(40));
        std::vector<std::uint64_t> weights(m);
        std::vector<double> probs(m);
        for (std::size_t i = 0; i < m; ++i) {
            weights[i] = rng.next_below(8);  // 0 = abstention, up to 7 votes
            probs[i] = rng.next_double();
        }
        const double eps = trial % 3 == 0 ? 0.0 : (trial % 3 == 1 ? 1e-12 : 1e-9);
        const auto tally = truncated_weighted_majority(weights, probs, eps, scratch);
        const WeightedBernoulliSum exact(weights, probs);
        const double exact_p = exact.majority_probability();
        EXPECT_LE(tally.error_bound, eps / 2.0 + 1e-18);
        const double gap = std::abs(tally.tail - exact_p);
        worst_gap = std::max(worst_gap, gap);
        EXPECT_LE(gap, tally.error_bound + kFpSlack)
            << "trial=" << trial << " eps=" << eps;
        EXPECT_EQ(tally.total_weight, exact.total_weight());
    }
    // Acceptance criterion: max |ΔP| stays at or below 1e-9 overall.
    EXPECT_LE(worst_gap, 1e-9);
}

TEST(TruncatedWeightedMajority, DegenerateProfiles) {
    ConvolveScratch scratch;
    // Nobody votes at all: W = 0, threshold 0, no mass above it.
    {
        const auto tally = truncated_weighted_majority(
            std::vector<std::uint64_t>{0, 0, 0}, std::vector<double>{0.2, 0.9, 0.5},
            1e-9, scratch);
        EXPECT_EQ(tally.total_weight, 0u);
        EXPECT_NEAR(tally.tail, 0.0, 1e-15);
        EXPECT_LE(tally.error_bound, 1e-9);
    }
    // Empty profile.
    {
        const auto tally = truncated_weighted_majority(
            std::vector<std::uint64_t>{}, std::vector<double>{}, 0.0, scratch);
        EXPECT_EQ(tally.total_weight, 0u);
        EXPECT_NEAR(tally.tail, 0.0, 1e-15);
        EXPECT_EQ(tally.error_bound, 0.0);
    }
    // Dictator: one sink with all the weight.
    {
        const auto tally = truncated_weighted_majority(
            std::vector<std::uint64_t>{9}, std::vector<double>{0.75}, 1e-12, scratch);
        EXPECT_NEAR(tally.tail, 0.75, 1e-12);
    }
    // Deterministic voters (p = 0 and p = 1) and an exact tie that loses.
    {
        const auto tally = truncated_weighted_majority(
            std::vector<std::uint64_t>{2, 2}, std::vector<double>{1.0, 0.0}, 0.0,
            scratch);
        EXPECT_NEAR(tally.tail, 0.0, 1e-15);  // 2 of 4 is a tie: loses
    }
    // Mismatched spans and bad epsilon are contract violations.
    EXPECT_THROW(truncated_weighted_majority(std::vector<std::uint64_t>{1},
                                             std::vector<double>{0.5, 0.5}, 0.0,
                                             scratch),
                 ContractViolation);
    EXPECT_THROW(truncated_weighted_majority(std::vector<std::uint64_t>{1},
                                             std::vector<double>{0.5}, 1.5, scratch),
                 ContractViolation);
}

TEST(TruncatedWeightedMajority, WindowShrinksOnLargeUnitProfiles) {
    // 4000 unit-weight voters: the exact DP window is 4001 wide; the
    // truncated one should retire everything far from the threshold and
    // stay within a few hundred entries (O(σ·√log(1/ε)), σ ≈ 31).
    const std::size_t n = 4000;
    std::vector<std::uint64_t> weights(n, 1);
    std::vector<double> probs(n, 0.51);
    ConvolveScratch scratch;
    const auto tally = truncated_weighted_majority(weights, probs, 1e-12, scratch);
    EXPECT_LT(tally.max_window, n / 4);
    const WeightedBernoulliSum exact(weights, probs);
    EXPECT_NEAR(tally.tail, exact.majority_probability(),
                tally.error_bound + kFpSlack);
}

// ---- Visit order: ascending weight, ties in input order -------------------

/// The truncated tally loop in plain input order, zero weights skipped —
/// the loop `truncated_weighted_majority` runs after sorting its terms.
/// Fed a stably weight-sorted profile, the kernel must match it bit for
/// bit: the order is the only difference.
TruncatedTally input_order_tally(std::span<const std::uint64_t> weights,
                                 std::span<const double> probs, double eps) {
    std::uint64_t total = 0;
    std::size_t terms = 0;
    for (const std::uint64_t w : weights) {
        total += w;
        if (w != 0) ++terms;
    }
    const double threshold = static_cast<double>(total) / 2.0;
    std::vector<double> front(total + 1), back(total + 1);
    front[0] = 1.0;
    const ld::support::ScopedFlushDenormals ftz;
    const auto kern = ld::prob::detail::convolve_kernel();
    std::size_t base = 0, width = 1, done = 0;
    std::uint64_t lo = 0, remaining = total;
    double retired_tail = 0.0, dropped = 0.0;
    TruncatedTally out;
    out.total_weight = total;
    out.max_window = 1;
    for (std::size_t i = 0; i < weights.size() && width > 0; ++i) {
        const std::size_t w = weights[i];
        if (w == 0) continue;
        kern(front.data() + base, back.data(), width, w, probs[i]);
        front.swap(back);
        base = 0;
        width += w;
        remaining -= w;
        ++done;
        out.max_window = std::max(out.max_window, width);
        out.window_work += width;
        while (width > 0 && static_cast<double>(lo + width - 1) > threshold) {
            retired_tail += front[base + --width];
        }
        while (width > 0 && static_cast<double>(lo + remaining) <= threshold) {
            ++base;
            ++lo;
            --width;
        }
        const double allowed =
            eps * static_cast<double>(done) / static_cast<double>(terms);
        while (width > 1 && dropped + front[base] <= allowed) {
            dropped += front[base++];
            ++lo;
            --width;
        }
        while (width > 1 && dropped + front[base + width - 1] <= allowed) {
            dropped += front[base + --width];
        }
    }
    for (std::size_t j = 0; j < width; ++j) {
        if (static_cast<double>(lo + j) > threshold) retired_tail += front[base + j];
    }
    out.tail = std::min(retired_tail + 0.5 * dropped, 1.0);
    out.error_bound = 0.5 * dropped;
    return out;
}

void expect_same_bits(const TruncatedTally& a, const TruncatedTally& b,
                      const std::string& where) {
    EXPECT_EQ(a.tail, b.tail) << where;
    EXPECT_EQ(a.error_bound, b.error_bound) << where;
    EXPECT_EQ(a.max_window, b.max_window) << where;
    EXPECT_EQ(a.window_work, b.window_work) << where;
    EXPECT_EQ(a.total_weight, b.total_weight) << where;
}

struct Profile {
    std::vector<std::uint64_t> weights;
    std::vector<double> probs;
};

/// Heavy-tailed random profile: P[w ≥ k] ~ k^(−1.5), capped at `cap`, with
/// a share of zero weights (abstentions).
Profile heavy_tailed_profile(ld::rng::Rng& rng, std::size_t m, std::uint64_t cap) {
    Profile out;
    for (std::size_t i = 0; i < m; ++i) {
        const double u = 1.0 - rng.next_double();
        const auto w = std::min<std::uint64_t>(
            cap, static_cast<std::uint64_t>(std::pow(u, -1.0 / 1.5)));
        out.weights.push_back(rng.next_below(10) == 0 ? 0 : w);
        out.probs.push_back(rng.next_double());
    }
    return out;
}

Profile permuted(const Profile& in, const std::vector<std::size_t>& perm) {
    Profile out;
    for (const std::size_t i : perm) {
        out.weights.push_back(in.weights[i]);
        out.probs.push_back(in.probs[i]);
    }
    return out;
}

std::vector<std::size_t> random_permutation(ld::rng::Rng& rng, std::size_t m) {
    std::vector<std::size_t> perm(m);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    for (std::size_t i = m; i > 1; --i) {
        std::swap(perm[i - 1], perm[rng.next_below(i)]);
    }
    return perm;
}

/// Indices sorted by ascending weight, ties in input order.
std::vector<std::size_t> stable_weight_order(const Profile& in) {
    std::vector<std::size_t> perm(in.weights.size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    std::stable_sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
        return in.weights[a] < in.weights[b];
    });
    return perm;
}

TEST(TruncatedTallyOrder, EqualsInputOrderLoopOnTheStablyWeightSortedProfile) {
    ld::rng::Rng rng(1401);
    ConvolveScratch scratch;
    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t m = 1 + static_cast<std::size_t>(rng.next_below(300));
        const auto profile = heavy_tailed_profile(rng, m, 1 + rng.next_below(200));
        const double eps = trial % 3 == 0 ? 0.0 : (trial % 3 == 1 ? 1e-12 : 1e-6);
        const auto got =
            truncated_weighted_majority(profile.weights, profile.probs, eps, scratch);
        const auto sorted = permuted(profile, stable_weight_order(profile));
        const auto want = input_order_tally(sorted.weights, sorted.probs, eps);
        expect_same_bits(got, want, "trial " + std::to_string(trial));
    }
}

TEST(TruncatedTallyOrder, ReorderingAcrossWeightsKeepsEveryBit) {
    // Shuffle the profile, then put each weight class's entries back into
    // the positions that class now occupies, in their original order: the
    // order across weights changes, the order within a weight does not.
    ld::rng::Rng rng(1402);
    ConvolveScratch scratch;
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t m = 2 + static_cast<std::size_t>(rng.next_below(300));
        const auto profile = heavy_tailed_profile(rng, m, 50);
        auto perm = random_permutation(rng, m);
        std::map<std::uint64_t, std::vector<std::size_t>> by_weight;
        for (std::size_t i = 0; i < m; ++i) by_weight[profile.weights[i]].push_back(i);
        std::map<std::uint64_t, std::size_t> next;
        for (auto& slot : perm) {
            const std::uint64_t w = profile.weights[slot];
            slot = by_weight[w][next[w]++];
        }
        const auto reordered = permuted(profile, perm);
        const double eps = trial % 2 == 0 ? 1e-12 : 1e-9;
        expect_same_bits(
            truncated_weighted_majority(profile.weights, profile.probs, eps, scratch),
            truncated_weighted_majority(reordered.weights, reordered.probs, eps,
                                        scratch),
            "trial " + std::to_string(trial));
    }
}

TEST(TruncatedTallyOrder, CertifiedUnderRandomPermutations) {
    ld::rng::Rng rng(1403);
    ConvolveScratch scratch;
    std::vector<std::pair<std::string, Profile>> cases;
    cases.emplace_back("heavy tail with zeros", heavy_tailed_profile(rng, 400, 300));
    {
        // One dominant sink a few votes short of a majority on its own.
        Profile p = heavy_tailed_profile(rng, 200, 5);
        std::uint64_t rest = 0;
        for (const auto w : p.weights) rest += w;
        p.weights.push_back(rest > 6 ? rest - 6 : 1);
        p.probs.push_back(0.8);
        cases.emplace_back("dominant sink", std::move(p));
    }
    {
        Profile p;
        for (int i = 0; i < 250; ++i) {
            p.weights.push_back(i % 7 == 0 ? 0 : 4);
            p.probs.push_back(0.3 + 0.4 * rng.next_double());
        }
        cases.emplace_back("all-equal weights", std::move(p));
    }
    for (const auto& [name, profile] : cases) {
        const WeightedBernoulliSum exact_sum(profile.weights, profile.probs);
        const double exact = exact_sum.majority_probability();
        for (int trial = 0; trial < 12; ++trial) {
            const auto shuffled =
                permuted(profile, random_permutation(rng, profile.weights.size()));
            for (const double eps : {0.0, 1e-12, 1e-8}) {
                const auto tally = truncated_weighted_majority(
                    shuffled.weights, shuffled.probs, eps, scratch);
                EXPECT_LE(tally.error_bound, eps / 2.0) << name;
                EXPECT_LE(std::abs(tally.tail - exact), tally.error_bound + kFpSlack)
                    << name << " trial " << trial << " eps " << eps;
                if (name == "all-equal weights") {
                    // Every non-zero weight ties: the visit order is the
                    // input order, so the bits are the input-order loop's.
                    expect_same_bits(
                        tally, input_order_tally(shuffled.weights, shuffled.probs, eps),
                        name);
                }
            }
        }
    }
}

TEST(TruncatedTallyOrder, LightestFirstShrinksTheWindow) {
    // A heavy sink listed first widens every later step in input order;
    // lightest-first tallies it last.
    Profile profile;
    profile.weights.push_back(600);
    profile.probs.push_back(0.5);
    ld::rng::Rng rng(1404);
    for (int i = 0; i < 3000; ++i) {
        profile.weights.push_back(1 + rng.next_below(3));
        profile.probs.push_back(0.3 + 0.4 * rng.next_double());
    }
    ConvolveScratch scratch;
    const auto sorted =
        truncated_weighted_majority(profile.weights, profile.probs, 1e-12, scratch);
    const auto unsorted = input_order_tally(profile.weights, profile.probs, 1e-12);
    EXPECT_LT(sorted.window_work * 2, unsorted.window_work);
    EXPECT_NEAR(sorted.tail, unsorted.tail,
                sorted.error_bound + unsorted.error_bound + kFpSlack);
}

TEST(TruncatedTallyRoute, MatchesExactTallyOnElectionOutcomes) {
    // End-to-end through the election layer: truncated_correct_probability
    // against exact_correct_probability on realized delegation graphs.
    ld::rng::Rng rng(21);
    const auto inst = ld::experiments::complete_pc_instance(rng, 301, 0.05, 0.01, 0.3);
    const ld::mech::ApprovalSizeThreshold mech(1);
    ld::election::TallyScratch scratch;
    for (int r = 0; r < 20; ++r) {
        const auto outcome = ld::delegation::realize(mech, inst, rng);
        const double exact =
            ld::election::exact_correct_probability(outcome, inst.competencies(), scratch);
        const double truncated = ld::election::truncated_correct_probability(
            outcome, inst.competencies(), 1e-12, scratch);
        EXPECT_NEAR(truncated, exact, 1e-12 / 2.0 + kFpSlack) << "r=" << r;
    }
}

TEST(AdaptiveStopping, DeterministicForFixedSeedAndThreads) {
    ld::rng::Rng rng_a(33), rng_b(33);
    const auto inst = [&] {
        ld::rng::Rng build(5);
        return ld::experiments::complete_pc_instance(build, 101, 0.05, 0.02, 0.3);
    }();
    const ld::mech::ApprovalSizeThreshold mech(1);
    ld::election::EvalOptions opts;
    opts.target_std_error = 2e-3;
    opts.adaptive_batch = 32;
    opts.max_replications = 4000;
    opts.threads = 3;
    ld::support::ThreadPool pool_a(3), pool_b(3);
    ld::election::ReplicationEngine engine_a(pool_a), engine_b(pool_b);
    opts.engine = &engine_a;
    const auto a = ld::election::estimate_correct_probability(mech, inst, rng_a, opts);
    opts.engine = &engine_b;
    const auto b = ld::election::estimate_correct_probability(mech, inst, rng_b, opts);
    // Bit-identical, not merely close: same stopping point, same value.
    EXPECT_EQ(a.replications, b.replications);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.std_error, b.std_error);
    // It actually stopped adaptively: before the cap, at a batch multiple,
    // with the target met.
    EXPECT_LT(a.replications, opts.max_replications);
    EXPECT_EQ(a.replications % opts.adaptive_batch, 0u);
    EXPECT_LE(a.std_error, opts.target_std_error);
}

TEST(AdaptiveStopping, HonorsTheReplicationCap) {
    ld::rng::Rng rng(44);
    const auto inst = [&] {
        ld::rng::Rng build(6);
        return ld::experiments::complete_pc_instance(build, 101, 0.05, 0.02, 0.3);
    }();
    const ld::mech::ApprovalSizeThreshold mech(1);
    ld::election::EvalOptions opts;
    opts.target_std_error = 1e-9;  // unreachable
    opts.adaptive_batch = 16;
    opts.max_replications = 96;
    const auto est = ld::election::estimate_correct_probability(mech, inst, rng, opts);
    EXPECT_EQ(est.replications, opts.max_replications);
    EXPECT_GT(est.std_error, opts.target_std_error);
}

TEST(AdaptiveStopping, ZeroVarianceStopsAfterTwoBatches) {
    // A direct-voting mechanism on a fixed instance: every replication
    // yields the same P^M, so SE hits 0 as soon as two reps exist — but
    // never on the first batch (one sample has no standard error).
    ld::rng::Rng rng(55);
    const auto inst = [&] {
        ld::rng::Rng build(7);
        return ld::experiments::complete_pc_instance(build, 51, 0.05, 0.02, 0.3);
    }();
    const ld::mech::ApprovalSizeThreshold mech(1000);  // unreachable: nobody delegates
    ld::election::EvalOptions opts;
    opts.target_std_error = 1e-6;
    opts.adaptive_batch = 1;
    opts.max_replications = 100;
    const auto est = ld::election::estimate_correct_probability(mech, inst, rng, opts);
    EXPECT_EQ(est.replications, 2u);
    EXPECT_EQ(est.std_error, 0.0);
}

TEST(AdaptiveStopping, AdaptiveMatchesFixedPrefixStreams) {
    // With the same seed, the adaptive run's first fixed-count worth of
    // draws comes from the same RNG streams as a fixed run — the adaptive
    // mode changes *when to stop*, not *what is sampled*.  Run adaptive
    // with a cap equal to a fixed count and an unreachable target: the
    // estimates must coincide exactly.
    ld::rng::Rng rng_fixed(66), rng_adaptive(66);
    const auto inst = [&] {
        ld::rng::Rng build(8);
        return ld::experiments::complete_pc_instance(build, 101, 0.05, 0.02, 0.3);
    }();
    const ld::mech::ApprovalSizeThreshold mech(1);
    ld::support::ThreadPool pool_a(2), pool_b(2);
    ld::election::ReplicationEngine engine_a(pool_a), engine_b(pool_b);

    ld::election::EvalOptions fixed;
    fixed.replications = 128;
    fixed.threads = 2;
    fixed.engine = &engine_a;

    ld::election::EvalOptions adaptive;
    adaptive.target_std_error = 1e-12;  // unreachable: runs to the cap
    adaptive.adaptive_batch = 128;      // one round == the fixed count
    adaptive.max_replications = 128;
    adaptive.threads = 2;
    adaptive.engine = &engine_b;

    const auto a = ld::election::estimate_correct_probability(mech, inst, rng_fixed, fixed);
    const auto b =
        ld::election::estimate_correct_probability(mech, inst, rng_adaptive, adaptive);
    EXPECT_EQ(a.replications, b.replications);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.std_error, b.std_error);
}

TEST(PoissonBinomialSatellites, CdfAndTailAreConsistentWithPmf) {
    ld::rng::Rng rng(77);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 1 + static_cast<std::size_t>(rng.next_below(64));
        std::vector<double> probs(n);
        for (auto& p : probs) p = rng.next_double();
        const PoissonBinomial pb(probs);
        double prefix = 0.0;
        for (std::size_t k = 0; k <= n; ++k) {
            prefix += pb.pmf(k);
            EXPECT_NEAR(pb.cdf(k), std::min(prefix, 1.0), 1e-12) << "k=" << k;
            // P[X <= k] + P[X > k] == 1 with O(1) lookups on both sides.
            EXPECT_NEAR(pb.cdf(k) + pb.tail_above(static_cast<double>(k)), 1.0, 1e-12);
        }
        EXPECT_NEAR(pb.tail_above(-1.0), 1.0, 1e-12);
        EXPECT_NEAR(pb.tail_above(static_cast<double>(n)), 0.0, 1e-15);
        EXPECT_NEAR(pb.tail_above(static_cast<double>(n) + 7.5), 0.0, 1e-15);
        // Fractional thresholds: P[X > 1.5] == P[X >= 2].
        if (n >= 2) {
            EXPECT_NEAR(pb.tail_above(1.5), 1.0 - pb.cdf(1), 1e-12);
        }
    }
}

TEST(PoissonBinomialSatellites, PmfSpanIsTheRenamedAccessor) {
    const std::vector<double> probs{0.25, 0.5};
    const PoissonBinomial pb(probs);
    const auto pmf = pb.pmf_span();
    ASSERT_EQ(pmf.size(), 3u);
    EXPECT_NEAR(pmf[0], 0.75 * 0.5, 1e-15);
    EXPECT_NEAR(pmf[2], 0.25 * 0.5, 1e-15);
}

}  // namespace
