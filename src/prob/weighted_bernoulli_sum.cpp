#include "prob/weighted_bernoulli_sum.hpp"

#include <algorithm>

#include "support/expect.hpp"
#include "support/fpu.hpp"

namespace ld::prob {

using support::expects;

namespace {

/// Shared DP core: fills `scratch.front` with the law of
/// Σ w_i · Bernoulli(p_i) over [0, W] and returns its live window (every
/// entry outside it is exactly +0.0).
LiveWindow convolve_weighted_sum(std::span<const std::uint64_t> weights,
                                 std::span<const double> probs,
                                 ConvolveScratch& scratch) {
    expects(weights.size() == probs.size(),
            "WeightedBernoulliSum: weights/probs length mismatch");
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        expects(probs[i] >= 0.0 && probs[i] <= 1.0,
                "WeightedBernoulliSum: probability out of [0,1]");
        total += weights[i];
    }
    LiveWindow win = detail::start_exact(scratch, static_cast<std::size_t>(total) + 1);
    // Flush subnormals for the DP: the spreading pmf front underflows
    // fresh subnormals every step, and the per-op assists cost more than
    // the convolution itself (support/fpu.hpp).  Total flushed mass
    // < (W+1)·2⁻¹⁰²² — invisible at the majority threshold.
    const support::ScopedFlushDenormals ftz;
    const detail::ConvolveFn kern = detail::convolve_kernel();
    for (std::size_t i = 0; i < weights.size(); ++i) {
        const auto w = static_cast<std::size_t>(weights[i]);
        if (w == 0) continue;
        detail::convolve_exact_step(kern, scratch, win, w, probs[i]);
    }
    detail::finish_exact(scratch, win);
    return win;
}

}  // namespace

WeightedBernoulliSum::WeightedBernoulliSum(std::span<const std::uint64_t> weights,
                                           std::span<const double> probs) {
    ConvolveScratch scratch;
    convolve_weighted_sum(weights, probs, scratch);
    pmf_ = std::move(scratch.front);
    total_weight_ = pmf_.size() - 1;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        const auto w = static_cast<double>(weights[i]);
        const double p = probs[i];
        mean_ += w * p;
        variance_ += w * w * p * (1.0 - p);
    }
}

double weighted_majority_probability(std::span<const std::uint64_t> weights,
                                     std::span<const double> probs,
                                     ConvolveScratch& scratch) {
    const LiveWindow win = convolve_weighted_sum(weights, probs, scratch);
    const auto& pmf = scratch.front;
    const double threshold = static_cast<double>(pmf.size() - 1) / 2.0;
    // Start at the window's top: the entries above it are +0.0, and
    // acc + 0.0 = acc, so the sum is the same bits as one from W down.
    double acc = 0.0;
    for (std::size_t s = win.hi; s-- > 0;) {
        if (static_cast<double>(s) > threshold) acc += pmf[s];
        else break;  // pmf indices below the threshold contribute nothing
    }
    return std::min(acc, 1.0);
}

double WeightedBernoulliSum::pmf(std::uint64_t s) const {
    expects(s < pmf_.size(), "pmf: value out of range");
    return pmf_[static_cast<std::size_t>(s)];
}

double WeightedBernoulliSum::tail_above(double t) const {
    double acc = 0.0;
    for (std::size_t s = pmf_.size(); s-- > 0;) {
        if (static_cast<double>(s) > t) acc += pmf_[s];
        else break;  // pmf indices below t contribute nothing
    }
    return std::min(acc, 1.0);
}

}  // namespace ld::prob
