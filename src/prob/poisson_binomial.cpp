#include "prob/poisson_binomial.hpp"

#include <algorithm>
#include <cmath>

#include "prob/convolve.hpp"
#include "support/expect.hpp"
#include "support/fpu.hpp"

namespace ld::prob {

using support::expects;

namespace {

/// Kahan-compensated running sum: `acc.add(x)` loses no low-order mass to
/// cancellation across the ~n additions of a prefix/suffix sweep.
struct CompensatedSum {
    double sum = 0.0;
    double carry = 0.0;
    void add(double x) noexcept {
        const double y = x - carry;
        const double t = sum + y;
        carry = (t - sum) - y;
        sum = t;
    }
};

}  // namespace

PoissonBinomial::PoissonBinomial(std::span<const double> probabilities) {
    const std::size_t n = probabilities.size();
    ConvolveScratch dp;
    LiveWindow win = detail::start_exact(dp, n + 1);
    // Flush subnormals for the DP — see support/fpu.hpp.  Flushed mass
    // < (n+1)·2⁻¹⁰²² total, far below the compensated-sum noise floor.
    // The flushed flanks are what keeps the live window narrow.
    const support::ScopedFlushDenormals ftz;
    const detail::ConvolveFn kern = detail::convolve_kernel();
    for (double p : probabilities) {
        expects(p >= 0.0 && p <= 1.0, "PoissonBinomial: probability out of [0,1]");
        detail::convolve_exact_step(kern, dp, win, 1, p);
        mean_ += p;
        variance_ += p * (1.0 - p);
    }
    detail::finish_exact(dp, win);
    pmf_ = std::move(dp.front);

    // Compensated prefix/suffix sums make cdf() and tail_above() O(1).
    cdf_.resize(n + 1);
    CompensatedSum prefix;
    for (std::size_t k = 0; k <= n; ++k) {
        prefix.add(pmf_[k]);
        cdf_[k] = prefix.sum;
    }
    suffix_.resize(n + 2);
    suffix_[n + 1] = 0.0;
    CompensatedSum tail;
    for (std::size_t k = n + 1; k-- > 0;) {
        tail.add(pmf_[k]);
        suffix_[k] = tail.sum;
    }
}

double PoissonBinomial::pmf(std::size_t k) const {
    expects(k < pmf_.size(), "pmf: k out of range");
    return pmf_[k];
}

double PoissonBinomial::cdf(std::size_t k) const {
    expects(k < pmf_.size(), "cdf: k out of range");
    return std::min(cdf_[k], 1.0);
}

double PoissonBinomial::tail_above(double t) const {
    // P[X > t] = Σ_{k ≥ k0} pmf_[k] with k0 the smallest integer > t.
    if (!(t >= 0.0)) return std::min(suffix_[0], 1.0);
    const double k0 = std::floor(t) + 1.0;
    if (k0 >= static_cast<double>(suffix_.size())) return 0.0;
    return std::min(suffix_[static_cast<std::size_t>(k0)], 1.0);
}

double direct_majority_probability(std::span<const double> probabilities) {
    return PoissonBinomial(probabilities).majority_probability();
}

}  // namespace ld::prob
