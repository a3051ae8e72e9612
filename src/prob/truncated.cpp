#include "prob/truncated.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "support/expect.hpp"
#include "support/fpu.hpp"

namespace ld::prob {

using support::expects;

namespace {

void check_epsilon(double epsilon) {
    expects(epsilon >= 0.0 && epsilon < 1.0,
            "truncated kernel: epsilon must be in [0, 1)");
}

}  // namespace

TruncatedPoissonBinomial::TruncatedPoissonBinomial(std::span<const double> probabilities,
                                                   double epsilon) {
    check_epsilon(epsilon);
    trials_ = probabilities.size();
    std::vector<double> front(trials_ + 1), back(trials_ + 1);
    front[0] = 1.0;
    std::size_t base = 0;   // window = front[base, base + width)
    std::size_t width = 1;  // live entries
    std::size_t done = 0;
    const auto m = static_cast<double>(trials_ == 0 ? 1 : trials_);
    // Flush subnormals for the DP (support/fpu.hpp).  The flushed mass
    // is < (n+1)·2⁻¹⁰²² in total — absorbed by the certified ε budget
    // (and by double rounding noise when ε = 0).
    const support::ScopedFlushDenormals ftz;
    const detail::ConvolveFn kern = detail::convolve_kernel();
    for (double p : probabilities) {
        expects(p >= 0.0 && p <= 1.0,
                "TruncatedPoissonBinomial: probability out of [0,1]");
        mean_ += p;
        variance_ += p * (1.0 - p);
        kern(front.data() + base, back.data(), width, 1, p);
        front.swap(back);
        base = 0;
        ++width;
        ++done;
        // Trim edge entries while the cumulative dropped mass stays inside
        // the budget ε·(done/m) — a linear schedule, so later (wider)
        // steps always have headroom and the total can never exceed ε.
        const double allowed = epsilon * static_cast<double>(done) / m;
        while (width > 1 && dropped_ + front[base] <= allowed) {
            dropped_ += front[base];
            ++base;
            ++lo_;
            --width;
        }
        while (width > 1 && dropped_ + front[base + width - 1] <= allowed) {
            dropped_ += front[base + width - 1];
            --width;
        }
    }
    pmf_.assign(front.begin() + static_cast<std::ptrdiff_t>(base),
                front.begin() + static_cast<std::ptrdiff_t>(base + width));
}

double TruncatedPoissonBinomial::pmf(std::size_t k) const noexcept {
    if (k < lo_ || k >= lo_ + pmf_.size()) return 0.0;
    return pmf_[k - lo_];
}

double TruncatedPoissonBinomial::tail_above(double t) const noexcept {
    double acc = 0.0;
    for (std::size_t j = pmf_.size(); j-- > 0;) {
        if (static_cast<double>(lo_ + j) > t) acc += pmf_[j];
        else break;
    }
    return std::min(acc, 1.0);
}

TruncatedTally truncated_weighted_majority(std::span<const std::uint64_t> weights,
                                           std::span<const double> probs,
                                           double epsilon, ConvolveScratch& scratch) {
    expects(weights.size() == probs.size(),
            "truncated_weighted_majority: weights/probs length mismatch");
    expects(weights.size() <= UINT32_MAX,
            "truncated_weighted_majority: more than 2^32 terms");
    check_epsilon(epsilon);

    // Visit the non-zero terms in ascending weight, ties in input order: a
    // stable counting sort in O(terms + max w), max w ≤ W.  Heavy terms
    // then arrive last, so the partial sum's variance — and with it the
    // live window — stays small for most of the DP.
    auto& bucket = scratch.bucket;  // per weight: its count, then its next slot
    auto& order = scratch.order;
    bucket.assign(1, 0);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        expects(probs[i] >= 0.0 && probs[i] <= 1.0,
                "truncated_weighted_majority: probability out of [0,1]");
        const std::uint64_t w = weights[i];
        total += w;
        if (w >= bucket.size()) bucket.resize(static_cast<std::size_t>(w) + 1, 0);
        ++bucket[w];
    }
    const std::size_t terms = weights.size() - bucket[0];  // for the ε schedule
    const double threshold = static_cast<double>(total) / 2.0;
    for (std::size_t w = 1, start = 0; w < bucket.size(); ++w) {
        start += std::exchange(bucket[w], start);
    }
    order.resize(terms);
    for (std::size_t i = 0; i < weights.size(); ++i) {
        if (weights[i] != 0) order[bucket[weights[i]]++] = static_cast<std::uint32_t>(i);
    }

    auto& front = scratch.front;
    auto& back = scratch.back;
    front.resize(static_cast<std::size_t>(total) + 1);
    back.resize(static_cast<std::size_t>(total) + 1);
    front[0] = 1.0;

    // Flush subnormals for the DP (support/fpu.hpp); flushed mass
    // < (W+1)·2⁻¹⁰²² rides inside the certified error budget.
    const support::ScopedFlushDenormals ftz;
    const detail::ConvolveFn kern = detail::convolve_kernel();
    std::size_t base = 0;   // window = front[base, base + width)
    std::size_t width = 1;  // live entries
    std::uint64_t lo = 0;   // absolute value of front[base]
    std::uint64_t remaining = total;
    double retired_tail = 0.0;  // mass certainly > threshold (exact)
    double retired_low = 0.0;   // mass certainly ≤ threshold (exact)
    double dropped = 0.0;       // ε-trimmed mass — the only uncertainty
    TruncatedTally result;
    result.total_weight = total;
    result.max_window = 1;

    std::size_t done = 0;
    while (done < terms && width > 0) {
        const std::size_t i = order[done];
        const std::size_t w = static_cast<std::size_t>(weights[i]);
        const double p = probs[i];
        kern(front.data() + base, back.data(), width, w, p);
        front.swap(back);
        base = 0;
        width += w;
        remaining -= w;
        ++done;
        result.max_window = std::max(result.max_window, width);
        result.window_work += width;
        // Exact retirement, zero error: weights are non-negative, so a
        // window entry above the threshold can only stay above it, and
        // one that cannot reach it even if every remaining vote succeeds
        // is settled below.  Both sides bank their mass and leave the
        // window — this is what clamps the window at the threshold.
        while (width > 0 &&
               static_cast<double>(lo + static_cast<std::uint64_t>(width) - 1) > threshold) {
            retired_tail += front[base + width - 1];
            --width;
        }
        while (width > 0 && static_cast<double>(lo + remaining) <= threshold) {
            retired_low += front[base];
            ++base;
            ++lo;
            --width;
        }
        // ε-trim the undecided edges inside the linear budget schedule.
        const double allowed =
            epsilon * static_cast<double>(done) / static_cast<double>(terms);
        while (width > 1 && dropped + front[base] <= allowed) {
            dropped += front[base];
            ++base;
            ++lo;
            --width;
        }
        while (width > 1 && dropped + front[base + width - 1] <= allowed) {
            dropped += front[base + width - 1];
            --width;
        }
    }
    // Settle any leftover window (only reachable when no non-zero weight
    // was processed, e.g. everyone abstained): remaining == 0, so each
    // entry is decided by its own position.
    for (std::size_t j = 0; j < width; ++j) {
        if (static_cast<double>(lo + j) > threshold) retired_tail += front[base + j];
        else retired_low += front[base + j];
    }

    // The exact tail lies in [retired_tail, retired_tail + dropped];
    // report the midpoint so the certified radius is dropped/2 ≤ ε/2.
    result.tail = std::min(retired_tail + 0.5 * dropped, 1.0);
    result.error_bound = 0.5 * dropped;
    return result;
}

}  // namespace ld::prob
