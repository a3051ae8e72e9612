// The shared inner loop of every Poisson-binomial-style DP in this repo:
// convolving a pmf with the two-point distribution {0 ↦ 1−p, w ↦ p}.
//
// The historical implementation iterated the pmf *downwards in place*
// (`pmf[s+w] += pmf[s]·p; pmf[s] *= 1−p`), which carries a loop
// dependence of distance w and defeats auto-vectorization for the
// common w = 1 case.  The scalar kernel below instead ping-pongs between
// two restrict-qualified buffers and walks forwards, so the hot interior
// is the stream `out[s] = in[s]·q + in[s−w]·p` — independent lanes.
//
// On top of the scalar reference sit explicit AVX2 / AVX-512
// specializations (`prob/convolve_simd.cpp`), selected once at runtime
// from CPU features (`support/cpu_features`) or pinned via `--simd` /
// LIQUIDD_SIMD.  Every tier evaluates the *same* mul/mul/add expression
// per element — no FMA contraction anywhere — so all tiers, and the
// batched lockstep kernels built from them, are bit-identical to the
// scalar loop.  The tier choice is a pure performance/attribution knob;
// determinism contracts and the certified ε accounting of the truncated
// kernels are unaffected.
//
// Shared by the exact kernels (`PoissonBinomial`,
// `WeightedBernoulliSum`, `weighted_majority_probability`), the windowed
// ε-truncated kernels (`prob/truncated.hpp`), and the batched SoA tally
// (`prob/batch_tally.hpp`).  The exact kernels step only the pmf's live
// window — the span outside of which every entry is exactly +0.0 (see
// `detail::convolve_exact_step`) — so their cost is Σ (window width), not
// Σ (full width) ≈ n²/2: a mean window of 7.7k of 50k entries for P^D at
// n = 10⁵, where the flanks beyond ~38σ underflow to +0.0 under FTZ/DAZ.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/cpu_features.hpp"

namespace ld::prob {

/// Ping-pong DP buffers for the two-point convolution.  One per worker;
/// reused across tallies (and across replications when owned by a
/// `TallyScratch`).
struct ConvolveScratch {
    std::vector<double> front;  ///< current pmf (input of the next step)
    std::vector<double> back;   ///< output of the next step
    /// Term visit order and counting-sort buckets of the truncated tally
    /// (`truncated_weighted_majority`).
    std::vector<std::uint32_t> order;
    std::vector<std::size_t> bucket;
};

/// Live window [lo, hi) of an exact DP's pmf in `ConvolveScratch::front`:
/// every entry outside it is exactly +0.0.
struct LiveWindow {
    std::size_t lo = 0;
    std::size_t hi = 1;
    std::size_t peak = 1;  ///< widest window after any step
};

namespace detail {

/// One convolution step: given `in[0, n)` — the pmf of a partial sum —
/// write the pmf after adding w·Bernoulli(p) into `out[0, n + w)`:
///
///   out[s] = in[s]·(1−p) + in[s−w]·p      (terms outside [0, n) are 0)
///
/// Requires w ≥ 1, n ≥ 1, and in/out non-overlapping (the __restrict
/// qualification is a promise, not a check).  This is the portable
/// reference all SIMD tiers must match bit-for-bit.
inline void convolve_two_point_scalar(const double* __restrict in,
                                      double* __restrict out,
                                      std::size_t n, std::size_t w, double p) {
    const double q = 1.0 - p;
    const std::size_t head = std::min(w, n);
    for (std::size_t s = 0; s < head; ++s) out[s] = in[s] * q;
    // w > n only: the gap [n, w) is reachable by neither term.
    for (std::size_t s = head; s < w; ++s) out[s] = 0.0;
    // The vectorizable interior: two independent streams.
    for (std::size_t s = w; s < n; ++s) out[s] = in[s] * q + in[s - w] * p;
    for (std::size_t s = std::max(n, w); s < n + w; ++s) out[s] = in[s - w] * p;
}

/// Single-pmf convolution step, any tier.
using ConvolveFn = void (*)(const double* __restrict in, double* __restrict out,
                            std::size_t n, std::size_t w, double p);

/// Number of interleaved pmf lanes advanced per batched step.  Fixed at
/// compile time so element (s, k) lives at `[s * kBatchLanes + k]` and one
/// AVX-512 vector (or two AVX2 vectors) covers a full row.
inline constexpr std::size_t kBatchLanes = 8;

/// One lockstep convolution step over kBatchLanes interleaved pmfs.
/// Lane k convolves its current pmf `in[· * kBatchLanes + k]` of width
/// n[k] with {0 ↦ 1−p[k], w[k] ↦ p[k]}, writing rows [0, smax).  A lane
/// with w[k] == 0 performs an identity copy of its live entries (used to
/// idle lanes that ran out of terms).  `smax` must cover every lane's
/// output width (max over k of n[k] + w[k]).
using BatchStepFn = void (*)(const double* __restrict in, double* __restrict out,
                             std::size_t smax, const std::int64_t* n,
                             const std::int64_t* w, const double* p);

/// Reference batched step: per-lane scalar region loops with the exact
/// arithmetic of `convolve_two_point_scalar` at stride kBatchLanes.
void batch_step_scalar(const double* __restrict in, double* __restrict out,
                       std::size_t smax, const std::int64_t* n,
                       const std::int64_t* w, const double* p);

/// Active batched-step kernel for the current tier.
BatchStepFn batch_step_kernel();

/// Upper bound on the number of consecutive unit-weight steps a fused
/// pass advances at once (bounded by how many carried row registers fit;
/// tiers with fewer vector registers fuse shallower — see
/// `batch_fused_depth`).
inline constexpr std::size_t kMaxFusedSteps = 8;

/// Fused run of `steps` ∈ [1, kMaxFusedSteps] consecutive batched
/// convolution steps where every lane has the same width `n0` and every
/// step convolves every lane with a unit-weight term (w = 1).
/// `p[f * kBatchLanes + k]` is lane k's probability at fused step f.
/// Writes rows [0, n0 + steps).  The DP ping-pongs once for the whole
/// run — one read and one write per row per `steps` convolution steps,
/// which is what makes the batched tally compute-bound instead of
/// L2-bandwidth-bound.  Each intermediate level evaluates the exact
/// mul/mul/add of the scalar reference (terms outside a level's width
/// contribute exactly +0.0), so fused results stay bit-identical.
using BatchFusedFn = void (*)(const double* __restrict in, double* __restrict out,
                              std::size_t n0, std::size_t steps, const double* p);

/// Active fused unit-weight kernel for the current tier.
BatchFusedFn batch_fused_kernel();

/// Deepest fused run the active tier supports (≤ kMaxFusedSteps).
std::size_t batch_fused_depth();

/// Active single-pmf kernel for the current tier.  DP drivers hoist this
/// out of their step loops so the per-step cost is one indirect call,
/// not a dispatch lookup per convolution.
ConvolveFn convolve_kernel();

/// Size both buffers for a pmf over [0, size) and start it at the point
/// mass on 0.
inline LiveWindow start_exact(ConvolveScratch& dp, std::size_t size) {
    dp.front.resize(size);
    dp.back.resize(size);
    dp.front[0] = 1.0;
    return {};
}

/// One exact DP step run on the live window only: `kern` maps
/// front[lo, hi) to back[lo, hi + w), the buffers swap, and exact zeros
/// are trimmed from both ends.  Bit-identical to the full-width step on
/// every tier: outside the window both terms are +0.0, so the full step
/// writes 0·q + 0·p = +0.0 there, and inside it the kernel's head and tail
/// regions equal the interior expression because x + (+0.0) = x for the
/// non-negative pmf.  Entries of `front` outside the window are stale
/// until `finish_exact`.
inline void convolve_exact_step(ConvolveFn kern, ConvolveScratch& dp, LiveWindow& win,
                                std::size_t w, double p) {
    kern(dp.front.data() + win.lo, dp.back.data() + win.lo, win.hi - win.lo, w, p);
    dp.front.swap(dp.back);
    win.hi += w;
    const double* pmf = dp.front.data();
    while (win.hi - win.lo > 1 && pmf[win.lo] == 0.0) ++win.lo;
    while (win.hi - win.lo > 1 && pmf[win.hi - 1] == 0.0) --win.hi;
    win.peak = std::max(win.peak, win.hi - win.lo);
}

/// End an exact DP: zero `dp.front` outside the live window so it holds
/// the full pmf, and record the peak window in the
/// `prob.exact_window_width` gauge.
void finish_exact(ConvolveScratch& dp, const LiveWindow& win);

}  // namespace detail

/// Runtime-dispatched two-point convolution step.  Same contract as
/// `detail::convolve_two_point_scalar`; bit-identical on every tier.
void convolve_two_point(const double* __restrict in, double* __restrict out,
                        std::size_t n, std::size_t w, double p);

/// Tier the dispatched kernels currently run at.  First use resolves the
/// tier once: LIQUIDD_SIMD if set and valid, otherwise the widest tier
/// the host supports.
support::SimdTier kernel_tier();

/// Pin the kernel tier (CLI `--simd`, tests).  Returns false — leaving
/// the active tier unchanged — when the host cannot execute `tier`.
bool set_kernel_tier(support::SimdTier tier);

}  // namespace ld::prob
