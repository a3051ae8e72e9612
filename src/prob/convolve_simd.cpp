// Runtime-dispatched SIMD specializations of the two-point convolution
// and the batched lockstep step (see prob/convolve.hpp for the contract,
// prob/batch_tally.hpp for the lane layout).
//
// Bit-identity across tiers is a hard invariant here: every kernel —
// scalar, AVX2, AVX-512, single-lane and batched — evaluates exactly
// `in[s]·q + in[s−w]·p` as two IEEE multiplies and one add in that
// order.  Vector mul/add round each lane exactly like their scalar
// counterparts, so lane width never changes results; the only thing a
// wider tier changes is speed.  To keep that promise this translation
// unit is compiled with -ffp-contract=off (src/CMakeLists.txt), which
// forbids the compiler from re-fusing the mul/add pairs into FMAs.
//
// Masked-lane arithmetic relies on one numerical fact: every pmf value
// is a finite non-negative double, so `x + 0.0` and `x * 1.0` are
// bit-exact identities and a masked-off term contributes exactly +0.0 —
// the same "term outside [0, n) is 0" rule the scalar region loops
// implement by not touching those terms at all.

#include "prob/convolve.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "support/cpu_features.hpp"
#include "support/metrics.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define LIQUIDD_SIMD_X86 1
#include <immintrin.h>
#else
#define LIQUIDD_SIMD_X86 0
#endif

namespace ld::prob {

namespace detail {

namespace {

void convolve_scalar_entry(const double* __restrict in, double* __restrict out,
                           std::size_t n, std::size_t w, double p) {
    convolve_two_point_scalar(in, out, n, w, p);
}

}  // namespace

void batch_step_scalar(const double* __restrict in, double* __restrict out,
                       std::size_t smax, const std::int64_t* n,
                       const std::int64_t* w, const double* p) {
    constexpr std::size_t K = kBatchLanes;
    for (std::size_t k = 0; k < K; ++k) {
        const auto nk = static_cast<std::size_t>(n[k]);
        const auto wk = static_cast<std::size_t>(w[k]);
        const double pk = p[k];
        if (wk == 0) {
            // Idle lane: identity copy of the live entries, zero beyond.
            for (std::size_t s = 0; s < nk && s < smax; ++s)
                out[s * K + k] = in[s * K + k];
            for (std::size_t s = nk; s < smax; ++s) out[s * K + k] = 0.0;
            continue;
        }
        // The scalar reference's region loops, at stride K, padded with
        // zeros up to smax (rows other lanes still need).
        const double qk = 1.0 - pk;
        const std::size_t head = std::min(wk, nk);
        for (std::size_t s = 0; s < head; ++s) out[s * K + k] = in[s * K + k] * qk;
        for (std::size_t s = head; s < wk; ++s) out[s * K + k] = 0.0;
        for (std::size_t s = wk; s < nk; ++s)
            out[s * K + k] = in[s * K + k] * qk + in[(s - wk) * K + k] * pk;
        for (std::size_t s = std::max(nk, wk); s < nk + wk; ++s)
            out[s * K + k] = in[(s - wk) * K + k] * pk;
        for (std::size_t s = nk + wk; s < smax; ++s) out[s * K + k] = 0.0;
    }
}

void batch_fused_scalar(const double* __restrict in, double* __restrict out,
                        std::size_t n0, std::size_t steps, const double* p) {
    constexpr std::size_t K = kBatchLanes;
    for (std::size_t k = 0; k < K; ++k) {
        // Carried registers: prev[f] holds level f's value at row s − 1.
        double prev[kMaxFusedSteps] = {};
        for (std::size_t s = 0; s < n0 + steps; ++s) {
            double v = s < n0 ? in[s * K + k] : 0.0;
            for (std::size_t f = 0; f < steps; ++f) {
                const double pf = p[f * K + k];
                const double nv = v * (1.0 - pf) + prev[f] * pf;
                prev[f] = v;
                v = nv;
            }
            out[s * K + k] = v;
        }
    }
}

#if LIQUIDD_SIMD_X86

// ---------------------------------------------------------------- AVX2

__attribute__((target("avx2")))
void convolve_avx2(const double* __restrict in, double* __restrict out,
                   std::size_t n, std::size_t w, double p) {
    const double q = 1.0 - p;
    const __m256d vq = _mm256_set1_pd(q);
    const __m256d vp = _mm256_set1_pd(p);
    const std::size_t head = std::min(w, n);
    std::size_t s = 0;
    for (; s + 4 <= head; s += 4)
        _mm256_storeu_pd(out + s, _mm256_mul_pd(_mm256_loadu_pd(in + s), vq));
    for (; s < head; ++s) out[s] = in[s] * q;
    for (s = head; s < w; ++s) out[s] = 0.0;
    s = w;
    for (; s + 4 <= n; s += 4) {
        const __m256d a = _mm256_mul_pd(_mm256_loadu_pd(in + s), vq);
        const __m256d b = _mm256_mul_pd(_mm256_loadu_pd(in + s - w), vp);
        _mm256_storeu_pd(out + s, _mm256_add_pd(a, b));
    }
    for (; s < n; ++s) out[s] = in[s] * q + in[s - w] * p;
    s = std::max(n, w);
    for (; s + 4 <= n + w; s += 4)
        _mm256_storeu_pd(out + s, _mm256_mul_pd(_mm256_loadu_pd(in + s - w), vp));
    for (; s < n + w; ++s) out[s] = in[s - w] * p;
}

/// One 4-lane half of a batched AVX2 row: lanes [k0, k0+4).
__attribute__((target("avx2"))) inline void batch_step_avx2_half(
    const double* __restrict in, double* __restrict out, std::size_t smax,
    const std::int64_t* n, const std::int64_t* w, const double* p, std::size_t k0) {
    constexpr std::size_t K = kBatchLanes;
    const __m256i vn = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(n + k0));
    const __m256i vw = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + k0));
    const __m256d vp = _mm256_loadu_pd(p + k0);
    const __m256d vq = _mm256_sub_pd(_mm256_set1_pd(1.0), vp);
    const __m256i vnw = _mm256_add_epi64(vn, vw);
    // Gather element offsets relative to the current row base `in + s*K`:
    // lane j reads element (s − w)·K + k0 + j, i.e. offset j − w·K.
    const __m256i viota = _mm256_set_epi64x(3, 2, 1, 0);
    const __m256i vidx = _mm256_sub_epi64(
        viota, _mm256_mul_epi32(vw, _mm256_set1_epi64x(static_cast<long long>(K))));
    const __m256d vzero = _mm256_setzero_pd();
    for (std::size_t s = 0; s < smax; ++s) {
        const __m256i vs = _mm256_set1_epi64x(static_cast<long long>(s));
        // mask_a: s < n; mask_b: w ≤ s < n + w (compare results are
        // all-ones / all-zero 64-bit lanes, usable as both AND masks and
        // gather masks).
        const __m256i ma = _mm256_cmpgt_epi64(vn, vs);
        const __m256i mb =
            _mm256_andnot_si256(_mm256_cmpgt_epi64(vw, vs), _mm256_cmpgt_epi64(vnw, vs));
        const double* row = in + s * K + k0;
        const __m256d vin =
            _mm256_and_pd(_mm256_loadu_pd(row), _mm256_castsi256_pd(ma));
        const __m256d a = _mm256_mul_pd(vin, vq);
        const __m256d g = _mm256_mask_i64gather_pd(vzero, row, vidx,
                                                   _mm256_castsi256_pd(mb), 8);
        const __m256d b = _mm256_mul_pd(g, vp);
        _mm256_storeu_pd(out + s * K + k0, _mm256_add_pd(a, b));
    }
}

/// Uniform-weight fast path: all lanes share w > 0, so the shifted
/// operand of lanes [k0, k0+4) is the contiguous row `in + (s−w)·K` —
/// no gather needed.
__attribute__((target("avx2"))) inline void batch_step_avx2_half_uniform(
    const double* __restrict in, double* __restrict out, std::size_t smax,
    const std::int64_t* n, std::size_t w, const double* p, std::size_t k0) {
    constexpr std::size_t K = kBatchLanes;
    const __m256i vn = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(n + k0));
    const __m256d vp = _mm256_loadu_pd(p + k0);
    const __m256d vq = _mm256_sub_pd(_mm256_set1_pd(1.0), vp);
    const __m256i vnw = _mm256_add_epi64(vn, _mm256_set1_epi64x(static_cast<long long>(w)));
    for (std::size_t s = 0; s < smax; ++s) {
        const __m256i vs = _mm256_set1_epi64x(static_cast<long long>(s));
        const __m256i ma = _mm256_cmpgt_epi64(vn, vs);
        const double* row = in + s * K + k0;
        const __m256d vin =
            _mm256_and_pd(_mm256_loadu_pd(row), _mm256_castsi256_pd(ma));
        __m256d sum = _mm256_mul_pd(vin, vq);
        if (s >= w) {
            const __m256i mb = _mm256_cmpgt_epi64(vnw, vs);
            const __m256d shifted = _mm256_and_pd(_mm256_loadu_pd(row - w * K),
                                                  _mm256_castsi256_pd(mb));
            sum = _mm256_add_pd(sum, _mm256_mul_pd(shifted, vp));
        }
        // s < w: the shifted term is identically +0.0; x + 0.0 is a
        // bit-exact identity on the non-negative pmf values, so skip it.
        _mm256_storeu_pd(out + s * K + k0, sum);
    }
}

/// Fully-uniform fast path: every lane shares the same width n0 and step
/// weight w0, so the four scalar region loops lift verbatim to whole
/// rows — no per-row masks or gathers at all.  This is the hot shape:
/// same-length lanes advancing in lockstep (and the driver mirrors
/// unstaged lanes onto lane 0 to keep partial batches on this path).
__attribute__((target("avx2"))) inline void batch_step_avx2_uniform_rows(
    const double* __restrict in, double* __restrict out, std::size_t smax,
    std::size_t n0, std::size_t w0, const double* p) {
    constexpr std::size_t K = kBatchLanes;
    const __m256d vp0 = _mm256_loadu_pd(p);
    const __m256d vp1 = _mm256_loadu_pd(p + 4);
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d vq0 = _mm256_sub_pd(one, vp0);
    const __m256d vq1 = _mm256_sub_pd(one, vp1);
    const __m256d vzero = _mm256_setzero_pd();
    const std::size_t head = std::min(w0, n0);
    std::size_t s = 0;
    for (; s < head; ++s) {
        const double* row = in + s * K;
        _mm256_storeu_pd(out + s * K, _mm256_mul_pd(_mm256_loadu_pd(row), vq0));
        _mm256_storeu_pd(out + s * K + 4,
                         _mm256_mul_pd(_mm256_loadu_pd(row + 4), vq1));
    }
    for (; s < w0; ++s) {
        _mm256_storeu_pd(out + s * K, vzero);
        _mm256_storeu_pd(out + s * K + 4, vzero);
    }
    for (s = w0; s < n0; ++s) {
        const double* row = in + s * K;
        const double* shifted = row - w0 * K;
        const __m256d a0 = _mm256_mul_pd(_mm256_loadu_pd(row), vq0);
        const __m256d b0 = _mm256_mul_pd(_mm256_loadu_pd(shifted), vp0);
        _mm256_storeu_pd(out + s * K, _mm256_add_pd(a0, b0));
        const __m256d a1 = _mm256_mul_pd(_mm256_loadu_pd(row + 4), vq1);
        const __m256d b1 = _mm256_mul_pd(_mm256_loadu_pd(shifted + 4), vp1);
        _mm256_storeu_pd(out + s * K + 4, _mm256_add_pd(a1, b1));
    }
    for (s = std::max(n0, w0); s < n0 + w0; ++s) {
        const double* shifted = in + (s - w0) * K;
        _mm256_storeu_pd(out + s * K, _mm256_mul_pd(_mm256_loadu_pd(shifted), vp0));
        _mm256_storeu_pd(out + s * K + 4,
                         _mm256_mul_pd(_mm256_loadu_pd(shifted + 4), vp1));
    }
    for (s = n0 + w0; s < smax; ++s) {
        _mm256_storeu_pd(out + s * K, vzero);
        _mm256_storeu_pd(out + s * K + 4, vzero);
    }
}

__attribute__((target("avx2")))
void batch_step_avx2(const double* __restrict in, double* __restrict out,
                     std::size_t smax, const std::int64_t* n,
                     const std::int64_t* w, const double* p) {
    bool uniform = w[0] > 0;
    bool same_n = true;
    for (std::size_t k = 1; k < kBatchLanes; ++k) {
        uniform = uniform && w[k] == w[0];
        same_n = same_n && n[k] == n[0];
    }
    if (uniform && same_n) {
        batch_step_avx2_uniform_rows(in, out, smax, static_cast<std::size_t>(n[0]),
                                     static_cast<std::size_t>(w[0]), p);
    } else if (uniform) {
        const auto w0 = static_cast<std::size_t>(w[0]);
        batch_step_avx2_half_uniform(in, out, smax, n, w0, p, 0);
        batch_step_avx2_half_uniform(in, out, smax, n, w0, p, 4);
    } else {
        batch_step_avx2_half(in, out, smax, n, w, p, 0);
        batch_step_avx2_half(in, out, smax, n, w, p, 4);
    }
}

/// One 4-lane half of a fused unit-weight run, F steps deep.  Carried
/// YMM registers hold each level's previous row; every row costs one
/// 32-byte load and store per F convolution steps.
template <std::size_t F>
__attribute__((target("avx2"))) inline void batch_fused_avx2_half(
    const double* __restrict in, double* __restrict out, std::size_t n0,
    const double* p, std::size_t k0) {
    constexpr std::size_t K = kBatchLanes;
    __m256d vp[F], vq[F], prev[F];
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d vzero = _mm256_setzero_pd();
    for (std::size_t f = 0; f < F; ++f) {
        vp[f] = _mm256_loadu_pd(p + f * K + k0);
        vq[f] = _mm256_sub_pd(one, vp[f]);
        prev[f] = vzero;
    }
    for (std::size_t s = 0; s < n0; ++s) {
        __m256d v = _mm256_loadu_pd(in + s * K + k0);
        for (std::size_t f = 0; f < F; ++f) {
            const __m256d nv =
                _mm256_add_pd(_mm256_mul_pd(v, vq[f]), _mm256_mul_pd(prev[f], vp[f]));
            prev[f] = v;
            v = nv;
        }
        _mm256_storeu_pd(out + s * K + k0, v);
    }
    // Epilogue rows [n0, n0 + F): level 0 is past its width, i.e. zero.
    for (std::size_t s = n0; s < n0 + F; ++s) {
        __m256d v = vzero;
        for (std::size_t f = 0; f < F; ++f) {
            const __m256d nv =
                _mm256_add_pd(_mm256_mul_pd(v, vq[f]), _mm256_mul_pd(prev[f], vp[f]));
            prev[f] = v;
            v = nv;
        }
        _mm256_storeu_pd(out + s * K + k0, v);
    }
}

__attribute__((target("avx2")))
void batch_fused_avx2(const double* __restrict in, double* __restrict out,
                      std::size_t n0, std::size_t steps, const double* p) {
    switch (steps) {
        case 1:
            batch_fused_avx2_half<1>(in, out, n0, p, 0);
            batch_fused_avx2_half<1>(in, out, n0, p, 4);
            break;
        case 2:
            batch_fused_avx2_half<2>(in, out, n0, p, 0);
            batch_fused_avx2_half<2>(in, out, n0, p, 4);
            break;
        case 3:
            batch_fused_avx2_half<3>(in, out, n0, p, 0);
            batch_fused_avx2_half<3>(in, out, n0, p, 4);
            break;
        default:
            batch_fused_avx2_half<4>(in, out, n0, p, 0);
            batch_fused_avx2_half<4>(in, out, n0, p, 4);
            break;
    }
}

// -------------------------------------------------------------- AVX-512

__attribute__((target("avx512f,avx512dq")))
void convolve_avx512(const double* __restrict in, double* __restrict out,
                     std::size_t n, std::size_t w, double p) {
    const double q = 1.0 - p;
    const __m512d vq = _mm512_set1_pd(q);
    const __m512d vp = _mm512_set1_pd(p);
    const std::size_t head = std::min(w, n);
    std::size_t s = 0;
    for (; s + 8 <= head; s += 8)
        _mm512_storeu_pd(out + s, _mm512_mul_pd(_mm512_loadu_pd(in + s), vq));
    for (; s < head; ++s) out[s] = in[s] * q;
    for (s = head; s < w; ++s) out[s] = 0.0;
    s = w;
    for (; s + 8 <= n; s += 8) {
        const __m512d a = _mm512_mul_pd(_mm512_loadu_pd(in + s), vq);
        const __m512d b = _mm512_mul_pd(_mm512_loadu_pd(in + s - w), vp);
        _mm512_storeu_pd(out + s, _mm512_add_pd(a, b));
    }
    for (; s < n; ++s) out[s] = in[s] * q + in[s - w] * p;
    s = std::max(n, w);
    for (; s + 8 <= n + w; s += 8)
        _mm512_storeu_pd(out + s, _mm512_mul_pd(_mm512_loadu_pd(in + s - w), vp));
    for (; s < n + w; ++s) out[s] = in[s - w] * p;
}

__attribute__((target("avx512f,avx512dq")))
void batch_step_avx512(const double* __restrict in, double* __restrict out,
                       std::size_t smax, const std::int64_t* n,
                       const std::int64_t* w, const double* p) {
    constexpr std::size_t K = kBatchLanes;
    static_assert(K == 8, "one ZMM register per interleaved row");
    const __m512i vn = _mm512_loadu_si512(n);
    const __m512i vw = _mm512_loadu_si512(w);
    const __m512d vp = _mm512_loadu_pd(p);
    const __m512d vq = _mm512_sub_pd(_mm512_set1_pd(1.0), vp);
    const __m512i vnw = _mm512_add_epi64(vn, vw);

    bool uniform = w[0] > 0;
    bool same_n = true;
    for (std::size_t k = 1; k < K; ++k) {
        uniform = uniform && w[k] == w[0];
        same_n = same_n && n[k] == n[0];
    }
    if (uniform && same_n) {
        // Fully-uniform fast path: the scalar region loops lifted to
        // whole rows — one ZMM per row, no masks (see the AVX2 variant
        // for the rationale).
        const auto n0 = static_cast<std::size_t>(n[0]);
        const auto w0 = static_cast<std::size_t>(w[0]);
        const __m512d vzero = _mm512_setzero_pd();
        const std::size_t head = std::min(w0, n0);
        std::size_t s = 0;
        for (; s < head; ++s)
            _mm512_storeu_pd(out + s * K,
                             _mm512_mul_pd(_mm512_loadu_pd(in + s * K), vq));
        for (; s < w0; ++s) _mm512_storeu_pd(out + s * K, vzero);
        for (s = w0; s < n0; ++s) {
            const double* row = in + s * K;
            const __m512d a = _mm512_mul_pd(_mm512_loadu_pd(row), vq);
            const __m512d b = _mm512_mul_pd(_mm512_loadu_pd(row - w0 * K), vp);
            _mm512_storeu_pd(out + s * K, _mm512_add_pd(a, b));
        }
        for (s = std::max(n0, w0); s < n0 + w0; ++s)
            _mm512_storeu_pd(out + s * K,
                             _mm512_mul_pd(_mm512_loadu_pd(in + (s - w0) * K), vp));
        for (s = n0 + w0; s < smax; ++s) _mm512_storeu_pd(out + s * K, vzero);
        return;
    }
    if (uniform) {
        const auto w0 = static_cast<std::size_t>(w[0]);
        for (std::size_t s = 0; s < smax; ++s) {
            const __m512i vs = _mm512_set1_epi64(static_cast<long long>(s));
            const __mmask8 ma = _mm512_cmplt_epi64_mask(vs, vn);
            const double* row = in + s * K;
            __m512d sum = _mm512_maskz_mul_pd(ma, _mm512_loadu_pd(row), vq);
            if (s >= w0) {
                const __mmask8 mb = _mm512_cmplt_epi64_mask(vs, vnw);
                sum = _mm512_add_pd(
                    sum, _mm512_maskz_mul_pd(mb, _mm512_loadu_pd(row - w0 * K), vp));
            }
            _mm512_storeu_pd(out + s * K, sum);
        }
        return;
    }

    // Mixed weights: masked gather of the shifted operand.  The element
    // offsets (relative to the row base) are constant across s: lane k
    // reads offset k − w[k]·K.  Masked-off lanes never touch memory, so
    // negative offsets on idle/short lanes are safe.
    const __m512i viota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    const __m512i vidx = _mm512_sub_epi64(
        viota, _mm512_mullo_epi64(vw, _mm512_set1_epi64(static_cast<long long>(K))));
    for (std::size_t s = 0; s < smax; ++s) {
        const __m512i vs = _mm512_set1_epi64(static_cast<long long>(s));
        const __mmask8 ma = _mm512_cmplt_epi64_mask(vs, vn);
        const __mmask8 mb = _mm512_cmplt_epi64_mask(vs, vnw) &
                            _mm512_cmple_epi64_mask(vw, vs);
        const double* row = in + s * K;
        const __m512d a = _mm512_maskz_mul_pd(ma, _mm512_loadu_pd(row), vq);
        const __m512d g =
            _mm512_mask_i64gather_pd(_mm512_setzero_pd(), mb, vidx, row, 8);
        const __m512d b = _mm512_maskz_mul_pd(mb, g, vp);
        _mm512_storeu_pd(out + s * K, _mm512_add_pd(a, b));
    }
}

/// Fused unit-weight run, F steps deep, one ZMM row per iteration.
template <std::size_t F>
__attribute__((target("avx512f,avx512dq"))) inline void batch_fused_avx512_impl(
    const double* __restrict in, double* __restrict out, std::size_t n0,
    const double* p) {
    constexpr std::size_t K = kBatchLanes;
    __m512d vp[F], vq[F], prev[F];
    const __m512d one = _mm512_set1_pd(1.0);
    const __m512d vzero = _mm512_setzero_pd();
    for (std::size_t f = 0; f < F; ++f) {
        vp[f] = _mm512_loadu_pd(p + f * K);
        vq[f] = _mm512_sub_pd(one, vp[f]);
        prev[f] = vzero;
    }
    for (std::size_t s = 0; s < n0; ++s) {
        __m512d v = _mm512_loadu_pd(in + s * K);
        for (std::size_t f = 0; f < F; ++f) {
            const __m512d nv =
                _mm512_add_pd(_mm512_mul_pd(v, vq[f]), _mm512_mul_pd(prev[f], vp[f]));
            prev[f] = v;
            v = nv;
        }
        _mm512_storeu_pd(out + s * K, v);
    }
    for (std::size_t s = n0; s < n0 + F; ++s) {
        __m512d v = vzero;
        for (std::size_t f = 0; f < F; ++f) {
            const __m512d nv =
                _mm512_add_pd(_mm512_mul_pd(v, vq[f]), _mm512_mul_pd(prev[f], vp[f]));
            prev[f] = v;
            v = nv;
        }
        _mm512_storeu_pd(out + s * K, v);
    }
}

__attribute__((target("avx512f,avx512dq")))
void batch_fused_avx512(const double* __restrict in, double* __restrict out,
                        std::size_t n0, std::size_t steps, const double* p) {
    // F = 8 needs 3·8 + 4 ZMM registers — fits the 32-register file.
    switch (steps) {
        case 1: batch_fused_avx512_impl<1>(in, out, n0, p); break;
        case 2: batch_fused_avx512_impl<2>(in, out, n0, p); break;
        case 3: batch_fused_avx512_impl<3>(in, out, n0, p); break;
        case 4: batch_fused_avx512_impl<4>(in, out, n0, p); break;
        case 5: batch_fused_avx512_impl<5>(in, out, n0, p); break;
        case 6: batch_fused_avx512_impl<6>(in, out, n0, p); break;
        case 7: batch_fused_avx512_impl<7>(in, out, n0, p); break;
        default: batch_fused_avx512_impl<8>(in, out, n0, p); break;
    }
}

#endif  // LIQUIDD_SIMD_X86

// ------------------------------------------------------------- dispatch

namespace {

struct KernelTable {
    support::SimdTier tier;
    ConvolveFn convolve;
    BatchStepFn batch_step;
    BatchFusedFn batch_fused;
    std::size_t fused_depth;  ///< deepest fused run (register-file bound)
};

constexpr KernelTable kScalarTable{support::SimdTier::kScalar,
                                   &convolve_scalar_entry, &batch_step_scalar,
                                   &batch_fused_scalar, kMaxFusedSteps};
#if LIQUIDD_SIMD_X86
// AVX2 fuses shallower: F = 8 would need 24 carried YMM registers per
// 4-lane half against a 16-register file.
constexpr KernelTable kAvx2Table{support::SimdTier::kAvx2, &convolve_avx2,
                                 &batch_step_avx2, &batch_fused_avx2, 4};
constexpr KernelTable kAvx512Table{support::SimdTier::kAvx512, &convolve_avx512,
                                   &batch_step_avx512, &batch_fused_avx512,
                                   kMaxFusedSteps};
#endif

const KernelTable* table_for(support::SimdTier tier) {
#if LIQUIDD_SIMD_X86
    if (tier == support::SimdTier::kAvx512) return &kAvx512Table;
    if (tier == support::SimdTier::kAvx2) return &kAvx2Table;
#endif
    (void)tier;
    return &kScalarTable;
}

std::atomic<const KernelTable*> g_table{nullptr};

void publish(const KernelTable* table) {
    support::MetricsRegistry::global()
        .gauge("tally.kernel")
        .set(static_cast<std::int64_t>(table->tier));
    g_table.store(table, std::memory_order_release);
}

/// First-use resolution: LIQUIDD_SIMD if set and runnable, else the
/// widest supported tier.  An unknown or unsupported env value warns
/// once and falls back to auto-detection (the CLI flag, by contrast,
/// errors out — see cli/runner.cpp).
const KernelTable* resolve() {
    support::SimdTier tier = support::best_simd_tier();
    if (const char* env = std::getenv("LIQUIDD_SIMD"); env != nullptr) {
        const auto parsed = support::parse_simd_tier(env);
        if (!parsed.has_value()) {
            std::fprintf(stderr,
                         "liquidd: ignoring unknown LIQUIDD_SIMD=%s "
                         "(expected auto|scalar|avx2|avx512)\n",
                         env);
        } else if (!support::simd_tier_supported(*parsed)) {
            std::fprintf(stderr,
                         "liquidd: LIQUIDD_SIMD=%s not supported on this host; "
                         "using %s\n",
                         env, support::simd_tier_name(tier));
        } else {
            tier = *parsed;
        }
    }
    return table_for(tier);
}

const KernelTable& active_table() {
    const KernelTable* table = g_table.load(std::memory_order_acquire);
    if (table != nullptr) return *table;
    static std::once_flag once;
    std::call_once(once, [] { publish(resolve()); });
    return *g_table.load(std::memory_order_acquire);
}

}  // namespace

BatchStepFn batch_step_kernel() { return active_table().batch_step; }

BatchFusedFn batch_fused_kernel() { return active_table().batch_fused; }

std::size_t batch_fused_depth() { return active_table().fused_depth; }

ConvolveFn convolve_kernel() { return active_table().convolve; }

void finish_exact(ConvolveScratch& dp, const LiveWindow& win) {
    double* pmf = dp.front.data();
    std::fill(pmf, pmf + win.lo, 0.0);
    std::fill(pmf + win.hi, pmf + dp.front.size(), 0.0);
    // Static-local cache: one registry lookup, then a relaxed store per DP.
    static support::Gauge& window_gauge =
        support::MetricsRegistry::global().gauge("prob.exact_window_width");
    window_gauge.set(static_cast<std::int64_t>(win.peak));
}

}  // namespace detail

void convolve_two_point(const double* __restrict in, double* __restrict out,
                        std::size_t n, std::size_t w, double p) {
    detail::active_table().convolve(in, out, n, w, p);
}

support::SimdTier kernel_tier() { return detail::active_table().tier; }

bool set_kernel_tier(support::SimdTier tier) {
    if (!support::simd_tier_supported(tier)) return false;
    detail::publish(detail::table_for(tier));
    return true;
}

}  // namespace ld::prob
