// Internal: the portable scalar kernels, exported individually so the
// vector backends can reuse them for loop tails (count % lane-width).
// These are the reference semantics every vector kernel must match
// bit-for-bit; the fuzz suite (tests/simd) enforces that.
#pragma once

#include <cstdint>

#include "simd/kernels.h"

namespace cham {
namespace simd {
namespace scalar {

// Element-level Shoup product, exported inline so the vector backends'
// hand-written loop tails (constant-geometry stages) share the exact
// reference semantics. Valid for any 64-bit x (q < 2^63).
inline u64 shoup_mul(u64 x, u64 op, u64 quo, u64 q) {
  const u64 hi = static_cast<u64>(
      (static_cast<unsigned __int128>(x) * quo) >> 64);
  const u64 r = x * op - hi * q;
  return r >= q ? r - q : r;
}

// Lazy variant: result in [0, 2q).
inline u64 shoup_mul_lazy(u64 x, u64 op, u64 quo, u64 q) {
  const u64 hi = static_cast<u64>(
      (static_cast<unsigned __int128>(x) * quo) >> 64);
  return x * op - hi * q;
}

// Exact reduction of an unreduced 128-bit dot-product sum, and the
// element step of the scalar dot2 kernel. The vector backends share the
// constants and run their loop tails through at(), so every lane count
// has one reference.
struct DotReducer {
  explicit DotReducer(u64 modulus)
      : q(modulus),
        barrett(~u64{0} / q),  // = floor(2^64/q): odd q does not divide 2^64
        r64((0 - q) % q),      // 2^64 mod q
        r64_quo(static_cast<u64>(
            (static_cast<unsigned __int128>(r64) << 64) / q)),
        fold(fold_terms(q)) {}

  // v mod q for any 128-bit v: hi·(2^64 mod q) by Shoup (valid for any
  // 64-bit hi) plus a Barrett-reduced lo, one correction.
  u64 reduce(unsigned __int128 v) const {
    const u64 hi = shoup_mul(static_cast<u64>(v >> 64), r64, r64_quo, q);
    u64 lo = static_cast<u64>(v);
    lo -= static_cast<u64>(
              (static_cast<unsigned __int128>(lo) * barrett) >> 64) * q;
    if (lo >= q) lo -= q;
    if (lo >= q) lo -= q;
    const u64 s = hi + lo;
    return s >= q ? s - q : s;
  }

  // One output pair of dot2 at coefficient i.
  void at(const u64* const* xb, const u64* const* xa, const u64* const* w,
          std::size_t k, std::size_t i, u64* out_b, u64* out_a) const {
    unsigned __int128 sb = 0, sa = 0;
    for (std::size_t j0 = 0; j0 < k; j0 += fold) {
      if (j0 > 0) {
        sb = reduce(sb);
        sa = reduce(sa);
      }
      const std::size_t j1 = k - j0 < fold ? k : j0 + fold;
      for (std::size_t j = j0; j < j1; ++j) {
        const u64 wj = w[j][i];
        sb += static_cast<unsigned __int128>(xb[j][i]) * wj;
        sa += static_cast<unsigned __int128>(xa[j][i]) * wj;
      }
    }
    out_b[i] = reduce(sb);
    out_a[i] = reduce(sa);
  }

  // Products of operands < q a sum below q can absorb before 2^128:
  // the largest m with (q-1) + m·(q-1)^2 < 2^128 (at least 15 for
  // q < 2^62; astronomically many for the paper's ~2^38 moduli).
  static std::size_t fold_terms(u64 q) {
    const unsigned __int128 sq =
        static_cast<unsigned __int128>(q - 1) * (q - 1);
    const unsigned __int128 m = (~static_cast<unsigned __int128>(0) - q) / sq;
    return m > static_cast<unsigned __int128>(SIZE_MAX)
               ? SIZE_MAX
               : static_cast<std::size_t>(m);
  }

  const u64 q, barrett, r64, r64_quo;
  const std::size_t fold;  // terms between folds
};

void add(const u64* a, const u64* b, u64* out, std::size_t n, u64 q);
void sub(const u64* a, const u64* b, u64* out, std::size_t n, u64 q);
void negate(const u64* a, u64* out, std::size_t n, u64 q);
void mul_shoup(const u64* x, const u64* w_op, const u64* w_quo, u64* out,
               std::size_t n, u64 q);
void mul_shoup_acc(const u64* x, const u64* w_op, const u64* w_quo,
                   u64* out, std::size_t n, u64 q);
void mul_scalar_shoup(const u64* x, u64 op, u64 quo, u64* out,
                      std::size_t n, u64 q);
void mul_scalar_shoup_acc(const u64* x, u64 op, u64 quo, u64* out,
                          std::size_t n, u64 q);
void dot2(const u64* const* xb, const u64* const* xa, const u64* const* w,
          std::size_t k, u64* out_b, u64* out_a, std::size_t n, u64 q);
void ntt_fwd_bfly(u64* x, u64* y, std::size_t count, u64 w_op, u64 w_quo,
                  u64 q);
void ntt_fwd_dit4(u64* x0, u64* x1, u64* x2, u64* x3, std::size_t count,
                  u64 wa_op, u64 wa_quo, u64 wb0_op, u64 wb0_quo,
                  u64 wb1_op, u64 wb1_quo, u64 q);
void ntt_inv_bfly(u64* x, u64* y, std::size_t count, u64 w_op, u64 w_quo,
                  u64 q);
void ntt_inv_last(u64* x, u64* y, std::size_t count, u64 ninv_op,
                  u64 ninv_quo, u64 nw_op, u64 nw_quo, u64 q);
void ntt_fwd_tail(u64* a, std::size_t n, const u64* wa_op,
                  const u64* wa_quo, const u64* wb_op, const u64* wb_quo,
                  u64 q);
void ntt_inv_tail(u64* a, std::size_t n, const u64* w1_op,
                  const u64* w1_quo, const u64* w2_op, const u64* w2_quo,
                  u64 q);
void cg_fwd_stage(const u64* src, u64* dst, std::size_t half,
                  const u64* w_op, const u64* w_quo, std::size_t mask,
                  u64 q);
void cg_inv_stage(const u64* src, u64* dst, std::size_t half,
                  const u64* w_op, const u64* w_quo, std::size_t mask,
                  u64 q);
void permute(const u64* a, const u64* src_idx, const u64* flip, u64* out,
             std::size_t n, u64 q);
void neg_rev(const u64* a, u64* out, std::size_t n, u64 q);
void rescale_round(const u64* xl, const u64* xp, u64* out, std::size_t n,
                   u64 pv, u64 q, u64 q_barrett, u64 pinv_op, u64 pinv_quo);
void barrett_reduce(const u64* x, u64* out, std::size_t n, u64 q,
                    u64 q_barrett);

}  // namespace scalar

// Scalar reference bundle for the width-generic vector bodies
// (kernels_vec.inl): each traits type names the reference whose limb
// semantics match its vector arithmetic, and the shared loop tails call
// through it so tails stay bit-exact with the vector body. The 64-bit
// backends (AVX2/AVX-512) use this one; the IFMA backend uses
// ScalarRef52 (kernels_scalar52.h).
struct ScalarRef64 {
  static inline u64 shoup_mul(u64 x, u64 op, u64 quo, u64 q) {
    return scalar::shoup_mul(x, op, quo, q);
  }
  static constexpr auto mul_shoup = scalar::mul_shoup;
  static constexpr auto mul_shoup_acc = scalar::mul_shoup_acc;
  static constexpr auto mul_scalar_shoup = scalar::mul_scalar_shoup;
  static constexpr auto mul_scalar_shoup_acc = scalar::mul_scalar_shoup_acc;
  static constexpr auto ntt_fwd_bfly = scalar::ntt_fwd_bfly;
  static constexpr auto ntt_fwd_dit4 = scalar::ntt_fwd_dit4;
  static constexpr auto ntt_inv_bfly = scalar::ntt_inv_bfly;
  static constexpr auto ntt_inv_last = scalar::ntt_inv_last;
  static constexpr auto ntt_fwd_tail = scalar::ntt_fwd_tail;
  static constexpr auto ntt_inv_tail = scalar::ntt_inv_tail;
  static constexpr auto rescale_round = scalar::rescale_round;
};

}  // namespace simd
}  // namespace cham
