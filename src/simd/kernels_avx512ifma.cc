// AVX-512-IFMA backend: 8 u64 lanes, 52-bit limbs. vpmadd52luq /
// vpmadd52huq give a single-instruction 52x52-bit multiply-add, and the
// backend runs one of two limb disciplines per call depending on q:
//
//   * q < kIfmaQBound — single-word: operands fit one 52-bit limb, the
//     Shoup product drops the four-instruction emulated 64-bit mulhi for
//     one madd52hi (quotient estimate) plus two madd52lo (low products).
//     The Ifma traits inherit everything structural from the shared
//     Avx512 body and override only the limb-width seam: prep_quo shifts
//     the loaded 64-bit Shoup quotients right by 12 (the identity
//     floor(quo64 / 2^12) = floor(w·2^52 / q) means no separate tables),
//     shoup_lazy runs on the 52-bit window, and loop tails route through
//     ScalarRef52.
//
//   * q >= kIfmaQBound — double-word: each operand is two 52-bit limbs
//     (x = lo52(x) + (x >> 52)·2^52) and the EXACT 64-bit mulhi is
//     recomposed from six vpmadd52 half products (see
//     kernels_scalar104.h for the identity and the carry-freeness
//     proof). The Ifma104 traits override only mulhi/shoup_lazy on top
//     of Avx512, so the shared VecKernels bodies — including the
//     template rescale_round and barrett_reduce, which call V::mulhi
//     directly — pick up the cheaper recomposition automatically. Loop
//     tails route through ScalarRef104 (bit-identical to the 64-bit
//     scalar reference, so the level keeps the dispatch table's exact
//     output contract at every q < 2^62).
//
// Before this double-word path existed the wide-q gates delegated to a
// VecKernels<Avx512> instantiation in this TU; nothing delegates now,
// but every wide-q call is still counted (simd.ifma.delegated — the
// name predates the dw path and now means "left the single-word path")
// so datapath selection stays observable in CHAM-METRICS.
#include "simd/tables.h"

#ifdef CHAM_SIMD_AVX512IFMA

#include <immintrin.h>

#include <algorithm>

#include "obs/metrics.h"
#include "simd/kernels_scalar.h"
#include "simd/kernels_scalar104.h"
#include "simd/kernels_scalar52.h"

namespace cham {
namespace simd {

namespace {

#include "simd/traits_avx512.inl"

struct Ifma : Avx512 {
  using ScalarRef = ScalarRef52;

  // quo52 = floor(w·2^52 / q) derived in-register from the 64-bit table.
  static inline reg prep_quo(reg quo) { return _mm512_srli_epi64(quo, 12); }

  // x·w mod q in [0, 2q) on 52-bit limbs: hi = floor(x·quo52 / 2^52),
  // r = (x·w - hi·q) mod 2^52. Requires x < 2^52 and q < 2^50 (so
  // r < 2q < 2^51 survives the mod-2^52 subtraction intact). The
  // madd52 operands are hardware-masked to 52 bits.
  static inline reg shoup_lazy(reg x, reg op, reg quo52, reg q) {
    const reg zero = _mm512_setzero_si512();
    const reg hi = _mm512_madd52hi_epu64(zero, x, quo52);
    const reg r = _mm512_sub_epi64(_mm512_madd52lo_epu64(zero, x, op),
                                   _mm512_madd52lo_epu64(zero, hi, q));
    return _mm512_and_si512(r, set1((1ULL << 52) - 1));
  }
};

// Double-word traits for q >= kIfmaQBound: exact 64-bit arithmetic with
// the mulhi recomposed from 52-bit half products. Everything else —
// mullo (vpmullq), csub, the lane shuffles — is the plain Avx512
// discipline, so overriding mulhi alone upgrades every VecKernels body.
struct Ifma104 : Avx512 {
  // Exactness makes the scalar-tail choice free: the 64-bit scalar
  // reference computes the very same values as the limb recomposition
  // (kernels_scalar104 proves the identity), and its one u128 multiply
  // is ~6x cheaper than the recomposed scalar mulhi — the NTT's
  // small-count stages (t = 4 runs the whole sweep through the tails)
  // would otherwise be double-word-scalar bound.
  using ScalarRef = ScalarRef64;

  // Exact high 64 bits of a*b. With a = a0 + a1·2^52 (a1 = a>>52 <
  // 2^12), b likewise:
  //   t = hi52(a0b0) + lo52(a1b0) + lo52(a0b1)        (< 2^54)
  //   c = a1·b1 + hi52(a1b0) + hi52(a0b1)             (< 2^25)
  //   mulhi64(a,b) = (c << 40) + (t >> 12)            exactly.
  // The madd52 operands are hardware-masked to their low 52 bits, so
  // only the two >>52 shifts exposing the high limbs are explicit.
  // Six madd52 + four shift/adds vs the sixteen-op 32x32 recomposition
  // in the Avx512 base — see kernels_scalar104.h for the proof that no
  // carry is dropped. (Splitting the 3-deep madd52 accumulation chains
  // into 2-deep pairs joined by adds was measured slower: the butterfly
  // sweeps are throughput-bound on the FMA ports, so the two extra uops
  // cost more than the shorter critical path saves.)
  static inline reg mulhi(reg a, reg b) {
    const reg zero = _mm512_setzero_si512();
    const reg a1 = _mm512_srli_epi64(a, 52);
    const reg b1 = _mm512_srli_epi64(b, 52);
    reg t = _mm512_madd52hi_epu64(zero, a, b);
    t = _mm512_madd52lo_epu64(t, a1, b);
    t = _mm512_madd52lo_epu64(t, a, b1);
    reg c = _mm512_madd52lo_epu64(zero, a1, b1);
    c = _mm512_madd52hi_epu64(c, a1, b);
    c = _mm512_madd52hi_epu64(c, a, b1);
    return _mm512_add_epi64(_mm512_slli_epi64(c, 40), _mm512_srli_epi64(t, 12));
  }

  // The standard 64-bit Harvey lazy product on the recomposed mulhi —
  // bit-identical to the Avx512/scalar path in every intermediate
  // (the quotient estimate is exact, not approximate).
  static inline reg shoup_lazy(reg x, reg op, reg quo, reg q) {
    return sub(mullo(x, op), mullo(mulhi(x, quo), q));
  }
};

}  // namespace

}  // namespace simd
}  // namespace cham

#include "simd/kernels_vec.inl"

namespace cham {
namespace simd {

namespace {

using K52 = VecKernels<Ifma>;
using K104 = VecKernels<Ifma104>;

// Per-call datapath gate: single-word when 4q fits the IFMA operand
// window, double-word otherwise. Wide-q traffic is counted so the
// metrics dump shows how much work left the single-word path — but in
// thread-local batches: one NTT makes hundreds of small-count kernel
// calls, and a lock-prefixed add per call (~20 cycles) is measurable
// against the butterflies themselves. The registry counter therefore
// lags by up to kFlush-1 calls per thread; it reports traffic volume,
// not an exact call count.
inline bool use52(u64 q) {
  if (ifma_eligible(q)) return true;
  constexpr u64 kFlush = 64;
  thread_local u64 pending = 0;
  if (++pending >= kFlush) {
    static obs::Counter& delegated =
        obs::MetricsRegistry::global().counter("simd.ifma.delegated");
    delegated.add(pending);
    pending = 0;
  }
  return false;
}

void mul_shoup(const u64* x, const u64* w_op, const u64* w_quo, u64* out,
               std::size_t n, u64 q) {
  (use52(q) ? K52::mul_shoup : K104::mul_shoup)(x, w_op, w_quo, out, n, q);
}

// Dedicated double-word MAC: folding the lazy product (< 2q) straight
// into the reduced accumulator and correcting the sum from [0, 3q) with
// two conditional subtractions saves the separate full reduction of the
// product that the template body (shoup full + add + csub) pays. Final
// values are identical — both are fully reduced.
void dw_mul_shoup_acc(const u64* x, const u64* w_op, const u64* w_quo,
                      u64* out, std::size_t n, u64 q) {
  using V = Ifma104;
  // csub(a, m) = a >= m ? a - m : a (the wrapped difference is huge, so
  // umin picks the unwrapped value) — same helper VecKernels uses.
  const auto csub = [](V::reg a, V::reg m) { return V::umin(a, V::sub(a, m)); };
  const V::reg vq = V::set1(q);
  const V::reg v2q = V::set1(q << 1);
  std::size_t i = 0;
  for (; i + 2 * V::W <= n; i += 2 * V::W) {
    const V::reg r0 = V::shoup_lazy(V::load(x + i), V::load(w_op + i),
                                    V::load(w_quo + i), vq);
    const V::reg r1 =
        V::shoup_lazy(V::load(x + i + V::W), V::load(w_op + i + V::W),
                      V::load(w_quo + i + V::W), vq);
    V::reg s0 = V::add(V::load(out + i), r0);
    V::reg s1 = V::add(V::load(out + i + V::W), r1);
    s0 = csub(s0, v2q);
    s1 = csub(s1, v2q);
    V::store(out + i, csub(s0, vq));
    V::store(out + i + V::W, csub(s1, vq));
  }
  for (; i + V::W <= n; i += V::W) {
    const V::reg r = V::shoup_lazy(V::load(x + i), V::load(w_op + i),
                                   V::load(w_quo + i), vq);
    V::reg s = V::add(V::load(out + i), r);
    s = csub(s, v2q);
    V::store(out + i, csub(s, vq));
  }
  if (i < n) {
    ScalarRef64::mul_shoup_acc(x + i, w_op + i, w_quo + i, out + i, n - i,
                               q);
  }
}

void mul_shoup_acc(const u64* x, const u64* w_op, const u64* w_quo,
                   u64* out, std::size_t n, u64 q) {
  (use52(q) ? K52::mul_shoup_acc : dw_mul_shoup_acc)(x, w_op, w_quo, out, n,
                                                     q);
}

// Same two-csub accumulation for the fixed-scalar MAC (digit lifting's
// inner product runs on this shape).
void dw_mul_scalar_shoup_acc(const u64* x, u64 op, u64 quo, u64* out,
                             std::size_t n, u64 q) {
  using V = Ifma104;
  const auto csub = [](V::reg a, V::reg m) { return V::umin(a, V::sub(a, m)); };
  const V::reg vq = V::set1(q);
  const V::reg v2q = V::set1(q << 1);
  const V::reg vop = V::set1(op);
  const V::reg vquo = V::set1(quo);
  std::size_t i = 0;
  for (; i + 2 * V::W <= n; i += 2 * V::W) {
    const V::reg r0 = V::shoup_lazy(V::load(x + i), vop, vquo, vq);
    const V::reg r1 = V::shoup_lazy(V::load(x + i + V::W), vop, vquo, vq);
    V::reg s0 = V::add(V::load(out + i), r0);
    V::reg s1 = V::add(V::load(out + i + V::W), r1);
    s0 = csub(s0, v2q);
    s1 = csub(s1, v2q);
    V::store(out + i, csub(s0, vq));
    V::store(out + i + V::W, csub(s1, vq));
  }
  for (; i + V::W <= n; i += V::W) {
    const V::reg r = V::shoup_lazy(V::load(x + i), vop, vquo, vq);
    V::reg s = V::add(V::load(out + i), r);
    s = csub(s, v2q);
    V::store(out + i, csub(s, vq));
  }
  if (i < n) {
    ScalarRef64::mul_scalar_shoup_acc(x + i, op, quo, out + i, n - i, q);
  }
}

// Lazy (b, a) dot product on the single-word path. x·w < q^2 < 2^100
// splits into madd52lo (< 2^52) and madd52hi (< 2^48) halves that add
// into two 64-bit lanes per output with no quotient: the low lane takes
// kDotFold52 products on top of a value < 2^52 before it could wrap, so
// the sum H·2^52 + L is folded (reduced below q) at that cadence and
// once at the end. The reduction splits H + (L >> 52) = H1·2^52 + H0
// and sums three 52-bit lazy Shoup products,
//   L mod 2^52 · 1 + H0 · (2^52 mod q) + H1 · (2^104 mod q),
// each in [0, 2q) (every multiplicand < 2^52), then corrects [0, 6q)
// to [0, q).
constexpr std::size_t kDotFold52 = 4095;

void dot2_52(const u64* const* xb, const u64* const* xa, const u64* const* w,
             std::size_t k, u64* out_b, u64* out_a, std::size_t n, u64 q) {
  using V = Ifma;
  using K = K52;
  using u128 = unsigned __int128;
  // Broadcast 52-bit Shoup pair (c mod q, floor((c mod q)·2^52 / q)).
  struct Pair52 {
    V::reg op, quo;
  };
  const auto pair52 = [q](u128 c) {
    const u64 w = static_cast<u64>(c % q);
    return Pair52{V::set1(w), V::set1(static_cast<u64>((u128{w} << 52) / q))};
  };
  const Pair52 one = pair52(1);
  const Pair52 c52 = pair52(u128{1} << 52);
  const Pair52 c104 = pair52(u128{1} << 104);
  const V::reg vq = V::set1(q);
  const V::reg v2q = V::set1(q << 1);
  const V::reg v4q = V::set1(q << 2);
  const V::reg mask = V::set1((1ULL << 52) - 1);
  const auto reduce = [&](V::reg hi, V::reg lo) {
    hi = V::add(hi, _mm512_srli_epi64(lo, 52));
    V::reg s = V::shoup_lazy(V::band(lo, mask), one.op, one.quo, vq);
    s = V::add(s, V::shoup_lazy(V::band(hi, mask), c52.op, c52.quo, vq));
    s = V::add(s, V::shoup_lazy(_mm512_srli_epi64(hi, 52), c104.op,
                                c104.quo, vq));
    return K::csub(K::csub(K::csub(s, v4q), v2q), vq);
  };
  const V::reg zero = V::set1(0);
  std::size_t i = 0;
  for (; i + V::W <= n; i += V::W) {
    V::reg bl = zero, bh = zero, al = zero, ah = zero;
    for (std::size_t j0 = 0; j0 < k; j0 += kDotFold52) {
      if (j0 > 0) {
        bl = reduce(bh, bl);
        al = reduce(ah, al);
        bh = ah = zero;
      }
      const std::size_t j1 = std::min(k, j0 + kDotFold52);
      for (std::size_t j = j0; j < j1; ++j) {
        const V::reg wj = V::load(w[j] + i);
        const V::reg b = V::load(xb[j] + i);
        const V::reg a = V::load(xa[j] + i);
        bl = _mm512_madd52lo_epu64(bl, b, wj);
        bh = _mm512_madd52hi_epu64(bh, b, wj);
        al = _mm512_madd52lo_epu64(al, a, wj);
        ah = _mm512_madd52hi_epu64(ah, a, wj);
      }
    }
    V::store(out_b + i, reduce(bh, bl));
    V::store(out_a + i, reduce(ah, al));
  }
  if (i < n) {
    const scalar::DotReducer red(q);
    for (; i < n; ++i) red.at(xb, xa, w, k, i, out_b, out_a);
  }
}

void dot2(const u64* const* xb, const u64* const* xa, const u64* const* w,
          std::size_t k, u64* out_b, u64* out_a, std::size_t n, u64 q) {
  (use52(q) ? dot2_52 : K104::dot2)(xb, xa, w, k, out_b, out_a, n, q);
}

void mul_scalar_shoup(const u64* x, u64 op, u64 quo, u64* out,
                      std::size_t n, u64 q) {
  (use52(q) ? K52::mul_scalar_shoup : K104::mul_scalar_shoup)(x, op, quo,
                                                              out, n, q);
}

void mul_scalar_shoup_acc(const u64* x, u64 op, u64 quo, u64* out,
                          std::size_t n, u64 q) {
  (use52(q) ? K52::mul_scalar_shoup_acc : dw_mul_scalar_shoup_acc)(
      x, op, quo, out, n, q);
}

void ntt_fwd_bfly(u64* x, u64* y, std::size_t count, u64 w_op, u64 w_quo,
                  u64 q) {
  (use52(q) ? K52::ntt_fwd_bfly : K104::ntt_fwd_bfly)(x, y, count, w_op,
                                                      w_quo, q);
}

void ntt_fwd_dit4(u64* x0, u64* x1, u64* x2, u64* x3, std::size_t count,
                  u64 wa_op, u64 wa_quo, u64 wb0_op, u64 wb0_quo,
                  u64 wb1_op, u64 wb1_quo, u64 q) {
  (use52(q) ? K52::ntt_fwd_dit4 : K104::ntt_fwd_dit4)(
      x0, x1, x2, x3, count, wa_op, wa_quo, wb0_op, wb0_quo, wb1_op,
      wb1_quo, q);
}

void ntt_inv_bfly(u64* x, u64* y, std::size_t count, u64 w_op, u64 w_quo,
                  u64 q) {
  (use52(q) ? K52::ntt_inv_bfly : K104::ntt_inv_bfly)(x, y, count, w_op,
                                                      w_quo, q);
}

void ntt_inv_last(u64* x, u64* y, std::size_t count, u64 ninv_op,
                  u64 ninv_quo, u64 nw_op, u64 nw_quo, u64 q) {
  (use52(q) ? K52::ntt_inv_last : K104::ntt_inv_last)(
      x, y, count, ninv_op, ninv_quo, nw_op, nw_quo, q);
}

void ntt_fwd_tail(u64* a, std::size_t n, const u64* wa_op,
                  const u64* wa_quo, const u64* wb_op, const u64* wb_quo,
                  u64 q) {
  (use52(q) ? K52::ntt_fwd_tail : K104::ntt_fwd_tail)(a, n, wa_op, wa_quo,
                                                      wb_op, wb_quo, q);
}

void ntt_inv_tail(u64* a, std::size_t n, const u64* w1_op,
                  const u64* w1_quo, const u64* w2_op, const u64* w2_quo,
                  u64 q) {
  (use52(q) ? K52::ntt_inv_tail : K104::ntt_inv_tail)(a, n, w1_op, w1_quo,
                                                      w2_op, w2_quo, q);
}

void cg_fwd_stage(const u64* src, u64* dst, std::size_t half,
                  const u64* w_op, const u64* w_quo, std::size_t mask,
                  u64 q) {
  (use52(q) ? K52::cg_fwd_stage : K104::cg_fwd_stage)(src, dst, half, w_op,
                                                      w_quo, mask, q);
}

void cg_inv_stage(const u64* src, u64* dst, std::size_t half,
                  const u64* w_op, const u64* w_quo, std::size_t mask,
                  u64 q) {
  (use52(q) ? K52::cg_inv_stage : K104::cg_inv_stage)(src, dst, half, w_op,
                                                      w_quo, mask, q);
}

void rescale_round(const u64* xl, const u64* xp, u64* out, std::size_t n,
                   u64 pv, u64 q, u64 q_barrett, u64 pinv_op,
                   u64 pinv_quo) {
  (use52(q) ? K52::rescale_round : K104::rescale_round)(
      xl, xp, out, n, pv, q, q_barrett, pinv_op, pinv_quo);
}

}  // namespace

const Kernels* avx512ifma_table() {
  static const Kernels table = {
      K104::add,
      K104::sub,
      K104::negate,
      mul_shoup,
      mul_shoup_acc,
      mul_scalar_shoup,
      mul_scalar_shoup_acc,
      dot2,
      ntt_fwd_bfly,
      ntt_fwd_dit4,
      ntt_inv_bfly,
      ntt_inv_last,
      ntt_fwd_tail,
      ntt_inv_tail,
      cg_fwd_stage,
      cg_inv_stage,
      K104::permute,
      K104::neg_rev,
      rescale_round,
      // Exact at any q — the Barrett step runs on the recomposed 64-bit
      // mulhi, which is both exact and cheaper than the 32x32 emulation,
      // so no q gate is needed.
      K104::barrett_reduce,
  };
  return &table;
}

}  // namespace simd
}  // namespace cham

#else  // !CHAM_SIMD_AVX512IFMA

namespace cham {
namespace simd {

const Kernels* avx512ifma_table() { return nullptr; }

}  // namespace simd
}  // namespace cham

#endif
