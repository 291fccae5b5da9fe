// Differential fuzz of the vector kernel backends against the portable
// scalar table: every kernel, every compiled-and-runnable level, the
// paper's three moduli plus a 61-bit prime that stresses the AVX2
// sign-bias compares (and the IFMA q-gate), and span lengths chosen to
// exercise both the vector body and the scalar tail (lengths not
// divisible by any lane width). Also checks the Harvey lazy-reduction
// range invariants the NTT sweeps rely on, and that full transforms are
// bit-identical across tables.
//
// Oracle selection: kernels whose outputs are fully reduced produce the
// canonical representative and must be bit-exact with the 64-bit scalar
// table at EVERY level. Kernels that return Harvey-lazy values are
// bit-exact with the reference sharing their limb semantics — the
// 64-bit scalar table for scalar/avx2/avx512, the 52-bit scalar52 table
// for avx512ifma below the q-gate (whose quotient estimate can differ by
// one, shifting lazy representatives by q) — and additionally must agree
// with the 64-bit scalar table modulo q.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "nt/cg_ntt.h"
#include "nt/modulus.h"
#include "nt/ntt.h"
#include "nt/prime.h"
#include "obs/metrics.h"
#include "ring/poly_ops.h"
#include "simd/kernels.h"
#include "simd/kernels_scalar52.h"

namespace cham {
namespace {

using simd::Kernels;
using simd::Level;

// Paper working moduli (Table II) + a 61-bit prime: values with the top
// bit of the 62-bit budget set catch backends that compare or reduce
// with signed arithmetic, and sit above kIfmaQBound so they exercise the
// IFMA table's 64-bit delegation path.
constexpr u64 kQ0 = (1ULL << 34) + (1ULL << 27) + 1;
constexpr u64 kQ1 = (1ULL << 34) + (1ULL << 19) + 1;
constexpr u64 kP = (1ULL << 38) + (1ULL << 23) + 1;
constexpr u64 kQbig = 2305843009213693951ULL;  // 2^61 - 1 (Mersenne)

const u64 kModuli[] = {kQ0, kQ1, kP, kQbig};

// 1 and W-1/W/W+1 neighbours for both lane widths, plus lengths with a
// nonzero tail for every width, plus a pow2 transform size.
const std::size_t kLengths[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 30, 256, 1001};

// Tail-kernel spans: multiples of 4 (the radix-4 block size), straddling
// the 4- and 8-lane widths and leaving every possible vector-loop tail.
const std::size_t kQuadLengths[] = {4, 8, 12, 16, 20, 36, 64, 100, 256};

std::vector<Level> compiled_levels() {
  std::vector<Level> levels;
  for (Level l : {Level::kScalar, Level::kAvx2, Level::kAvx512,
                  Level::kAvx512Ifma}) {
    if (simd::table_for(l) != nullptr) levels.push_back(l);
  }
  return levels;
}

u64 shoup_quotient(u64 w, u64 q) {
  return static_cast<u64>((static_cast<u128>(w) << 64) / q);
}

std::vector<u64> random_below(Rng& rng, std::size_t n, u64 bound) {
  std::vector<u64> v(n);
  for (auto& x : v) x = rng.uniform(bound);
  return v;
}

class KernelsFuzzTest : public ::testing::TestWithParam<Level> {
 protected:
  const Kernels& k() const { return *simd::table_for(GetParam()); }
  const Kernels& ref() const { return *simd::table_for(Level::kScalar); }

  // True when the level under test runs 52-bit limbs for this modulus.
  bool ifma52(u64 q) const {
    return GetParam() == Level::kAvx512Ifma && q < simd::kIfmaQBound;
  }
  // Reference with the same limb semantics as the level under test:
  // lazy (not fully reduced) outputs are bit-exact only against this.
  const Kernels& lazy_ref(u64 q) const {
    return ifma52(q) ? *simd::scalar52_table() : ref();
  }
  // Largest admissible Shoup multiplicand: the 52-bit product window
  // narrows the "any 64-bit x" contract at the IFMA level.
  u64 max_x(u64 q) const {
    return ifma52(q) ? (1ULL << 52) - 1 : ~u64{0};
  }

  // got must equal want64 modulo q (lazy representatives may differ by a
  // multiple of q across limb widths).
  static void ExpectCongruent(const std::vector<u64>& got,
                              const std::vector<u64>& want64, u64 q,
                              const char* what) {
    ASSERT_EQ(got.size(), want64.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      ASSERT_EQ(got[j] % q, want64[j] % q)
          << what << " diverged mod q at j=" << j << " q=" << q;
    }
  }
};

TEST_P(KernelsFuzzTest, ElementwiseOpsMatchScalar) {
  Rng rng(0x51D0001);
  for (u64 q : kModuli) {
    for (std::size_t n : kLengths) {
      const auto a = random_below(rng, n, q);
      const auto b = random_below(rng, n, q);
      std::vector<u64> got(n), want(n);

      k().add(a.data(), b.data(), got.data(), n, q);
      ref().add(a.data(), b.data(), want.data(), n, q);
      EXPECT_EQ(got, want) << "add n=" << n << " q=" << q;

      k().sub(a.data(), b.data(), got.data(), n, q);
      ref().sub(a.data(), b.data(), want.data(), n, q);
      EXPECT_EQ(got, want) << "sub n=" << n << " q=" << q;

      k().negate(a.data(), got.data(), n, q);
      ref().negate(a.data(), want.data(), n, q);
      EXPECT_EQ(got, want) << "negate n=" << n << " q=" << q;
    }
  }
}

TEST_P(KernelsFuzzTest, ShoupProductsMatchScalar) {
  Rng rng(0x51D0002);
  for (u64 q : kModuli) {
    for (std::size_t n : kLengths) {
      // The Shoup product contract covers ANY x up to the level's domain
      // bound (full 64-bit range, or 2^52 on the IFMA 52-bit path), not
      // just x < q: feed extreme values on top of reduced ones. Outputs
      // are fully reduced, so every level must match the canonical
      // scalar table bit-for-bit.
      auto x = random_below(rng, n, q);
      for (std::size_t i = 0; i < n; i += 3) x[i] = rng.next_u64() & max_x(q);
      if (n > 1) x[n - 1] = max_x(q);
      const auto w = random_below(rng, n, q);
      std::vector<u64> quo(n);
      for (std::size_t i = 0; i < n; ++i) quo[i] = shoup_quotient(w[i], q);
      const auto acc0 = random_below(rng, n, q);

      std::vector<u64> got(n), want(n);
      k().mul_shoup(x.data(), w.data(), quo.data(), got.data(), n, q);
      ref().mul_shoup(x.data(), w.data(), quo.data(), want.data(), n, q);
      EXPECT_EQ(got, want) << "mul_shoup n=" << n << " q=" << q;

      got = acc0;
      want = acc0;
      k().mul_shoup_acc(x.data(), w.data(), quo.data(), got.data(), n, q);
      ref().mul_shoup_acc(x.data(), w.data(), quo.data(), want.data(), n, q);
      EXPECT_EQ(got, want) << "mul_shoup_acc n=" << n << " q=" << q;

      const u64 c = rng.uniform(q);
      const u64 cq = shoup_quotient(c, q);
      k().mul_scalar_shoup(x.data(), c, cq, got.data(), n, q);
      ref().mul_scalar_shoup(x.data(), c, cq, want.data(), n, q);
      EXPECT_EQ(got, want) << "mul_scalar_shoup n=" << n << " q=" << q;

      got = acc0;
      want = acc0;
      k().mul_scalar_shoup_acc(x.data(), c, cq, got.data(), n, q);
      ref().mul_scalar_shoup_acc(x.data(), c, cq, want.data(), n, q);
      EXPECT_EQ(got, want) << "mul_scalar_shoup_acc n=" << n << " q=" << q;
    }
  }
}

// The lazy (b, a) dot product against the scalar table and a u128
// oracle (Σ of exact per-term residues). Term counts straddle the fold
// cadences: the IFMA single-word kernel folds its 64-bit low lanes every
// 4095 products, the u128 kernels every 15 products at q ~ 2^62.
// Lengths leave a tail past every lane width. The "heavy" operands push
// the accumulators a kernel folds toward overflow: every operand q - 1
// (the largest 128-bit sum), or below 2^50 products whose low 52 bits
// are >= 15/16 · 2^52, so 5000 unfolded terms would wrap the IFMA low
// lane.
TEST_P(KernelsFuzzTest, Dot2MatchesScalarAndU128Oracle) {
  Rng rng(0x51D000F);
  u64 q62 = (1ULL << 62) - 1;
  while (!is_prime(q62)) q62 -= 2;
  constexpr u64 kQ61 = (1ULL << 61) - 1;  // 2^61 - 1 (Mersenne)
  constexpr u64 kLow52 = (1ULL << 52) - 1;
  for (u64 q : {kQ0, kQ1, kP, kQ61, q62}) {
    for (std::size_t k_terms : {1, 2, 16, 33, 5000}) {
      for (std::size_t n : {std::size_t{1}, std::size_t{13}, std::size_t{37}}) {
        for (bool heavy : {false, true}) {
          std::vector<std::vector<u64>> xb(k_terms, std::vector<u64>(n)),
              xa = xb, w = xb;
          std::vector<const u64*> pb, pa, pw;
          for (std::size_t j = 0; j < k_terms; ++j) {
            for (std::size_t i = 0; i < n; ++i) {
              // Heavy w >= q/2: every x·w spans many 2^52 wraps, so a
              // large low half is one draw in ~16.
              w[j][i] = !heavy                   ? rng.uniform(q)
                        : q >= simd::kIfmaQBound ? q - 1
                                                 : q / 2 + rng.uniform(q / 2);
              for (u64* x : {&xb[j][i], &xa[j][i]}) {
                if (!heavy) {
                  *x = rng.uniform(q);
                } else if (q >= simd::kIfmaQBound) {
                  *x = q - 1;
                } else {
                  do {
                    *x = rng.uniform(q);
                  } while ((*x * w[j][i] & kLow52) < kLow52 / 16 * 15);
                }
              }
            }
            pb.push_back(xb[j].data());
            pa.push_back(xa[j].data());
            pw.push_back(w[j].data());
          }
          std::vector<u64> want_b(n, 0), want_a(n, 0);
          for (std::size_t j = 0; j < k_terms; ++j) {
            for (std::size_t i = 0; i < n; ++i) {
              want_b[i] = static_cast<u64>(
                  (want_b[i] + static_cast<u128>(xb[j][i]) * w[j][i] % q) % q);
              want_a[i] = static_cast<u64>(
                  (want_a[i] + static_cast<u128>(xa[j][i]) * w[j][i] % q) % q);
            }
          }
          std::vector<u64> got_b(n), got_a(n), ref_b(n), ref_a(n);
          k().dot2(pb.data(), pa.data(), pw.data(), k_terms, got_b.data(),
                   got_a.data(), n, q);
          ref().dot2(pb.data(), pa.data(), pw.data(), k_terms, ref_b.data(),
                     ref_a.data(), n, q);
          EXPECT_EQ(got_b, want_b) << "dot2 b q=" << q << " k=" << k_terms
                                   << " n=" << n << " heavy=" << heavy;
          EXPECT_EQ(got_a, want_a) << "dot2 a q=" << q << " k=" << k_terms
                                   << " n=" << n << " heavy=" << heavy;
          EXPECT_EQ(got_b, ref_b) << "dot2 b vs scalar q=" << q;
          EXPECT_EQ(got_a, ref_a) << "dot2 a vs scalar q=" << q;
        }
      }
    }
  }
}

TEST_P(KernelsFuzzTest, BarrettReduceMatchesScalarForAnyInput) {
  Rng rng(0x51D000E);
  // Every tail length from 1 to 17 (past both lane widths and the 2x
  // unroll) on top of the standard lengths: the digit-lift spans in
  // key-switching are powers of two, but the kernel contract is any n.
  std::vector<std::size_t> lengths(std::begin(kLengths),
                                   std::end(kLengths));
  for (std::size_t n = 1; n <= 17; ++n) lengths.push_back(n);
  for (u64 q : kModuli) {
    const u64 q_barrett =
        static_cast<u64>((static_cast<u128>(1) << 64) / q);
    for (std::size_t n : lengths) {
      // The contract covers ANY 64-bit x at every level (the reduction
      // always runs on the 64-bit mulhi, even on the 52-bit IFMA table):
      // feed the full range plus the boundary cases.
      std::vector<u64> x(n);
      for (auto& v : x) v = rng.next_u64();
      if (n >= 1) x[0] = ~u64{0};
      if (n >= 2) x[1] = 0;
      if (n >= 3) x[2] = q;
      if (n >= 4) x[3] = q - 1;
      if (n >= 5) x[4] = 2 * q - 1;
      std::vector<u64> got(n), want(n);
      k().barrett_reduce(x.data(), got.data(), n, q, q_barrett);
      ref().barrett_reduce(x.data(), want.data(), n, q, q_barrett);
      EXPECT_EQ(got, want) << "barrett_reduce n=" << n << " q=" << q;
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_LT(got[j], q) << "must fully reduce, j=" << j;
        ASSERT_EQ(got[j], x[j] % q) << "wrong residue at j=" << j;
      }
    }
  }
}

TEST_P(KernelsFuzzTest, ForwardButterfliesMatchScalarAndStayLazy) {
  Rng rng(0x51D0003);
  for (u64 q : kModuli) {
    const u64 four_q = q << 2;
    for (std::size_t n : kLengths) {
      const u64 w = rng.uniform(q);
      const u64 wq = shoup_quotient(w, q);
      auto x = random_below(rng, n, four_q);
      auto y = random_below(rng, n, four_q);
      auto xs = x, ys = y;
      auto x64 = x, y64 = y;
      k().ntt_fwd_bfly(x.data(), y.data(), n, w, wq, q);
      lazy_ref(q).ntt_fwd_bfly(xs.data(), ys.data(), n, w, wq, q);
      EXPECT_EQ(x, xs) << "ntt_fwd_bfly x n=" << n << " q=" << q;
      EXPECT_EQ(y, ys) << "ntt_fwd_bfly y n=" << n << " q=" << q;
      if (ifma52(q)) {
        ref().ntt_fwd_bfly(x64.data(), y64.data(), n, w, wq, q);
        ExpectCongruent(x, x64, q, "ntt_fwd_bfly x");
        ExpectCongruent(y, y64, q, "ntt_fwd_bfly y");
      }
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_LT(x[j], four_q) << "forward butterfly left [0, 4q)";
        ASSERT_LT(y[j], four_q) << "forward butterfly left [0, 4q)";
      }

      const u64 wb0 = rng.uniform(q), wb1 = rng.uniform(q);
      auto x0 = random_below(rng, n, four_q);
      auto x1 = random_below(rng, n, four_q);
      auto x2 = random_below(rng, n, four_q);
      auto x3 = random_below(rng, n, four_q);
      auto s0 = x0, s1 = x1, s2 = x2, s3 = x3;
      k().ntt_fwd_dit4(x0.data(), x1.data(), x2.data(), x3.data(), n, w, wq,
                       wb0, shoup_quotient(wb0, q), wb1,
                       shoup_quotient(wb1, q), q);
      lazy_ref(q).ntt_fwd_dit4(s0.data(), s1.data(), s2.data(), s3.data(),
                               n, w, wq, wb0, shoup_quotient(wb0, q), wb1,
                               shoup_quotient(wb1, q), q);
      EXPECT_EQ(x0, s0) << "ntt_fwd_dit4 n=" << n << " q=" << q;
      EXPECT_EQ(x1, s1);
      EXPECT_EQ(x2, s2);
      EXPECT_EQ(x3, s3);
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_LT(x0[j], four_q);
        ASSERT_LT(x1[j], four_q);
        ASSERT_LT(x2[j], four_q);
        ASSERT_LT(x3[j], four_q);
      }

      // Contiguous quarter-blocks (x1 = x0 + n, ...), the layout
      // NttTables uses in its fused passes: at n == W/2 this takes the
      // in-register half-width path instead of the scalar tail.
      auto blk = random_below(rng, 4 * n, four_q);
      auto blk_s = blk;
      k().ntt_fwd_dit4(blk.data(), blk.data() + n, blk.data() + 2 * n,
                       blk.data() + 3 * n, n, w, wq, wb0,
                       shoup_quotient(wb0, q), wb1, shoup_quotient(wb1, q),
                       q);
      lazy_ref(q).ntt_fwd_dit4(blk_s.data(), blk_s.data() + n,
                               blk_s.data() + 2 * n, blk_s.data() + 3 * n,
                               n, w, wq, wb0, shoup_quotient(wb0, q), wb1,
                               shoup_quotient(wb1, q), q);
      EXPECT_EQ(blk, blk_s)
          << "ntt_fwd_dit4 contiguous n=" << n << " q=" << q;
      for (std::size_t j = 0; j < 4 * n; ++j) {
        ASSERT_LT(blk[j], four_q);
      }
    }
  }
}

TEST_P(KernelsFuzzTest, InverseButterfliesMatchScalarAndStayLazy) {
  Rng rng(0x51D0004);
  for (u64 q : kModuli) {
    const u64 two_q = q << 1;
    for (std::size_t n : kLengths) {
      const u64 w = rng.uniform(q);
      const u64 wq = shoup_quotient(w, q);
      auto x = random_below(rng, n, two_q);
      auto y = random_below(rng, n, two_q);
      auto xs = x, ys = y;
      auto x64 = x, y64 = y;
      k().ntt_inv_bfly(x.data(), y.data(), n, w, wq, q);
      lazy_ref(q).ntt_inv_bfly(xs.data(), ys.data(), n, w, wq, q);
      EXPECT_EQ(x, xs) << "ntt_inv_bfly x n=" << n << " q=" << q;
      EXPECT_EQ(y, ys) << "ntt_inv_bfly y n=" << n << " q=" << q;
      if (ifma52(q)) {
        ref().ntt_inv_bfly(x64.data(), y64.data(), n, w, wq, q);
        ExpectCongruent(x, x64, q, "ntt_inv_bfly x");
        ExpectCongruent(y, y64, q, "ntt_inv_bfly y");
      }
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_LT(x[j], two_q) << "inverse butterfly left [0, 2q)";
        ASSERT_LT(y[j], two_q) << "inverse butterfly left [0, 2q)";
      }

      // Contiguous pair (y = x + n), the layout of the first inverse
      // stage after the fused tail: at n == W/2 this takes the
      // in-register half-width path instead of the scalar tail.
      auto blk = random_below(rng, 2 * n, two_q);
      auto blk_s = blk;
      k().ntt_inv_bfly(blk.data(), blk.data() + n, n, w, wq, q);
      lazy_ref(q).ntt_inv_bfly(blk_s.data(), blk_s.data() + n, n, w, wq, q);
      EXPECT_EQ(blk, blk_s)
          << "ntt_inv_bfly contiguous n=" << n << " q=" << q;
      for (std::size_t j = 0; j < 2 * n; ++j) {
        ASSERT_LT(blk[j], two_q);
      }

      const u64 ninv = rng.uniform(q), nw = rng.uniform(q);
      x = random_below(rng, n, two_q);
      y = random_below(rng, n, two_q);
      xs = x;
      ys = y;
      k().ntt_inv_last(x.data(), y.data(), n, ninv, shoup_quotient(ninv, q),
                       nw, shoup_quotient(nw, q), q);
      ref().ntt_inv_last(xs.data(), ys.data(), n, ninv,
                         shoup_quotient(ninv, q), nw, shoup_quotient(nw, q),
                         q);
      EXPECT_EQ(x, xs) << "ntt_inv_last x n=" << n << " q=" << q;
      EXPECT_EQ(y, ys) << "ntt_inv_last y n=" << n << " q=" << q;
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_LT(x[j], q) << "fused last stage must fully reduce";
        ASSERT_LT(y[j], q) << "fused last stage must fully reduce";
      }
    }
  }
}

TEST_P(KernelsFuzzTest, NttFwdTailMatchesScalarAndFullyReduces) {
  Rng rng(0x51D000A);
  for (u64 q : kModuli) {
    const u64 four_q = q << 2;
    for (std::size_t n : kQuadLengths) {
      const auto wa = random_below(rng, n / 4, q);
      const auto wb = random_below(rng, n / 2, q);
      std::vector<u64> wa_quo(n / 4), wb_quo(n / 2);
      for (std::size_t i = 0; i < n / 4; ++i)
        wa_quo[i] = shoup_quotient(wa[i], q);
      for (std::size_t i = 0; i < n / 2; ++i)
        wb_quo[i] = shoup_quotient(wb[i], q);
      auto a = random_below(rng, n, four_q);
      auto want = a;
      k().ntt_fwd_tail(a.data(), n, wa.data(), wa_quo.data(), wb.data(),
                       wb_quo.data(), q);
      // Outputs are fully reduced (canonical), so every level — 52-bit
      // limbs included — must match the 64-bit scalar table exactly.
      ref().ntt_fwd_tail(want.data(), n, wa.data(), wa_quo.data(), wb.data(),
                         wb_quo.data(), q);
      EXPECT_EQ(a, want) << "ntt_fwd_tail n=" << n << " q=" << q;
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_LT(a[j], q) << "tail pass must fully reduce";
      }
    }
  }
}

TEST_P(KernelsFuzzTest, NttInvTailMatchesScalarAndStaysLazy) {
  Rng rng(0x51D000B);
  for (u64 q : kModuli) {
    const u64 two_q = q << 1;
    for (std::size_t n : kQuadLengths) {
      const auto w1 = random_below(rng, n / 2, q);
      const auto w2 = random_below(rng, n / 4, q);
      std::vector<u64> w1_quo(n / 2), w2_quo(n / 4);
      for (std::size_t i = 0; i < n / 2; ++i)
        w1_quo[i] = shoup_quotient(w1[i], q);
      for (std::size_t i = 0; i < n / 4; ++i)
        w2_quo[i] = shoup_quotient(w2[i], q);
      auto a = random_below(rng, n, two_q);
      auto want = a;
      auto want64 = a;
      k().ntt_inv_tail(a.data(), n, w1.data(), w1_quo.data(), w2.data(),
                       w2_quo.data(), q);
      lazy_ref(q).ntt_inv_tail(want.data(), n, w1.data(), w1_quo.data(),
                               w2.data(), w2_quo.data(), q);
      EXPECT_EQ(a, want) << "ntt_inv_tail n=" << n << " q=" << q;
      if (ifma52(q)) {
        ref().ntt_inv_tail(want64.data(), n, w1.data(), w1_quo.data(),
                           w2.data(), w2_quo.data(), q);
        ExpectCongruent(a, want64, q, "ntt_inv_tail");
      }
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_LT(a[j], two_q) << "inverse tail left [0, 2q)";
      }
    }
  }
}

TEST_P(KernelsFuzzTest, ConstantGeometryStagesMatchScalar) {
  Rng rng(0x51D0005);
  for (u64 q : kModuli) {
    // Every twiddle period from 1 to half: periods below the lane width
    // take the broadcast-pattern path, larger ones the contiguous loads.
    for (std::size_t half : {1u, 2u, 4u, 8u, 16u, 128u}) {
      for (std::size_t period = 1; period <= half; period <<= 1) {
        const std::size_t mask = period - 1;
        const auto w = random_below(rng, period, q);
        std::vector<u64> quo(period);
        for (std::size_t i = 0; i < period; ++i)
          quo[i] = shoup_quotient(w[i], q);
        const auto src = random_below(rng, 2 * half, q);
        std::vector<u64> got(2 * half), want(2 * half);

        k().cg_fwd_stage(src.data(), got.data(), half, w.data(), quo.data(),
                         mask, q);
        ref().cg_fwd_stage(src.data(), want.data(), half, w.data(),
                           quo.data(), mask, q);
        EXPECT_EQ(got, want)
            << "cg_fwd_stage half=" << half << " period=" << period;

        k().cg_inv_stage(src.data(), got.data(), half, w.data(), quo.data(),
                         mask, q);
        ref().cg_inv_stage(src.data(), want.data(), half, w.data(),
                           quo.data(), mask, q);
        EXPECT_EQ(got, want)
            << "cg_inv_stage half=" << half << " period=" << period;
      }
    }
  }
}

TEST_P(KernelsFuzzTest, PermuteAndNegRevMatchScalar) {
  Rng rng(0x51D0006);
  for (u64 q : kModuli) {
    for (std::size_t n : kLengths) {
      auto a = random_below(rng, n, q);
      // Sprinkle zeros: negation of 0 must stay 0, not become q.
      for (std::size_t i = 0; i < n; i += 5) a[i] = 0;
      std::vector<u64> idx(n), flip(n);
      for (std::size_t i = 0; i < n; ++i) {
        idx[i] = rng.uniform(static_cast<u64>(n));
        flip[i] = rng.uniform(2) ? ~u64{0} : 0;
      }
      std::vector<u64> got(n), want(n);
      k().permute(a.data(), idx.data(), flip.data(), got.data(), n, q);
      ref().permute(a.data(), idx.data(), flip.data(), want.data(), n, q);
      EXPECT_EQ(got, want) << "permute n=" << n << " q=" << q;

      k().neg_rev(a.data(), got.data(), n, q);
      ref().neg_rev(a.data(), want.data(), n, q);
      EXPECT_EQ(got, want) << "neg_rev n=" << n << " q=" << q;
    }
  }
}

TEST_P(KernelsFuzzTest, RescaleRoundMatchesScalar) {
  Rng rng(0x51D0007);
  // Dropped modulus p above and below the limb modulus, matching both
  // BFV modulus switching directions.
  for (u64 q : {kQ0, kQ1, kQbig}) {
    const u64 pv = kP;
    const u64 q_barrett =
        static_cast<u64>((static_cast<u128>(1) << 64) / q);
    const u64 pinv = rng.uniform(q);
    const u64 pinv_quo = shoup_quotient(pinv, q);
    for (std::size_t n : kLengths) {
      const auto xl = random_below(rng, n, q);
      auto xp = random_below(rng, n, pv);
      // Force boundary residues: 0, p/2 (round-down edge), p-1.
      if (n >= 3) {
        xp[0] = 0;
        xp[1] = pv >> 1;
        xp[2] = pv - 1;
      }
      std::vector<u64> got(n), want(n);
      k().rescale_round(xl.data(), xp.data(), got.data(), n, pv, q,
                        q_barrett, pinv, pinv_quo);
      ref().rescale_round(xl.data(), xp.data(), want.data(), n, pv, q,
                          q_barrett, pinv, pinv_quo);
      EXPECT_EQ(got, want) << "rescale_round n=" << n << " q=" << q;
    }
  }
}

TEST_P(KernelsFuzzTest, FullTransformsBitExactWithScalarTable) {
  Rng rng(0x51D0008);
  for (u64 qv : {kQ0, kQ1, kP}) {
    const Modulus q(qv);
    for (std::size_t n : {8u, 64u, 256u}) {
      const NttTables tables(n, q);
      auto a = random_below(rng, n, qv);
      auto b = a;
      tables.forward_with(k(), a.data());
      tables.forward_with(ref(), b.data());
      EXPECT_EQ(a, b) << "forward NTT diverged n=" << n << " q=" << qv;
      tables.inverse_with(k(), a.data());
      tables.inverse_with(ref(), b.data());
      EXPECT_EQ(a, b) << "inverse NTT diverged n=" << n << " q=" << qv;

      const CgNtt cg(n, q);
      auto c = random_below(rng, n, qv);
      auto d = c;
      const auto orig = c;
      cg.forward_with(k(), c);
      cg.forward_with(ref(), d);
      EXPECT_EQ(c, d) << "CG forward diverged n=" << n << " q=" << qv;
      cg.inverse_with(k(), c);
      cg.inverse_with(ref(), d);
      EXPECT_EQ(c, d) << "CG inverse diverged n=" << n << " q=" << qv;
      EXPECT_EQ(c, orig) << "CG round trip failed n=" << n << " q=" << qv;
    }
  }
}

TEST_P(KernelsFuzzTest, AutomorphTableMatchesModularIndexForm) {
  Rng rng(0x51D0009);
  const Modulus q(kQ0);
  for (std::size_t n : {8u, 256u}) {
    for (u64 kk = 1; kk < 2 * n; kk += 2 * n / 4 + 1) {
      if (kk % 2 == 0) continue;
      const AutomorphTable table = make_automorph_table(n, kk);
      const auto a = random_below(rng, n, q.value());
      std::vector<u64> want(n), got(n);
      poly_automorph(a.data(), want.data(), n, kk, q);
      k().permute(a.data(), table.src_idx.data(), table.flip.data(),
                  got.data(), n, q.value());
      EXPECT_EQ(got, want) << "automorph table n=" << n << " k=" << kk;
    }
  }
}

// ShiftNeg as two contiguous segments (copy + negate kernel) against the
// per-coefficient wrap-count formula, for every shift s in [0, 2N).
TEST_P(KernelsFuzzTest, ShiftNegMatchesPerCoefficientFormula) {
  Rng rng(0x51D000A);
  const std::size_t n = 64;
  for (u64 qv : kModuli) {
    const Modulus q(qv);
    auto a = random_below(rng, n, qv);
    a[3] = 0;  // -0 must stay 0
    a[n - 1] = 0;
    std::vector<u64> got(n), want(n);
    for (std::size_t s = 0; s < 2 * n; ++s) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = i + s;
        want[j % n] = (j / n) % 2 == 0 ? a[i] : q.negate(a[i]);
      }
      poly_shiftneg(a.data(), got.data(), n, s, q, k());
      ASSERT_EQ(got, want) << "shiftneg s=" << s << " q=" << qv;
    }
  }
}

// Exact Shoup quotients without the 128-bit division, bit for bit
// against floor(w·2^64/q): random operands at every span length plus the
// edges w = 0, 1, q/2, q-1, for moduli from ~2^30 to 2^61-1.
TEST_P(KernelsFuzzTest, ShoupQuotientsMatchU128Division) {
  Rng rng(0x51D000B);
  constexpr u64 kQ30 = (1ULL << 30) - 35;  // largest prime below 2^30
  ASSERT_TRUE(is_prime(kQ30));
  for (u64 qv : {kQ30, kQ0, kQ1, kP, kQbig}) {
    const Modulus q(qv);
    for (std::size_t n : kLengths) {
      auto w = random_below(rng, n, qv);
      const u64 edges[] = {0, 1, qv / 2, qv - 1};
      for (std::size_t i = 0; i < n && i < 4; ++i) w[i] = edges[i];
      std::vector<u64> got(n), want(n);
      for (std::size_t i = 0; i < n; ++i) want[i] = shoup_quotient(w[i], qv);
      poly_shoup_quotients(w.data(), got.data(), n, q, k());
      EXPECT_EQ(got, want) << "shoup quotients n=" << n << " q=" << qv;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Levels, KernelsFuzzTest, ::testing::ValuesIn(compiled_levels()),
    [](const ::testing::TestParamInfo<Level>& info) {
      return simd::level_name(info.param);
    });

// The 52-bit scalar reference itself must satisfy the lazy-range
// invariants the IFMA vector kernels inherit from it: for q < 2^50 and
// x < 2^52, the lazy product lands in [0, 2q) (hence < 2^51, safely
// inside the mod-2^52 window) and always agrees with the true product
// modulo q — even though its quotient estimate can differ from the
// 64-bit one.
TEST(Scalar52Test, LazyShoupStaysInRangeAndCongruent) {
  Rng rng(0x51D000C);
  for (u64 q : {kQ0, kQ1, kP, u64{(1ULL << 50) - 27}}) {
    ASSERT_LT(q, simd::kIfmaQBound);
    for (int iter = 0; iter < 2000; ++iter) {
      const u64 w = rng.uniform(q);
      const u64 quo = shoup_quotient(w, q);
      // Cover the whole admissible domain, including the extremes.
      u64 x = rng.next_u64() & ((1ULL << 52) - 1);
      if (iter == 0) x = (1ULL << 52) - 1;
      if (iter == 1) x = 0;
      const u64 r = simd::scalar52::shoup_mul_lazy(x, w, quo, q);
      ASSERT_LT(r, 2 * q) << "lazy range x=" << x << " w=" << w;
      ASSERT_LT(r, 1ULL << 52) << "must fit the 52-bit window";
      const u64 true_mod =
          static_cast<u64>(static_cast<u128>(x) * w % q);
      ASSERT_EQ(r % q, true_mod) << "congruence x=" << x << " w=" << w;
      // The corrected product is canonical, so it must equal the 64-bit
      // reference exactly.
      ASSERT_EQ(simd::scalar52::shoup_mul(x, w, quo, q),
                simd::scalar::shoup_mul(x, w, quo, q));
    }
  }
}

// quo52 = quo64 >> 12 must be exactly floor(w·2^52/q) — the identity the
// in-register quotient prep relies on.
TEST(Scalar52Test, QuotientShiftIdentity) {
  Rng rng(0x51D000D);
  for (u64 q : {kQ0, kQ1, kP}) {
    for (int iter = 0; iter < 1000; ++iter) {
      const u64 w = rng.uniform(q);
      const u64 quo64 = shoup_quotient(w, q);
      const u64 quo52 =
          static_cast<u64>((static_cast<u128>(w) << 52) / q);
      ASSERT_EQ(quo64 >> 12, quo52) << "w=" << w << " q=" << q;
    }
  }
}

TEST(SimdDispatchTest, ScalarTableAlwaysAvailable) {
  ASSERT_NE(simd::table_for(Level::kScalar), nullptr);
  EXPECT_TRUE(simd::cpu_supports(Level::kScalar));
}

TEST(SimdDispatchTest, ActiveTableIsUsable) {
  const Level level = simd::active_level();
  EXPECT_EQ(simd::table_for(level), &simd::active());
  EXPECT_TRUE(simd::cpu_supports(level));
}

// The simd.level gauge mirrors the dispatched level: observability must
// report exactly what dispatch picked (including after CHAM_SIMD_LEVEL
// overrides or fallbacks — the gauge is set from the same Dispatch).
TEST(SimdDispatchTest, MetricsGaugeReportsActiveLevel) {
  (void)simd::active();  // force dispatch
  const double v =
      obs::MetricsRegistry::global().gauge("simd.level").value();
  EXPECT_EQ(static_cast<int>(v),
            static_cast<int>(simd::active_level()));
}

TEST(SimdDispatchTest, ParseLevelRoundTrips) {
  Level l;
  ASSERT_TRUE(simd::parse_level("scalar", &l));
  EXPECT_EQ(l, Level::kScalar);
  ASSERT_TRUE(simd::parse_level("avx2", &l));
  EXPECT_EQ(l, Level::kAvx2);
  ASSERT_TRUE(simd::parse_level("avx512", &l));
  EXPECT_EQ(l, Level::kAvx512);
  ASSERT_TRUE(simd::parse_level("avx512ifma", &l));
  EXPECT_EQ(l, Level::kAvx512Ifma);
  EXPECT_FALSE(simd::parse_level("sse9", &l));
  EXPECT_FALSE(simd::parse_level("", &l));
  EXPECT_FALSE(simd::parse_level(nullptr, &l));
  for (Level lvl : {Level::kScalar, Level::kAvx2, Level::kAvx512,
                    Level::kAvx512Ifma}) {
    Level back;
    ASSERT_TRUE(simd::parse_level(simd::level_name(lvl), &back));
    EXPECT_EQ(back, lvl);
  }
}

TEST(SimdDispatchTest, ResolveLevelHonoursUsableRequest) {
  std::string warning = "sentinel";
  // Scalar is always compiled and runnable, so the request is honoured
  // and any previous warning text is cleared.
  EXPECT_EQ(simd::resolve_level("scalar", &warning), Level::kScalar);
  EXPECT_TRUE(warning.empty()) << warning;
}

TEST(SimdDispatchTest, ResolveLevelNoOverrideAutodetectsSilently) {
  std::string warning = "sentinel";
  const Level l = simd::resolve_level(nullptr, &warning);
  EXPECT_TRUE(warning.empty()) << warning;
  EXPECT_NE(simd::table_for(l), nullptr);
  std::string warning2 = "sentinel";
  EXPECT_EQ(simd::resolve_level("", &warning2), l);
  EXPECT_TRUE(warning2.empty()) << warning2;
}

TEST(SimdDispatchTest, ResolveLevelWarnsOnUnknownName) {
  std::string warning;
  const Level l = simd::resolve_level("avx9000", &warning);
  EXPECT_NE(simd::table_for(l), nullptr) << "fallback must be runnable";
  ASSERT_FALSE(warning.empty());
  // The message must name the bad value so a typo is diagnosable from
  // the one stderr line.
  EXPECT_NE(warning.find("avx9000"), std::string::npos) << warning;
  EXPECT_NE(warning.find(simd::level_name(l)), std::string::npos) << warning;
  // A null warning sink is allowed (fire-and-forget callers).
  EXPECT_EQ(simd::resolve_level("avx9000", nullptr), l);
}

TEST(SimdDispatchTest, IfmaEligibilityTracksQBound) {
  EXPECT_TRUE(simd::ifma_eligible(2));
  EXPECT_TRUE(simd::ifma_eligible((1ULL << 34) + (1ULL << 27) + 1));
  EXPECT_TRUE(simd::ifma_eligible(simd::kIfmaQBound - 1));
  EXPECT_FALSE(simd::ifma_eligible(simd::kIfmaQBound));
  EXPECT_FALSE(simd::ifma_eligible((1ULL << 61) - 1));
}

TEST(SimdDispatchTest, IfmaWideContextPredicate) {
  const u64 small = (1ULL << 34) + (1ULL << 27) + 1;
  const u64 wide = (1ULL << 61) - 1;
  const u64 all_wide[] = {wide, wide - 2};
  const u64 mixed[] = {wide, small};
  // Only the IFMA level has a limb-width split to report on.
  for (Level lvl : {Level::kScalar, Level::kAvx2, Level::kAvx512}) {
    EXPECT_FALSE(simd::ifma_context_all_wide(lvl, all_wide, 2));
  }
  EXPECT_TRUE(simd::ifma_context_all_wide(Level::kAvx512Ifma, all_wide, 2));
  // One single-word modulus is enough to keep the fast path in play.
  EXPECT_FALSE(simd::ifma_context_all_wide(Level::kAvx512Ifma, mixed, 2));
  EXPECT_FALSE(simd::ifma_context_all_wide(Level::kAvx512Ifma, &small, 1));
  EXPECT_FALSE(simd::ifma_context_all_wide(Level::kAvx512Ifma, nullptr, 0));
}

TEST(SimdDispatchTest, NoteIfmaWideContextRespectsActiveLevel) {
  const u64 small = (1ULL << 34) + (1ULL << 27) + 1;
  const u64 wide = (1ULL << 61) - 1;
  // Small moduli never trip the note, whatever level dispatch picked.
  EXPECT_FALSE(simd::note_ifma_wide_context(&small, 1));
  if (simd::active_level() != Level::kAvx512Ifma) {
    EXPECT_FALSE(simd::note_ifma_wide_context(&wide, 1));
  } else {
    // Counter ticks on every all-wide context; the stderr note is
    // once-per-process, so a second call must report not-noted.
    obs::Counter& c =
        obs::MetricsRegistry::global().counter("simd.ifma.wide_context");
    const u64 before = c.value();
    (void)simd::note_ifma_wide_context(&wide, 1);
    EXPECT_FALSE(simd::note_ifma_wide_context(&wide, 1));
    EXPECT_EQ(c.value(), before + 2);
  }
}

TEST(SimdDispatchTest, ResolveLevelWarnsOnUnusableLevel) {
  // Find a known level this build/CPU can't run (compiled out or no CPU
  // support). On machines where every level is usable there is nothing
  // to exercise.
  for (Level lvl : {Level::kAvx2, Level::kAvx512, Level::kAvx512Ifma}) {
    if (simd::table_for(lvl) != nullptr) continue;
    std::string warning;
    const Level got = simd::resolve_level(simd::level_name(lvl), &warning);
    EXPECT_NE(simd::table_for(got), nullptr);
    EXPECT_FALSE(warning.empty());
    EXPECT_NE(warning.find(simd::level_name(lvl)), std::string::npos)
        << warning;
  }
}

}  // namespace
}  // namespace cham
