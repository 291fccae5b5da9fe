#include "ring/poly_ops.h"

#include <algorithm>

#include "nt/bitops.h"
#include "obs/metrics.h"

namespace cham {

namespace {

// One dispatch counter per kernel family, resolved once (the registry
// lookup takes a mutex; the handles themselves are relaxed atomics).
obs::Counter& simd_counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name);
}

}  // namespace

void poly_add(const u64* a, const u64* b, u64* out, std::size_t n,
              const Modulus& q) {
  static obs::Counter& calls = simd_counter("simd.poly_add");
  calls.add();
  simd::active().add(a, b, out, n, q.value());
}

void poly_sub(const u64* a, const u64* b, u64* out, std::size_t n,
              const Modulus& q) {
  static obs::Counter& calls = simd_counter("simd.poly_sub");
  calls.add();
  simd::active().sub(a, b, out, n, q.value());
}

void poly_negate(const u64* a, u64* out, std::size_t n, const Modulus& q) {
  static obs::Counter& calls = simd_counter("simd.poly_negate");
  calls.add();
  simd::active().negate(a, out, n, q.value());
}

void poly_mul_pointwise(const u64* a, const u64* b, u64* out, std::size_t n,
                        const Modulus& q) {
  for (std::size_t i = 0; i < n; ++i) out[i] = q.mul(a[i], b[i]);
}

void poly_mul_pointwise_acc(const u64* a, const u64* b, u64* out,
                            std::size_t n, const Modulus& q) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = q.add(out[i], q.mul(a[i], b[i]));
}

void poly_mul_scalar(const u64* a, u64 c, u64* out, std::size_t n,
                     const Modulus& q) {
  // One Shoup precompute amortised over the whole span; exact x·c mod q,
  // so bit-identical to the former per-coefficient Barrett multiply.
  static obs::Counter& calls = simd_counter("simd.mul_scalar");
  calls.add();
  const ShoupMul w = make_shoup(c, q);
  simd::active().mul_scalar_shoup(a, w.operand, w.quotient, out, n,
                                  q.value());
}

void poly_mul_shoup(const u64* x, const u64* w_op, const u64* w_quo,
                    u64* out, std::size_t n, u64 q) {
  static obs::Counter& calls = simd_counter("simd.mul_shoup");
  calls.add();
  simd::active().mul_shoup(x, w_op, w_quo, out, n, q);
}

void poly_mul_shoup_acc(const u64* x, const u64* w_op, const u64* w_quo,
                        u64* out, std::size_t n, u64 q) {
  static obs::Counter& calls = simd_counter("simd.mul_shoup_acc");
  calls.add();
  simd::active().mul_shoup_acc(x, w_op, w_quo, out, n, q);
}

void poly_dot2(const u64* const* xb, const u64* const* xa,
               const u64* const* w, std::size_t k, u64* out_b, u64* out_a,
               std::size_t n, u64 q) {
  static obs::Counter& calls = simd_counter("simd.dot2");
  calls.add();
  simd::active().dot2(xb, xa, w, k, out_b, out_a, n, q);
}

void poly_shoup_quotients(const u64* w, u64* quo, std::size_t n,
                          const Modulus& q, const simd::Kernels& k) {
  CHAM_CHECK(w != quo);
  const u64 qv = q.value();
  const ShoupMul r64 = make_shoup((0 - qv) % qv, q);  // 2^64 mod q
  // Newton's iteration for q^{-1} mod 2^64: q·q ≡ 1 (mod 8) gives three
  // correct bits, and each step doubles them (3 -> 96 in five steps).
  u64 q_inv = qv;
  for (int i = 0; i < 5; ++i) q_inv *= 2 - qv * q_inv;
  k.mul_scalar_shoup(w, r64.operand, r64.quotient, quo, n, qv);
  for (std::size_t i = 0; i < n; ++i) quo[i] = (0 - quo[i]) * q_inv;
}

void poly_rev(const u64* a, u64* out, std::size_t n) {
  if (a == out) {
    std::reverse(out, out + n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = a[n - 1 - i];
}

void poly_shiftneg(const u64* a, u64* out, std::size_t n, std::size_t s,
                   const Modulus& q, const simd::Kernels& k) {
  CHAM_CHECK(a != out);
  CHAM_CHECK_MSG(s < 2 * n, "shift must be in [0, 2N)");
  // X^s = -X^{s-N} for s >= N. Coefficient i lands at i + r (r = s mod N)
  // without wrapping for i < N - r and at i + r - N after one wrap, so the
  // result is two contiguous segments: a[0, N-r) -> out[r, N) and
  // a[N-r, N) -> out[0, r), each copied or negated as a whole. Every
  // wrap over X^N negates; s >= N adds one more.
  const bool neg = s >= n;
  const std::size_t r = neg ? s - n : s;
  const auto place = [&](const u64* src, u64* dst, std::size_t len,
                         bool negate) {
    if (len == 0) return;
    if (negate) {
      k.negate(src, dst, len, q.value());
    } else {
      std::copy(src, src + len, dst);
    }
  };
  place(a, out + r, n - r, neg);
  place(a + (n - r), out, r, !neg);
}

void poly_automorph(const u64* a, u64* out, std::size_t n, u64 k,
                    const Modulus& q) {
  CHAM_CHECK(a != out);
  CHAM_CHECK_MSG(k % 2 == 1 && k < 2 * n,
                 "automorphism index must be odd and < 2N");
  for (std::size_t i = 0; i < n; ++i) {
    const u64 j = (static_cast<u64>(i) * k) % (2 * n);
    if (j < n) {
      out[j] = a[i];
    } else {
      out[j - n] = q.negate(a[i]);
    }
  }
}

AutomorphTable make_automorph_table(std::size_t n, u64 k) {
  CHAM_CHECK_MSG(k % 2 == 1 && k < 2 * n,
                 "automorphism index must be odd and < 2N");
  AutomorphTable table;
  table.n = n;
  table.k = k;
  table.ntt = false;
  table.src_idx.resize(n);
  table.flip.resize(n);
  // Invert i -> ik mod N so the apply step is destination-ordered (a
  // gather); k odd makes the map a bijection, so every slot is filled.
  for (std::size_t i = 0; i < n; ++i) {
    const u64 j = (static_cast<u64>(i) * k) % (2 * n);
    const std::size_t dst = j < n ? j : j - n;
    table.src_idx[dst] = static_cast<u64>(i);
    table.flip[dst] = j < n ? 0 : ~u64{0};
  }
  return table;
}

AutomorphTable make_automorph_table_ntt(std::size_t n, u64 k) {
  CHAM_CHECK_MSG(k % 2 == 1 && k < 2 * n,
                 "automorphism index must be odd and < 2N");
  AutomorphTable table;
  table.n = n;
  table.k = k;
  table.ntt = true;
  table.src_idx.resize(n);
  table.flip.resize(n);
  const int log_n = log2_exact(n);
  const u64 mask = 2 * static_cast<u64>(n) - 1;
  // Slot i holds a(ψ^{2·rev(i)+1}); a(X^k) puts the evaluation at the
  // odd power k·(2·rev(i)+1) mod 2N there, which is slot
  // rev((that power - 1) / 2). Destination-ordered already — permute
  // gathers out[i] = a[src_idx[i]] with no sign flips (odd powers of ψ
  // permute among themselves; no ψ^N = -1 factor ever splits off).
  for (std::size_t i = 0; i < n; ++i) {
    const u64 rev_i =
        bit_reverse(static_cast<std::uint32_t>(i), log_n);
    const u64 pow = (k * (2 * rev_i + 1)) & mask;
    table.src_idx[i] =
        bit_reverse(static_cast<std::uint32_t>(pow >> 1), log_n);
    table.flip[i] = 0;
  }
  return table;
}

void poly_automorph(const u64* a, u64* out, const AutomorphTable& table,
                    const Modulus& q) {
  CHAM_CHECK(a != out);
  static obs::Counter& calls = simd_counter("simd.automorph");
  calls.add();
  simd::active().permute(a, table.src_idx.data(), table.flip.data(), out,
                         table.n, q.value());
}

void poly_barrett_reduce(const u64* x, u64* out, std::size_t n,
                         const Modulus& q) {
  static obs::Counter& calls = simd_counter("simd.barrett_reduce");
  calls.add();
  const u64 qv = q.value();
  const u64 q_barrett =
      static_cast<u64>((static_cast<unsigned __int128>(1) << 64) / qv);
  simd::active().barrett_reduce(x, out, n, qv, q_barrett);
}

void poly_mul_negacyclic_schoolbook(const u64* a, const u64* b, u64* out,
                                    std::size_t n, const Modulus& q) {
  CHAM_CHECK(a != out && b != out);
  std::fill(out, out + n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == 0) continue;
    for (std::size_t j = 0; j < n; ++j) {
      const u64 prod = q.mul(a[i], b[j]);
      const std::size_t k = i + j;
      if (k < n) {
        out[k] = q.add(out[k], prod);
      } else {
        out[k - n] = q.sub(out[k - n], prod);
      }
    }
  }
}

}  // namespace cham
