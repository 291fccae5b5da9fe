// Span-based polynomial primitives over Z_q[X]/(X^N + 1) — the functions
// CHAM's polynomial processing units implement (paper Table I): ModAdd,
// ModMul, Rev, ShiftNeg, Automorph, plus negation and scalar multiply.
// All operate coefficient-wise on length-n arrays with entries < q.
#pragma once

#include <cstdint>

#include "nt/modulus.h"
#include "simd/aligned.h"
#include "simd/kernels.h"

namespace cham {

// out = a + b
void poly_add(const u64* a, const u64* b, u64* out, std::size_t n,
              const Modulus& q);
// out = a - b
void poly_sub(const u64* a, const u64* b, u64* out, std::size_t n,
              const Modulus& q);
// out = -a
void poly_negate(const u64* a, u64* out, std::size_t n, const Modulus& q);
// out = a ∘ b (coefficient-wise product; meaningful in NTT domain, and in
// the coefficient domain it is the PPU's ModMul primitive)
void poly_mul_pointwise(const u64* a, const u64* b, u64* out, std::size_t n,
                        const Modulus& q);
// out += a ∘ b
void poly_mul_pointwise_acc(const u64* a, const u64* b, u64* out,
                            std::size_t n, const Modulus& q);
// out = c * a for scalar c < q
void poly_mul_scalar(const u64* a, u64 c, u64* out, std::size_t n,
                     const Modulus& q);

// out = x ∘ w with per-coefficient Shoup pairs (w_op[i], w_quo[i]) for the
// fixed operand w: one high-half multiply + one low multiply per
// coefficient instead of a full Barrett reduction. Bit-exact with
// poly_mul_pointwise. Supports out aliasing x.
void poly_mul_shoup(const u64* x, const u64* w_op, const u64* w_quo,
                    u64* out, std::size_t n, u64 q);
// out += x ∘ w (same Shoup form; fused multiply-accumulate).
void poly_mul_shoup_acc(const u64* x, const u64* w_op, const u64* w_quo,
                        u64* out, std::size_t n, u64 q);

// MultPoly's one-pass (b, a) MAC: out_b = Σ_{j<k} xb[j] ∘ w[j] and
// out_a = Σ_{j<k} xa[j] ∘ w[j] (mod q) over n coefficients, every
// operand plain and reduced, one reduction per output coefficient
// (dispatched dot2 kernel). Each w[j] is read once for both sides.
// Outputs must not alias the operands.
void poly_dot2(const u64* const* xb, const u64* const* xa,
               const u64* const* w, std::size_t k, u64* out_b, u64* out_a,
               std::size_t n, u64 q);

// Coefficients per poly_dot2 call in the HMVP and BSGS MultPoly loops:
// one block of every operand of a dot product (16 rotations × (b, a) ×
// 2 KiB at the paper's 2^L = 16) stays cache-resident while several
// plaintext operand sets stream past it.
inline constexpr std::size_t kDotBlock = 256;

// quo[i] = floor(w[i]·2^64/q), the Shoup quotient of each w[i] < q,
// computed exactly without a 128-bit division: w·2^64 = quo·q + r with
// r = w·2^64 mod q, so quo ≡ -r·q^{-1} (mod 2^64), and quo < 2^64
// because w < q. r is one Shoup product by the constant 2^64 mod q
// (dispatched scalar-multiply kernel); q^{-1} mod 2^64 is a per-span
// constant. w and quo must not alias. `k` picks the kernel table (the
// SIMD fuzz suite runs every compiled level).
void poly_shoup_quotients(const u64* w, u64* quo, std::size_t n,
                          const Modulus& q,
                          const simd::Kernels& k = simd::active());

// Rev (Table I): out = [a_{N-1}, ..., a_1, a_0]. Supports in-place.
void poly_rev(const u64* a, u64* out, std::size_t n);

// out = a(X) * X^s in the negacyclic ring, s in [0, 2N). Coefficients that
// wrap past X^N pick up a sign (ShiftNeg in Table I): two contiguous
// segments, each a copy or a run of the negate kernel of table `k`. Does
// NOT support aliasing of a and out.
void poly_shiftneg(const u64* a, u64* out, std::size_t n, std::size_t s,
                   const Modulus& q,
                   const simd::Kernels& k = simd::active());

// out = a(X^k) for odd k in [1, 2N) (Automorph in Table I):
// a_i -> (-1)^{floor(ik/N)} a at index ik mod N. Does NOT support aliasing.
void poly_automorph(const u64* a, u64* out, std::size_t n, u64 k,
                    const Modulus& q);

// Precomputed Automorph routing, inverted to destination order so the
// permutation becomes a gather: out[d] = ±a[src_idx[d]], negated mod q
// where flip[d] == ~0. Tables depend only on (n, k) — not the modulus —
// so one table serves every RNS limb; Evaluator::apply_galois caches
// them per Galois element. `ntt` records which domain the routing is
// for: coefficient order (make_automorph_table) or the bit-reversed
// negacyclic evaluation order (make_automorph_table_ntt).
struct AutomorphTable {
  std::size_t n = 0;
  u64 k = 0;
  bool ntt = false;
  simd::AlignedU64Vec src_idx;
  simd::AlignedU64Vec flip;
};
AutomorphTable make_automorph_table(std::size_t n, u64 k);

// Automorph routing in the NTT (evaluation) domain. Slot i of the
// bit-reversed negacyclic NTT holds a(ψ^{2·rev(i)+1}), so a(X^k)
// evaluates there to a(ψ^{k·(2·rev(i)+1) mod 2N}) — still an odd root
// power, i.e. some other slot of the same transform. The automorphism is
// therefore a pure slot gather with no sign flips:
//   src_idx[i] = rev(((k·(2·rev(i)+1)) mod 2N) >> 1),  flip[i] = 0.
// This is what keeps the pack tree NTT-resident: applying Galois maps in
// evaluation form costs one permute instead of an NTT round-trip.
AutomorphTable make_automorph_table_ntt(std::size_t n, u64 k);

// Table-driven Automorph via the dispatched permute kernel. Bit-exact
// with the modular-index form above (for coefficient-domain tables).
// Does NOT support aliasing.
void poly_automorph(const u64* a, u64* out, const AutomorphTable& table,
                    const Modulus& q);

// out[i] = x[i] mod q for arbitrary 64-bit x, via the dispatched
// Barrett-reduction kernel (q_barrett = floor(2^64/q), computed once and
// amortised over the span). The key-switch digit-lift primitive:
// replaces the scalar `%` loop when spreading a base-q residue limb
// across base_qp.
void poly_barrett_reduce(const u64* x, u64* out, std::size_t n,
                         const Modulus& q);

// Schoolbook negacyclic convolution out = a * b mod (X^N + 1); O(N^2)
// reference used by tests to validate the NTT path.
void poly_mul_negacyclic_schoolbook(const u64* a, const u64* b, u64* out,
                                    std::size_t n, const Modulus& q);

}  // namespace cham
