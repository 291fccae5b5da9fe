// RNS (residue number system) polynomials.
//
// A ciphertext polynomial lives in Z_Q[X]/(X^N+1) with Q a product of
// word-sized NTT primes; it is stored as one length-N limb per prime
// (limb-major layout). RnsBase bundles the primes, their NTT tables, and
// the CRT precomputations (Garner mixed-radix constants) shared by all
// polynomials over the same basis.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bignum/crt.h"
#include "nt/modulus.h"
#include "nt/ntt.h"
#include "ring/poly_ops.h"
#include "simd/aligned.h"

namespace cham {

class RnsBase;
using RnsBasePtr = std::shared_ptr<const RnsBase>;

class RnsBase : public std::enable_shared_from_this<RnsBase> {
 public:
  static RnsBasePtr create(std::size_t n, const std::vector<u64>& primes);

  std::size_t n() const { return n_; }
  std::size_t size() const { return moduli_.size(); }
  const Modulus& modulus(std::size_t i) const { return moduli_[i]; }
  const std::vector<Modulus>& moduli() const { return moduli_; }
  const NttTables& ntt(std::size_t i) const { return *ntt_[i]; }

  // Q = Π q_i; total bit width must stay below 128.
  u128 total_modulus() const { return total_; }
  double total_modulus_log2() const;

  // Garner composition: CRT residues (one per limb) -> integer in [0, Q).
  u128 compose(const u64* residues) const;
  // Residues of an arbitrary u128 value.
  void decompose(u128 value, u64* residues_out) const;

  // The frozen span-wise CRT engine over this chain (Garner Shoup pairs,
  // per-modulus Barrett ratios, 2^64 mod q_j) — shared by compose_all,
  // lift_centered, and the rescale constants below.
  const CrtSpans& crt() const { return crt_; }

  // Frozen rescale constant for divide_round_by_last: the last prime's
  // inverse mod q_l as a Shoup pair (l < size() - 1; only built when the
  // chain has at least two limbs).
  const ShoupMul& rescale_pinv(std::size_t l) const {
    return rescale_pinv_[l];
  }

  // True if `other` equals this base without its last limb.
  bool is_prefix_of(const RnsBase& other) const;

 private:
  RnsBase() = default;
  std::size_t n_ = 0;
  std::vector<Modulus> moduli_;
  std::vector<std::shared_ptr<const NttTables>> ntt_;
  u128 total_ = 1;
  CrtSpans crt_;
  std::vector<ShoupMul> rescale_pinv_;
};

// An RNS polynomial bound to a base; tracks whether limbs are in NTT form.
class RnsPoly {
 public:
  RnsPoly() = default;
  explicit RnsPoly(RnsBasePtr base, bool ntt_form = false);

  const RnsBasePtr& base() const { return base_; }
  std::size_t n() const { return base_->n(); }
  std::size_t limbs() const { return base_->size(); }
  bool is_ntt() const { return ntt_form_; }
  void set_ntt_form(bool v) { ntt_form_ = v; }

  u64* limb(std::size_t l) { return data_.data() + l * n(); }
  const u64* limb(std::size_t l) const { return data_.data() + l * n(); }
  simd::AlignedU64Vec& raw() { return data_; }
  const simd::AlignedU64Vec& raw() const { return data_; }

  void set_zero();
  bool is_zero() const;

  // Domain conversion (in place). threads > 1 transforms limbs in
  // parallel on the global ThreadPool (CHAM's limb-parallel NTT engines);
  // nested calls from inside a pool lane run inline.
  void to_ntt(int threads = 1);
  void from_ntt(int threads = 1);

  // Arithmetic (element-wise per limb; operands must share base & domain).
  void add_inplace(const RnsPoly& o);
  void sub_inplace(const RnsPoly& o);
  void negate_inplace();
  void mul_pointwise_inplace(const RnsPoly& o);    // requires NTT form
  void mul_pointwise_acc(const RnsPoly& a, const RnsPoly& b);  // this += a∘b
  // Multiply by a scalar given as per-limb residues.
  void mul_scalar_inplace(const std::vector<u64>& residues);
  void mul_scalar_inplace(u64 c);  // c reduced per limb

  // Table-I structural ops (modular-index form: coefficient domain only).
  RnsPoly automorph(u64 k) const;
  // Table-driven Automorph: one (n, k) table serves every limb (the
  // permutation is modulus-independent). The table's domain must match
  // the polynomial's — coefficient tables (make_automorph_table) apply
  // to coefficient form, NTT tables (make_automorph_table_ntt) apply to
  // evaluation form without leaving it. Used by the Evaluator's cached
  // Galois path and the NTT-resident pack tree.
  RnsPoly automorph(const AutomorphTable& table) const;
  // Allocation-free variant: out must share the base and not alias this.
  void automorph_into(const AutomorphTable& table, RnsPoly& out) const;
  RnsPoly shiftneg(std::size_t s) const;  // *X^s
  RnsPoly rev() const;

  // Centered coefficient i as an integer (coefficient domain).
  u128 compose_coeff(std::size_t i) const;
  // All n composed coefficients at once (coefficient domain; out holds
  // n() values). Runs the base's span-wise Garner engine — whole-limb
  // kernel sweeps instead of n per-coefficient recursions — and is
  // bit-exact with compose_coeff at every index. Decryption and CKKS
  // decode use this.
  void compose_all(u128* out) const;

  friend RnsPoly add(const RnsPoly& a, const RnsPoly& b);
  friend RnsPoly sub(const RnsPoly& a, const RnsPoly& b);

 private:
  void check_compatible(const RnsPoly& o) const;
  RnsBasePtr base_;
  bool ntt_form_ = false;
  // 64-byte-aligned limb-major storage: every limb starts on a vector
  // register boundary (n is a power of two ≥ 8 in practice).
  simd::AlignedU64Vec data_;
};

// An NTT-domain polynomial frozen into Shoup form: every coefficient
// carries its precomputed quotient floor(w·2^64/q), so repeated pointwise
// products against *varying* operands cost one high-half multiply + one
// low multiply per coefficient instead of a Barrett reduction. This is
// the natural form for long-lived operands — key-switch keys and the
// pack tree's monomial twiddles — frozen once and reused by every
// request. Results are bit-exact with the Barrett path.
class ShoupPoly {
 public:
  ShoupPoly() = default;
  // src must be in NTT form (fully reduced); the quotients come from
  // poly_shoup_quotients — one Shoup product and one multiply per
  // coefficient, no 128-bit division — amortized over every later product.
  explicit ShoupPoly(const RnsPoly& src);
  // Same, adopting src's storage as the operand instead of copying it
  // (src is left without storage).
  explicit ShoupPoly(RnsPoly&& src);

  const RnsBasePtr& base() const { return base_; }
  bool empty() const { return base_ == nullptr; }

  // out = this ∘ x (out must share the base; fully reduced).
  void mul_pointwise(const RnsPoly& x, RnsPoly& out) const;
  // acc += this ∘ x.
  void mul_pointwise_acc(const RnsPoly& x, RnsPoly& acc) const;

 private:
  RnsBasePtr base_;
  simd::AlignedU64Vec operand_;   // limb-major, same layout as RnsPoly
  simd::AlignedU64Vec quotient_;  // floor(operand << 64 / q_l)
};

// Divide-and-round by the base's last prime: maps a coefficient-domain
// polynomial over {q_0..q_{k-1}, p} to round(x / p) over {q_0..q_{k-1}}
// (the paper's Rescale, pipeline stage 4; also BFV modulus switching).
RnsPoly divide_round_by_last(const RnsPoly& x, RnsBasePtr target);
// Allocation-free variant: out must already be bound to the target base
// (coefficient domain); used by scratch-arena hot loops.
void divide_round_by_last_into(const RnsPoly& x, RnsPoly& out);

// Exact lift of a coefficient-domain polynomial onto a larger base whose
// first limbs match. New limbs get the centered representative reduced mod
// the new primes (valid when coefficients are "small", e.g. RNS digits).
RnsPoly lift_centered(const RnsPoly& x, RnsBasePtr target);

}  // namespace cham
