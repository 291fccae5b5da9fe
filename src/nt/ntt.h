// Negacyclic number-theoretic transform over Z_q[X]/(X^N + 1).
//
// This is the library's fast software path: an in-place radix-2 transform
// (Cooley–Tukey forward producing bit-reversed order, Gentleman–Sande
// inverse consuming it) with Shoup-precomputed twiddles and Harvey-style
// lazy reduction — butterfly operands stay in [0, 4q) (forward) / [0, 2q)
// (inverse) with a single correction pass at the end, and the inverse
// fuses the n^{-1} scaling into its last stage. The paper's
// constant-geometry hardware dataflow lives in nt/cg_ntt.h and is verified
// against this implementation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nt/modulus.h"
#include "simd/aligned.h"
#include "simd/kernels.h"

namespace cham {

class NttTables {
 public:
  // n must be a power of two and q ≡ 1 (mod 2n).
  NttTables(std::size_t n, const Modulus& q);

  std::size_t n() const { return n_; }
  int log_n() const { return log_n_; }
  const Modulus& modulus() const { return q_; }
  u64 psi() const { return psi_; }

  // In-place forward NTT: normal coefficient order in, bit-reversed out.
  // Runs on the dispatched kernel table (simd::active()).
  void forward(u64* a) const;
  // In-place inverse NTT: bit-reversed in, normal order out (scaled by 1/n).
  void inverse(u64* a) const;

  // Same transforms on an explicit kernel table. The benches and the
  // SIMD fuzz suite use these to pit backends against each other in one
  // process; every table produces bit-identical results.
  void forward_with(const simd::Kernels& k, u64* a) const {
    forward_with(k, a, block_size());
  }
  void inverse_with(const simd::Kernels& k, u64* a) const {
    inverse_with(k, a, block_size());
  }

  // Explicit cache-block override (coefficients; 0 disables blocking,
  // other values as documented on block_size). Tests and benches use
  // these to compare schedules in one process; results are bit-exact
  // for every block value.
  void forward_with(const simd::Kernels& k, u64* a,
                    std::size_t block) const;
  void inverse_with(const simd::Kernels& k, u64* a,
                    std::size_t block) const;

  void forward(std::vector<u64>& a) const { forward(a.data()); }
  void inverse(std::vector<u64>& a) const { inverse(a.data()); }

  // Cache block size in coefficients for large transforms, from
  // CHAM_NTT_BLOCK (parsed once per process): 0 disables blocking, other
  // values are rounded down to a power of two and clamped to >= 64.
  // Blocking engages when n exceeds the block size: the strided early
  // (forward) / late (inverse) passes run breadth-first over the whole
  // array, and everything below the block size runs depth-first per
  // cache-resident span. Pure reordering of whole kernel calls, so
  // results are bit-exact with the unblocked schedule at every level.
  static std::size_t block_size();

 private:
  // Fused radix-4 passes from (m, t) down plus the final correction
  // tail, restricted to the span [offset, offset + len) — the forward
  // depth-first worker; forward_with calls it once with the full range
  // when blocking is off.
  void forward_spans(const simd::Kernels& k, u64* a, std::size_t offset,
                     std::size_t len, std::size_t m, std::size_t t) const;
  std::size_t n_;
  int log_n_;
  Modulus q_;
  u64 psi_;      // primitive 2n-th root of unity
  u64 psi_inv_;  // psi^{-1}
  ShoupMul n_inv_;
  ShoupMul inv_n_w_;  // inv_root(1) * n^{-1} (fused last stage)

  // Twiddle tables in structure-of-arrays layout: root(i).operand =
  // psi^{bitrev(i, log n)} and inv_root(i).operand the same for psi^{-1},
  // with the Shoup quotients in parallel planes. SoA lets the fused tail
  // kernels broadcast runs of consecutive twiddles straight from memory
  // (rep2/rep4 vector loads) instead of gathering through an
  // array-of-pairs stride; planes are 64-byte aligned like every other
  // kernel operand.
  ShoupMul root(std::size_t i) const {
    return ShoupMul{root_op_[i], root_quo_[i]};
  }
  ShoupMul inv_root(std::size_t i) const {
    return ShoupMul{inv_root_op_[i], inv_root_quo_[i]};
  }

  simd::AlignedU64Vec root_op_;
  simd::AlignedU64Vec root_quo_;
  simd::AlignedU64Vec inv_root_op_;
  simd::AlignedU64Vec inv_root_quo_;
};

// Coefficient-wise c = a ∘ b (all length n, values < q).
void pointwise_multiply(const u64* a, const u64* b, u64* c, std::size_t n,
                        const Modulus& q);
// c += a ∘ b
void pointwise_multiply_accumulate(const u64* a, const u64* b, u64* c,
                                   std::size_t n, const Modulus& q);

// Shared cache of NTT tables keyed by (n, q). Contexts hold shared_ptrs.
std::shared_ptr<const NttTables> get_ntt_tables(std::size_t n,
                                                const Modulus& q);

}  // namespace cham
