// Analytic (worst-case) noise bounds for the HMVP pipeline.
//
// Tracks an upper bound on the invariant noise magnitude |ν| where
// phase = Δ·m + ν, through the operations CHAM's pipeline performs:
// fresh encryption → plaintext multiplication → rescale → packing tree.
// The bounds are conservative ∞-norm products (no canonical-embedding
// tightening); their purpose is to certify parameter choices — whenever
// bound < Δ/2, decryption is guaranteed — and they are property-tested
// against measured noise in tests/bfv/test_noise.cc.
#pragma once

#include <algorithm>
#include <cmath>

#include "bfv/context.h"

namespace cham {

class NoiseEstimator {
 public:
  explicit NoiseEstimator(BfvContextPtr ctx) : ctx_(std::move(ctx)) {}

  // Noise magnitude bound of a fresh public-key encryption at base_qp:
  // ν = u·e_pk + e0 + e1·s with ternary u, s and CBD(21) noise.
  double fresh_bound() const {
    const double n = static_cast<double>(ctx_->n());
    return kNoiseMax * (2.0 * n + 1.0);
  }

  // After multiplying by a plaintext with |coeffs| <= w (centered):
  // ν' <= ν·N·w + t·N·w/2 + ... — the second term comes from the
  // Δ·t ≡ -r (mod Q) folding of plaintext carries (r < t).
  double after_multiply_plain(double bound, double w) const {
    const double n = static_cast<double>(ctx_->n());
    const double t = static_cast<double>(ctx_->params().t);
    return bound * n * w + t * n * w / 2.0 + t;
  }

  // After dividing by the special modulus p: ν/p plus the rounding terms
  // (1 + ||s||_1)/2 <= (N+1)/2, plus the Δ'/p-vs-Δ message drift (< t/2
  // per unit message times up to t/2 message magnitude... bounded by t).
  double after_rescale(double bound) const {
    const double n = static_cast<double>(ctx_->n());
    const double p = static_cast<double>(ctx_->params().special_prime);
    const double t = static_cast<double>(ctx_->params().t);
    return bound / p + (n + 1.0) / 2.0 + t;
  }

  // One PackTwoLWEs merge: ν_out <= 2·max(ν_even, ν_odd) + ks_bound.
  double after_pack_merge(double bound) const {
    return 2.0 * bound + keyswitch_bound();
  }

  // Packing 2^levels values: levels merges on the deepest path.
  double after_pack_tree(double bound, int levels) const {
    double b = bound;
    for (int l = 0; l < levels; ++l) b = after_pack_merge(b);
    return b;
  }

  // Hybrid key-switch additive noise: Σ_j digit_j·e_j / p + rounding.
  double keyswitch_bound() const {
    const double n = static_cast<double>(ctx_->n());
    const double p = static_cast<double>(ctx_->params().special_prime);
    double digit_sum = 0;
    for (u64 q : ctx_->params().q_primes) digit_sum += static_cast<double>(q);
    return digit_sum * kNoiseMax * n / p + (n + 1.0) / 2.0;
  }

  // Decryption succeeds when the bound stays below Δ/2 at base_q.
  double decryption_threshold() const {
    return static_cast<double>(ctx_->q_total() /
                               ctx_->params().t) /
           2.0;
  }
  bool certifies_decryption(double bound) const {
    return bound < decryption_threshold();
  }

  // Cap on the pack levels the HMVP engine (hmvp/) hoists in front of
  // the row products. With L levels a request pays 2^L - 1 rotations of
  // ct(v) per chunk and the tree keeps C/2^L - 1 of its C - 1 merges. At
  // paper params, 128×4096 on one lane, L = 4 (15 rotations + 7 merges)
  // beat L = 3 (7 + 15) in 5 of 6 interleaved in-process runs, median
  // 11.2 vs 12.4 ms per request: a rotation costs less than a merge.
  static constexpr int kHmvpHoistLevels = 4;

  // End-to-end HMVP bound for a matrix with |entries| <= w (centered)
  // packed 2^levels deep, the bottom `hoisted` levels folded in front of
  // the products. A group node is Σ_σ rot_σ(ct(v))·Q_σ over 2^hoisted
  // rotations, with |Q_σ| <= t/2 whatever the matrix; rotation σ carries
  // popcount(σ) key-switches of at most p·keyswitch_bound() each at the
  // augmented scale (the rounding of a/p before the decomposition
  // included), and Σ_σ popcount(σ) = hoisted·2^{hoisted-1}. That noise
  // is multiplied by Q_σ, which is why hoisting suits small t only.
  // hoisted = 0 is Alg. 1's row product → rescale → tree.
  double hmvp_bound(double w, int levels, std::size_t chunks,
                    int hoisted) const {
    const double n = static_cast<double>(ctx_->n());
    const double p = static_cast<double>(ctx_->params().special_prime);
    const double t = static_cast<double>(ctx_->params().t);
    const double wq = hoisted > 0 ? t / 2.0 : w;
    const double sigmas = std::ldexp(1.0, hoisted);
    const double rot_noise = p * keyswitch_bound() * hoisted * sigmas / 2.0;
    double b = static_cast<double>(chunks) *
               (sigmas * after_multiply_plain(fresh_bound(), wq) +
                rot_noise * n * wq);
    b = after_rescale(b);
    return after_pack_tree(b, levels - hoisted);
  }

  // The pack levels the HMVP engine hoists for a 2^levels pack over
  // `chunks` ciphertexts: the most, up to kHmvpHoistLevels, whose bound
  // certifies decryption for any matrix mod t; 0 if none does.
  int hmvp_hoist_levels(int levels, std::size_t chunks) const {
    const double w = static_cast<double>(ctx_->params().t) / 2.0 + 1.0;
    for (int h = std::min(kHmvpHoistLevels, levels); h > 0; --h) {
      if (certifies_decryption(hmvp_bound(w, levels, chunks, h))) return h;
    }
    return 0;
  }

  // The bound of the engine as it runs, hoisting hmvp_hoist_levels.
  double hmvp_bound(double w, int levels, std::size_t chunks = 1) const {
    return hmvp_bound(w, levels, chunks, hmvp_hoist_levels(levels, chunks));
  }

 private:
  // CBD(21) maximum magnitude.
  static constexpr double kNoiseMax = 21.0;
  BfvContextPtr ctx_;
};

}  // namespace cham
