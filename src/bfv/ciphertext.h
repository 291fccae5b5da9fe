// Plaintext and ciphertext containers.
#pragma once

#include <vector>

#include "bfv/context.h"

namespace cham {

// A plaintext is a polynomial with coefficients in [0, t). (Coefficient
// encoding per paper Eq. 1 and batch encoding both produce this form; see
// bfv/encoder.h.)
struct Plaintext {
  std::vector<u64> coeffs;

  std::size_t n() const { return coeffs.size(); }
};

// RLWE ciphertext (b, a): decrypts as b + a*s = Δ·m + e. Lives either on
// base_qp ("augmented", fresh / pre-rescale) or base_q (post-rescale).
struct Ciphertext {
  RnsPoly b;
  RnsPoly a;

  const RnsBasePtr& base() const { return b.base(); }
  bool is_ntt() const { return b.is_ntt(); }
  std::size_t n() const { return b.n(); }

  // threads > 1 transforms the 2·limbs limb polynomials in parallel on
  // the global pool (CHAM's limb-parallel NTT datapath).
  void to_ntt(int threads = 1) {
    b.to_ntt(threads);
    a.to_ntt(threads);
  }
  void from_ntt(int threads = 1) {
    b.from_ntt(threads);
    a.from_ntt(threads);
  }
};

// Shoup-frozen form of an NTT-domain ciphertext: the reusable operand of
// repeated plaintext products. HMVP freezes each ct(v) chunk once and
// reuses it across up to N matrix rows, so every pointwise product in the
// row loop becomes a mul_shoup instead of a Barrett multiply.
struct ShoupCiphertext {
  ShoupPoly b;
  ShoupPoly a;

  ShoupCiphertext() = default;
  explicit ShoupCiphertext(const Ciphertext& ct) : b(ct.b), a(ct.a) {}
  // Adopts ct's storage as the operands (ct is left without storage).
  explicit ShoupCiphertext(Ciphertext&& ct)
      : b(std::move(ct.b)), a(std::move(ct.a)) {}
};

}  // namespace cham
