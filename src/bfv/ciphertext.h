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

}  // namespace cham
