// LWE ciphertexts and RLWE <-> LWE conversion (paper Sec. II-D, Eq. 3).
//
// ExtractLWEs turns coefficient i of an RLWE ciphertext's plaintext into a
// standalone LWE ciphertext (b', a') with b' + <a', s> = Δ·m_i + e. The
// embedding back into RLWE (lwe_to_rlwe) applies the same involutive index
// transform, producing an RLWE ciphertext whose phase has Δ·m at the
// constant coefficient (and garbage elsewhere) — exactly what PackLWEs
// consumes.
#pragma once

#include "bfv/ciphertext.h"
#include "bfv/context.h"

namespace cham {

// LWE ciphertext over the composite modulus Q (stored in RNS, one limb per
// prime, like RnsPoly but with a scalar b).
struct LweCiphertext {
  RnsBasePtr base;
  std::vector<u64> b;  // one residue per limb
  RnsPoly a;           // "vector" part, stored as coefficient array

  std::size_t n() const { return a.n(); }
};

// Extract coefficient `index` of ct's plaintext as an LWE ciphertext.
// ct must be in coefficient domain (paper pipeline stage 4 placement:
// extraction is coefficient-wise, fused with Rescale).
LweCiphertext extract_lwe(const Ciphertext& ct, std::size_t index);

// Allocation-free variant: writes into `out`, reusing its storage when
// already bound to ct's base (the HMVP row loop preallocates one
// LweCiphertext per row and extracts in place).
void extract_lwe_into(const Ciphertext& ct, std::size_t index,
                      LweCiphertext& out);

// Embed an LWE ciphertext as an RLWE ciphertext whose phase's constant
// coefficient equals the LWE message (other coefficients are garbage).
Ciphertext lwe_to_rlwe(const LweCiphertext& lwe);

// Decrypt an LWE ciphertext directly (for tests/protocols): computes
// b + <a, s_vec> and rounds. `s_coeff` is the RLWE secret in coefficient
// form over a base whose first limbs match lwe.base; t is the plaintext
// modulus.
u64 decrypt_lwe(const LweCiphertext& lwe, const RnsPoly& s_coeff, u64 t);

}  // namespace cham
