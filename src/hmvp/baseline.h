// Related-work HMVP baselines (paper Sec. II-E).
//
// * RotateSumHmvp — "batch-encoded HMVP": one slotwise product per row
//   followed by a log2(slots) rotate-and-add tree to sum the slots.
//   O(m log2 N) rotations, the complexity the paper quotes for [21].
// * DiagonalHmvp — GAZELLE's diagonal method with baby-step/giant-step
//   hoisting: O(n) plaintext products and ~2·sqrt(n) rotations, one output
//   ciphertext. O(m) overall, but with the heavier per-op constants the
//   paper's coefficient method avoids.
//
// Both operate on batch-encoded (SIMD) ciphertexts and are used by the
// benchmark harness for the complexity comparison. They are strawmen: the
// production slot-encoded engine is BsgsHmvp (hmvp/bsgs.h), and
// DiagonalHmvp shares its key set, input tiling and result decoding.
#pragma once

#include "hmvp/bsgs.h"

namespace cham {

class RotateSumHmvp {
 public:
  RotateSumHmvp(BfvContextPtr context, const GaloisKeys* gk);

  // Galois elements this method needs (rotations by powers of two).
  std::vector<u64> required_galois_elements() const;

  // Encrypt v into row-0 slots (v.size() <= N/2).
  Ciphertext encrypt_vector(const std::vector<u64>& v,
                            const Encryptor& enc) const;

  // Per-row slotwise product + rotate-and-sum; the dot product of row i
  // ends up in every slot of result ciphertext i.
  std::vector<Ciphertext> multiply(const RowSource& a, const Ciphertext& ct_v,
                                   BaselineStats* stats = nullptr) const;

  std::vector<u64> decrypt_result(const std::vector<Ciphertext>& cts,
                                  const Decryptor& dec) const;

 private:
  BfvContextPtr ctx_;
  const GaloisKeys* gk_;
  BatchEncoder encoder_;
  Evaluator eval_;
};

// One full-ring diagonal per column (no hybrid tail), one fresh
// key-switch per rotation and an NTT round trip per diagonal product.
class DiagonalHmvp {
 public:
  // n_cols must be a power of two <= N/2; rows <= N/2.
  DiagonalHmvp(BfvContextPtr context, const GaloisKeys* gk);

  // BsgsHmvp::required_galois_elements: the naive plan rotates by 1..b-1
  // and j·b, the same elements.
  std::vector<u64> required_galois_elements(std::size_t n_cols) const {
    return bsgs_.required_galois_elements(n_cols);
  }

  Ciphertext encrypt_vector(const std::vector<u64>& v,
                            const Encryptor& enc) const {
    return bsgs_.encrypt_vector(v, enc);
  }

  Ciphertext multiply(const RowSource& a, const Ciphertext& ct_v,
                      BaselineStats* stats = nullptr) const;

  std::vector<u64> decrypt_result(const Ciphertext& ct, std::size_t rows,
                                  const Decryptor& dec) const {
    return bsgs_.decrypt_result(ct, rows, dec);
  }

 private:
  BfvContextPtr ctx_;
  const GaloisKeys* gk_;
  BsgsHmvp bsgs_;
  BatchEncoder encoder_;
  Evaluator eval_;
};

}  // namespace cham
