#include "hmvp/baseline.h"

#include <algorithm>

#include "nt/bitops.h"

namespace cham {

// ---------------------------------------------------------------- rotate+sum

RotateSumHmvp::RotateSumHmvp(BfvContextPtr context, const GaloisKeys* gk)
    : ctx_(std::move(context)), gk_(gk), encoder_(ctx_), eval_(ctx_) {}

std::vector<u64> RotateSumHmvp::required_galois_elements() const {
  std::vector<u64> out;
  for (std::size_t r = 1; r < ctx_->n() / 2; r <<= 1) {
    out.push_back(encoder_.rotation_galois_element(r));
  }
  // Distinct r < N/2 give distinct elements; sorted keeps hello payloads
  // canonical.
  std::sort(out.begin(), out.end());
  return out;
}

Ciphertext RotateSumHmvp::encrypt_vector(const std::vector<u64>& v,
                                         const Encryptor& enc) const {
  CHAM_CHECK_MSG(v.size() <= ctx_->n() / 2, "vector must fit row-0 slots");
  return enc.encrypt(encoder_.encode(v));
}

std::vector<Ciphertext> RotateSumHmvp::multiply(const RowSource& a,
                                                const Ciphertext& ct_v,
                                                BaselineStats* stats) const {
  CHAM_CHECK(gk_ != nullptr);
  CHAM_CHECK_MSG(a.cols() <= ctx_->n() / 2, "cols must fit row-0 slots");
  const std::size_t half = ctx_->n() / 2;
  BaselineStats st;
  std::vector<Ciphertext> out;
  std::vector<u64> row(a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    a.row(i, row.data());
    Ciphertext prod = ct_v;
    prod.to_ntt();
    eval_.multiply_plain_ntt_inplace(
        prod,
        eval_.transform_plain_ntt(encoder_.encode(row), ct_v.base()));
    st.plain_mults += 1;
    prod.from_ntt();
    Ciphertext acc = eval_.rescale(prod);
    // log2(N/2) rotations: after the tree, slot 0 of row 0 holds the sum
    // of all row-0 slots.
    for (std::size_t r = 1; r < half; r <<= 1) {
      Ciphertext rot = eval_.rotate_rows(acc, r, *gk_);
      st.rotations += 1;
      eval_.add_inplace(acc, rot);
    }
    out.push_back(std::move(acc));
  }
  publish_baseline_stats("rotsum", st);
  if (stats) stats->merge(st);
  return out;
}

std::vector<u64> RotateSumHmvp::decrypt_result(
    const std::vector<Ciphertext>& cts, const Decryptor& dec) const {
  std::vector<u64> out;
  out.reserve(cts.size());
  for (const auto& ct : cts) {
    out.push_back(encoder_.decode(dec.decrypt(ct))[0]);
  }
  return out;
}

// ------------------------------------------------------------------ diagonal

DiagonalHmvp::DiagonalHmvp(BfvContextPtr context, const GaloisKeys* gk)
    : ctx_(std::move(context)),
      gk_(gk),
      bsgs_(ctx_, gk),
      encoder_(ctx_),
      eval_(ctx_) {}

Ciphertext DiagonalHmvp::multiply(const RowSource& a, const Ciphertext& ct_v,
                                  BaselineStats* stats) const {
  CHAM_CHECK(gk_ != nullptr);
  const std::size_t half = ctx_->n() / 2;
  const std::size_t n = a.cols();
  const std::size_t m = a.rows();
  CHAM_CHECK_MSG(is_power_of_two(n) && n <= half && m <= half,
                 "diagonal method shape limits");
  const u64 t = ctx_->plain_modulus().value();

  // Materialise the diagonals: diag_d[i] = A[i mod m][(i+d) mod n].
  std::vector<std::vector<u64>> rows(m, std::vector<u64>(n));
  for (std::size_t i = 0; i < m; ++i) a.row(i, rows[i].data());
  auto diagonal = [&](std::size_t d) {
    // diag_d[i] = A[i][(i+d) mod n]; slots beyond the row count are zero.
    std::vector<u64> diag(half, 0);
    for (std::size_t i = 0; i < m; ++i) diag[i] = rows[i][(i + d) % n] % t;
    return diag;
  };

  const std::size_t b = BsgsHmvp::baby_steps(n);
  const std::size_t giants = (n + b - 1) / b;

  // Baby steps: rot(v, i) for i in [0, b).
  BaselineStats st;
  Ciphertext ct_q = eval_.rescale(ct_v);
  std::vector<Ciphertext> baby;
  baby.reserve(b);
  baby.push_back(ct_q);
  for (std::size_t i = 1; i < b; ++i) {
    baby.push_back(eval_.rotate_rows(ct_q, i, *gk_));
    st.rotations += 1;
  }

  Ciphertext result;
  bool have_result = false;
  for (std::size_t j = 0; j < giants; ++j) {
    // Inner sum: Σ_i rot(diag_{jb+i}, -jb) ∘ rot(v, i).
    Ciphertext inner;
    bool have_inner = false;
    for (std::size_t i = 0; i < b && j * b + i < n; ++i) {
      auto diag = diagonal(j * b + i);
      // Pre-rotate the plaintext right by j*b slots.
      std::vector<u64> rotated(half);
      for (std::size_t s = 0; s < half; ++s) {
        rotated[(s + j * b) % half] = diag[s];
      }
      Ciphertext prod = baby[i];
      prod.to_ntt();
      eval_.multiply_plain_ntt_inplace(
          prod,
          eval_.transform_plain_ntt(encoder_.encode(rotated), prod.base()));
      st.plain_mults += 1;
      prod.from_ntt();
      if (!have_inner) {
        inner = std::move(prod);
        have_inner = true;
      } else {
        eval_.add_inplace(inner, prod);
      }
    }
    if (j > 0) {
      inner = eval_.rotate_rows(inner, j * b, *gk_);
      st.rotations += 1;
    }
    if (!have_result) {
      result = std::move(inner);
      have_result = true;
    } else {
      eval_.add_inplace(result, inner);
    }
  }
  publish_baseline_stats("diag", st);
  if (stats) stats->merge(st);
  return result;
}

}  // namespace cham
