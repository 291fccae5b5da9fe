#include "lwe/lwe.h"

#include "obs/metrics.h"

namespace cham {

LweCiphertext extract_lwe(const Ciphertext& ct, std::size_t index) {
  LweCiphertext lwe;
  extract_lwe_into(ct, index, lwe);
  return lwe;
}

void extract_lwe_into(const Ciphertext& ct, std::size_t index,
                      LweCiphertext& lwe) {
  CHAM_CHECK_MSG(!ct.is_ntt(), "extraction needs coefficient domain");
  CHAM_CHECK(index < ct.n());
  const std::size_t n = ct.n();
  static obs::Counter& neg_rev_calls =
      obs::MetricsRegistry::global().counter("simd.neg_rev");
  if (lwe.base != ct.base()) {
    lwe.base = ct.base();
    lwe.a = RnsPoly(ct.base(), false);
  }
  lwe.b.resize(ct.base()->size());
  for (std::size_t l = 0; l < ct.base()->size(); ++l) {
    const Modulus& q = ct.base()->modulus(l);
    const u64* a = ct.a.limb(l);
    u64* out = lwe.a.limb(l);
    lwe.b[l] = ct.b.limb(l)[index];
    if (index == 0) {
      // a'_0 = a_0, a'_k = -a_{N-k}: the negacyclic-reverse kernel.
      neg_rev_calls.add();
      simd::active().neg_rev(a, out, n, q.value());
      continue;
    }
    // (a*s)_i = sum_k a'_k s_k with a'_k = a_{i-k} for k <= i,
    //                                    -a_{N+i-k} for k > i.
    for (std::size_t k = 0; k <= index; ++k) out[k] = a[index - k];
    for (std::size_t k = index + 1; k < n; ++k)
      out[k] = q.negate(a[n + index - k]);
  }
}

Ciphertext lwe_to_rlwe(const LweCiphertext& lwe) {
  const std::size_t n = lwe.n();
  static obs::Counter& neg_rev_calls =
      obs::MetricsRegistry::global().counter("simd.neg_rev");
  Ciphertext ct;
  ct.b = RnsPoly(lwe.base, false);
  ct.a = RnsPoly(lwe.base, false);
  for (std::size_t l = 0; l < lwe.base->size(); ++l) {
    const Modulus& q = lwe.base->modulus(l);
    ct.b.limb(l)[0] = lwe.b[l];
    // Involution of the extraction transform: ã_0 = a'_0, ã_j = -a'_{N-j} —
    // the same negacyclic reverse as index-0 extraction.
    neg_rev_calls.add();
    simd::active().neg_rev(lwe.a.limb(l), ct.a.limb(l), n, q.value());
  }
  return ct;
}

u64 decrypt_lwe(const LweCiphertext& lwe, const RnsPoly& s_coeff, u64 t) {
  CHAM_CHECK_MSG(!s_coeff.is_ntt(), "secret must be in coefficient form");
  CHAM_CHECK(s_coeff.n() == lwe.n());
  CHAM_CHECK_MSG(s_coeff.limbs() >= lwe.base->size(),
                 "secret must cover the LWE base");
  const std::size_t k = lwe.base->size();
  std::vector<u64> phase(k);
  for (std::size_t l = 0; l < k; ++l) {
    // The secret's limb order must match (prefix property).
    CHAM_CHECK(s_coeff.base()->modulus(l) == lwe.base->modulus(l));
    const Modulus& q = lwe.base->modulus(l);
    u64 acc = lwe.b[l];
    const u64* a = lwe.a.limb(l);
    const u64* s = s_coeff.limb(l);
    for (std::size_t i = 0; i < lwe.n(); ++i) acc = q.add(acc, q.mul(a[i], s[i]));
    phase[l] = acc;
  }
  const u128 big_q = lwe.base->total_modulus();
  const u128 x = lwe.base->compose(phase.data());
  const u128 num = static_cast<u128>(t) * x + big_q / 2;
  return static_cast<u64>((num / big_q) % t);
}

}  // namespace cham
