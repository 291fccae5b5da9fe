#include "bfv/evaluator.h"

#include "common/thread_pool.h"
#include "nt/bitops.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cham {

Evaluator::Evaluator(BfvContextPtr context)
    : ctx_(std::move(context)), evk_(EvkManager::shared(ctx_)) {}

Evaluator::Evaluator(BfvContextPtr context, const std::string& evk_session)
    : ctx_(std::move(context)), evk_(EvkManager::shared(ctx_, evk_session)) {}

Ciphertext Evaluator::add(const Ciphertext& x, const Ciphertext& y) const {
  Ciphertext out = x;
  add_inplace(out, y);
  return out;
}

Ciphertext Evaluator::sub(const Ciphertext& x, const Ciphertext& y) const {
  Ciphertext out = x;
  sub_inplace(out, y);
  return out;
}

void Evaluator::add_inplace(Ciphertext& x, const Ciphertext& y) const {
  x.b.add_inplace(y.b);
  x.a.add_inplace(y.a);
}

void Evaluator::sub_inplace(Ciphertext& x, const Ciphertext& y) const {
  x.b.sub_inplace(y.b);
  x.a.sub_inplace(y.a);
}

void Evaluator::negate_inplace(Ciphertext& x) const {
  x.b.negate_inplace();
  x.a.negate_inplace();
}

void Evaluator::add_plain_inplace(Ciphertext& x, const Plaintext& pt) const {
  CHAM_CHECK_MSG(!x.is_ntt(), "add_plain expects coefficient domain");
  const auto& base = x.base();
  const auto& delta = (base == ctx_->base_qp()) ? ctx_->delta_qp()
                                                : ctx_->delta_q();
  const Modulus& t = ctx_->plain_modulus();
  for (std::size_t i = 0; i < pt.n(); ++i) {
    const std::int64_t centered = t.to_centered(pt.coeffs[i] % t.value());
    for (std::size_t l = 0; l < base->size(); ++l) {
      const Modulus& ql = base->modulus(l);
      x.b.limb(l)[i] =
          ql.add(x.b.limb(l)[i], ql.mul(ql.from_signed(centered), delta[l]));
    }
  }
}

RnsPoly Evaluator::transform_plain_ntt(const Plaintext& pt,
                                       const RnsBasePtr& base) const {
  RnsPoly out(base, false);
  transform_plain_ntt_into(pt, out);
  return out;
}

void Evaluator::transform_plain_ntt_into(const Plaintext& pt,
                                         RnsPoly& out) const {
  const RnsBasePtr& base = out.base();
  CHAM_CHECK(pt.n() <= base->n());
  if (out.is_ntt()) out.set_ntt_form(false);
  out.set_zero();
  const Modulus& t = ctx_->plain_modulus();
  for (std::size_t i = 0; i < pt.n(); ++i) {
    const std::int64_t centered = t.to_centered(pt.coeffs[i] % t.value());
    for (std::size_t l = 0; l < base->size(); ++l) {
      out.limb(l)[i] = base->modulus(l).from_signed(centered);
    }
  }
  out.to_ntt();
}

void Evaluator::multiply_plain_ntt_inplace(Ciphertext& x,
                                           const RnsPoly& pt_ntt) const {
  CHAM_CHECK_MSG(x.is_ntt(), "ciphertext must be in NTT form");
  x.b.mul_pointwise_inplace(pt_ntt);
  x.a.mul_pointwise_inplace(pt_ntt);
}

Ciphertext Evaluator::multiply_plain(const Ciphertext& x,
                                     const Plaintext& pt) const {
  CHAM_CHECK_MSG(!x.is_ntt(), "expects coefficient-domain ciphertext");
  Ciphertext out = x;
  out.to_ntt();
  multiply_plain_ntt_inplace(out, transform_plain_ntt(pt, x.base()));
  out.from_ntt();
  return out;
}

void Evaluator::multiply_scalar_inplace(Ciphertext& x, u64 c) const {
  const std::int64_t centered =
      ctx_->plain_modulus().to_centered(c % ctx_->plain_modulus().value());
  const auto& base = x.base();
  std::vector<u64> residues(base->size());
  for (std::size_t l = 0; l < base->size(); ++l) {
    residues[l] = base->modulus(l).from_signed(centered);
  }
  x.b.mul_scalar_inplace(residues);
  x.a.mul_scalar_inplace(residues);
}

Ciphertext Evaluator::multiply_monomial(const Ciphertext& x,
                                        std::size_t s) const {
  CHAM_CHECK_MSG(!x.is_ntt(), "monomial multiply in coefficient domain");
  Ciphertext out;
  out.b = x.b.shiftneg(s);
  out.a = x.a.shiftneg(s);
  return out;
}

Ciphertext Evaluator::rescale(const Ciphertext& x) const {
  Ciphertext out;
  out.b = RnsPoly(ctx_->base_q(), false);
  out.a = RnsPoly(ctx_->base_q(), false);
  rescale_into(x, out);
  return out;
}

void Evaluator::rescale_into(const Ciphertext& x, Ciphertext& out) const {
  CHAM_CHECK_MSG(x.base() == ctx_->base_qp(),
                 "rescale applies to augmented (base_qp) ciphertexts");
  CHAM_CHECK_MSG(!x.is_ntt(), "rescale expects coefficient domain");
  divide_round_by_last_into(x.b, out.b);
  divide_round_by_last_into(x.a, out.a);
}

std::pair<RnsPoly, RnsPoly> Evaluator::keyswitch_poly(
    const RnsPoly& c, const KeySwitchKey& ksk) const {
  CHAM_CHECK_MSG(c.base() == ctx_->base_q(),
                 "keyswitch operates on base_q polynomials");
  CHAM_CHECK_MSG(!c.is_ntt(), "keyswitch expects coefficient domain");
  const std::size_t dnum = ctx_->dnum();
  CHAM_CHECK(ksk.b.size() == dnum);

  RnsPoly acc_b(ctx_->base_qp(), true);
  RnsPoly acc_a(ctx_->base_qp(), true);
  for (std::size_t j = 0; j < dnum; ++j) {
    // Digit j: the j-th residue limb of c, lifted to every prime of
    // base_qp (digits are < q_j, so plain reduction is exact). The lift
    // runs on the dispatched Barrett kernel instead of a scalar `%`.
    RnsPoly digit(ctx_->base_qp(), false);
    const u64* src = c.limb(j);
    for (std::size_t l = 0; l < digit.limbs(); ++l) {
      poly_barrett_reduce(src, digit.limb(l), digit.n(),
                          ctx_->base_qp()->modulus(l));
    }
    digit.to_ntt();
    acc_b.mul_pointwise_acc(digit, ksk.b[j]);
    acc_a.mul_pointwise_acc(digit, ksk.a[j]);
  }
  acc_b.from_ntt();
  acc_a.from_ntt();
  return {divide_round_by_last(acc_b, ctx_->base_q()),
          divide_round_by_last(acc_a, ctx_->base_q())};
}

Evaluator::FrozenKsk Evaluator::freeze_ksk(const KeySwitchKey& ksk) const {
  FrozenKsk out;
  out.b.reserve(ksk.b.size());
  out.a.reserve(ksk.a.size());
  for (const RnsPoly& poly : ksk.b) out.b.emplace_back(poly);
  for (const RnsPoly& poly : ksk.a) out.a.emplace_back(poly);
  return out;
}

void Evaluator::decompose_ntt_digits(const RnsPoly& c,
                                     std::vector<RnsPoly>& digits,
                                     int threads) const {
  CHAM_CHECK_MSG(c.base() == ctx_->base_q(),
                 "keyswitch operates on base_q polynomials");
  CHAM_CHECK_MSG(!c.is_ntt(), "decompose expects coefficient domain");
  CHAM_CHECK(digits.size() == ctx_->dnum());
  static obs::Counter& hoisted =
      obs::MetricsRegistry::global().counter("keyswitch.hoisted");
  hoisted.add();
  auto fill = [&](std::size_t j) {
    RnsPoly& digit = digits[j];
    CHAM_CHECK(digit.base() == ctx_->base_qp());
    digit.set_ntt_form(false);
    const u64* src = c.limb(j);
    for (std::size_t l = 0; l < digit.limbs(); ++l) {
      poly_barrett_reduce(src, digit.limb(l), digit.n(),
                          ctx_->base_qp()->modulus(l));
    }
    digit.to_ntt();
  };
  if (threads > 1 && digits.size() > 1 && !ThreadPool::in_lane()) {
    ThreadPool::global().parallel_for(0, digits.size(), threads, fill);
  } else {
    for (std::size_t j = 0; j < digits.size(); ++j) fill(j);
  }
}

Ciphertext Evaluator::rotate_hoisted(const Ciphertext& x,
                                     const std::vector<RnsPoly>& digits,
                                     const AutomorphTable& coeff_table,
                                     const AutomorphTable& ntt_table,
                                     const FrozenKsk& fksk) const {
  CHAM_SPAN_ARG("eval.keyswitch_hoisted", ntt_table.k);
  CHAM_CHECK_MSG(x.base() == ctx_->base_q(),
                 "rotate_hoisted expects a rescaled (base_q) ciphertext");
  CHAM_CHECK_MSG(!x.is_ntt(), "rotate_hoisted expects coefficient domain");
  CHAM_CHECK(digits.size() == ctx_->dnum());
  CHAM_CHECK(fksk.b.size() == digits.size());
  // Permute the shared evaluation-form digits — the automorphism as a
  // pure slot gather, no transforms — and inner-product against the
  // frozen key. Identical arithmetic to apply_galois's tail, so a fresh
  // decomposition reproduces it digit-for-digit.
  RnsPoly perm(ctx_->base_qp(), true);
  RnsPoly acc_b(ctx_->base_qp(), true);
  RnsPoly acc_a(ctx_->base_qp(), true);
  for (std::size_t j = 0; j < digits.size(); ++j) {
    CHAM_CHECK(digits[j].is_ntt() && digits[j].base() == ctx_->base_qp());
    digits[j].automorph_into(ntt_table, perm);
    fksk.b[j].mul_pointwise_acc(perm, acc_b);
    fksk.a[j].mul_pointwise_acc(perm, acc_a);
  }
  acc_b.from_ntt();
  acc_a.from_ntt();
  Ciphertext out;
  out.b = divide_round_by_last(acc_b, ctx_->base_q());
  out.a = divide_round_by_last(acc_a, ctx_->base_q());
  out.b.add_inplace(x.b.automorph(coeff_table));
  return out;
}

Ciphertext Evaluator::apply_galois_hoisted(const Ciphertext& x,
                                           const std::vector<RnsPoly>& digits,
                                           u64 k, const GaloisKeys& gk) const {
  const auto coeff = evk_->automorph_table(k);
  const auto ntt = evk_->automorph_table_ntt(k);
  const auto fksk = evk_->frozen(gk.get(k));
  return rotate_hoisted(x, digits, *coeff, *ntt, *fksk);
}

Ciphertext Evaluator::rotate_rows_hoisted(const Ciphertext& x,
                                          const std::vector<RnsPoly>& digits,
                                          std::size_t r,
                                          const GaloisKeys& gk) const {
  const u64 k = rotation_galois_element(r);
  if (k == 1) return x;
  return apply_galois_hoisted(x, digits, k, gk);
}

std::shared_ptr<const AutomorphTable> Evaluator::galois_table(u64 k) const {
  return evk_->automorph_table(k);
}

std::shared_ptr<const AutomorphTable> Evaluator::galois_table_ntt(
    u64 k) const {
  return evk_->automorph_table_ntt(k);
}

std::shared_ptr<const ShoupPoly> Evaluator::monomial_ntt_qp(
    std::size_t s) const {
  return evk_->monomial_ntt_qp(s);
}

Ciphertext Evaluator::apply_galois(const Ciphertext& x, u64 k,
                                   const GaloisKeys& gk) const {
  // The dominant cost of every PackTwoLWEs merge (arg = Galois element).
  CHAM_SPAN_ARG("eval.keyswitch", k);
  CHAM_CHECK_MSG(x.base() == ctx_->base_q(),
                 "apply_galois expects a rescaled (base_q) ciphertext");
  CHAM_CHECK_MSG(!x.is_ntt(), "apply_galois expects coefficient domain");
  const auto table = evk_->automorph_table(k);
  const auto fksk = evk_->frozen(gk.get(k));
  RnsPoly b_auto = x.b.automorph(*table);
  RnsPoly a_auto = x.a.automorph(*table);
  // Hoisted digits against the manager-frozen key: the forward NTTs are
  // shared between the b and a inner products and the pointwise work
  // runs on mul_shoup — bit-exact with the keyswitch_poly pipeline.
  std::vector<RnsPoly> digits(ctx_->dnum(), RnsPoly(ctx_->base_qp(), false));
  decompose_ntt_digits(a_auto, digits);
  RnsPoly acc_b(ctx_->base_qp(), true);
  RnsPoly acc_a(ctx_->base_qp(), true);
  for (std::size_t j = 0; j < digits.size(); ++j) {
    fksk->b[j].mul_pointwise_acc(digits[j], acc_b);
    fksk->a[j].mul_pointwise_acc(digits[j], acc_a);
  }
  acc_b.from_ntt();
  acc_a.from_ntt();
  Ciphertext out;
  out.b = divide_round_by_last(acc_b, ctx_->base_q());
  out.a = divide_round_by_last(acc_a, ctx_->base_q());
  out.b.add_inplace(b_auto);
  return out;
}

u64 Evaluator::rotation_galois_element(std::size_t r) const {
  // Galois element 3^r mod 2N by square-and-multiply — O(log r) instead
  // of r sequential multiplies. 2N is a power of two (not prime), so
  // Modulus::pow does not apply; operands stay < 2N < 2^32, keeping the
  // u64 products exact.
  const u64 two_n = 2 * ctx_->n();
  u64 e = r % (ctx_->n() / 2);
  u64 k = 1;
  u64 base = 3 % two_n;
  while (e != 0) {
    if (e & 1) k = (k * base) % two_n;
    base = (base * base) % two_n;
    e >>= 1;
  }
  return k;
}

Ciphertext Evaluator::rotate_rows(const Ciphertext& x, std::size_t r,
                                  const GaloisKeys& gk) const {
  const u64 k = rotation_galois_element(r);
  if (k == 1) return x;
  // Decompose-then-permute, the same pipeline rotate_rows_hoisted runs
  // over shared digits — so the two are bit-exact for every element.
  std::vector<RnsPoly> digits(ctx_->dnum(), RnsPoly(ctx_->base_qp(), false));
  decompose_ntt_digits(x.a, digits);
  return apply_galois_hoisted(x, digits, k, gk);
}

}  // namespace cham
