#include "ring/rns.h"

#include <cmath>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "simd/kernels.h"

namespace cham {

RnsBasePtr RnsBase::create(std::size_t n, const std::vector<u64>& primes) {
  CHAM_CHECK_MSG(!primes.empty(), "RNS base needs at least one prime");
  auto base = std::shared_ptr<RnsBase>(new RnsBase());
  base->n_ = n;
  double bits = 0;
  for (u64 p : primes) {
    Modulus m(p);
    bits += std::log2(static_cast<double>(p));
    base->moduli_.push_back(m);
    base->ntt_.push_back(get_ntt_tables(n, m));
  }
  CHAM_CHECK_MSG(bits < 127.0, "total modulus must fit in 128 bits");
  for (std::size_t i = 0; i + 1 < primes.size(); ++i) {
    for (std::size_t j = i + 1; j < primes.size(); ++j) {
      CHAM_CHECK_MSG(primes[i] != primes[j], "RNS primes must be distinct");
    }
  }
  // Every kernel call on this base will take the double-word path when
  // all primes sit above the single-word IFMA bound; say so once so a
  // surprising throughput profile is explainable from the logs.
  simd::note_ifma_wide_context(primes.data(), primes.size());

  // Freeze the span-wise CRT engine (Garner Shoup pairs, Barrett ratios,
  // 2^64 mod q_j) and the rescale constants once; every compose / lift /
  // divide-and-round over this base reuses them instead of recomputing
  // inverses and quotients per call.
  base->crt_ = CrtSpans(base->moduli_);
  base->total_ = base->crt_.total();
  const std::size_t k = primes.size();
  if (k >= 2) {
    const u64 pv = primes[k - 1];
    base->rescale_pinv_.resize(k - 1);
    for (std::size_t l = 0; l + 1 < k; ++l) {
      const Modulus& ql = base->moduli_[l];
      base->rescale_pinv_[l] = make_shoup(ql.inv(pv % ql.value()), ql);
    }
  }
  return base;
}

double RnsBase::total_modulus_log2() const {
  double bits = 0;
  for (const auto& m : moduli_) bits += std::log2(static_cast<double>(m.value()));
  return bits;
}

u128 RnsBase::compose(const u64* residues) const {
  return crt_.compose_value(residues);
}

void RnsBase::decompose(u128 value, u64* residues_out) const {
  crt_.decompose_value(value, residues_out);
}

bool RnsBase::is_prefix_of(const RnsBase& other) const {
  if (n_ != other.n_ || size() + 1 != other.size()) return false;
  for (std::size_t i = 0; i < size(); ++i) {
    if (moduli_[i].value() != other.moduli_[i].value()) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------

RnsPoly::RnsPoly(RnsBasePtr base, bool ntt_form)
    : base_(std::move(base)), ntt_form_(ntt_form) {
  CHAM_CHECK(base_ != nullptr);
  data_.assign(base_->size() * base_->n(), 0);
}

void RnsPoly::set_zero() { std::fill(data_.begin(), data_.end(), 0); }

bool RnsPoly::is_zero() const {
  for (u64 v : data_)
    if (v != 0) return false;
  return true;
}

void RnsPoly::to_ntt(int threads) {
  CHAM_CHECK_MSG(!ntt_form_, "already in NTT form");
  if (threads <= 1) {
    for (std::size_t l = 0; l < limbs(); ++l) base_->ntt(l).forward(limb(l));
  } else {
    ThreadPool::global().parallel_for(
        0, limbs(), threads,
        [&](std::size_t l) { base_->ntt(l).forward(limb(l)); });
  }
  ntt_form_ = true;
}

void RnsPoly::from_ntt(int threads) {
  CHAM_CHECK_MSG(ntt_form_, "not in NTT form");
  if (threads <= 1) {
    for (std::size_t l = 0; l < limbs(); ++l) base_->ntt(l).inverse(limb(l));
  } else {
    ThreadPool::global().parallel_for(
        0, limbs(), threads,
        [&](std::size_t l) { base_->ntt(l).inverse(limb(l)); });
  }
  ntt_form_ = false;
}

void RnsPoly::check_compatible(const RnsPoly& o) const {
  CHAM_CHECK_MSG(base_ == o.base_, "operands must share an RNS base");
  CHAM_CHECK_MSG(ntt_form_ == o.ntt_form_, "operands must share a domain");
}

void RnsPoly::add_inplace(const RnsPoly& o) {
  check_compatible(o);
  for (std::size_t l = 0; l < limbs(); ++l)
    poly_add(limb(l), o.limb(l), limb(l), n(), base_->modulus(l));
}

void RnsPoly::sub_inplace(const RnsPoly& o) {
  check_compatible(o);
  for (std::size_t l = 0; l < limbs(); ++l)
    poly_sub(limb(l), o.limb(l), limb(l), n(), base_->modulus(l));
}

void RnsPoly::negate_inplace() {
  for (std::size_t l = 0; l < limbs(); ++l)
    poly_negate(limb(l), limb(l), n(), base_->modulus(l));
}

void RnsPoly::mul_pointwise_inplace(const RnsPoly& o) {
  check_compatible(o);
  CHAM_CHECK_MSG(ntt_form_, "pointwise ring product requires NTT form");
  for (std::size_t l = 0; l < limbs(); ++l)
    poly_mul_pointwise(limb(l), o.limb(l), limb(l), n(), base_->modulus(l));
}

void RnsPoly::mul_pointwise_acc(const RnsPoly& a, const RnsPoly& b) {
  a.check_compatible(b);
  CHAM_CHECK(base_ == a.base_ && ntt_form_ && a.ntt_form_);
  for (std::size_t l = 0; l < limbs(); ++l)
    poly_mul_pointwise_acc(a.limb(l), b.limb(l), limb(l), n(),
                           base_->modulus(l));
}

void RnsPoly::mul_scalar_inplace(const std::vector<u64>& residues) {
  CHAM_CHECK(residues.size() == limbs());
  for (std::size_t l = 0; l < limbs(); ++l)
    poly_mul_scalar(limb(l), residues[l], limb(l), n(), base_->modulus(l));
}

void RnsPoly::mul_scalar_inplace(u64 c) {
  for (std::size_t l = 0; l < limbs(); ++l)
    poly_mul_scalar(limb(l), c % base_->modulus(l).value(), limb(l), n(),
                    base_->modulus(l));
}

RnsPoly RnsPoly::automorph(u64 k) const {
  CHAM_CHECK_MSG(!ntt_form_, "automorphism implemented in coefficient domain");
  RnsPoly out(base_, false);
  for (std::size_t l = 0; l < limbs(); ++l)
    poly_automorph(limb(l), out.limb(l), n(), k, base_->modulus(l));
  return out;
}

RnsPoly RnsPoly::automorph(const AutomorphTable& table) const {
  RnsPoly out(base_, ntt_form_);
  automorph_into(table, out);
  return out;
}

void RnsPoly::automorph_into(const AutomorphTable& table,
                             RnsPoly& out) const {
  CHAM_CHECK_MSG(table.ntt == ntt_form_,
                 "automorph table domain must match the polynomial domain");
  CHAM_CHECK(table.n == n());
  CHAM_CHECK(out.base_ == base_ && &out != this);
  out.ntt_form_ = ntt_form_;
  for (std::size_t l = 0; l < limbs(); ++l)
    poly_automorph(limb(l), out.limb(l), table, base_->modulus(l));
}

RnsPoly RnsPoly::shiftneg(std::size_t s) const {
  CHAM_CHECK_MSG(!ntt_form_, "ShiftNeg implemented in coefficient domain");
  RnsPoly out(base_, false);
  for (std::size_t l = 0; l < limbs(); ++l)
    poly_shiftneg(limb(l), out.limb(l), n(), s, base_->modulus(l));
  return out;
}

RnsPoly RnsPoly::rev() const {
  RnsPoly out(base_, ntt_form_);
  for (std::size_t l = 0; l < limbs(); ++l) poly_rev(limb(l), out.limb(l), n());
  return out;
}

u128 RnsPoly::compose_coeff(std::size_t i) const {
  CHAM_CHECK_MSG(!ntt_form_, "compose requires coefficient domain");
  CHAM_CHECK(i < n());
  std::vector<u64> residues(limbs());
  for (std::size_t l = 0; l < limbs(); ++l) residues[l] = limb(l)[i];
  return base_->compose(residues.data());
}

void RnsPoly::compose_all(u128* out) const {
  CHAM_CHECK_MSG(!ntt_form_, "compose requires coefficient domain");
  base_->crt().compose_spans(data_.data(), n(), n(), out);
}

RnsPoly add(const RnsPoly& a, const RnsPoly& b) {
  RnsPoly out = a;
  out.add_inplace(b);
  return out;
}

RnsPoly sub(const RnsPoly& a, const RnsPoly& b) {
  RnsPoly out = a;
  out.sub_inplace(b);
  return out;
}

ShoupPoly::ShoupPoly(const RnsPoly& src) : ShoupPoly(RnsPoly(src)) {}

ShoupPoly::ShoupPoly(RnsPoly&& src) : base_(src.base()) {
  CHAM_CHECK_MSG(src.is_ntt(), "ShoupPoly freezes an NTT-form polynomial");
  const std::size_t n = src.n();
  const std::size_t limbs = src.limbs();
  operand_ = std::move(src.raw());
  quotient_.resize(operand_.size());
  for (std::size_t l = 0; l < limbs; ++l) {
    poly_shoup_quotients(operand_.data() + l * n, quotient_.data() + l * n,
                         n, base_->modulus(l));
  }
}

void ShoupPoly::mul_pointwise(const RnsPoly& x, RnsPoly& out) const {
  CHAM_CHECK(base_ == x.base() && base_ == out.base());
  CHAM_CHECK_MSG(x.is_ntt() && out.is_ntt(),
                 "Shoup pointwise product requires NTT form");
  const std::size_t n = base_->n();
  for (std::size_t l = 0; l < base_->size(); ++l) {
    poly_mul_shoup(x.limb(l), operand_.data() + l * n,
                   quotient_.data() + l * n, out.limb(l), n,
                   base_->modulus(l).value());
  }
}

void ShoupPoly::mul_pointwise_acc(const RnsPoly& x, RnsPoly& acc) const {
  CHAM_CHECK(base_ == x.base() && base_ == acc.base());
  CHAM_CHECK_MSG(x.is_ntt() && acc.is_ntt(),
                 "Shoup pointwise product requires NTT form");
  const std::size_t n = base_->n();
  for (std::size_t l = 0; l < base_->size(); ++l) {
    poly_mul_shoup_acc(x.limb(l), operand_.data() + l * n,
                       quotient_.data() + l * n, acc.limb(l), n,
                       base_->modulus(l).value());
  }
}

RnsPoly divide_round_by_last(const RnsPoly& x, RnsBasePtr target) {
  RnsPoly out(std::move(target), false);
  divide_round_by_last_into(x, out);
  return out;
}

void divide_round_by_last_into(const RnsPoly& x, RnsPoly& out) {
  CHAM_CHECK_MSG(!x.is_ntt(), "rescale requires coefficient domain");
  CHAM_CHECK_MSG(!out.is_ntt(), "rescale output is coefficient domain");
  const RnsBasePtr& target = out.base();
  CHAM_CHECK_MSG(target->is_prefix_of(*x.base()),
                 "target base must be the source base minus its last limb");
  const std::size_t k = target->size();
  const Modulus& p = x.base()->modulus(k);
  const u64 pv = p.value();

  static obs::Counter& calls =
      obs::MetricsRegistry::global().counter("simd.rescale");
  calls.add();

  // Per limb: centered remainder r' of x mod p, so (x - r')/p =
  // round(x/p). The fused kernel reduces r (or p - r) mod q_l with the
  // precomputed floor(2^64/q_l), folds it into x_l, and multiplies by
  // p^{-1} as a Shoup pair — bit-exact with the former Barrett loop.
  // Both constants are frozen on the source base at creation (the target
  // is its prefix, so modulus l is the same prime on either side).
  const RnsBase& src = *x.base();
  const u64* xp = x.limb(k);
  for (std::size_t l = 0; l < k; ++l) {
    const u64 qv = src.modulus(l).value();
    const ShoupMul& p_inv = src.rescale_pinv(l);
    simd::active().rescale_round(x.limb(l), xp, out.limb(l), x.n(), pv, qv,
                                 src.crt().q_barrett(l), p_inv.operand,
                                 p_inv.quotient);
  }
}

RnsPoly lift_centered(const RnsPoly& x, RnsBasePtr target) {
  CHAM_CHECK_MSG(!x.is_ntt(), "lift requires coefficient domain");
  CHAM_CHECK(target->n() == x.n());
  const u128 q = x.base()->total_modulus();
  const u128 half = q / 2;
  const std::size_t n = x.n();
  RnsPoly out(target, false);
  // Span-wise: one Garner compose for the whole polynomial, one pass to
  // split the centered magnitudes into 64-bit halves plus a sign plane,
  // then per target limb a word-wise reduction sweep and a sign fix-up —
  // no per-coefficient u128 division anywhere.
  std::vector<u128> vals(n);
  x.compose_all(vals.data());
  simd::AlignedU64Vec hi(n);
  simd::AlignedU64Vec lo(n);
  simd::AlignedU64Vec scratch(n);
  std::vector<unsigned char> neg(n);
  for (std::size_t i = 0; i < n; ++i) {
    const u128 v = vals[i];
    const bool negative = v > half;
    const u128 mag = negative ? q - v : v;
    neg[i] = negative ? 1 : 0;
    hi[i] = static_cast<u64>(mag >> 64);
    lo[i] = static_cast<u64>(mag);
  }
  for (std::size_t l = 0; l < target->size(); ++l) {
    const Modulus& m = target->modulus(l);
    u64* ol = out.limb(l);
    target->crt().reduce_words_mod(l, hi.data(), lo.data(), ol, n,
                                   scratch.data());
    for (std::size_t i = 0; i < n; ++i) {
      if (neg[i]) ol[i] = m.negate(ol[i]);
    }
  }
  return out;
}

}  // namespace cham
