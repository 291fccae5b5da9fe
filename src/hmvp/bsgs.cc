#include "hmvp/bsgs.h"

#include <algorithm>
#include <string>

#include "common/thread_pool.h"
#include "nt/bitops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ring/poly_ops.h"

namespace cham {

void publish_baseline_stats(const char* prefix, const BaselineStats& st) {
  auto& reg = obs::MetricsRegistry::global();
  const std::string p(prefix);
  reg.counter(p + ".runs").add(1);
  reg.counter(p + ".rotations").add(st.rotations);
  reg.counter(p + ".rotations_hoisted").add(st.rotations_hoisted);
  reg.counter(p + ".plain_mults").add(st.plain_mults);
}

const char* mvp_algorithm_name(MvpAlgorithm alg) {
  switch (alg) {
    case MvpAlgorithm::kCoefficient: return "coefficient";
    case MvpAlgorithm::kBsgs: return "bsgs";
    case MvpAlgorithm::kDiagonal: return "diagonal";
    case MvpAlgorithm::kRotateSum: return "rotate_sum";
  }
  return "unknown";
}

MvpAlgorithm choose_mvp_algorithm(std::size_t rows, std::size_t cols,
                                  std::size_t ring_n) {
  const std::size_t half = ring_n / 2;
  // Shapes the diagonal decomposition cannot express go to the
  // coefficient engine (which tiles arbitrary shapes across chunks).
  if (rows == 0 || cols == 0) return MvpAlgorithm::kCoefficient;
  if (!is_power_of_two(cols) || cols > half || rows > half) {
    return MvpAlgorithm::kCoefficient;
  }
  // Cost model fitted to the measured avx2 crossover at N=8192
  // (bench_bsgs, DESIGN.md §6h): the coefficient engine pays ~3.0 ms per
  // row (chunk product, INTT, rescale, extract, pack merge); BSGS pays
  // ~0.7 ms per column (diagonal encode + pointwise MAC off the frozen
  // baby steps) plus ~1.2 ms per rotation. Units below are ~0.1 ms.
  // Wide-and-short matrices favour the row-linear coefficient method,
  // tall-or-square ones the column-linear BSGS; near the 1024x4096
  // boundary the two are within a few percent either way.
  const std::size_t b = BsgsHmvp::baby_steps(cols);
  const std::size_t g = (cols + b - 1) / b;
  const std::size_t coeff_cost = 30 * rows;
  const std::size_t bsgs_cost = 7 * cols + 12 * (b + g);
  return bsgs_cost < coeff_cost ? MvpAlgorithm::kBsgs
                                : MvpAlgorithm::kCoefficient;
}

BsgsPlan BsgsPlan::of(std::size_t rows, std::size_t cols) {
  CHAM_CHECK_MSG(rows >= 1 && is_power_of_two(cols),
                 "diagonal method needs rows >= 1 and power-of-two cols");
  BsgsPlan p;
  p.rows = rows;
  p.cols = cols;
  p.span = std::size_t{1} << (rows > 1 ? log2_floor(rows - 1) + 1 : 0);
  p.diagonals = std::min(cols, p.span);
  p.length = std::max(cols, p.span);
  p.baby = std::min(BsgsHmvp::baby_steps(cols), p.diagonals);
  p.giants = (p.diagonals + p.baby - 1) / p.baby;
  p.tail = static_cast<std::size_t>(log2_exact(p.length / p.span));
  return p;
}

std::vector<std::size_t> BsgsPlan::rotations() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 1; i < baby; ++i) out.push_back(i);
  for (std::size_t j = 1; j < giants; ++j) out.push_back(j * baby);
  for (std::size_t k = 0; k < tail; ++k) out.push_back(span << k);
  return out;
}

BaselineStats BsgsPlan::stats() const {
  BaselineStats st;
  st.rotations = (baby - 1) + (giants - 1) + tail;
  st.rotations_hoisted = baby - 1;
  st.plain_mults = diagonals;
  return st;
}

namespace {

// The frozen operands of a slot rotation by s. The key set of a column
// count (b = keys.baby) holds every s < b as a baby step and every
// multiple of b below the column count as a giant step; every rotation
// of BsgsPlan::rotations() is one or the other.
const BsgsKeys::Rot& rotation_key(const BsgsKeys& keys, std::size_t s) {
  if (s < keys.baby) return keys.babies[s - 1];
  CHAM_CHECK_MSG(s % keys.baby == 0 && s / keys.baby <= keys.giants.size(),
                 "rotation " << s << " outside the BSGS key set");
  return keys.giants[s / keys.baby - 1];
}

}  // namespace

BsgsHmvp::BsgsHmvp(BfvContextPtr context, const GaloisKeys* gk)
    : ctx_(std::move(context)), gk_(gk), encoder_(ctx_), eval_(ctx_) {}

std::size_t BsgsHmvp::baby_steps(std::size_t n_cols) {
  std::size_t b = 1;
  while (b * b < n_cols) b <<= 1;
  if (b * b > n_cols && b > 1) b >>= 1;
  return b;
}

std::vector<u64> BsgsHmvp::required_galois_elements(std::size_t n_cols) const {
  const std::size_t b = baby_steps(n_cols);
  std::vector<u64> out;
  for (std::size_t i = 1; i < b; ++i) {
    out.push_back(encoder_.rotation_galois_element(i));
  }
  for (std::size_t j = 1; j < (n_cols + b - 1) / b; ++j) {
    out.push_back(encoder_.rotation_galois_element(j * b));
  }
  // Key shipping and make_galois_keys iterate these verbatim, so the set
  // must never carry an element twice, and sorted order keeps hello
  // payloads canonical.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Ciphertext BsgsHmvp::encrypt_vector(const std::vector<u64>& v,
                                    const Encryptor& enc) const {
  const std::size_t half = ctx_->n() / 2;
  CHAM_CHECK_MSG(is_power_of_two(v.size()) && v.size() <= half,
                 "diagonal method needs power-of-two cols <= N/2");
  // Tile v with period |v| so slot rotations act as rotations mod |v|.
  std::vector<u64> slots(half);
  for (std::size_t i = 0; i < half; ++i) slots[i] = v[i % v.size()];
  return enc.encrypt(encoder_.encode(slots));
}

Ciphertext BsgsHmvp::multiply(const RowSource& a, const Ciphertext& ct_v,
                              BaselineStats* stats, int threads) const {
  CHAM_SPAN_ARG("bsgs.multiply", a.rows());
  return multiply_encoded(encode_matrix(a, threads), ct_v, stats, threads);
}

BsgsEncodedMatrix BsgsHmvp::encode_matrix(const RowSource& a,
                                          int threads) const {
  CHAM_SPAN_ARG("bsgs.encode_matrix", a.cols());
  const std::size_t half = ctx_->n() / 2;
  const std::size_t n = a.cols();
  const std::size_t m = a.rows();
  CHAM_CHECK_MSG(n <= half && m <= half, "diagonal method shape limits");
  const u64 t = ctx_->plain_modulus().value();
  if (threads <= 0) threads = 1;

  BsgsEncodedMatrix out;
  out.plan_ = BsgsPlan::of(m, n);
  const BsgsPlan& p = out.plan_;
  out.diag_ntt_.assign(p.diagonals, RnsPoly());

  std::vector<std::vector<u64>> rows(m, std::vector<u64>(n));
  for (std::size_t i = 0; i < m; ++i) a.row(i, rows[i].data());

  // Diagonal d = j·b'+i: diag_d[s] = A[s mod m'][(s+d) mod cols] for
  // s < L, pre-rotated right by j·b' slots, encoded and centered-lifted
  // into the base_q NTT domain.
  auto& pool = ThreadPool::global();
  int lanes = static_cast<int>(std::min<std::size_t>(
      {static_cast<std::size_t>(threads), pool.max_lanes(), p.diagonals}));
  if (ThreadPool::in_lane()) lanes = 1;
  auto encode_lane = [&](int lane) {
    std::vector<u64> rotated(half);
    for (std::size_t d = static_cast<std::size_t>(lane); d < p.diagonals;
         d += static_cast<std::size_t>(lanes)) {
      const std::size_t jb = d - d % p.baby;  // the giant offset j·b'
      std::fill(rotated.begin(), rotated.end(), 0);
      for (std::size_t s = 0; s < p.length; ++s) {
        const std::size_t r = s & (p.span - 1);
        if (r >= m) continue;
        rotated[(s + jb) & (half - 1)] = rows[r][(s + d) & (n - 1)] % t;
      }
      RnsPoly pt_ntt(ctx_->base_q(), false);
      eval_.transform_plain_ntt_into(encoder_.encode(rotated), pt_ntt);
      out.diag_ntt_[d] = std::move(pt_ntt);
    }
  };
  if (lanes > 1) {
    pool.run(lanes, encode_lane);
  } else {
    encode_lane(0);
  }
  return out;
}

Ciphertext BsgsHmvp::multiply_encoded(const BsgsEncodedMatrix& a,
                                      const Ciphertext& ct_v,
                                      BaselineStats* stats,
                                      int threads) const {
  BsgsBatchEntry entry;
  entry.ct_v = &ct_v;
  auto out = multiply_encoded_batch(a, {entry}, stats, threads);
  return std::move(out[0]);
}

std::vector<Ciphertext> BsgsHmvp::multiply_encoded_batch(
    const BsgsEncodedMatrix& a, const std::vector<BsgsBatchEntry>& batch,
    BaselineStats* stats, int threads) const {
  CHAM_SPAN_ARG("bsgs.multiply_encoded_batch", batch.size());
  const BsgsPlan& p = a.plan_;
  const std::size_t b = p.baby;
  const std::size_t giants = p.giants;
  const std::size_t k = batch.size();
  CHAM_CHECK_MSG(p.rows > 0 && p.cols > 0, "empty encoded matrix");
  if (threads <= 0) threads = 1;
  std::vector<Ciphertext> out(k);
  if (k == 0) return out;

  // Per-session sub-batch state: each request carries its own rescaled
  // ciphertext, shared digit decomposition, frozen key set and baby-step
  // fan-out — only the diagonal operands in `a` are shared across the
  // batch.
  struct Req {
    const Evaluator* eval = nullptr;
    std::shared_ptr<const BsgsKeys> keys;
    Ciphertext ct_q;
    std::vector<RnsPoly> digits;
    std::vector<Ciphertext> baby;   // NTT form, plain
    std::vector<Ciphertext> inner;  // per giant: the MAC accumulator, then
                                    // its rotation
  };
  std::vector<Req> reqs(k);
  for (std::size_t r = 0; r < k; ++r) {
    const BsgsBatchEntry& e = batch[r];
    CHAM_CHECK_MSG(e.ct_v != nullptr, "batch entry without a ciphertext");
    Req& rq = reqs[r];
    rq.eval = e.eval != nullptr ? e.eval : &eval_;
    const GaloisKeys* gk = e.gk != nullptr ? e.gk : gk_;
    CHAM_CHECK_MSG(gk != nullptr, "batched BSGS needs Galois keys");
    rq.keys = rq.eval->evk().bsgs_keys(*gk, p.cols, baby_steps(p.cols));
    rq.ct_q = rq.eval->rescale(*e.ct_v);
    rq.digits.assign(ctx_->dnum(), RnsPoly(ctx_->base_qp(), false));
    rq.eval->decompose_ntt_digits(rq.ct_q.a, rq.digits, threads);
    rq.baby.resize(b);
    rq.inner.resize(giants);
  }

  // Baby-step fan-out flattened over (request, baby index): every lane
  // pulls the digits and keys of the request its item belongs to. The
  // baby steps stay NTT-resident and plain: the giant sweep's lazy dot
  // products need no Shoup quotients.
  {
    CHAM_SPAN_ARG("bsgs.batch_baby_steps", k * b);
    auto make_baby = [&](std::size_t idx) {
      Req& rq = reqs[idx / b];
      const std::size_t i = idx % b;
      Ciphertext ci;
      if (i == 0) {
        ci = rq.ct_q;
      } else {
        const BsgsKeys::Rot& rot = rotation_key(*rq.keys, i);
        ci = rq.eval->rotate_hoisted(rq.ct_q, rq.digits, *rot.coeff, *rot.ntt,
                                     *rot.ksk);
      }
      ci.to_ntt();
      rq.baby[i] = std::move(ci);
    };
    if (threads > 1 && !ThreadPool::in_lane()) {
      ThreadPool::global().parallel_for(0, k * b, threads, make_baby);
    } else {
      for (std::size_t idx = 0; idx < k * b; ++idx) make_baby(idx);
    }
  }

  // Giant-step sweep flattened over (request, giant): one fetch of
  // diag_{jb'+i} from the encoded matrix feeds whichever request the lane
  // is working, and the per-request inner sums land in fixed slots, so
  // the ordered final accumulation is bit-exact for every lane count and
  // batch composition. Per request, a lane first runs the lazy (b, a)
  // dot products of all its giants block-major — a coefficient block of
  // every baby step stays cache-resident while the giants' diagonals
  // stream past it — into the giants' own `inner` slots, then rotates
  // each.
  const std::size_t total = k * giants;
  auto& pool = ThreadPool::global();
  int lanes = static_cast<int>(
      std::min<std::size_t>({static_cast<std::size_t>(threads),
                             pool.max_lanes(), total}));
  if (ThreadPool::in_lane()) lanes = 1;
  std::vector<BaselineStats> lane_stats(static_cast<std::size_t>(lanes));
  const RnsBasePtr& base_q = ctx_->base_q();
  const std::size_t n = ctx_->n();
  auto sweep_lane = [&](int lane) {
    CHAM_SPAN("bsgs.batch_giant_sweep");
    BaselineStats& ls = lane_stats[static_cast<std::size_t>(lane)];
    std::vector<RnsPoly> gdigits(ctx_->dnum(),
                                 RnsPoly(ctx_->base_qp(), false));
    std::vector<std::size_t> mine;  // the lane's giants of one request
    std::vector<const u64*> xb(b), xa(b), w(b);
    for (std::size_t r = 0; r < k; ++r) {
      Req& rq = reqs[r];
      mine.clear();
      for (std::size_t j = 0; j < giants; ++j) {
        if ((r * giants + j) % static_cast<std::size_t>(lanes) ==
            static_cast<std::size_t>(lane)) {
          mine.push_back(j);
        }
      }
      if (mine.empty()) continue;
      {
        CHAM_SPAN_ARG("bsgs.mac", mine.size());
        for (std::size_t j : mine) {
          rq.inner[j].b = RnsPoly(base_q, true);
          rq.inner[j].a = RnsPoly(base_q, true);
          ls.plain_mults += std::min(b, p.diagonals - j * b);
        }
        for (std::size_t l = 0; l < base_q->size(); ++l) {
          const u64 q = base_q->modulus(l).value();
          for (std::size_t blk = 0; blk < n; blk += kDotBlock) {
            const std::size_t len = std::min(kDotBlock, n - blk);
            for (std::size_t i = 0; i < b; ++i) {
              xb[i] = rq.baby[i].b.limb(l) + blk;
              xa[i] = rq.baby[i].a.limb(l) + blk;
            }
            for (std::size_t j : mine) {
              const std::size_t terms = std::min(b, p.diagonals - j * b);
              for (std::size_t i = 0; i < terms; ++i) {
                w[i] = a.diag_ntt_[j * b + i].limb(l) + blk;
              }
              poly_dot2(xb.data(), xa.data(), w.data(), terms,
                        rq.inner[j].b.limb(l) + blk,
                        rq.inner[j].a.limb(l) + blk, len, q);
            }
          }
        }
      }
      for (std::size_t j : mine) {
        Ciphertext& acc = rq.inner[j];
        acc.from_ntt();
        if (j > 0) {
          const BsgsKeys::Rot& rot = rotation_key(*rq.keys, j * b);
          rq.eval->decompose_ntt_digits(acc.a, gdigits);
          acc = rq.eval->rotate_hoisted(acc, gdigits, *rot.coeff, *rot.ntt,
                                        *rot.ksk);
          ls.rotations += 1;
        }
      }
    }
  };
  if (lanes > 1) {
    pool.run(lanes, sweep_lane);
  } else {
    sweep_lane(0);
  }

  // Per request: the ordered sum of the inner sums, then the hybrid tail
  // — log2(L/m') rotate-and-add steps by m'·2^k fold the L/m' partial
  // sums of each output row into slot r < m'. The baby-step digits are
  // dead by now and serve as the tail's decomposition scratch.
  auto finish = [&](std::size_t r) {
    Req& rq = reqs[r];
    out[r] = std::move(rq.inner[0]);
    for (std::size_t j = 1; j < giants; ++j) {
      rq.eval->add_inplace(out[r], rq.inner[j]);
    }
    for (std::size_t s = 0; s < p.tail; ++s) {
      const BsgsKeys::Rot& rot = rotation_key(*rq.keys, p.span << s);
      rq.eval->decompose_ntt_digits(out[r].a, rq.digits);
      rq.eval->add_inplace(out[r], rq.eval->rotate_hoisted(
                                       out[r], rq.digits, *rot.coeff,
                                       *rot.ntt, *rot.ksk));
    }
  };
  {
    CHAM_SPAN_ARG("bsgs.batch_tail", k * p.tail);
    if (threads > 1 && k > 1 && !ThreadPool::in_lane()) {
      ThreadPool::global().parallel_for(0, k, threads, finish);
    } else {
      for (std::size_t r = 0; r < k; ++r) finish(r);
    }
  }

  BaselineStats st;
  st.rotations = k * ((b - 1) + p.tail);
  st.rotations_hoisted = k * (b - 1);
  for (const BaselineStats& ls : lane_stats) st.merge(ls);

  // One publish per logical product, so "bsgs.runs" counts requests.
  const BaselineStats per = p.stats();
  CHAM_DCHECK(st.rotations == k * per.rotations &&
              st.plain_mults == k * per.plain_mults);
  for (std::size_t r = 0; r < k; ++r) publish_baseline_stats("bsgs", per);
  if (stats) stats->merge(st);
  return out;
}

std::vector<u64> BsgsHmvp::decrypt_result(const Ciphertext& ct,
                                          std::size_t rows,
                                          const Decryptor& dec) const {
  auto slots = encoder_.decode(dec.decrypt(ct));
  slots.resize(rows);
  return slots;
}

}  // namespace cham
