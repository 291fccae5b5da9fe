#include "lwe/pack.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "nt/bitops.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cham {

Ciphertext pack_two_lwes(const Evaluator& eval, int level_log,
                         const Ciphertext& ct_even, const Ciphertext& ct_odd,
                         const GaloisKeys& gk) {
  const std::size_t n = ct_even.n();
  CHAM_CHECK(level_log >= 1 &&
             (std::size_t{1} << level_log) <= n);
  const std::size_t mono = n >> level_log;  // X^{N/2^l}
  const u64 k = (1ULL << level_log) + 1;

  Ciphertext ct_mono = eval.multiply_monomial(ct_odd, mono);
  Ciphertext ct_plus = eval.add(ct_even, ct_mono);
  Ciphertext ct_minus = eval.sub(ct_even, ct_mono);
  Ciphertext ct_auto = eval.apply_galois(ct_minus, k, gk);
  eval.add_inplace(ct_plus, ct_auto);
  return ct_plus;
}

std::shared_ptr<const PackKeys> make_pack_keys(const Evaluator& eval,
                                               const GaloisKeys& gk,
                                               int max_level_log) {
  return eval.evk().pack_keys(gk, max_level_log);
}

namespace {

// Per-lane scratch arena: every buffer a merge needs, allocated once per
// pool lane and reused across all merges the lane executes (the
// RowScratch pattern from hmvp/). Keeps the hot loop allocation-free.
struct PackScratch {
  RnsPoly a_mono;   // base_q, coeff: X^shift · a_odd
  RnsPoly a_minus;  // base_q, coeff: a_even - a_mono
  RnsPoly a_auto;   // base_q, coeff: automorph(a_minus)
  RnsPoly a_ks;     // base_q, coeff: rounded a-side key-switch output
  RnsPoly b_minus;  // base_qp, eval: b_even - b_mono (p-scaled)
  RnsPoly acc_a;    // base_qp, eval: a-side key-switch accumulator
  std::vector<RnsPoly> digits;  // dnum × base_qp: hoisted NTT digits
};

void init_scratch(const BfvContextPtr& ctx, PackScratch& s) {
  s.a_mono = RnsPoly(ctx->base_q(), false);
  s.a_minus = RnsPoly(ctx->base_q(), false);
  s.a_auto = RnsPoly(ctx->base_q(), false);
  s.a_ks = RnsPoly(ctx->base_q(), false);
  s.b_minus = RnsPoly(ctx->base_qp(), true);
  s.acc_a = RnsPoly(ctx->base_qp(), true);
  s.digits.assign(ctx->dnum(), RnsPoly(ctx->base_qp(), false));
}

// Seed: lwe_to_rlwe with b built directly in the evaluation domain. The
// RLWE b polynomial of a fresh seed is the constant b_l (one nonzero
// coefficient at X^0), so its p-scaled evaluation form is every slot
// equal to (p mod q_l)·b_l — no forward NTT needed. The p-limb of p·b
// is identically zero.
void seed_node(const BfvContextPtr& ctx, const LweCiphertext& lwe,
               PackNode& node) {
  static obs::Counter& neg_rev_calls =
      obs::MetricsRegistry::global().counter("simd.neg_rev");
  const std::size_t n = lwe.n();
  const RnsBasePtr& base_q = ctx->base_q();
  const RnsBasePtr& base_qp = ctx->base_qp();
  const std::size_t kq = base_q->size();
  const u64 pv = base_qp->modulus(kq).value();

  node.b_qp = RnsPoly(base_qp, true);
  node.a_q = RnsPoly(base_q, false);
  for (std::size_t l = 0; l < kq; ++l) {
    const Modulus& ql = base_q->modulus(l);
    const u64 v = ql.mul(pv % ql.value(), lwe.b[l]);
    std::fill(node.b_qp.limb(l), node.b_qp.limb(l) + n, v);
    // Same negacyclic reverse as lwe_to_rlwe's a-side.
    neg_rev_calls.add();
    simd::active().neg_rev(lwe.a.limb(l), node.a_q.limb(l), n,
                           ql.value());
  }
  std::fill(node.b_qp.limb(kq), node.b_qp.limb(kq) + n, 0);
}

// One PackTwoLWEs merge, NTT-resident (paper pipeline stages 5–9):
//   ShiftNeg   b: cached pointwise twiddle product; a: coefficient shift
//   Add/Sub    plain limb-wise vector ops in each side's own domain
//   Automorph  b: evaluation-slot permutation; a: coefficient gather
//   KeySwitch  hoisted digits (12 forward NTTs, shared by both inner
//              products) against the Shoup-frozen key; the raw b
//              accumulator folds into the node (lazy mod-down), only the
//              a accumulator is rounded back to base_q (4 inverse NTTs)
// Total: 16 limb NTTs vs the reference merge's 20, zero allocations.
void merge_nodes(const Evaluator& eval, const PackKeys::Level& lvl,
                 PackNode& even, PackNode& odd, PackScratch& s) {
  const BfvContextPtr& ctx = eval.context();
  const RnsBasePtr& base_q = ctx->base_q();
  const RnsBasePtr& base_qp = ctx->base_qp();
  const std::size_t n = ctx->n();

  // a-side (base_q, coefficient domain).
  for (std::size_t l = 0; l < base_q->size(); ++l)
    poly_shiftneg(odd.a_q.limb(l), s.a_mono.limb(l), n, lvl.shift,
                  base_q->modulus(l));
  for (std::size_t l = 0; l < base_q->size(); ++l)
    poly_sub(even.a_q.limb(l), s.a_mono.limb(l), s.a_minus.limb(l), n,
             base_q->modulus(l));
  even.a_q.add_inplace(s.a_mono);  // a_plus, in place
  s.a_minus.automorph_into(*lvl.coeff, s.a_auto);

  // Hoisted decomposition: forward-NTT the digits of a_auto once; both
  // inner products below consume the same evaluation-form digits.
  eval.decompose_ntt_digits(s.a_auto, s.digits);

  // b-side (base_qp, evaluation domain, p-scaled throughout).
  lvl.mono->mul_pointwise(odd.b_qp, odd.b_qp);  // X^shift, elementwise
  for (std::size_t l = 0; l < base_qp->size(); ++l)
    poly_sub(even.b_qp.limb(l), odd.b_qp.limb(l), s.b_minus.limb(l), n,
             base_qp->modulus(l));
  even.b_qp.add_inplace(odd.b_qp);  // b_plus, in place
  // Automorph b_minus into the odd node's now-dead buffer, then fold.
  s.b_minus.automorph_into(*lvl.ntt, odd.b_qp);
  even.b_qp.add_inplace(odd.b_qp);

  // Key-switch inner products on the Shoup-frozen key. The b terms
  // accumulate straight into the lazy node (no per-merge rescale); the
  // a accumulator is rounded because the next level decomposes a.
  s.acc_a.set_zero();
  s.acc_a.set_ntt_form(true);
  for (std::size_t j = 0; j < s.digits.size(); ++j) {
    lvl.ksk->b[j].mul_pointwise_acc(s.digits[j], even.b_qp);
    lvl.ksk->a[j].mul_pointwise_acc(s.digits[j], s.acc_a);
  }
  s.acc_a.from_ntt();
  divide_round_by_last_into(s.acc_a, s.a_ks);
  even.a_q.add_inplace(s.a_ks);
}

}  // namespace

// Alg. 3, iterated bottom-up over NTT-resident nodes. The recursive
// formulation
//   pack(o, s, c) = P2L(log2 c, pack(o, 2s, c/2), pack(o+s, 2s, c/2))
// becomes: seed nodes[o] for o in [0, C), then for each level with
// subtree size c (stride s = C/c) merge
//   nodes[o] = P2L(log2 c, nodes[o], nodes[o+s])   for o in [0, s).
// All merges at a level touch disjoint nodes, so a level runs in parallel
// on pool lanes with per-lane scratch — the software analogue of the
// paper's pipelined PackTwoLWEs stages. The tree shape and the per-merge
// arithmetic are lane-independent, so the result is bit-identical for
// every thread count.
Ciphertext pack_lwes(const Evaluator& eval,
                     const std::vector<LweCiphertext>& lwes,
                     const PackKeys& keys, int threads) {
  CHAM_CHECK_MSG(!lwes.empty(), "nothing to pack");
  CHAM_CHECK_MSG(is_power_of_two(lwes.size()),
                 "pack_lwes needs a power-of-two count (pad with zero LWEs)");
  CHAM_CHECK_MSG(lwes.size() <= lwes[0].n(),
                 "cannot pack more LWEs than ring coefficients");
  const BfvContextPtr& ctx = eval.context();
  CHAM_CHECK_MSG(lwes[0].base == ctx->base_q(),
                 "pack_lwes expects base_q LWE ciphertexts");
  const std::size_t count = lwes.size();
  if (count == 1) return lwe_to_rlwe(lwes[0]);

  std::vector<PackNode> nodes(count);
  {
    CHAM_SPAN_ARG("pack.seed", count);
    ThreadPool::global().parallel_for(0, count, threads, [&](std::size_t i) {
      seed_node(ctx, lwes[i], nodes[i]);
    });
  }
  return pack_nodes(eval, nodes, /*from_level=*/1, keys, threads);
}

Ciphertext pack_nodes(const Evaluator& eval, std::vector<PackNode>& nodes,
                      int from_level, const PackKeys& keys, int threads) {
  const BfvContextPtr& ctx = eval.context();
  const std::size_t count = nodes.size();
  CHAM_CHECK_MSG(count >= 1 && is_power_of_two(count),
                 "pack_nodes needs a power-of-two node count");
  CHAM_CHECK_MSG(from_level >= 1, "tree levels start at 1");
  const int top_level = from_level - 1 + log2_exact(count);
  CHAM_CHECK_MSG((std::size_t{1} << top_level) <= ctx->n(),
                 "cannot pack more values than ring coefficients");
  CHAM_CHECK_MSG(count == 1 ||
                     keys.levels.size() > static_cast<std::size_t>(top_level),
                 "pack keys do not cover the tree depth");

  // Every merge of the coefficient-domain reference pays one extra
  // forward/inverse pair on the b side (acc_b inverse + the implicit
  // forward hidden in keeping b coefficient-resident); the lazy
  // evaluation-domain b never leaves NTT form between levels.
  static obs::Counter& saved =
      obs::MetricsRegistry::global().counter("hmvp.ntt_roundtrips_saved");
  saved.add(2 * (count - 1));

  auto& pool = ThreadPool::global();
  const int lane_cap = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(std::max(threads, 1)),
      std::max<std::size_t>(count / 2, 1)));
  std::vector<PackScratch> scratch(count > 1 ? static_cast<std::size_t>(lane_cap)
                                             : 0);
  for (auto& s : scratch) init_scratch(ctx, s);

  int level_log = from_level;
  for (std::size_t s = count / 2; s >= 1; s >>= 1, ++level_log) {
    const PackKeys::Level& lvl = keys.levels[static_cast<std::size_t>(level_log)];
    // One span per tree level (arg = level_log, paper Alg. 3's l).
    CHAM_SPAN_ARG("pack.level", level_log);
    const int lanes = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(lane_cap), s));
    pool.run(lanes, [&](int lane) {
      PackScratch& sc = scratch[static_cast<std::size_t>(lane)];
      for (std::size_t o = static_cast<std::size_t>(lane); o < s;
           o += static_cast<std::size_t>(lanes))
        merge_nodes(eval, lvl, nodes[o], nodes[o + s], sc);
    });
  }

  // The tree's only b-side mod-down: one inverse NTT over base_qp and
  // one divide-and-round by p.
  PackNode& root = nodes[0];
  root.b_qp.from_ntt(threads);
  Ciphertext out;
  out.b = RnsPoly(ctx->base_q(), false);
  divide_round_by_last_into(root.b_qp, out.b);
  out.a = std::move(root.a_q);
  return out;
}

Ciphertext pack_lwes(const Evaluator& eval,
                     const std::vector<LweCiphertext>& lwes,
                     const GaloisKeys& gk, int threads) {
  CHAM_CHECK_MSG(!lwes.empty(), "nothing to pack");
  if (lwes.size() == 1) return lwe_to_rlwe(lwes[0]);
  CHAM_CHECK_MSG(is_power_of_two(lwes.size()),
                 "pack_lwes needs a power-of-two count (pad with zero LWEs)");
  const auto keys = eval.evk().pack_keys(gk, log2_exact(lwes.size()));
  return pack_lwes(eval, lwes, *keys, threads);
}

Ciphertext pack_lwes_reference(const Evaluator& eval,
                               const std::vector<LweCiphertext>& lwes,
                               const GaloisKeys& gk, int threads) {
  CHAM_CHECK_MSG(!lwes.empty(), "nothing to pack");
  CHAM_CHECK_MSG(is_power_of_two(lwes.size()),
                 "pack_lwes needs a power-of-two count (pad with zero LWEs)");
  CHAM_CHECK_MSG(lwes.size() <= lwes[0].n(),
                 "cannot pack more LWEs than ring coefficients");
  const std::size_t count = lwes.size();
  auto& pool = ThreadPool::global();

  std::vector<Ciphertext> nodes(count);
  {
    CHAM_SPAN_ARG("pack.seed", count);
    pool.parallel_for(0, count, threads, [&](std::size_t i) {
      nodes[i] = lwe_to_rlwe(lwes[i]);
    });
  }

  std::size_t c = 2;
  for (std::size_t s = count / 2; s >= 1; s >>= 1, c <<= 1) {
    const int level_log = log2_exact(c);
    CHAM_SPAN_ARG("pack.level", level_log);
    pool.parallel_for(0, s, threads, [&](std::size_t o) {
      nodes[o] = pack_two_lwes(eval, level_log, nodes[o], nodes[o + s], gk);
    });
    nodes.resize(s);  // drop the consumed odd half
  }
  return std::move(nodes[0]);
}

}  // namespace cham
