#include "hmvp/hmvp.h"

#include <algorithm>
#include <functional>

#include "bfv/noise.h"
#include "common/thread_pool.h"
#include "nt/bitops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ring/poly_ops.h"

namespace cham {

namespace {

// Group nodes that share one pass over the rotations: the tile's nodes
// run inside each coefficient block, so a block of every rotation is
// fetched once per tile instead of once per node. At paper params,
// 128×4096, an in-process A/B of the earlier per-product loop measured 8
// about 0.5 ms per request ahead of 1.
constexpr std::size_t kNodeTile = 8;

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// Output layout of an A·v product and the group-node tiling of each
// packed output. Packed output g holds rows [g·N, g·N + group_rows(g));
// its pack tree has C = pack_count leaves, and its bottom L levels fold
// into `nodes` = C/2^L group nodes: node o owns the leaves (rows)
// o + j·nodes for j in [0, 2^L) — exactly the leaves the first L levels
// of the tree merge into nodes[o].
struct Geometry {
  std::size_t n = 0, rows = 0, cols = 0, chunks = 0, pack_count = 0;
  int levels = 0;          // L
  std::size_t sigmas = 0;  // 2^L rotations σ (σ = 0 is the identity)
  std::size_t nodes = 0;   // group nodes per packed output
  std::size_t outputs = 0;
  u64 scale = 0;  // packing correction (2^K)^{-1} mod t, folded into rows

  Geometry(const BfvContextPtr& ctx, std::size_t r, std::size_t c)
      : n(ctx->n()), rows(r), cols(c) {
    chunks = (cols + n - 1) / n;
    outputs = (rows + n - 1) / n;
    // All outputs share one pack geometry (that of a full group; the
    // last, possibly smaller, group is padded to the same shape for a
    // uniform output layout).
    pack_count = next_pow2(outputs > 1 ? n : rows);
    // The bottom pack levels hoisted in front of the products (DESIGN.md
    // §6j): as many as the worst-case noise bound certifies, at most
    // NoiseEstimator::kHmvpHoistLevels.
    levels = NoiseEstimator(ctx).hmvp_hoist_levels(log2_exact(pack_count),
                                                   chunks);
    sigmas = std::size_t{1} << levels;
    nodes = pack_count / sigmas;
    const Modulus& t = ctx->plain_modulus();
    scale = t.inv(static_cast<u64>(pack_count % t.value()));
  }

  std::size_t group_rows(std::size_t g) const {
    return std::min(n, rows - g * n);
  }
  // Nodes holding a real row form a prefix of output g's nodes: a node
  // whose first leaf is padding has only padding leaves, and its value
  // is the trivial encryption of zero.
  std::size_t live_nodes(std::size_t g) const {
    return std::min(nodes, group_rows(g));
  }
  // Index of Q_σ for (output g, node o, chunk c) in EncodedMatrix.
  std::size_t op_index(std::size_t g, std::size_t o, std::size_t sigma,
                       std::size_t c) const {
    return ((g * nodes + o) * sigmas + sigma) * chunks + c;
  }
};

// The Q_σ recursion of one group node, chunk by chunk, on plaintexts mod
// t. Leaves are the Eq.-1 encodings of the node's rows; each of the L
// bottom pack levels then maps a subtree pair (E, O) with m = N/2^l and
// τ = X -> X^{2^l+1} to
//   Q_σ = E_σ + X^m·O_σ,   Q_{τσ} = τ(E_σ − X^m·O_σ),
// the tree's merge with the ciphertext replaced by its plaintext
// factor. Monomials and automorphisms are signed permutations, so the
// whole recursion is exact mod t. Per-lane buffers; no allocation after
// construction.
class QBuilder {
 public:
  QBuilder(const HmvpEngine& engine, const Geometry& geo)
      : engine_(engine), geo_(geo),
        t_(engine.context()->plain_modulus()),
        rows_(geo.sigmas, simd::AlignedU64Vec(geo.cols, 0)),
        w_(geo.sigmas), shifted_(geo.n), diff_(geo.n) {
    const std::size_t n = geo.n;
    for (auto& pt : w_) pt.coeffs.assign(n, 0);
    const Evaluator eval(engine.context());
    for (int l = 1; l <= geo.levels; ++l) {
      tau_.push_back(eval.evk().automorph_table((u64{1} << l) + 1));
    }
  }

  // Read the node's rows (padding rows stay unread).
  void load(const RowSource& a, std::size_t g, std::size_t o) {
    g_ = g;
    o_ = o;
    for (std::size_t j = 0; j < geo_.sigmas; ++j) {
      if (real(j)) a.row(row(j), rows_[j].data());
    }
  }

  // Build every Q_σ of the loaded node for chunk c.
  void build(std::size_t c) {
    const std::size_t n = geo_.n;
    for (std::size_t j = 0; j < geo_.sigmas; ++j) {
      if (real(j)) {
        engine_.encode_row_chunk_into(rows_[j].data(), geo_.cols, c,
                                      geo_.scale, w_[j]);
      } else {
        std::fill(w_[j].coeffs.begin(), w_[j].coeffs.end(), 0);
      }
    }
    // In place, tree order: at level l the 2^{L-l+1} subtrees are
    // interleaved (entry e of subtree j at e·width + j), so the merge of
    // subtrees j and j + width/2 writes its entry pair (2e, 2e+1) over
    // the two inputs' entries e.
    std::size_t width = geo_.sigmas;
    for (int l = 1; l <= geo_.levels; ++l) {
      const std::size_t half = width / 2;
      const std::size_t m = n >> l;
      const AutomorphTable& tau = *tau_[static_cast<std::size_t>(l - 1)];
      for (std::size_t e = 0; e < (std::size_t{1} << (l - 1)); ++e) {
        for (std::size_t j = 0; j < half; ++j) {
          u64* even = w_[2 * e * half + j].coeffs.data();
          u64* odd = w_[(2 * e + 1) * half + j].coeffs.data();
          poly_shiftneg(odd, shifted_.data(), n, m, t_);
          poly_sub(even, shifted_.data(), diff_.data(), n, t_);
          poly_add(even, shifted_.data(), even, n, t_);
          poly_automorph(diff_.data(), odd, tau, t_);
        }
      }
      width = half;
    }
  }

  // Q_σ of the last build(). Tree order e spells the applied level
  // automorphisms most-significant-first; σ's bit l-1 marks τ_l.
  const Plaintext& q(std::size_t sigma) const {
    return w_[bit_reverse(static_cast<std::uint32_t>(sigma), geo_.levels)];
  }

 private:
  bool real(std::size_t j) const { return o_ + j * geo_.nodes < geo_.group_rows(g_); }
  std::size_t row(std::size_t j) const {
    return g_ * geo_.n + o_ + j * geo_.nodes;
  }

  const HmvpEngine& engine_;
  const Geometry& geo_;
  const Modulus& t_;
  std::vector<std::shared_ptr<const AutomorphTable>> tau_;  // τ_1..τ_L
  std::vector<simd::AlignedU64Vec> rows_;  // the node's matrix rows
  std::vector<Plaintext> w_;               // 2^L polynomials, tree order
  std::vector<u64> shifted_, diff_;
  std::size_t g_ = 0, o_ = 0;
};

// Supplies the NTT-domain operands Q_0..Q_{2^L-1} of (output g, node o,
// chunk c) into q[σ]. For a given node, chunk 0 is always requested
// first and chunks run in order; the operands stay valid until the
// lane's next request.
struct LaneScratch;
using QProvider = std::function<void(std::size_t g, std::size_t o,
                                     std::size_t c, LaneScratch&,
                                     const RnsPoly** q)>;

// Per-lane scratch arena: every buffer a rotation or a group node needs,
// allocated once per run so the lanes do no steady-state allocation.
struct LaneScratch {
  RnsPoly perm;  // base_qp, eval: a permuted key-switch digit
  RnsPoly a_qp;  // base_qp: a rotation's a, to be rescaled
  RnsPoly a_q;   // base_q, coeff: a rotation's rounded a
  std::unique_ptr<QBuilder> q;  // streaming path: the node's Q recursion
  std::vector<RnsPoly> q_ntt;   // streaming path: one chunk's Q_σ, base_qp
  // The group stage's dot products: a tile's operand sets (node-major,
  // one term per (chunk, σ) of the product), the term pointers of one
  // coefficient block, and the streaming path's per-chunk partial sums.
  std::vector<const RnsPoly*> q_set;
  std::vector<const u64*> xb, xa, w;
  simd::AlignedU64Vec part_b, part_a;

  LaneScratch(const BfvContextPtr& ctx, const HmvpEngine& engine,
              const Geometry& geo, bool streaming, std::size_t tile,
              std::size_t terms)
      : perm(ctx->base_qp(), true),
        a_qp(ctx->base_qp(), true),
        a_q(ctx->base_q(), false),
        q_set(tile * terms),
        xb(terms),
        xa(terms),
        w(terms) {
    if (streaming) {
      q = std::make_unique<QBuilder>(engine, geo);
      q_ntt.assign(geo.sigmas, RnsPoly(ctx->base_qp(), true));
      part_b.resize(kDotBlock);
      part_a.resize(kDotBlock);
    }
  }
};

// Per-request state, reused by every request of a batch in turn (no
// buffer scales with the batch): each request overwrites the one
// rotation set in place.
struct RequestScratch {
  std::vector<Ciphertext> rot;  // [c·2^L + σ] rot_σ(ct_c), base_qp eval
  // Key-switch digits of round(a/p) of rot[c·2^L + σ] for σ < 2^{L-1}:
  // the rotations that are rotated again by a higher level.
  std::vector<std::vector<RnsPoly>> digits;  // [c·2^{L-1} + σ]
  std::vector<PackNode> nodes;               // one packed output's nodes
  std::vector<RnsPoly> node_a;  // their a accumulators, base_qp eval

  RequestScratch(const BfvContextPtr& ctx, const Geometry& geo) {
    rot.resize(geo.chunks * geo.sigmas);
    for (auto& ct : rot) {
      ct.b = RnsPoly(ctx->base_qp(), true);
      ct.a = RnsPoly(ctx->base_qp(), true);
    }
    if (geo.levels > 0) {
      digits.assign(geo.chunks * (geo.sigmas / 2),
                    std::vector<RnsPoly>(ctx->dnum(),
                                         RnsPoly(ctx->base_qp(), false)));
    }
    nodes.resize(geo.nodes);
    for (auto& node : nodes) {
      node.b_qp = RnsPoly(ctx->base_qp(), true);
      node.a_q = RnsPoly(ctx->base_q(), false);
    }
    node_a.assign(geo.nodes, RnsPoly(ctx->base_qp(), true));
  }
};

// rot_{τσ}(ct) from rot_σ(ct) = (B, A) with the level key of τ: the
// automorphism permutes B and the digits of round(A/p) as evaluation
// slots, and the raw key-switch accumulators are left p-scaled over
// base_qp — B' = τ(B) + Σ_j ksk.b_j ∘ τ(D_j), A' = Σ_j ksk.a_j ∘ τ(D_j),
// so B' + A'·s ≈ τ(B + A·s) up to the rounding term τ(A mod p)·τ(s) and
// the key-switch noise.
void rotate_once(const PackKeys::Level& lvl, const Ciphertext& src,
                 const std::vector<RnsPoly>& digits, Ciphertext& dst,
                 RnsPoly& perm) {
  src.b.automorph_into(*lvl.ntt, dst.b);
  dst.a.set_zero();
  dst.a.set_ntt_form(true);
  for (std::size_t j = 0; j < digits.size(); ++j) {
    digits[j].automorph_into(*lvl.ntt, perm);
    lvl.ksk->b[j].mul_pointwise_acc(perm, dst.b);
    lvl.ksk->a[j].mul_pointwise_acc(perm, dst.a);
  }
}

// round(x.a / p) over base_q, decomposed into evaluation-form digits.
// x.a is in evaluation form unless it is a request ciphertext.
void decompose_rounded_a(const Evaluator& eval, const RnsPoly& a,
                         LaneScratch& s, std::vector<RnsPoly>& digits,
                         int threads) {
  if (a.is_ntt()) {
    std::copy(a.raw().begin(), a.raw().end(), s.a_qp.raw().begin());
    s.a_qp.set_ntt_form(true);
    s.a_qp.from_ntt();
    divide_round_by_last_into(s.a_qp, s.a_q);
  } else {
    divide_round_by_last_into(a, s.a_q);
  }
  eval.decompose_ntt_digits(s.a_q, digits, threads);
}

void check_request(const BfvContextPtr& ctx,
                   const std::vector<Ciphertext>& ct_v, std::size_t chunks) {
  CHAM_CHECK_MSG(ct_v.size() == chunks,
                 "vector ciphertext count must match ceil(cols/N)");
  for (const auto& ct : ct_v) {
    CHAM_CHECK_MSG(ct.base() == ctx->base_qp() && !ct.is_ntt(),
                   "vector ciphertexts must be augmented, coefficient form");
  }
}

// Stage 2 (MultPoly) of tile nodes [lo, hi) over chunks [c0, c0 + span):
// node o's accumulators get Σ_{c,σ} rot_σ(ct_c) ∘ Q_σ(g, o, c) on the b
// and a sides in one dot2 pass per limb and coefficient block. The
// nodes run inside each block, so a block of every rotation is fetched
// once per tile and each Q_σ once; s.q_set holds the tile's operands.
// A span after the first adds its partial sums to the accumulators.
void mac_tile(RequestScratch& rs, const Geometry& geo, std::size_t lo,
              std::size_t hi, std::size_t c0, std::size_t span,
              LaneScratch& s) {
  const RnsBasePtr& base = rs.rot[0].b.base();
  const std::size_t terms = span * geo.sigmas;
  for (std::size_t l = 0; l < base->size(); ++l) {
    const Modulus& q = base->modulus(l);
    for (std::size_t blk = 0; blk < geo.n; blk += kDotBlock) {
      const std::size_t len = std::min(kDotBlock, geo.n - blk);
      for (std::size_t j = 0; j < terms; ++j) {
        const Ciphertext& r = rs.rot[c0 * geo.sigmas + j];
        s.xb[j] = r.b.limb(l) + blk;
        s.xa[j] = r.a.limb(l) + blk;
      }
      for (std::size_t o = lo; o < hi; ++o) {
        const RnsPoly* const* q_o = s.q_set.data() + (o - lo) * terms;
        for (std::size_t j = 0; j < terms; ++j) {
          s.w[j] = q_o[j]->limb(l) + blk;
        }
        u64* out_b = rs.nodes[o].b_qp.limb(l) + blk;
        u64* out_a = rs.node_a[o].limb(l) + blk;
        if (c0 == 0) {
          poly_dot2(s.xb.data(), s.xa.data(), s.w.data(), terms, out_b,
                    out_a, len, q.value());
        } else {
          poly_dot2(s.xb.data(), s.xa.data(), s.w.data(), terms,
                    s.part_b.data(), s.part_a.data(), len, q.value());
          poly_add(out_b, s.part_b.data(), out_b, len, q);
          poly_add(out_a, s.part_a.data(), out_a, len, q);
        }
      }
    }
  }
}

// Publish one finished run's counters to the process-wide registry (the
// CHAM-BENCH snapshot side of the observability layer).
void publish_stats(const HmvpStats& st, std::size_t rows) {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("hmvp.runs").add(1);
  reg.counter("hmvp.rows").add(rows);
  reg.counter("hmvp.forward_ntts").add(st.forward_ntts);
  reg.counter("hmvp.inverse_ntts").add(st.inverse_ntts);
  reg.counter("hmvp.pointwise_mults").add(st.pointwise_mults);
  reg.counter("hmvp.rescales").add(st.rescales);
  reg.counter("hmvp.extracts").add(st.extracts);
  reg.counter("hmvp.pack_merges").add(st.pack_merges);
  reg.counter("hmvp.keyswitches").add(st.keyswitches);
}

// Shared sweep for a batch of same-matrix requests. Each request runs
// through the same three stages in turn, reusing one RequestScratch:
//   rotate  ct(v) to the NTT domain, then its 2^L - 1 rotations through
//           the level automorphisms (one hoisted decomposition for the
//           level-1..L rotations of ct(v) itself; a composite re-
//           decomposes its parent), all p-scaled over base_qp and left
//           plain: the group stage's lazy dot product needs no Shoup
//           quotients;
//   group   per packed output, node o = Σ_{σ,c} rot_σ(ct_c) ∘ Q_σ (one
//           dot2 pass for b and a), with one a-side INTT and rescale, on
//           pool lanes;
//   pack    the NTT-resident tree from level L + 1 (pack_nodes).
// A single request is the batch=1 case, so every entry point shares one
// code path and results are bit-exact across batch sizes and thread
// counts (the lanes only split independent rotations and nodes).
std::vector<HmvpResult> hmvp_run_batch(
    const HmvpEngine& engine, const Evaluator& eval, const GaloisKeys* gk,
    const Geometry& geo, const std::vector<HmvpBatchEntry>& entries,
    int threads, bool streaming, const QProvider& q_at) {
  CHAM_SPAN_ARG("hmvp.run", geo.rows);
  const BfvContextPtr& ctx = engine.context();
  const std::size_t batch = entries.size();
  CHAM_CHECK_MSG(batch >= 1, "empty request batch");
  for (const auto& entry : entries) {
    CHAM_CHECK_MSG(entry.ct_v->size() == geo.chunks,
                   "batched requests must share the chunk count");
    CHAM_CHECK_MSG((entry.gk ? entry.gk : gk) != nullptr ||
                       geo.pack_count == 1,
                   "Galois keys required to pack more than one row");
  }

  auto& pool = ThreadPool::global();
  const std::size_t lane_work = std::max<std::size_t>(
      geo.nodes, geo.chunks * std::max<std::size_t>(geo.sigmas / 2, 1));
  const int max_lanes = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(std::max(threads, 1)),
                            lane_work));
  // Group nodes per tile, and chunks per dot product: the streaming
  // provider builds one node's Q set one chunk at a time, so it runs
  // node by node and chunk by chunk.
  const std::size_t tile = streaming ? 1 : kNodeTile;
  const std::size_t span = streaming ? 1 : geo.chunks;
  const std::size_t terms = span * geo.sigmas;
  std::vector<LaneScratch> lanes;
  lanes.reserve(static_cast<std::size_t>(max_lanes));
  for (int i = 0; i < max_lanes; ++i) {
    lanes.emplace_back(ctx, engine, geo, streaming, tile, terms);
  }
  RequestScratch rs(ctx, geo);
  const PackKeys no_keys;
  const std::size_t qp_limbs = ctx->base_qp()->size();
  const std::size_t half = geo.sigmas / 2;

  std::vector<HmvpResult> results(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const std::vector<Ciphertext>& ct_v = *entries[b].ct_v;
    const Evaluator& pack_eval = entries[b].eval ? *entries[b].eval : eval;
    const GaloisKeys* pack_gk = entries[b].gk ? entries[b].gk : gk;
    HmvpResult& res = results[b];
    res.rows = geo.rows;
    res.pack_count = geo.pack_count;
    HmvpStats& st = res.stats;
    // Per-level operands (Shoup-frozen Galois keys, automorph tables,
    // monomial twiddles) from the request's evaluation-key manager:
    // frozen once per GaloisKeys, then a cache lookup.
    std::shared_ptr<const PackKeys> keys;
    if (geo.pack_count > 1) {
      keys = pack_eval.evk().pack_keys(*pack_gk, log2_exact(geo.pack_count));
    }
    const PackKeys& pk = keys ? *keys : no_keys;

    {
      // Stage 1 for the ciphertext side: every chunk of ct(v) to the
      // NTT domain (limb-parallel), plus the hoisted decomposition of
      // round(a/p) that all of ct(v)'s own rotations share.
      CHAM_SPAN_ARG("hmvp.to_ntt", geo.chunks);
      for (std::size_t c = 0; c < geo.chunks; ++c) {
        Ciphertext& r0 = rs.rot[c * geo.sigmas];
        std::copy(ct_v[c].b.raw().begin(), ct_v[c].b.raw().end(),
                  r0.b.raw().begin());
        std::copy(ct_v[c].a.raw().begin(), ct_v[c].a.raw().end(),
                  r0.a.raw().begin());
        r0.b.set_ntt_form(false);
        r0.a.set_ntt_form(false);
        r0.to_ntt(threads);
        st.forward_ntts += 2 * qp_limbs;
        if (geo.levels > 0) {
          decompose_rounded_a(eval, ct_v[c].a, lanes[0], rs.digits[c * half],
                              threads);
        }
      }
    }
    {
      // The rotation set, level by level: level l rotates every σ built
      // so far (σ < 2^{l-1}) by τ_l, writing σ + 2^{l-1}; the results
      // that a higher level rotates again are decomposed on the lane.
      CHAM_SPAN_ARG("hmvp.rotate", geo.chunks * (geo.sigmas - 1));
      for (int l = 1; l <= geo.levels; ++l) {
        const PackKeys::Level& lvl = pk.levels[static_cast<std::size_t>(l)];
        const std::size_t built = std::size_t{1} << (l - 1);
        const std::size_t tasks = geo.chunks * built;
        const int n_lanes = static_cast<int>(
            std::min<std::size_t>(static_cast<std::size_t>(max_lanes), tasks));
        pool.run(n_lanes, [&](int lane) {
          LaneScratch& s = lanes[static_cast<std::size_t>(lane)];
          for (std::size_t task = static_cast<std::size_t>(lane); task < tasks;
               task += static_cast<std::size_t>(n_lanes)) {
            const std::size_t c = task / built, sigma = task % built;
            const std::size_t dst = sigma + built;
            Ciphertext& out = rs.rot[c * geo.sigmas + dst];
            rotate_once(lvl, rs.rot[c * geo.sigmas + sigma],
                        rs.digits[c * half + sigma], out, s.perm);
            if (dst < half) {
              decompose_rounded_a(eval, out.a, s, rs.digits[c * half + dst], 1);
            }
          }
        });
      }
      st.keyswitches += geo.chunks * (geo.sigmas - 1);
    }

    res.packed.reserve(geo.outputs);
    for (std::size_t g = 0; g < geo.outputs; ++g) {
      const std::size_t live = geo.live_nodes(g);
      for (std::size_t o = 0; o < geo.nodes; ++o) {
        PackNode& node = rs.nodes[o];
        if (node.a_q.base() == nullptr) {  // moved out by the last tree
          node.a_q = RnsPoly(ctx->base_q(), false);
        }
        node.b_qp.set_ntt_form(true);
        if (o >= live) {
          node.b_qp.set_zero();
          node.a_q.set_zero();
        }
      }
      const std::size_t tiles = (live + tile - 1) / tile;
      const int n_lanes = static_cast<int>(
          std::min<std::size_t>(static_cast<std::size_t>(max_lanes), tiles));
      pool.run(n_lanes, [&](int lane) {
        LaneScratch& s = lanes[static_cast<std::size_t>(lane)];
        for (std::size_t k = static_cast<std::size_t>(lane); k < tiles;
             k += static_cast<std::size_t>(n_lanes)) {
          const std::size_t lo = k * tile, hi = std::min(live, lo + tile);
          CHAM_SPAN_ARG("hmvp.group", g * geo.nodes + lo);
          {
            // Stage 2 (MultPoly): one lazy (b, a) dot product per node,
            // limb and coefficient block over every (chunk, σ) term.
            CHAM_SPAN_ARG("hmvp.multiply_plain_ntt",
                          (hi - lo) * geo.chunks * geo.sigmas);
            for (std::size_t o = lo; o < hi; ++o) {
              rs.node_a[o].set_ntt_form(true);
            }
            for (std::size_t c0 = 0; c0 < geo.chunks; c0 += span) {
              for (std::size_t o = lo; o < hi; ++o) {
                for (std::size_t c = c0; c < c0 + span; ++c) {
                  q_at(g, o, c, s,
                       s.q_set.data() + (o - lo) * terms +
                           (c - c0) * geo.sigmas);
                }
              }
              mac_tile(rs, geo, lo, hi, c0, span, s);
            }
          }
          for (std::size_t o = lo; o < hi; ++o) {
            {
              // Stage 3 (INTT), a side only: b stays p-scaled in the
              // evaluation domain, the tree's lazy node form.
              CHAM_SPAN("hmvp.from_ntt");
              rs.node_a[o].from_ntt();
            }
            CHAM_SPAN("hmvp.rescale");
            divide_round_by_last_into(rs.node_a[o], rs.nodes[o].a_q);
          }
        }
      });
      st.pointwise_mults += live * geo.chunks * geo.sigmas * 2 * qp_limbs;
      st.inverse_ntts += live * qp_limbs;
      st.rescales += live;
      if (streaming) st.forward_ntts += live * geo.chunks * geo.sigmas * qp_limbs;

      CHAM_SPAN_ARG("hmvp.pack", geo.nodes);
      res.packed.push_back(
          pack_nodes(pack_eval, rs.nodes, geo.levels + 1, pk, threads));
      st.pack_merges += geo.nodes - 1;
      st.keyswitches += geo.nodes - 1;
    }
    publish_stats(st, geo.rows);
  }
  return results;
}

}  // namespace

HmvpEngine::HmvpEngine(BfvContextPtr context, const GaloisKeys* gk)
    : ctx_(std::move(context)), gk_(gk), encoder_(ctx_), eval_(ctx_) {}

std::vector<u64> HmvpEngine::required_galois_elements(std::size_t rows,
                                                      std::size_t cols) const {
  const Geometry geo(ctx_, rows, cols);
  std::vector<u64> out;
  for (std::size_t c = 2; c <= geo.pack_count; c <<= 1) out.push_back(c + 1);
  return out;
}

std::vector<Ciphertext> HmvpEngine::encrypt_vector(
    const std::vector<u64>& v, const Encryptor& enc) const {
  CHAM_CHECK_MSG(!v.empty(), "empty vector");
  const std::size_t n = ctx_->n();
  std::vector<Ciphertext> out;
  for (std::size_t start = 0; start < v.size(); start += n) {
    const std::size_t len = std::min(n, v.size() - start);
    std::vector<u64> chunk(v.begin() + start, v.begin() + start + len);
    out.push_back(enc.encrypt(encoder_.encode_vector(chunk)));
  }
  return out;
}

Plaintext HmvpEngine::encode_row_chunk(const u64* row, std::size_t cols,
                                       std::size_t chunk, u64 scale) const {
  Plaintext pt;
  encode_row_chunk_into(row, cols, chunk, scale, pt);
  return pt;
}

void HmvpEngine::encode_row_chunk_into(const u64* row, std::size_t cols,
                                       std::size_t chunk, u64 scale,
                                       Plaintext& pt) const {
  const std::size_t n = ctx_->n();
  const std::size_t start = chunk * n;
  CHAM_CHECK(start < cols);
  const std::size_t len = std::min(n, cols - start);
  encoder_.encode_matrix_row_into(row + start, len, scale, pt);
}

HmvpResult HmvpEngine::multiply(const RowSource& a,
                                const std::vector<Ciphertext>& ct_v,
                                int threads) const {
  CHAM_CHECK_MSG(threads >= 1, "thread count must be positive");
  CHAM_CHECK_MSG(a.rows() >= 1 && a.cols() >= 1, "empty matrix");
  const Geometry geo(ctx_, a.rows(), a.cols());
  check_request(ctx_, ct_v, geo.chunks);
  // Streaming stage 1 (plaintext side): each lane runs its node's Q
  // recursion per chunk, then lifts and transforms each Q_σ.
  const QProvider q_at = [&](std::size_t g, std::size_t o, std::size_t c,
                             LaneScratch& s, const RnsPoly** q) {
    CHAM_SPAN_ARG("hmvp.encode_row", g * geo.nodes + o);
    if (c == 0) s.q->load(a, g, o);
    s.q->build(c);
    for (std::size_t sigma = 0; sigma < geo.sigmas; ++sigma) {
      eval_.transform_plain_ntt_into(s.q->q(sigma), s.q_ntt[sigma]);
      q[sigma] = &s.q_ntt[sigma];
    }
  };
  auto results = hmvp_run_batch(*this, eval_, gk_, geo,
                                {HmvpBatchEntry{&ct_v}}, threads,
                                /*streaming=*/true, q_at);
  return std::move(results[0]);
}

EncodedMatrix HmvpEngine::encode_matrix(const RowSource& a,
                                        int threads) const {
  CHAM_SPAN_ARG("hmvp.encode_matrix", a.rows());
  CHAM_CHECK_MSG(threads >= 1, "thread count must be positive");
  CHAM_CHECK_MSG(a.rows() >= 1 && a.cols() >= 1, "empty matrix");
  const Geometry geo(ctx_, a.rows(), a.cols());
  EncodedMatrix enc;
  enc.rows_ = a.rows();
  enc.cols_ = a.cols();
  enc.chunks_ = geo.chunks;
  enc.pack_count_ = geo.pack_count;
  enc.q_ops_.resize(geo.outputs * geo.nodes * geo.sigmas * geo.chunks);
  const std::size_t work = geo.outputs * geo.nodes;
  const int lanes = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(threads), work));
  ThreadPool::global().run(lanes, [&](int lane) {
    QBuilder q(*this, geo);
    for (std::size_t i = static_cast<std::size_t>(lane); i < work;
         i += static_cast<std::size_t>(lanes)) {
      const std::size_t g = i / geo.nodes, o = i % geo.nodes;
      if (o >= geo.live_nodes(g)) continue;  // stays unbound: never read
      q.load(a, g, o);
      for (std::size_t c = 0; c < geo.chunks; ++c) {
        q.build(c);
        for (std::size_t sigma = 0; sigma < geo.sigmas; ++sigma) {
          enc.q_ops_[geo.op_index(g, o, sigma, c)] =
              eval_.transform_plain_ntt(q.q(sigma), ctx_->base_qp());
        }
      }
    }
  });
  return enc;
}

HmvpResult HmvpEngine::multiply_encoded(const EncodedMatrix& a,
                                        const std::vector<Ciphertext>& ct_v,
                                        int threads) const {
  auto results = multiply_encoded_batch(a, {&ct_v}, threads);
  return std::move(results[0]);
}

std::vector<HmvpResult> HmvpEngine::multiply_encoded_batch(
    const EncodedMatrix& a,
    const std::vector<const std::vector<Ciphertext>*>& ct_vs,
    int threads) const {
  std::vector<HmvpBatchEntry> entries(ct_vs.size());
  for (std::size_t b = 0; b < ct_vs.size(); ++b) entries[b].ct_v = ct_vs[b];
  return multiply_encoded_batch(a, entries, threads);
}

std::vector<HmvpResult> HmvpEngine::multiply_encoded_batch(
    const EncodedMatrix& a, const std::vector<HmvpBatchEntry>& batch,
    int threads) const {
  CHAM_CHECK_MSG(threads >= 1, "thread count must be positive");
  CHAM_CHECK_MSG(!batch.empty(), "empty request batch");
  const Geometry geo(ctx_, a.rows_, a.cols_);
  for (const auto& entry : batch) {
    CHAM_CHECK_MSG(entry.ct_v != nullptr, "null request in batch");
    check_request(ctx_, *entry.ct_v, geo.chunks);
  }
  const QProvider q_at = [&](std::size_t g, std::size_t o, std::size_t c,
                             LaneScratch&, const RnsPoly** q) {
    for (std::size_t sigma = 0; sigma < geo.sigmas; ++sigma) {
      q[sigma] = &a.q_ops_[geo.op_index(g, o, sigma, c)];
    }
  };
  return hmvp_run_batch(*this, eval_, gk_, geo, batch, threads,
                        /*streaming=*/false, q_at);
}

std::vector<u64> HmvpEngine::decrypt_result(const HmvpResult& res,
                                            const Decryptor& dec) const {
  const std::size_t n = ctx_->n();
  const std::size_t stride = n / res.pack_count;
  std::vector<u64> out(res.rows);
  for (std::size_t g = 0; g < res.packed.size(); ++g) {
    Plaintext pt = dec.decrypt(res.packed[g]);
    const std::size_t group_rows = std::min(n, res.rows - g * n);
    for (std::size_t r = 0; r < group_rows; ++r) {
      out[g * n + r] = pt.coeffs[r * stride];
    }
  }
  return out;
}

std::vector<u64> HmvpEngine::reference(const RowSource& a,
                                       const std::vector<u64>& v, u64 t) {
  CHAM_CHECK(v.size() == a.cols());
  Modulus mt(t);
  std::vector<u64> out(a.rows());
  std::vector<u64> row(a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    a.row(i, row.data());
    u64 acc = 0;
    for (std::size_t j = 0; j < a.cols(); ++j) {
      acc = mt.add(acc, mt.mul(row[j] % t, v[j] % t));
    }
    out[i] = acc;
  }
  return out;
}

}  // namespace cham
