// Homomorphic matrix-vector product (paper Alg. 1) — CHAM's target
// workload, built from coefficient encoding (Eq. 1), plaintext
// multiplication and PackLWEs packing.
//
// The engine computes the same packed result as Alg. 1's row product →
// rescale → ExtractLWEs → PackLWEs pipeline with the bottom L pack levels
// hoisted in front of the products (DESIGN.md §6j): the tree is linear and
// every row product multiplies the same ct(v), so a 2^L-leaf subtree
// equals Σ_σ rot_σ(ct(v))·Q_σ for plaintexts Q_σ that depend only on the
// matrix. A request pays 2^L - 1 rotations of ct(v) per chunk and
// C/2^L - 1 tree merges instead of C - 1 merges, and extracts no LWE at
// all; L <= 4 is as deep as the worst-case noise bound certifies
// (NoiseEstimator::hmvp_hoist_levels). Responses decrypt to A·v at the
// same coefficients as Alg. 1's.
//
// Shapes beyond one ring dimension are tiled:
//  * cols > N: the vector is split into ceil(cols/N) chunk ciphertexts;
//    a row's dot product accumulates one plaintext multiplication per
//    chunk before extraction (the paper notes this aggregation cost for
//    n >= m in Fig. 6).
//  * rows > N: outputs are emitted as ceil(rows/N) packed ciphertexts.
#pragma once

#include "bfv/decryptor.h"
#include "bfv/encoder.h"
#include "bfv/encryptor.h"
#include "bfv/evaluator.h"
#include "bfv/keygen.h"
#include "hmvp/matrix.h"
#include "lwe/pack.h"

namespace cham {

// Operation counts for one HMVP evaluation. The engine also publishes
// them to the process-wide obs::MetricsRegistry (counters "hmvp.*") after
// every run. Transforms inside key-switches (rotations and merges) are
// counted by `keyswitches`, not by the NTT fields. The accelerator model
// (src/sim) still counts the paper's per-row order.
struct HmvpStats {
  // Limb NTTs of stage 1: the ct(v) chunks (2 polys × base_qp limbs
  // each), plus on the streaming path every Q_σ lifted to base_qp.
  std::uint64_t forward_ntts = 0;
  std::uint64_t inverse_ntts = 0;   // group-node a-side INTTs, per limb
  std::uint64_t pointwise_mults = 0;  // limb-polynomial MultPoly ops
  std::uint64_t rescales = 0;  // group-node a-side rescales
  std::uint64_t extracts = 0;  // LWE extractions: 0, the nodes need none
  std::uint64_t pack_merges = 0;  // PackTwoLWEs merges left in the tree
  // Rotations of ct(v) (2^L - 1 per chunk) plus pack_merges.
  std::uint64_t keyswitches = 0;

  // Field-wise accumulation (per-lane partial stats into the run total).
  void merge(const HmvpStats& o) {
    forward_ntts += o.forward_ntts;
    inverse_ntts += o.inverse_ntts;
    pointwise_mults += o.pointwise_mults;
    rescales += o.rescales;
    extracts += o.extracts;
    pack_merges += o.pack_merges;
    keyswitches += o.keyswitches;
  }
};

// Result: one packed ciphertext per group of up to N rows, plus the layout
// needed to read the outputs back.
struct HmvpResult {
  std::vector<Ciphertext> packed;
  std::size_t rows = 0;
  std::size_t pack_count = 0;  // rows packed per ciphertext (power of two)
  HmvpStats stats;

  // Coefficient index of row r (within its group's ciphertext).
  std::size_t coeff_index(std::size_t r, std::size_t n) const {
    return (r % n) * (n / pack_count);
  }
};

// A matrix pre-encoded into the engine's NTT-domain plaintext operands:
// for every group node of 2^L rows, its Q_σ (one per rotation σ and
// chunk), built from the rows' Eq.-1 encodings by the bottom pack levels
// mod t. Amortises the encode+NTT across repeated products with the same
// matrix — the HeteroLR case, where X^T is fixed across training
// iterations. Memory: one polynomial of 3N words per row and chunk
// (rounded up to whole nodes; nodes holding only padding rows store
// nothing); prefer the streaming HmvpEngine::multiply for very large
// matrices.
class EncodedMatrix {
 public:
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t pack_count() const { return pack_count_; }

 private:
  friend class HmvpEngine;
  std::size_t rows_ = 0, cols_ = 0, chunks_ = 0, pack_count_ = 0;
  // [((output·nodes + node)·2^L + σ)·chunks + chunk], NTT base_qp
  std::vector<RnsPoly> q_ops_;
};

// One request of a coalesced batch. The rotations of ct(v) and the pack
// tree consume the request's own key material, so each request may carry
// its own Galois keys and a session-bound Evaluator (whose EvkManager
// caches that client's frozen pack operands); the matrix operands are
// shared by the batch. Null fields fall back to the engine's own
// evaluator/keys — the single-tenant case.
struct HmvpBatchEntry {
  const std::vector<Ciphertext>* ct_v = nullptr;
  const Evaluator* eval = nullptr;
  const GaloisKeys* gk = nullptr;
};

class HmvpEngine {
 public:
  // gk must hold required_galois_elements(rows, cols).
  HmvpEngine(BfvContextPtr context, const GaloisKeys* gk);

  // Sorted Galois elements a rows×cols product consumes: the pack-tree
  // elements 2^l + 1 for l = 1..log2(pack_count), pack_count =
  // min(N, next_pow2(rows)) — the hoisted rotations of ct(v) use the
  // same elements as the bottom tree levels.
  std::vector<u64> required_galois_elements(std::size_t rows,
                                            std::size_t cols) const;

  // Encrypt the input vector (splitting into chunks of N).
  std::vector<Ciphertext> encrypt_vector(const std::vector<u64>& v,
                                         const Encryptor& enc) const;

  // Alg. 1: A · v homomorphically. ct_v are the chunk ciphertexts of v
  // (augmented level, coefficient domain). `threads` caps the pool lanes
  // used for the ct(v) NTTs, the rotations of ct(v), the group nodes and
  // each level of the packing tree (Sec. III-C's multi-threaded host).
  // The rotated ct(v) chunks are frozen into Shoup form once and reused
  // by every group node; each lane works out of a preallocated scratch
  // arena, so the sweep performs no steady-state heap allocation.
  // Results are bit-exact for every thread count.
  HmvpResult multiply(const RowSource& a, const std::vector<Ciphertext>& ct_v,
                      int threads = 1) const;

  // Pre-encode a matrix for repeated products (see EncodedMatrix); group
  // nodes encode in parallel on up to `threads` pool lanes.
  EncodedMatrix encode_matrix(const RowSource& a, int threads = 1) const;
  // Alg. 1 against a pre-encoded matrix: skips the encode+NTT.
  // Same threading and bit-exactness contract as multiply().
  HmvpResult multiply_encoded(const EncodedMatrix& a,
                              const std::vector<Ciphertext>& ct_v,
                              int threads = 1) const;

  // Coalesced same-matrix sweep (the serving layer's batching primitive):
  // computes A·v_i for every request i, one request at a time through
  // one set of scratch buffers. Every request must have the same chunk
  // count (same matrix ⇒ trivially true). Result i is bit-exact with
  // multiply_encoded(a, ct_vs[i], threads) — both run the batch sweep,
  // the single-shot path being its batch=1 case.
  std::vector<HmvpResult> multiply_encoded_batch(
      const EncodedMatrix& a,
      const std::vector<const std::vector<Ciphertext>*>& ct_vs,
      int threads = 1) const;
  // Multi-tenant form: per-request Galois keys / session evaluators (see
  // HmvpBatchEntry) so one sweep can serve requests from different
  // client sessions — the pack stage switches keys per request.
  std::vector<HmvpResult> multiply_encoded_batch(
      const EncodedMatrix& a, const std::vector<HmvpBatchEntry>& batch,
      int threads = 1) const;

  // Decrypt + decode the result vector (length a.rows()).
  std::vector<u64> decrypt_result(const HmvpResult& res,
                                  const Decryptor& dec) const;

  // Plaintext reference A·v mod t.
  static std::vector<u64> reference(const RowSource& a,
                                    const std::vector<u64>& v, u64 t);

  // Eq. 1 chunk encoding, exposed for the accelerator model: encodes
  // row entries [chunk*N, chunk*N + len) with the packing correction
  // factor folded in.
  Plaintext encode_row_chunk(const u64* row, std::size_t cols,
                             std::size_t chunk, u64 scale) const;
  // Allocation-free variant (pt is overwritten, resized to N).
  void encode_row_chunk_into(const u64* row, std::size_t cols,
                             std::size_t chunk, u64 scale,
                             Plaintext& pt) const;

  const BfvContextPtr& context() const { return ctx_; }

 private:
  BfvContextPtr ctx_;
  const GaloisKeys* gk_;
  CoeffEncoder encoder_;
  Evaluator eval_;
};

}  // namespace cham
