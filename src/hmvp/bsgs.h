// Hoisted-rotation BSGS diagonal HMVP — the SIMD method as a contender.
//
// GAZELLE's hybrid diagonal layout (Juvekar et al.; DESIGN.md §6h): a
// rows×cols product needs only D = min(cols, m') diagonals, m' =
// next_pow2(rows), each of length L = max(cols, m'), followed by
// log2(L/m') rotate-and-add steps that fold the L/m' partial sums of every
// output row together. Tall and square shapes (m' >= cols) have no tail
// and one diagonal per column. The rotation cost is restructured around
// Halevi–Shoup hoisting:
//  * ct(v) is decomposed into evaluation-form key-switch digits ONCE;
//    every baby-step rotation is then a slot gather on the shared digit
//    vector plus one inner product against a Shoup-frozen Galois KSK
//    (EvkManager::bsgs_keys) — the ~sqrt(D) baby steps pay one digit
//    decomposition (dnum·(k+1) forward NTTs) between them instead of one
//    each.
//  * Baby-step ciphertexts stay NTT-resident and Shoup-frozen, so every
//    diagonal product is a pointwise multiply-accumulate — the per-product
//    NTT/INTT round trip the naive baseline pays per diagonal disappears.
//  * Giant steps run the same decompose-then-permute pipeline over the
//    accumulated inner sums (one decomposition each — the sums differ),
//    parallelized over pool lanes with per-lane scratch; the final
//    accumulation order is fixed, so results are bit-exact for every
//    thread count.
//
// DESIGN.md §6h maps the shared decomposition onto CHAM's on-chip digit
// reuse and documents the measured per-shape crossover vs the
// coefficient-encoding HmvpEngine.
#pragma once

#include "bfv/decryptor.h"
#include "bfv/encoder.h"
#include "bfv/encryptor.h"
#include "bfv/evaluator.h"
#include "bfv/keygen.h"
#include "hmvp/matrix.h"

namespace cham {

// Operation counters of the slot-encoded (SIMD) methods: BsgsHmvp and the
// strawmen in hmvp/baseline.h.
struct BaselineStats {
  std::uint64_t rotations = 0;   // ciphertext rotations (keyswitches)
  std::uint64_t rotations_hoisted = 0;  // rotations off a shared decomposition
  std::uint64_t plain_mults = 0;

  void merge(const BaselineStats& o) {
    rotations += o.rotations;
    rotations_hoisted += o.rotations_hoisted;
    plain_mults += o.plain_mults;
  }
};

// Publish one finished run's counters to the process-wide registry as
// "<prefix>.runs/.rotations/.rotations_hoisted/.plain_mults" — the
// CHAM-METRICS side of every SIMD-method bench line.
void publish_baseline_stats(const char* prefix, const BaselineStats& st);

// The repo's MVP algorithm surface: apps and the serving layer pick per
// matrix shape (choose_mvp_algorithm), benches A/B all of them.
enum class MvpAlgorithm {
  kCoefficient,  // paper Alg. 1 (HmvpEngine) — coefficient encoding
  kBsgs,         // hoisted-rotation BSGS diagonal (BsgsHmvp)
  kDiagonal,     // naive baby-step/giant-step diagonal (DiagonalHmvp)
  kRotateSum,    // rotate-and-sum baseline (RotateSumHmvp)
};

const char* mvp_algorithm_name(MvpAlgorithm alg);

// Shape-based selection between the two production engines (the two
// baselines are strawmen and never chosen). Transform-count model, see
// DESIGN.md §6h: coefficient-encoding costs ~22 limb transforms per row;
// BSGS costs ~2 per column plus ~14 per rotation. Shapes the diagonal
// method cannot express (cols not a power of two or either dimension
// beyond N/2 slots) fall back to the coefficient engine.
MvpAlgorithm choose_mvp_algorithm(std::size_t rows, std::size_t cols,
                                  std::size_t ring_n);

// The hybrid layout and sweep schedule of one rows×cols product. Output
// row r < rows is read from slot r; diagonal d < D covers slots [0, L)
// with diag_d[i] = A[i mod m'][(i+d) mod cols] (zero where i mod m' >=
// rows), and v is tiled with period cols so slot rotations act mod cols.
struct BsgsPlan {
  std::size_t rows = 0, cols = 0;
  std::size_t span = 0;       // m' = next_pow2(rows)
  std::size_t diagonals = 0;  // D = min(cols, m')
  std::size_t length = 0;     // L = max(cols, m')
  std::size_t baby = 0;       // b' = min(baby_steps(cols), D)
  std::size_t giants = 0;     // ceil(D / b')
  std::size_t tail = 0;       // log2(L / m') rotate-and-add steps

  static BsgsPlan of(std::size_t rows, std::size_t cols);

  // Every slot rotation one product applies, in sweep order: baby steps
  // 1..b'-1, giant steps j·b', then the tail's m'·2^k. Each one is in
  // BsgsHmvp::required_galois_elements(cols).
  std::vector<std::size_t> rotations() const;

  // The counters one product adds.
  BaselineStats stats() const;
};

// A matrix pre-encoded into the NTT-domain diagonal plaintexts the BSGS
// giant-step sweep consumes: diagonal d = j·b'+i is pre-rotated right by
// j·b' slots (the single giant rotation of the inner sum re-aligns every
// term), encoded and centered-lifted to base_q and NTT'd. The streaming
// multiply() encodes through the same builder, so encoded products are
// bit-exact with streaming ones. Amortises the D diagonal
// encode+transform passes across repeated products with the same matrix
// (the serving layer's cross-request encode cache). Memory: D =
// min(cols, next_pow2(rows)) polynomials of |base_q|·N words each.
class BsgsEncodedMatrix {
 public:
  std::size_t rows() const { return plan_.rows; }
  std::size_t cols() const { return plan_.cols; }
  const BsgsPlan& plan() const { return plan_; }

 private:
  friend class BsgsHmvp;
  BsgsPlan plan_;
  std::vector<RnsPoly> diag_ntt_;  // [d = j·b' + i], NTT domain, base_q
};

// One request of a coalesced BSGS batch. Unlike the coefficient engine's
// key-free row sweep, every stage here consumes per-session material: the
// hoisted digit decomposition of this request's ct(v).a and the rotations
// against this session's frozen BsgsKeys. The batch therefore runs as
// per-session sub-batches inside one sweep — only the diagonal operands
// (BsgsEncodedMatrix) are shared across sessions. Null eval/gk fall back
// to the engine's own — the single-tenant case.
struct BsgsBatchEntry {
  const Ciphertext* ct_v = nullptr;
  const Evaluator* eval = nullptr;
  const GaloisKeys* gk = nullptr;
};

class BsgsHmvp {
 public:
  // n_cols must be a power of two <= N/2; rows <= N/2.
  BsgsHmvp(BfvContextPtr context, const GaloisKeys* gk);

  // Largest power of two <= sqrt(n_cols). Fixes the Galois key set of a
  // column count; a plan's b' never exceeds it.
  static std::size_t baby_steps(std::size_t n_cols);

  // Sorted, deduplicated Galois elements for every plan with n_cols
  // columns: rotations 1..b-1 and j·b below n_cols (b = baby_steps). The
  // hybrid tail needs no more: each m'·2^k < n_cols is a power of two, so
  // it is either below b or a multiple of b.
  std::vector<u64> required_galois_elements(std::size_t n_cols) const;

  // Encrypt v tiled to fill the N/2 row-0 slots (period |v|).
  Ciphertext encrypt_vector(const std::vector<u64>& v,
                            const Encryptor& enc) const;

  // A·v with hoisted rotations: multiply_encoded(encode_matrix(a)).
  // `threads` caps the pool lanes used for the diagonal encode, the
  // shared decomposition, the baby-step fan-out and the giant-step sweep.
  // Bit-exact for every thread count.
  Ciphertext multiply(const RowSource& a, const Ciphertext& ct_v,
                      BaselineStats* stats = nullptr, int threads = 1) const;

  // Encode the matrix's D hybrid diagonals (see BsgsEncodedMatrix) on up
  // to `threads` pool lanes.
  BsgsEncodedMatrix encode_matrix(const RowSource& a, int threads = 1) const;

  // A·v against a pre-encoded diagonal set; a batch of one.
  Ciphertext multiply_encoded(const BsgsEncodedMatrix& a,
                              const Ciphertext& ct_v,
                              BaselineStats* stats = nullptr,
                              int threads = 1) const;

  // Coalesced same-matrix sweep (the serving layer's batching primitive):
  // the diagonal operands are fetched once for the whole batch; each
  // request runs its own per-session sub-batch (digit decomposition, baby
  // fan-out, giant and tail rotations against its session's frozen
  // BsgsKeys). Result i is bit-exact with multiply_encoded(a,
  // *batch[i].ct_v) under that request's keys, for every thread count and
  // batch composition.
  std::vector<Ciphertext> multiply_encoded_batch(
      const BsgsEncodedMatrix& a, const std::vector<BsgsBatchEntry>& batch,
      BaselineStats* stats = nullptr, int threads = 1) const;

  // The first `rows` slots of a product's row 0.
  std::vector<u64> decrypt_result(const Ciphertext& ct, std::size_t rows,
                                  const Decryptor& dec) const;

 private:
  BfvContextPtr ctx_;
  const GaloisKeys* gk_;
  BatchEncoder encoder_;
  Evaluator eval_;
};

}  // namespace cham
