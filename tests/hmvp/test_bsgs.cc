// Hoisted-rotation BSGS HMVP coverage.
//
// The equivalence fuzz (HoistedRotationBitExact*) asserts
// rotate_rows_hoisted ≡ rotate_rows bit for bit over shared digits, for
// every Galois element a BSGS plan needs, at threads 1 and 8. CI re-runs
// this binary at every compiled SIMD dispatch level (default, forced
// scalar, SDE-emulated IFMA) and under TSan, so the identity is pinned
// per backend.
#include "hmvp/bsgs.h"

#include <gtest/gtest.h>

#include "hmvp/baseline.h"
#include "hmvp/hmvp.h"
#include "nt/bitops.h"

namespace cham {
namespace {

struct BsgsFixture {
  explicit BsgsFixture(std::size_t n = 128, u64 seed = 33)
      : BsgsFixture(BfvParams::test(n), seed) {}
  BsgsFixture(const BfvParams& params, u64 seed)
      : rng(seed),
        ctx(BfvContext::create(params)),
        keygen(ctx, rng),
        pk(keygen.make_public_key()),
        encryptor(ctx, &pk, nullptr, rng),
        decryptor(ctx, keygen.secret_key()) {}

  GaloisKeys keys_for(const std::vector<u64>& elements) {
    return keygen.make_galois_keys(0, elements);
  }

  std::vector<u64> random_vector(std::size_t len) {
    std::vector<u64> v(len);
    for (auto& x : v) x = rng.uniform(ctx->params().t);
    return v;
  }

  Rng rng;
  BfvContextPtr ctx;
  KeyGenerator keygen;
  PublicKey pk;
  Encryptor encryptor;
  Decryptor decryptor;
};

void expect_poly_eq(const RnsPoly& x, const RnsPoly& y) {
  ASSERT_EQ(x.limbs(), y.limbs());
  ASSERT_EQ(x.is_ntt(), y.is_ntt());
  EXPECT_TRUE(x.raw() == y.raw());
}

void expect_ct_eq(const Ciphertext& x, const Ciphertext& y) {
  expect_poly_eq(x.b, y.b);
  expect_poly_eq(x.a, y.a);
}

// rotate_rows_hoisted over one shared decomposition must reproduce
// rotate_rows (which decomposes fresh per call) bit for bit, for every
// element of the BSGS plan — this is what lets the baby steps share one
// decomposition without changing any downstream bit.
TEST(Bsgs, HoistedRotationBitExactAcrossPlanElements) {
  BsgsFixture f(128);
  const std::size_t n_cols = 64;
  BsgsHmvp probe(f.ctx, nullptr);
  auto gk = f.keys_for(probe.required_galois_elements(n_cols));
  Evaluator eval(f.ctx);

  auto v = f.random_vector(n_cols);
  BsgsHmvp engine(f.ctx, &gk);
  Ciphertext ct_q = eval.rescale(engine.encrypt_vector(v, f.encryptor));

  std::vector<RnsPoly> digits(f.ctx->dnum(),
                              RnsPoly(f.ctx->base_qp(), false));
  eval.decompose_ntt_digits(ct_q.a, digits);

  const std::size_t b = BsgsHmvp::baby_steps(n_cols);
  std::vector<std::size_t> rotations;
  for (std::size_t i = 1; i < b; ++i) rotations.push_back(i);
  for (std::size_t j = 1; j < (n_cols + b - 1) / b; ++j) {
    rotations.push_back(j * b);
  }
  for (std::size_t r : rotations) {
    SCOPED_TRACE(r);
    Ciphertext fresh = eval.rotate_rows(ct_q, r, gk);
    Ciphertext hoisted = eval.rotate_rows_hoisted(ct_q, digits, r, gk);
    expect_ct_eq(fresh, hoisted);
  }
}

TEST(Bsgs, HoistedRotationBitExactThreadedDigits) {
  // The shared decomposition must be bit-exact however many lanes build
  // it, so hoisted rotations stay deterministic under the pool.
  BsgsFixture f(128);
  const std::size_t n_cols = 64;
  BsgsHmvp probe(f.ctx, nullptr);
  auto gk = f.keys_for(probe.required_galois_elements(n_cols));
  Evaluator eval(f.ctx);
  BsgsHmvp engine(f.ctx, &gk);
  Ciphertext ct_q =
      eval.rescale(engine.encrypt_vector(f.random_vector(n_cols),
                                         f.encryptor));

  std::vector<RnsPoly> d1(f.ctx->dnum(), RnsPoly(f.ctx->base_qp(), false));
  std::vector<RnsPoly> d8(f.ctx->dnum(), RnsPoly(f.ctx->base_qp(), false));
  eval.decompose_ntt_digits(ct_q.a, d1, 1);
  eval.decompose_ntt_digits(ct_q.a, d8, 8);
  for (std::size_t j = 0; j < d1.size(); ++j) expect_poly_eq(d1[j], d8[j]);

  Ciphertext r1 = eval.rotate_rows_hoisted(ct_q, d1, 3, gk);
  Ciphertext r8 = eval.rotate_rows_hoisted(ct_q, d8, 3, gk);
  expect_ct_eq(r1, r8);
}

TEST(Bsgs, RotateRowsZeroIsIdentityWithoutKeys) {
  BsgsFixture f(64);
  Evaluator eval(f.ctx);
  GaloisKeys empty;
  auto v = f.random_vector(8);
  BatchEncoder enc(f.ctx);
  std::vector<u64> slots(f.ctx->n(), 0);
  std::copy(v.begin(), v.end(), slots.begin());
  Ciphertext ct = f.encryptor.encrypt(enc.encode(slots));
  Ciphertext ct_q = eval.rescale(ct);
  std::vector<RnsPoly> digits(f.ctx->dnum(),
                              RnsPoly(f.ctx->base_qp(), false));
  eval.decompose_ntt_digits(ct_q.a, digits);
  expect_ct_eq(eval.rotate_rows(ct_q, 0, empty),
               eval.rotate_rows_hoisted(ct_q, digits, 0, empty));
}

// The hybrid plan's counters from first principles: m' = next_pow2(rows),
// D = min(cols, m') diagonals, L = max(cols, m'), b' = min(baby_steps,
// D) hoisted baby steps, ceil(D/b') giants and log2(L/m') tail steps.
BaselineStats expected_stats(std::size_t m, std::size_t n) {
  std::size_t span = 1;
  while (span < m) span <<= 1;
  const std::size_t d = std::min(n, span);
  const std::size_t l = std::max(n, span);
  const std::size_t b = std::min(BsgsHmvp::baby_steps(n), d);
  const std::size_t giants = (d + b - 1) / b;
  BaselineStats st;
  st.plain_mults = d;
  st.rotations_hoisted = b - 1;
  st.rotations = (b - 1) + (giants - 1) + log2_exact(l / span);
  return st;
}

using Shape = std::pair<std::size_t, std::size_t>;

class BsgsShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(BsgsShapeTest, MatchesReferenceAndStats) {
  const auto [m, n] = GetParam();
  BsgsFixture f(128, m * 257 + n);
  BsgsHmvp probe(f.ctx, nullptr);
  auto gk = f.keys_for(probe.required_galois_elements(n));
  BsgsHmvp engine(f.ctx, &gk);

  auto a = DenseMatrix::random(m, n, f.ctx->params().t, f.rng);
  auto v = f.random_vector(n);
  BaselineStats stats;
  auto ct = engine.multiply(a, engine.encrypt_vector(v, f.encryptor), &stats);
  EXPECT_EQ(engine.decrypt_result(ct, m, f.decryptor),
            HmvpEngine::reference(a, v, f.ctx->params().t));
  const BaselineStats want = expected_stats(m, n);
  EXPECT_EQ(stats.rotations, want.rotations);
  EXPECT_EQ(stats.rotations_hoisted, want.rotations_hoisted);
  EXPECT_EQ(stats.plain_mults, want.plain_mults);
}

// Square and tall shapes keep one diagonal per column and no tail; wide
// ones (next_pow2(rows) < cols, rows not a power of two included) take
// the hybrid tail, down to a single diagonal at one row.
INSTANTIATE_TEST_SUITE_P(
    Shapes, BsgsShapeTest,
    ::testing::Values(Shape(4, 4), Shape(16, 16), Shape(8, 64),
                      Shape(64, 64), Shape(10, 16), Shape(64, 8),
                      Shape(1, 2), Shape(5, 64), Shape(24, 64),
                      Shape(1, 64)));

TEST(Bsgs, PlanRotationsAreInTheColumnKeySet) {
  // The hybrid tail adds no Galois key: for every column count the ring
  // admits and every row count, each rotation of the plan is one of
  // required_galois_elements(cols) — so hello frames and BsgsKeys are
  // unchanged by the layout.
  auto ctx = BfvContext::create(BfvParams::paper());
  const std::size_t half = ctx->n() / 2;
  BsgsHmvp probe(ctx, nullptr);
  BatchEncoder encoder(ctx);
  for (std::size_t n = 1; n <= half; n <<= 1) {
    SCOPED_TRACE(n);
    const auto elems = probe.required_galois_elements(n);
    for (std::size_t m = 1; m <= half; ++m) {
      const BsgsPlan plan = BsgsPlan::of(m, n);
      const auto rots = plan.rotations();
      ASSERT_EQ(rots.size(), expected_stats(m, n).rotations) << m;
      for (std::size_t r : rots) {
        ASSERT_TRUE(std::binary_search(elems.begin(), elems.end(),
                                       encoder.rotation_galois_element(r)))
            << m << "x" << n << " rotates by " << r;
      }
    }
  }
}

TEST(Bsgs, PaperParamsHybridShapesDecrypt) {
  // The churn mix's 512x1024 matrix (512 diagonals, one tail step) and
  // the deepest tail the ring admits (1x2048: one diagonal, 11
  // rotate-and-add steps) decrypt to the reference at paper parameters.
  BsgsFixture f(BfvParams::paper(), 17);
  const u64 t = f.ctx->params().t;
  for (auto [m, n] : {Shape(512, 1024), Shape(1, 2048)}) {
    SCOPED_TRACE(m);
    BsgsHmvp probe(f.ctx, nullptr);
    auto gk = f.keys_for(probe.required_galois_elements(n));
    BsgsHmvp engine(f.ctx, &gk);
    GeneratedMatrix a(m, n, t, m + n);
    auto v = f.random_vector(n);
    BaselineStats stats;
    BsgsEncodedMatrix enc = engine.encode_matrix(a, 4);
    auto ct = engine.multiply_encoded(
        enc, engine.encrypt_vector(v, f.encryptor), &stats, 4);
    EXPECT_EQ(engine.decrypt_result(ct, m, f.decryptor),
              HmvpEngine::reference(a, v, t));
    EXPECT_EQ(stats.plain_mults, expected_stats(m, n).plain_mults);
    EXPECT_EQ(stats.rotations, expected_stats(m, n).rotations);
  }
}

// Shapes with and without the hybrid tail for the bit-exactness checks.
const Shape kExactShapes[] = {Shape(32, 64), Shape(10, 16), Shape(64, 8),
                              Shape(5, 64), Shape(1, 64)};

TEST(Bsgs, ThreadCountInvariance) {
  BsgsFixture f(128);
  for (auto [m, n] : kExactShapes) {
    SCOPED_TRACE(m);
    SCOPED_TRACE(n);
    BsgsHmvp probe(f.ctx, nullptr);
    auto gk = f.keys_for(probe.required_galois_elements(n));
    BsgsHmvp engine(f.ctx, &gk);
    auto a = DenseMatrix::random(m, n, f.ctx->params().t, f.rng);
    auto ct_v = engine.encrypt_vector(f.random_vector(n), f.encryptor);
    Ciphertext t1 = engine.multiply(a, ct_v, nullptr, 1);
    Ciphertext t8 = engine.multiply(a, ct_v, nullptr, 8);
    expect_ct_eq(t1, t8);
  }
}

TEST(Bsgs, MatchesDiagonalBaselineDecryption) {
  // Same input tiling and decrypt convention as the naive strawman; at
  // 24x64 the hybrid layout takes 32 diagonals and a one-step tail where
  // the strawman takes 64 diagonals.
  BsgsFixture f(128);
  const std::size_t m = 24, n = 64;
  BsgsHmvp probe(f.ctx, nullptr);
  auto gk = f.keys_for(probe.required_galois_elements(n));
  BsgsHmvp bsgs(f.ctx, &gk);
  DiagonalHmvp diag(f.ctx, &gk);
  auto a = DenseMatrix::random(m, n, f.ctx->params().t, f.rng);
  auto v = f.random_vector(n);
  auto ct_b = bsgs.multiply(a, bsgs.encrypt_vector(v, f.encryptor));
  auto ct_d = diag.multiply(a, diag.encrypt_vector(v, f.encryptor));
  EXPECT_EQ(bsgs.decrypt_result(ct_b, m, f.decryptor),
            diag.decrypt_result(ct_d, m, f.decryptor));
}

TEST(Bsgs, RequiredElementsSortedAndUnique) {
  BsgsFixture f(128);
  BsgsHmvp bsgs(f.ctx, nullptr);
  DiagonalHmvp diag(f.ctx, nullptr);
  RotateSumHmvp rotsum(f.ctx, nullptr);
  for (std::size_t n : {2u, 4u, 16u, 64u}) {
    for (const auto& elems : {bsgs.required_galois_elements(n),
                              diag.required_galois_elements(n)}) {
      EXPECT_FALSE(elems.empty());
      EXPECT_TRUE(std::is_sorted(elems.begin(), elems.end()));
      EXPECT_TRUE(std::adjacent_find(elems.begin(), elems.end()) ==
                  elems.end());
    }
    EXPECT_EQ(bsgs.required_galois_elements(n),
              diag.required_galois_elements(n));
  }
  auto rs = rotsum.required_galois_elements();
  EXPECT_TRUE(std::is_sorted(rs.begin(), rs.end()));
  EXPECT_TRUE(std::adjacent_find(rs.begin(), rs.end()) == rs.end());
}

TEST(Bsgs, EncodedMatchesStreamingBitExact) {
  // The frozen diagonal set must reproduce the streaming multiply bit for
  // bit — the serving layer's cross-request encode cache depends on it.
  BsgsFixture f(128);
  for (auto [m, n] : kExactShapes) {
    SCOPED_TRACE(m);
    SCOPED_TRACE(n);
    BsgsHmvp probe(f.ctx, nullptr);
    auto gk = f.keys_for(probe.required_galois_elements(n));
    BsgsHmvp engine(f.ctx, &gk);
    auto a = DenseMatrix::random(m, n, f.ctx->params().t, f.rng);
    auto ct_v = engine.encrypt_vector(f.random_vector(n), f.encryptor);
    BsgsEncodedMatrix enc = engine.encode_matrix(a, 4);
    EXPECT_EQ(enc.rows(), m);
    EXPECT_EQ(enc.cols(), n);
    EXPECT_EQ(enc.plan().diagonals, expected_stats(m, n).plain_mults);
    Ciphertext streaming = engine.multiply(a, ct_v);
    Ciphertext encoded = engine.multiply_encoded(enc, ct_v);
    expect_ct_eq(streaming, encoded);
  }
}

TEST(Bsgs, BatchedMatchesSingleShotPerSession) {
  // A cross-session batch must give every request exactly the bits its
  // own single-shot run produces: per-session sub-batches share only the
  // diagonal operands, never key material.
  BsgsFixture f(128);
  const std::size_t m = 32, n = 64;
  BsgsHmvp probe(f.ctx, nullptr);
  auto elements = probe.required_galois_elements(n);
  auto a = DenseMatrix::random(m, n, f.ctx->params().t, f.rng);
  BsgsHmvp encode_engine(f.ctx, nullptr);
  BsgsEncodedMatrix enc = encode_engine.encode_matrix(a);

  const std::size_t k = 4;
  std::vector<GaloisKeys> gks;
  std::vector<std::unique_ptr<Evaluator>> evals;
  std::vector<Ciphertext> cts;
  std::vector<std::vector<u64>> vs;
  gks.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    gks.push_back(f.keys_for(elements));
    evals.push_back(std::make_unique<Evaluator>(
        f.ctx, "bsgs-batch-session-" + std::to_string(s)));
    vs.push_back(f.random_vector(n));
    cts.push_back(probe.encrypt_vector(vs.back(), f.encryptor));
  }
  std::vector<BsgsBatchEntry> batch(k);
  for (std::size_t s = 0; s < k; ++s) {
    batch[s].ct_v = &cts[s];
    batch[s].eval = evals[s].get();
    batch[s].gk = &gks[s];
  }
  BaselineStats stats;
  auto results = encode_engine.multiply_encoded_batch(enc, batch, &stats, 4);
  ASSERT_EQ(results.size(), k);
  const BaselineStats per = expected_stats(m, n);
  EXPECT_EQ(stats.rotations, k * per.rotations);
  EXPECT_EQ(stats.rotations_hoisted, k * per.rotations_hoisted);
  EXPECT_EQ(stats.plain_mults, k * per.plain_mults);
  for (std::size_t s = 0; s < k; ++s) {
    SCOPED_TRACE(s);
    BsgsHmvp single(f.ctx, &gks[s]);
    Ciphertext want = single.multiply(a, cts[s]);
    expect_ct_eq(want, results[s]);
    EXPECT_EQ(single.decrypt_result(results[s], m, f.decryptor),
              HmvpEngine::reference(a, vs[s], f.ctx->params().t));
  }
}

TEST(Bsgs, BatchedThreadCountInvariance) {
  BsgsFixture f(128);
  for (auto [m, n] : kExactShapes) {
    SCOPED_TRACE(m);
    SCOPED_TRACE(n);
    BsgsHmvp probe(f.ctx, nullptr);
    auto gk = f.keys_for(probe.required_galois_elements(n));
    BsgsHmvp engine(f.ctx, &gk);
    auto a = DenseMatrix::random(m, n, f.ctx->params().t, f.rng);
    BsgsEncodedMatrix enc = engine.encode_matrix(a, 1);
    BsgsEncodedMatrix enc8 = engine.encode_matrix(a, 8);
    std::vector<Ciphertext> cts;
    for (int i = 0; i < 3; ++i) {
      cts.push_back(engine.encrypt_vector(f.random_vector(n), f.encryptor));
    }
    std::vector<BsgsBatchEntry> batch(cts.size());
    for (std::size_t i = 0; i < cts.size(); ++i) batch[i].ct_v = &cts[i];
    auto r1 = engine.multiply_encoded_batch(enc, batch, nullptr, 1);
    auto r8 = engine.multiply_encoded_batch(enc8, batch, nullptr, 8);
    ASSERT_EQ(r1.size(), r8.size());
    for (std::size_t i = 0; i < r1.size(); ++i) {
      expect_ct_eq(r1[i], r8[i]);
      expect_ct_eq(r1[i], engine.multiply(a, cts[i], nullptr, 8));
    }
  }
}

TEST(Bsgs, AlgorithmChooser) {
  const std::size_t ring = 8192;
  // Tall/square shapes amortise the per-column cost: BSGS wins
  // (measured 2.8x / 2.3x over naive, ahead of coefficient — bench_bsgs).
  EXPECT_EQ(choose_mvp_algorithm(1024, 4096, ring), MvpAlgorithm::kBsgs);
  EXPECT_EQ(choose_mvp_algorithm(2048, 4096, ring), MvpAlgorithm::kBsgs);
  EXPECT_EQ(choose_mvp_algorithm(1024, 2048, ring), MvpAlgorithm::kBsgs);
  // Short or column-heavy shapes stay on the row-linear coefficient
  // engine (measured faster at 64x256 and 256x1024).
  EXPECT_EQ(choose_mvp_algorithm(64, 256, ring),
            MvpAlgorithm::kCoefficient);
  EXPECT_EQ(choose_mvp_algorithm(256, 1024, ring),
            MvpAlgorithm::kCoefficient);
  EXPECT_EQ(choose_mvp_algorithm(8, 4096, ring),
            MvpAlgorithm::kCoefficient);
  EXPECT_EQ(choose_mvp_algorithm(16, 4096, ring),
            MvpAlgorithm::kCoefficient);
  // Shapes the diagonal method cannot express fall back.
  EXPECT_EQ(choose_mvp_algorithm(64, 100, ring),
            MvpAlgorithm::kCoefficient);  // non-power-of-two cols
  EXPECT_EQ(choose_mvp_algorithm(64, 8192, ring),
            MvpAlgorithm::kCoefficient);  // cols > N/2
  EXPECT_EQ(choose_mvp_algorithm(8192, 4096, ring),
            MvpAlgorithm::kCoefficient);  // rows > N/2
  EXPECT_STREQ(mvp_algorithm_name(MvpAlgorithm::kBsgs), "bsgs");
  EXPECT_STREQ(mvp_algorithm_name(MvpAlgorithm::kCoefficient),
               "coefficient");
}

}  // namespace
}  // namespace cham
