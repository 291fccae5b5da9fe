#include "hmvp/hmvp.h"

#include <gtest/gtest.h>

#include "nt/bitops.h"

namespace cham {
namespace {

struct HmvpFixture {
  explicit HmvpFixture(std::size_t n = 64, u64 seed = 42, int levels = -1)
      : rng(seed),
        ctx(BfvContext::create(BfvParams::test(n))),
        keygen(ctx, rng),
        pk(keygen.make_public_key()),
        gk(keygen.make_galois_keys(levels < 0 ? log2_exact(n) : levels)),
        encryptor(ctx, &pk, nullptr, rng),
        decryptor(ctx, keygen.secret_key()),
        engine(ctx, &gk) {}

  std::vector<u64> random_vector(std::size_t len) {
    std::vector<u64> v(len);
    for (auto& x : v) x = rng.uniform(ctx->params().t);
    return v;
  }

  // Run HMVP end-to-end against the plaintext reference.
  void check(const RowSource& a) {
    auto v = random_vector(a.cols());
    auto ct_v = engine.encrypt_vector(v, encryptor);
    auto res = engine.multiply(a, ct_v);
    auto got = engine.decrypt_result(res, decryptor);
    auto expect = HmvpEngine::reference(a, v, ctx->params().t);
    EXPECT_EQ(got, expect);
  }

  Rng rng;
  BfvContextPtr ctx;
  KeyGenerator keygen;
  PublicKey pk;
  GaloisKeys gk;
  Encryptor encryptor;
  Decryptor decryptor;
  HmvpEngine engine;
};

TEST(Hmvp, SingleRow) {
  HmvpFixture f;
  f.check(DenseMatrix::random(1, f.ctx->n(), f.ctx->params().t, f.rng));
}

TEST(Hmvp, SquareMatrix) {
  HmvpFixture f;
  f.check(DenseMatrix::random(f.ctx->n(), f.ctx->n(), f.ctx->params().t,
                              f.rng));
}

TEST(Hmvp, NonPowerOfTwoRows) {
  HmvpFixture f;
  f.check(DenseMatrix::random(13, f.ctx->n(), f.ctx->params().t, f.rng));
}

TEST(Hmvp, ShortVector) {
  // cols < N.
  HmvpFixture f;
  f.check(DenseMatrix::random(8, 20, f.ctx->params().t, f.rng));
}

TEST(Hmvp, TallMatrixMultipleGroups) {
  // rows > N: multiple packed output ciphertexts.
  HmvpFixture f(64);
  f.check(DenseMatrix::random(3 * 64 + 5, 64, f.ctx->params().t, f.rng));
}

TEST(Hmvp, WideMatrixMultipleChunks) {
  // cols > N: the vector spans several ciphertexts; rows aggregate chunks.
  HmvpFixture f(64);
  f.check(DenseMatrix::random(16, 3 * 64 + 7, f.ctx->params().t, f.rng));
}

TEST(Hmvp, WideAndTall) {
  HmvpFixture f(64);
  f.check(DenseMatrix::random(64 + 9, 2 * 64 + 3, f.ctx->params().t, f.rng));
}

TEST(Hmvp, GeneratedMatrixMatchesDense) {
  HmvpFixture f(64);
  GeneratedMatrix g(32, 64, f.ctx->params().t, 777);
  f.check(g);
}

TEST(Hmvp, StatsAccounting) {
  HmvpFixture f(64);
  const std::size_t m = 32;
  auto a = DenseMatrix::random(m, 64, f.ctx->params().t, f.rng);
  auto v = f.random_vector(64);
  auto ct_v = f.engine.encrypt_vector(v, f.encryptor);
  auto res = f.engine.multiply(a, ct_v);
  EXPECT_EQ(res.pack_count, m);
  // The bottom 4 pack levels are hoisted in front of the products: the
  // 32 rows form 2 group nodes of 16, each rescaled once (a side only),
  // and no LWE is extracted.
  const std::size_t nodes = m / 16;
  EXPECT_EQ(res.stats.rescales, nodes);
  EXPECT_EQ(res.stats.extracts, 0u);
  EXPECT_EQ(res.stats.pack_merges, nodes - 1);  // the tree above the nodes
  // 15 rotations of ct(v), then the merges.
  EXPECT_EQ(res.stats.keyswitches, 15 + nodes - 1);
  // Per node: 16 Q operands lifted to the 3 limbs of base_qp; plus the
  // one-time 6 for ct(v).
  EXPECT_EQ(res.stats.forward_ntts, nodes * 16 * 3 + 6);
  // Per node: the 3 limbs of its a side.
  EXPECT_EQ(res.stats.inverse_ntts, nodes * 3);
}

TEST(Hmvp, CoeffIndexLocatesEveryRow) {
  HmvpFixture f(64);
  auto a = DenseMatrix::random(24, 64, f.ctx->params().t, f.rng);
  auto v = f.random_vector(64);
  auto ct_v = f.engine.encrypt_vector(v, f.encryptor);
  auto res = f.engine.multiply(a, ct_v);
  auto expect = HmvpEngine::reference(a, v, f.ctx->params().t);
  auto pt = f.decryptor.decrypt(res.packed[0]);
  for (std::size_t r = 0; r < 24; ++r) {
    EXPECT_EQ(pt.coeffs[res.coeff_index(r, f.ctx->n())], expect[r]) << r;
  }
}

TEST(Hmvp, EncodedMatrixMatchesStreaming) {
  HmvpFixture f(64);
  auto a = DenseMatrix::random(40, 2 * 64 + 3, f.ctx->params().t, f.rng);
  auto v = f.random_vector(a.cols());
  auto ct_v = f.engine.encrypt_vector(v, f.encryptor);
  auto streamed = f.engine.multiply(a, ct_v);
  auto enc = f.engine.encode_matrix(a);
  EXPECT_EQ(enc.rows(), 40u);
  EXPECT_EQ(enc.pack_count(), streamed.pack_count);
  auto precomp = f.engine.multiply_encoded(enc, ct_v);
  ASSERT_EQ(precomp.packed.size(), streamed.packed.size());
  for (std::size_t g = 0; g < precomp.packed.size(); ++g) {
    EXPECT_EQ(precomp.packed[g].b.raw(), streamed.packed[g].b.raw());
    EXPECT_EQ(precomp.packed[g].a.raw(), streamed.packed[g].a.raw());
  }
  // Pre-encoding removes the per-row plaintext NTTs.
  EXPECT_LT(precomp.stats.forward_ntts, streamed.stats.forward_ntts);
}

TEST(Hmvp, EncodedMatrixReusableAcrossVectors) {
  HmvpFixture f(64);
  auto a = DenseMatrix::random(16, 64, f.ctx->params().t, f.rng);
  auto enc = f.engine.encode_matrix(a);
  for (int rep = 0; rep < 3; ++rep) {
    auto v = f.random_vector(64);
    auto ct_v = f.engine.encrypt_vector(v, f.encryptor);
    auto res = f.engine.multiply_encoded(enc, ct_v);
    EXPECT_EQ(f.engine.decrypt_result(res, f.decryptor),
              HmvpEngine::reference(a, v, f.ctx->params().t));
  }
}

TEST(Hmvp, MultithreadedMatchesSequentialBitExact) {
  HmvpFixture f(64);
  auto a = DenseMatrix::random(50, 3 * 64 + 5, f.ctx->params().t, f.rng);
  auto v = f.random_vector(a.cols());
  auto ct_v = f.engine.encrypt_vector(v, f.encryptor);
  auto seq = f.engine.multiply(a, ct_v, 1);
  auto par = f.engine.multiply(a, ct_v, 4);
  ASSERT_EQ(seq.packed.size(), par.packed.size());
  for (std::size_t g = 0; g < seq.packed.size(); ++g) {
    EXPECT_EQ(seq.packed[g].b.raw(), par.packed[g].b.raw());
    EXPECT_EQ(seq.packed[g].a.raw(), par.packed[g].a.raw());
  }
  EXPECT_EQ(seq.stats.forward_ntts, par.stats.forward_ntts);
  EXPECT_EQ(seq.stats.extracts, par.stats.extracts);
}

TEST(Hmvp, EightThreadsBitExactWithIdenticalStats) {
  HmvpFixture f(64);
  auto a = DenseMatrix::random(50, 3 * 64 + 5, f.ctx->params().t, f.rng);
  auto v = f.random_vector(a.cols());
  auto ct_v = f.engine.encrypt_vector(v, f.encryptor);
  auto seq = f.engine.multiply(a, ct_v, 1);
  auto par = f.engine.multiply(a, ct_v, 8);
  ASSERT_EQ(seq.packed.size(), par.packed.size());
  for (std::size_t g = 0; g < seq.packed.size(); ++g) {
    EXPECT_EQ(seq.packed[g].b.raw(), par.packed[g].b.raw());
    EXPECT_EQ(seq.packed[g].a.raw(), par.packed[g].a.raw());
  }
  // Per-lane stats merge by summation, so every total is thread-invariant.
  EXPECT_EQ(seq.stats.forward_ntts, par.stats.forward_ntts);
  EXPECT_EQ(seq.stats.inverse_ntts, par.stats.inverse_ntts);
  EXPECT_EQ(seq.stats.pointwise_mults, par.stats.pointwise_mults);
  EXPECT_EQ(seq.stats.rescales, par.stats.rescales);
  EXPECT_EQ(seq.stats.extracts, par.stats.extracts);
  EXPECT_EQ(seq.stats.pack_merges, par.stats.pack_merges);
  EXPECT_EQ(seq.stats.keyswitches, par.stats.keyswitches);
}

TEST(Hmvp, ThreadedEncodedPathBitExact) {
  HmvpFixture f(64);
  auto a = DenseMatrix::random(40, 2 * 64 + 3, f.ctx->params().t, f.rng);
  auto v = f.random_vector(a.cols());
  auto ct_v = f.engine.encrypt_vector(v, f.encryptor);
  auto enc_seq = f.engine.encode_matrix(a, 1);
  auto enc_par = f.engine.encode_matrix(a, 8);
  auto seq = f.engine.multiply_encoded(enc_seq, ct_v, 1);
  auto par = f.engine.multiply_encoded(enc_par, ct_v, 8);
  ASSERT_EQ(seq.packed.size(), par.packed.size());
  for (std::size_t g = 0; g < seq.packed.size(); ++g) {
    EXPECT_EQ(seq.packed[g].b.raw(), par.packed[g].b.raw());
    EXPECT_EQ(seq.packed[g].a.raw(), par.packed[g].a.raw());
  }
  EXPECT_EQ(seq.stats.inverse_ntts, par.stats.inverse_ntts);
  EXPECT_EQ(f.engine.decrypt_result(par, f.decryptor),
            HmvpEngine::reference(a, v, f.ctx->params().t));
}

TEST(Hmvp, MoreThreadsThanRows) {
  HmvpFixture f(64);
  auto a = DenseMatrix::random(3, 64, f.ctx->params().t, f.rng);
  auto v = f.random_vector(64);
  auto ct_v = f.engine.encrypt_vector(v, f.encryptor);
  auto res = f.engine.multiply(a, ct_v, 16);
  EXPECT_EQ(f.engine.decrypt_result(res, f.decryptor),
            HmvpEngine::reference(a, v, f.ctx->params().t));
}

TEST(Hmvp, RejectsZeroThreads) {
  HmvpFixture f(64);
  auto a = DenseMatrix::random(2, 64, f.ctx->params().t, f.rng);
  auto ct_v = f.engine.encrypt_vector(f.random_vector(64), f.encryptor);
  EXPECT_THROW(f.engine.multiply(a, ct_v, 0), CheckError);
}

TEST(Hmvp, RejectsWrongChunkCount) {
  HmvpFixture f(64);
  auto a = DenseMatrix::random(4, 200, f.ctx->params().t, f.rng);
  auto v = f.random_vector(64);  // one chunk, but cols=200 needs 4
  auto ct_v = f.engine.encrypt_vector(v, f.encryptor);
  EXPECT_THROW(f.engine.multiply(a, ct_v), CheckError);
}

TEST(Hmvp, NoiseBudgetAfterFullPipeline) {
  HmvpFixture f(256);
  auto a = DenseMatrix::random(256, 256, f.ctx->params().t, f.rng);
  auto v = f.random_vector(256);
  auto ct_v = f.engine.encrypt_vector(v, f.encryptor);
  auto res = f.engine.multiply(a, ct_v);
  EXPECT_GT(f.decryptor.noise_budget_bits(res.packed[0]), 5.0);
}

TEST(Hmvp, PaperDimensionSmoke) {
  // One full-size (N=4096) row group with a modest number of rows, to
  // exercise the production ring dimension.
  HmvpFixture f(4096, 1, 4);
  f.check(DenseMatrix::random(16, 4096, f.ctx->params().t, f.rng));
}

struct ShapeCase {
  std::size_t rows, cols;
};

class HmvpShapeTest : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(HmvpShapeTest, MatchesReference) {
  const auto [rows, cols] = GetParam();
  HmvpFixture f(64, rows * 1000 + cols);
  f.check(DenseMatrix::random(rows, cols, f.ctx->params().t, f.rng));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HmvpShapeTest,
    ::testing::Values(ShapeCase{1, 1}, ShapeCase{2, 64}, ShapeCase{3, 3},
                      ShapeCase{5, 130}, ShapeCase{64, 64},
                      ShapeCase{65, 64}, ShapeCase{127, 32},
                      ShapeCase{128, 128}, ShapeCase{200, 40},
                      ShapeCase{31, 100}));

}  // namespace
}  // namespace cham
