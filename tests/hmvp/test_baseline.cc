#include "hmvp/baseline.h"

#include <gtest/gtest.h>

#include "hmvp/hmvp.h"

#include "nt/bitops.h"

namespace cham {
namespace {

struct BaselineFixture {
  explicit BaselineFixture(std::size_t n = 128, u64 seed = 21)
      : rng(seed),
        ctx(BfvContext::create(BfvParams::test(n))),
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

TEST(RotateSum, MatchesReference) {
  BaselineFixture f;
  RotateSumHmvp rs(f.ctx, nullptr);
  auto gk = f.keys_for(rs.required_galois_elements());
  RotateSumHmvp engine(f.ctx, &gk);

  const std::size_t m = 9, n = f.ctx->n() / 2;
  auto a = DenseMatrix::random(m, n, f.ctx->params().t, f.rng);
  auto v = f.random_vector(n);
  auto ct_v = engine.encrypt_vector(v, f.encryptor);
  BaselineStats stats;
  auto cts = engine.multiply(a, ct_v, &stats);
  auto got = engine.decrypt_result(cts, f.decryptor);
  EXPECT_EQ(got, HmvpEngine::reference(a, v, f.ctx->params().t));
  // O(m log(N/2)) rotations — the complexity the paper quotes.
  EXPECT_EQ(stats.rotations, m * log2_exact(f.ctx->n() / 2));
  EXPECT_EQ(stats.plain_mults, m);
}

TEST(RotateSum, ShortVectorZeroPadded) {
  BaselineFixture f;
  RotateSumHmvp probe(f.ctx, nullptr);
  auto gk = f.keys_for(probe.required_galois_elements());
  RotateSumHmvp engine(f.ctx, &gk);
  auto a = DenseMatrix::random(4, 10, f.ctx->params().t, f.rng);
  auto v = f.random_vector(10);
  auto cts = engine.multiply(a, engine.encrypt_vector(v, f.encryptor));
  EXPECT_EQ(engine.decrypt_result(cts, f.decryptor),
            HmvpEngine::reference(a, v, f.ctx->params().t));
}

class DiagonalShapeTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(DiagonalShapeTest, MatchesReference) {
  const auto [m, n] = GetParam();
  BaselineFixture f(128, m * 131 + n);
  DiagonalHmvp probe(f.ctx, nullptr);
  auto gk = f.keys_for(probe.required_galois_elements(n));
  DiagonalHmvp engine(f.ctx, &gk);

  auto a = DenseMatrix::random(m, n, f.ctx->params().t, f.rng);
  auto v = f.random_vector(n);
  BaselineStats stats;
  auto ct = engine.multiply(a, engine.encrypt_vector(v, f.encryptor), &stats);
  EXPECT_EQ(engine.decrypt_result(ct, m, f.decryptor),
            HmvpEngine::reference(a, v, f.ctx->params().t));
  // BSGS rotation count: (b-1) baby + (n/b - 1) giant.
  const std::size_t b = BsgsHmvp::baby_steps(n);
  EXPECT_EQ(stats.rotations, (b - 1) + (n + b - 1) / b - 1);
  EXPECT_EQ(stats.plain_mults, n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DiagonalShapeTest,
    ::testing::Values(std::make_pair<std::size_t, std::size_t>(4, 4),
                      std::make_pair<std::size_t, std::size_t>(16, 16),
                      std::make_pair<std::size_t, std::size_t>(8, 64),
                      std::make_pair<std::size_t, std::size_t>(64, 64),
                      std::make_pair<std::size_t, std::size_t>(10, 16),
                      std::make_pair<std::size_t, std::size_t>(64, 8)));

TEST(Diagonal, RejectsNonPowerOfTwoCols) {
  BaselineFixture f;
  DiagonalHmvp probe(f.ctx, nullptr);
  auto v = f.random_vector(12);
  EXPECT_THROW(probe.encrypt_vector(v, f.encryptor), CheckError);
}

TEST(Diagonal, BabySteps) {
  EXPECT_EQ(BsgsHmvp::baby_steps(4), 2u);
  EXPECT_EQ(BsgsHmvp::baby_steps(16), 4u);
  EXPECT_EQ(BsgsHmvp::baby_steps(64), 8u);
  EXPECT_EQ(BsgsHmvp::baby_steps(128), 8u);   // 8*8=64 < 128 <= 16*16
  EXPECT_EQ(BsgsHmvp::baby_steps(1), 1u);
}

}  // namespace
}  // namespace cham
