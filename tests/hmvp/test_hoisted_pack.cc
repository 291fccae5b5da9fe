// The HMVP engine hoists the bottom pack levels in front of the row
// products (group nodes Σ_σ rot_σ(ct(v))·Q_σ, then the tree from level
// L + 1). Two suites pin it:
//
//   HoistedPack  the engine against Alg. 1 run the old way from public
//                calls — row product, INTT, rescale, extract_lwe, then
//                pack_lwes. The two are different ciphertexts of the same
//                values, so they must decrypt equal at every read
//                position; the engine's own paths (streaming vs encoded,
//                batched vs single-shot, 1 vs 8 threads) must agree byte
//                for byte.
//   HmvpNoise    the noise left at the read positions, measured against
//                the plaintext reference, must leave at least 12 bits of
//                headroom below Δ/2 at paper parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>

#include "hmvp/hmvp.h"
#include "nt/bitops.h"
#include "nt/prime.h"

namespace cham {
namespace {

// One 61-bit ciphertext prime and a 61-bit special prime (122 bits in
// base_qp): every limb takes the wide-modulus kernel paths.
BfvParams wide_params(std::size_t n) {
  const auto primes = generate_ntt_primes(61, n, 2);
  BfvParams p;
  p.n = n;
  p.t = 65537;
  p.q_primes = {primes[0]};
  p.special_prime = primes[1];
  return p;
}

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

bool same_words(const RnsPoly& x, const RnsPoly& y) {
  return x.base() == y.base() && x.is_ntt() == y.is_ntt() &&
         std::equal(x.raw().begin(), x.raw().end(), y.raw().begin(),
                    y.raw().end());
}

void expect_same_packed(const HmvpResult& got, const HmvpResult& want,
                        const std::string& what) {
  ASSERT_EQ(got.packed.size(), want.packed.size()) << what;
  for (std::size_t g = 0; g < got.packed.size(); ++g) {
    EXPECT_TRUE(same_words(got.packed[g].b, want.packed[g].b))
        << what << ", output " << g;
    EXPECT_TRUE(same_words(got.packed[g].a, want.packed[g].a))
        << what << ", output " << g;
  }
}

// Alg. 1 the way the paper orders it, from public calls only: per row,
// the Eq.-1 chunk products accumulated in NTT form, INTT, rescale and
// extraction of coefficient 0; then PackLWEs under (eval, gk).
std::vector<Ciphertext> oracle_hmvp(const HmvpEngine& engine,
                                    const Evaluator& eval,
                                    const GaloisKeys& gk, const RowSource& a,
                                    const std::vector<Ciphertext>& ct_v) {
  const auto& ctx = engine.context();
  const std::size_t n = ctx->n();
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  const std::size_t chunks = (cols + n - 1) / n;
  const std::size_t groups = (rows + n - 1) / n;
  const std::size_t pack_count = next_pow2(groups > 1 ? n : rows);
  const Modulus& t = ctx->plain_modulus();
  const u64 scale = t.inv(static_cast<u64>(pack_count % t.value()));

  std::vector<Ciphertext> ct_ntt;
  for (const auto& ct : ct_v) {
    ct_ntt.push_back(ct);
    ct_ntt.back().to_ntt();
  }
  std::vector<u64> row(cols);
  std::vector<Ciphertext> packed;
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<LweCiphertext> lwes(pack_count);
    for (auto& lwe : lwes) {
      lwe.base = ctx->base_q();
      lwe.b.assign(ctx->base_q()->size(), 0);
      lwe.a = RnsPoly(ctx->base_q(), false);
    }
    for (std::size_t r = 0; r < std::min(n, rows - g * n); ++r) {
      a.row(g * n + r, row.data());
      Ciphertext prod;
      for (std::size_t c = 0; c < chunks; ++c) {
        Ciphertext term = ct_ntt[c];
        eval.multiply_plain_ntt_inplace(
            term, eval.transform_plain_ntt(
                      engine.encode_row_chunk(row.data(), cols, c, scale),
                      ctx->base_qp()));
        if (c == 0) {
          prod = std::move(term);
        } else {
          eval.add_inplace(prod, term);
        }
      }
      prod.from_ntt();
      lwes[r] = extract_lwe(eval.rescale(prod), 0);
    }
    packed.push_back(pack_count == 1 ? lwe_to_rlwe(lwes[0])
                                     : pack_lwes(eval, lwes, gk));
  }
  return packed;
}

// A client session: its own secret, Galois keys and session-bound
// evaluator (the multi-tenant batch entry).
struct Session {
  Session(const BfvContextPtr& ctx, const std::string& name, u64 seed,
          int levels)
      : rng(seed),
        keygen(ctx, rng),
        pk(keygen.make_public_key()),
        gk(keygen.make_galois_keys(std::max(levels, 1))),
        encryptor(ctx, &pk, nullptr, rng),
        decryptor(ctx, keygen.secret_key()),
        eval(ctx, name) {}

  std::vector<u64> random_vector(std::size_t len, u64 t) {
    std::vector<u64> v(len);
    for (auto& x : v) x = rng.uniform(t);
    return v;
  }

  Rng rng;
  KeyGenerator keygen;
  PublicKey pk;
  GaloisKeys gk;
  Encryptor encryptor;
  Decryptor decryptor;
  Evaluator eval;
};

// The engine's result and the oracle's decrypt to the same value at every
// read position, and that value is the plaintext product.
void expect_same_reads(const HmvpEngine& engine, const HmvpResult& res,
                       const std::vector<Ciphertext>& oracle,
                       const Decryptor& dec, const std::vector<u64>& want) {
  const std::size_t n = engine.context()->n();
  ASSERT_EQ(res.packed.size(), oracle.size());
  for (std::size_t g = 0; g < oracle.size(); ++g) {
    const Plaintext got = dec.decrypt(res.packed[g]);
    const Plaintext ref = dec.decrypt(oracle[g]);
    for (std::size_t r = 0; r < std::min(n, res.rows - g * n); ++r) {
      const std::size_t i = res.coeff_index(r, n);
      ASSERT_EQ(got.coeffs[i], ref.coeffs[i]) << "output " << g << " row " << r;
      ASSERT_EQ(got.coeffs[i], want[g * n + r]) << "output " << g << " row " << r;
    }
  }
}

void check_against_oracle(const BfvParams& params, std::size_t rows,
                          std::size_t cols) {
  auto ctx = BfvContext::create(params);
  const std::size_t n = ctx->n();
  const u64 t = ctx->params().t;
  const int levels = log2_exact(std::min(n, next_pow2(rows)));
  Session s0(ctx, "hoisted-pack-0", 21, levels);
  Session s1(ctx, "hoisted-pack-1", 22, levels);
  HmvpEngine engine(ctx, &s0.gk);
  Rng rng(23);
  auto a = DenseMatrix::random(rows, cols, t, rng);

  // Streaming with the engine's keys vs the oracle.
  const auto v0 = s0.random_vector(cols, t);
  const auto ct0 = engine.encrypt_vector(v0, s0.encryptor);
  const auto streamed = engine.multiply(a, ct0, 2);
  const Evaluator engine_eval(ctx);
  expect_same_reads(engine, streamed,
                    oracle_hmvp(engine, engine_eval, s0.gk, a, ct0),
                    s0.decryptor, HmvpEngine::reference(a, v0, t));

  // Encoded == streaming, at 1 and 8 threads.
  const EncodedMatrix enc = engine.encode_matrix(a, 3);
  expect_same_packed(engine.multiply_encoded(enc, ct0, 1), streamed,
                     "encoded t1 vs streaming");
  expect_same_packed(engine.multiply_encoded(enc, ct0, 8), streamed,
                     "encoded t8 vs streaming");
  expect_same_packed(engine.multiply(a, ct0, 8), streamed,
                     "streaming t8 vs t2");

  // A batch of three requests over two sessions == each one alone, and
  // each decrypts like its own oracle run.
  const auto v1 = s1.random_vector(cols, t);
  const auto ct1 = engine.encrypt_vector(v1, s1.encryptor);
  const auto v2 = s0.random_vector(cols, t);
  const auto ct2 = engine.encrypt_vector(v2, s0.encryptor);
  const std::vector<HmvpBatchEntry> batch = {
      {&ct0, &s0.eval, &s0.gk}, {&ct1, &s1.eval, &s1.gk},
      {&ct2, &s0.eval, &s0.gk}};
  const auto results = engine.multiply_encoded_batch(enc, batch, 2);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto single = engine.multiply_encoded_batch(enc, {batch[i]}, 1);
    expect_same_packed(results[i], single[0],
                       "batch entry " + std::to_string(i) + " vs single-shot");
  }
  expect_same_reads(engine, results[1],
                    oracle_hmvp(engine, s1.eval, s1.gk, a, ct1), s1.decryptor,
                    HmvpEngine::reference(a, v1, t));
  expect_same_reads(engine, results[2],
                    oracle_hmvp(engine, s0.eval, s0.gk, a, ct2), s0.decryptor,
                    HmvpEngine::reference(a, v2, t));
}

TEST(HoistedPack, MatchesOraclePaperParams) {
  check_against_oracle(BfvParams::paper(), 128, 4096);
}

TEST(HoistedPack, MatchesOracleWideModulus) {
  check_against_oracle(wide_params(64), 40, 64);
}

TEST(HoistedPack, MatchesOracleAcrossChunks) {
  check_against_oracle(BfvParams::test(64), 24, 150);
}

TEST(HoistedPack, MatchesOracleAcrossGroups) {
  check_against_oracle(BfvParams::test(64), 150, 64);
}

TEST(HoistedPack, MatchesOracleAtEveryPackCount) {
  // pack_count 1 (no tree, nothing hoisted), 2 (one hoisted level, no
  // merge left), 8 (three hoisted levels, no merge left); 128 is the
  // paper-params case above.
  for (std::size_t rows : {1, 2, 8}) {
    SCOPED_TRACE(rows);
    check_against_oracle(BfvParams::test(256), rows, 256);
  }
}

// Headroom in bits at the read positions: log2(Δ/2) - log2(max|ν| + 1)
// with ν = phase - Δ·want (centered mod Q) over every row's coefficient.
// Unlike Decryptor::noise_budget_bits it ignores the coefficients between
// the read positions, which hold garbage by design.
double read_headroom_bits(const HmvpEngine& engine, const HmvpResult& res,
                          const Decryptor& dec, const std::vector<u64>& want) {
  const auto& ctx = engine.context();
  const std::size_t n = ctx->n();
  const u128 big_q = ctx->q_total();
  const u128 delta = big_q / ctx->params().t;
  u128 max_noise = 0;
  std::vector<u128> phase(n);
  for (std::size_t g = 0; g < res.packed.size(); ++g) {
    dec.phase(res.packed[g]).compose_all(phase.data());
    for (std::size_t r = 0; r < std::min(n, res.rows - g * n); ++r) {
      const u128 x = phase[res.coeff_index(r, n)];
      const u128 dm = (delta * want[g * n + r]) % big_q;
      u128 nu = x >= dm ? x - dm : big_q - (dm - x);
      if (nu > big_q / 2) nu = big_q - nu;
      max_noise = std::max(max_noise, nu);
    }
  }
  return std::log2(static_cast<double>(delta)) - 1.0 -
         std::log2(static_cast<double>(max_noise) + 1.0);
}

// Every entry ⌊t/2⌋: the largest centered magnitude of the matrix.
class ConstantMatrix : public RowSource {
 public:
  ConstantMatrix(std::size_t rows, std::size_t cols, u64 value)
      : rows_(rows), cols_(cols), value_(value) {}
  std::size_t rows() const override { return rows_; }
  std::size_t cols() const override { return cols_; }
  void row(std::size_t, u64* out) const override {
    std::fill(out, out + cols_, value_);
  }

 private:
  std::size_t rows_, cols_;
  u64 value_;
};

constexpr double kMinHeadroomBits = 12.0;

void check_headroom(const RowSource& a) {
  auto ctx = BfvContext::create(BfvParams::paper());
  const u64 t = ctx->params().t;
  Session s(ctx, "", 31, log2_exact(std::min(ctx->n(), next_pow2(a.rows()))));
  HmvpEngine engine(ctx, &s.gk);
  const auto v = s.random_vector(a.cols(), t);
  const auto res = engine.multiply(a, engine.encrypt_vector(v, s.encryptor), 4);
  const auto want = HmvpEngine::reference(a, v, t);
  ASSERT_EQ(engine.decrypt_result(res, s.decryptor), want);
  const double headroom = read_headroom_bits(engine, res, s.decryptor, want);
  ::testing::Test::RecordProperty("headroom_bits", std::to_string(headroom));
  std::cout << "read-position headroom " << a.rows() << "x" << a.cols()
            << ": " << headroom << " bits\n";
  EXPECT_GE(headroom, kMinHeadroomBits);
}

TEST(HmvpNoise, HeadroomPaperParamsRandomMatrix) {
  check_headroom(GeneratedMatrix(128, 4096, BfvParams::paper().t, 41));
}

TEST(HmvpNoise, HeadroomPaperParamsHalfTMatrix) {
  check_headroom(ConstantMatrix(128, 4096, BfvParams::paper().t / 2));
}

TEST(HmvpNoise, HeadroomPaperParamsThreeChunks) {
  check_headroom(GeneratedMatrix(128, 3 * 4096, BfvParams::paper().t, 42));
}

TEST(HmvpNoise, HeadroomPaperParamsThreeOutputs) {
  check_headroom(GeneratedMatrix(2 * 4096 + 5, 4096, BfvParams::paper().t, 43));
}

}  // namespace
}  // namespace cham
