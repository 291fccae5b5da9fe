#include "apps/protocol.h"

#include <gtest/gtest.h>

namespace cham {
namespace {

BfvContextPtr small_ctx() { return BfvContext::create(BfvParams::test(64)); }

TEST(Protocol, EndToEndMatchesReference) {
  auto ctx = small_ctx();
  Rng rng(3);
  auto a = DenseMatrix::random(20, 64, ctx->params().t, rng);
  std::vector<u64> v(64);
  for (auto& x : v) x = rng.uniform(ctx->params().t);
  auto run = run_two_party_hmvp(ctx, a, v, /*seed=*/7);
  EXPECT_EQ(run.result, HmvpEngine::reference(a, v, ctx->params().t));
  EXPECT_GT(run.query_bytes, 0u);
  EXPECT_GT(run.response_bytes, 0u);
  // 20 rows pack 32 deep: two group nodes of 16, one rescale each.
  EXPECT_EQ(run.stats.rescales, 2u);
}

TEST(Protocol, MultiChunkQuery) {
  auto ctx = small_ctx();
  Rng rng(4);
  auto a = DenseMatrix::random(10, 3 * 64 + 7, ctx->params().t, rng);
  std::vector<u64> v(a.cols());
  for (auto& x : v) x = rng.uniform(ctx->params().t);
  auto run = run_two_party_hmvp(ctx, a, v, 9);
  EXPECT_EQ(run.result, HmvpEngine::reference(a, v, ctx->params().t));
}

TEST(Protocol, MultiGroupResponse) {
  auto ctx = small_ctx();
  Rng rng(5);
  auto a = DenseMatrix::random(2 * 64 + 3, 64, ctx->params().t, rng);
  std::vector<u64> v(64);
  for (auto& x : v) x = rng.uniform(ctx->params().t);
  auto run = run_two_party_hmvp(ctx, a, v, 11);
  EXPECT_EQ(run.result, HmvpEngine::reference(a, v, ctx->params().t));
}

TEST(Protocol, PackedFormatIsSmallerOnTheWire) {
  auto ctx = small_ctx();
  Rng rng(6);
  auto a = DenseMatrix::random(8, 64, ctx->params().t, rng);
  std::vector<u64> v(64);
  for (auto& x : v) x = rng.uniform(ctx->params().t);
  auto raw = run_two_party_hmvp(ctx, a, v, 13, WireFormat::kRaw);
  auto packed = run_two_party_hmvp(ctx, a, v, 13, WireFormat::kPacked);
  EXPECT_EQ(raw.result, packed.result);
  EXPECT_LT(packed.query_bytes, raw.query_bytes);
  EXPECT_LT(packed.response_bytes, raw.response_bytes);
}

TEST(Protocol, ResponseIsOnePackedCiphertextPerGroup) {
  // The whole point of PackLWEs: the response for 64 rows is a single
  // ciphertext, not 64.
  auto ctx = small_ctx();
  Rng rng(8);
  auto a = DenseMatrix::random(64, 64, ctx->params().t, rng);
  std::vector<u64> v(64);
  for (auto& x : v) x = rng.uniform(ctx->params().t);

  Duplex link;
  HmvpClient client(ctx, 15);
  HmvpServer server(ctx);
  client.send_keys(link.a_to_b);
  server.receive_keys(link.a_to_b);
  link.a_to_b.reset_stats();
  client.send_query(v, link.a_to_b);
  server.answer_query(a, link.a_to_b, link.b_to_a);
  // Response = 1 header + 1 ciphertext message.
  EXPECT_EQ(link.b_to_a.messages(), 2u);
  EXPECT_EQ(client.receive_result(64, link.b_to_a),
            HmvpEngine::reference(a, v, ctx->params().t));
}

TEST(Protocol, ServerWithoutKeysThrows) {
  auto ctx = small_ctx();
  HmvpServer server(ctx);
  Rng rng(9);
  auto a = DenseMatrix::random(2, 64, ctx->params().t, rng);
  Channel in, out;
  EXPECT_THROW(server.answer_query(a, in, out), CheckError);
}

TEST(Protocol, QueryLengthMismatchThrows) {
  auto ctx = small_ctx();
  Rng rng(10);
  auto a = DenseMatrix::random(4, 128, ctx->params().t, rng);
  Duplex link;
  HmvpClient client(ctx, 21);
  HmvpServer server(ctx);
  client.send_keys(link.a_to_b);
  server.receive_keys(link.a_to_b);
  std::vector<u64> v(64, 1);  // wrong length for a 128-column matrix
  client.send_query(v, link.a_to_b);
  EXPECT_THROW(server.answer_query(a, link.a_to_b, link.b_to_a), CheckError);
}

}  // namespace
}  // namespace cham
