// Concurrency suite for the HMVP serving runtime: multi-client traffic,
// batch coalescing, admission control, cancellation races and session
// churn. Everything here also runs under TSan in CI — the suite is the
// data-race oracle for the server's two pipelined stages.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "hmvp/bsgs.h"
#include "obs/trace.h"
#include "serve/client.h"

namespace cham::serve {
namespace {

using std::chrono::milliseconds;

constexpr std::size_t kN = 64;

struct ServeFixture {
  explicit ServeFixture(ServerConfig cfg = {}, std::size_t rows = 48,
                        std::size_t cols = 64)
      : ctx(BfvContext::create(BfvParams::test(kN))),
        rng(7),
        mat(DenseMatrix::random(rows, cols, ctx->params().t, rng)),
        server(ctx, cfg) {
    matrix_id = server.add_matrix(mat);
  }

  ServeClient make_client(const std::string& session, u64 seed,
                          std::vector<u64> extra_galois = {}) {
    return ServeClient(ctx, server.connect(), session, /*pack_levels=*/6,
                       seed, WireFormat::kPacked, std::move(extra_galois));
  }

  // A tall square shape choose_mvp_algorithm stamps kBsgs at kN=64
  // (32x32: bsgs cost 368 vs coefficient 960). Register before start().
  std::uint32_t add_bsgs_matrix() {
    bsgs_mat = std::make_unique<DenseMatrix>(
        DenseMatrix::random(32, 32, ctx->params().t, rng));
    return server.add_matrix(*bsgs_mat);
  }

  // Rotation elements a client needs for the 32-column BSGS matrix.
  std::vector<u64> bsgs_elements() const {
    return BsgsHmvp(ctx, nullptr).required_galois_elements(32);
  }

  std::vector<u64> random_vector(std::size_t cols, u64 seed) {
    Rng r(seed);
    std::vector<u64> v(cols);
    for (auto& x : v) x = r.uniform(ctx->params().t);
    return v;
  }

  BfvContextPtr ctx;
  Rng rng;
  DenseMatrix mat;
  HmvpServer server;
  std::uint32_t matrix_id = 0;
  std::unique_ptr<DenseMatrix> bsgs_mat;
};

std::vector<std::uint8_t> ct_bytes(const Ciphertext& ct) {
  ByteWriter w;
  save_ciphertext(ct, WireFormat::kRaw, w);
  return w.bytes();
}

TEST(Serve, SingleClientRoundTrip) {
  ServeFixture f;
  f.server.start();
  ServeClient c = f.make_client("alice", 101);
  c.hello();
  const auto v = f.random_vector(f.mat.cols(), 1);
  std::vector<Ciphertext> sent;
  const u64 rid = c.submit(f.matrix_id, v, &sent);
  Response r = c.await();
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.request_id, rid);
  EXPECT_EQ(r.rows, f.mat.rows());

  // Decrypted result matches the plaintext reference...
  const auto got = c.decrypt(r);
  EXPECT_EQ(got, HmvpEngine::reference(f.mat, v, f.ctx->params().t));

  // ...and the served packed ciphertexts are bit-exact with a local
  // single-shot evaluation of the same request ciphertexts (the batched
  // sweep is the single-shot path at batch 1).
  HmvpResult local = c.engine().multiply(f.mat, sent, /*threads=*/1);
  ASSERT_EQ(local.packed.size(), r.packed.size());
  for (std::size_t g = 0; g < r.packed.size(); ++g) {
    EXPECT_EQ(ct_bytes(r.packed[g]), ct_bytes(local.packed[g]));
  }
  f.server.stop();
}

TEST(Serve, CoalescesPreQueuedRequestsIntoOneBatch) {
  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.batch_window = milliseconds(50);
  ServeFixture f(cfg);
  ServeClient c = f.make_client("alice", 202);
  c.hello();
  std::vector<std::vector<u64>> vs;
  for (int i = 0; i < 8; ++i) {
    vs.push_back(f.random_vector(f.mat.cols(), 10 + i));
    c.submit(f.matrix_id, vs.back());
  }
  // Start only after all requests are queued: ingest floods the queue
  // while the first sweep is still gathering, so at least one batch must
  // hold more than one request.
  f.server.start();
  for (int i = 0; i < 8; ++i) {
    Response r = c.await();
    ASSERT_EQ(r.status, Status::kOk);
    const std::size_t idx = r.request_id - 1;  // rids are 1-based
    ASSERT_LT(idx, vs.size());
    EXPECT_EQ(c.decrypt(r),
              HmvpEngine::reference(f.mat, vs[idx], f.ctx->params().t));
  }
  f.server.stop();
  const auto counters = f.server.counters();
  EXPECT_EQ(counters.responses, 8u);
  EXPECT_LT(counters.batches, 8u);
  EXPECT_GT(counters.batch_occupancy, 1.0);
}

TEST(Serve, MultiClientCrossSessionBatches) {
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_window = milliseconds(5);
  cfg.threads = 2;
  ServeFixture f(cfg);
  f.server.start();

  constexpr int kClients = 4;
  constexpr int kPerClient = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int ci = 0; ci < kClients; ++ci) {
    threads.emplace_back([&, ci] {
      ServeClient c =
          f.make_client("client-" + std::to_string(ci), 1000 + ci);
      c.hello();
      for (int k = 0; k < kPerClient; ++k) {
        const auto v = f.random_vector(f.mat.cols(), ci * 100 + k);
        c.submit(f.matrix_id, v);
        Response r = c.await();
        if (r.status != Status::kOk ||
            c.decrypt(r) !=
                HmvpEngine::reference(f.mat, v, f.ctx->params().t)) {
          failures.fetch_add(1);
        }
      }
      c.goodbye();
    });
  }
  for (auto& t : threads) t.join();
  f.server.stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(f.server.counters().responses,
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(f.server.counters().sessions, static_cast<std::uint64_t>(kClients));
}

TEST(Serve, SessionChurnReHelloAfterGoodbye) {
  ServeFixture f;
  f.server.start();
  const auto v = f.random_vector(f.mat.cols(), 3);
  for (int round = 0; round < 3; ++round) {
    // Same session name, fresh keys every round.
    ServeClient c = f.make_client("churn", 500 + round);
    c.hello();
    c.submit(f.matrix_id, v);
    Response r = c.await();
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_EQ(c.decrypt(r), HmvpEngine::reference(f.mat, v, f.ctx->params().t));
    c.goodbye();
  }
  // After goodbye the session is gone: a submit is refused.
  ServeClient ghost = f.make_client("churn2", 900);
  ghost.hello();
  ghost.goodbye();
  ghost.submit(f.matrix_id, v);
  Response r = ghost.await();
  EXPECT_EQ(r.status, Status::kUnknownSession);
  f.server.stop();
}

// Each hello binds a key manager scoped to its own Galois keys, so a
// re-hello under the same session name releases the previous manager and
// every key it froze (before, one manager per name kept every earlier
// generation's frozen pack keys alive for the life of the server).
TEST(Serve, ReHelloReleasesEarlierKeyManagers) {
  ServeFixture f;
  f.server.start();
  const auto v = f.random_vector(f.mat.cols(), 4);
  auto managers_of = [&](const std::string& prefix) {
    std::vector<std::string> out;
    for (const auto& s : EvkManager::live_sessions(f.ctx)) {
      if (s.rfind(prefix, 0) == 0) out.push_back(s);
    }
    return out;
  };
  constexpr int kGenerations = 4;
  std::vector<std::string> names;
  std::vector<std::weak_ptr<EvkManager>> generations;
  // Earlier clients stay connected and never say goodbye: each session is
  // replaced by the next hello, not retired.
  std::deque<ServeClient> clients;
  for (int gen = 0; gen < kGenerations; ++gen) {
    ServeClient& c = clients.emplace_back(
        f.ctx, f.server.connect(), "rehello", /*pack_levels=*/6,
        static_cast<u64>(700 + gen), WireFormat::kPacked,
        std::vector<u64>{});
    c.hello();
    c.submit(f.matrix_id, v);
    Response r = c.await();  // the pack keys are frozen in the manager now
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_EQ(c.decrypt(r), HmvpEngine::reference(f.mat, v, f.ctx->params().t));
    // The new hello's manager is live under a name of its own.
    std::vector<std::string> fresh;
    for (const auto& name : managers_of("rehello#")) {
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        fresh.push_back(name);
      }
    }
    ASSERT_EQ(fresh.size(), 1u) << "generation " << gen;
    names.push_back(fresh[0]);
    generations.push_back(EvkManager::shared(f.ctx, fresh[0]));
  }
  f.server.stop();  // drain: no batch still holds a session
  for (int gen = 0; gen + 1 < kGenerations; ++gen) {
    EXPECT_TRUE(generations[static_cast<std::size_t>(gen)].expired())
        << "generation " << gen << " still holds its keys";
  }
  EXPECT_FALSE(generations.back().expired());  // the current session's
  EXPECT_EQ(managers_of("rehello").size(), 1u);
}

TEST(Serve, AdmissionControlRejectsWhenFull) {
  ServerConfig cfg;
  cfg.max_queue_depth = 0;  // every push refuses: pure rejection path
  ServeFixture f(cfg);
  f.server.start();
  ServeClient c = f.make_client("alice", 42);
  c.hello();
  const auto v = f.random_vector(f.mat.cols(), 1);
  for (int i = 0; i < 3; ++i) c.submit(f.matrix_id, v);
  for (int i = 0; i < 3; ++i) {
    Response r = c.await();
    EXPECT_EQ(r.status, Status::kRejected);
  }
  f.server.stop();
  EXPECT_EQ(f.server.counters().rejected, 3u);
  EXPECT_EQ(f.server.counters().responses, 0u);
}

TEST(Serve, UnknownMatrixAndBadChunkCount) {
  ServeFixture f;
  f.server.start();
  ServeClient c = f.make_client("alice", 42);
  c.hello();
  c.submit(/*matrix_id=*/99, f.random_vector(f.mat.cols(), 1));
  EXPECT_EQ(c.await().status, Status::kUnknownMatrix);
  // Vector of 2 chunks against a 1-chunk matrix.
  c.submit(f.matrix_id, f.random_vector(2 * kN, 2));
  EXPECT_EQ(c.await().status, Status::kBadRequest);
  f.server.stop();
}

TEST(Serve, CancellationRace) {
  // Cancel races the compute stage: each request either got swept (kOk)
  // or was still queued (kCancelled) — never both, never neither.
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_window = std::chrono::nanoseconds(0);
  ServeFixture f(cfg);
  f.server.start();
  ServeClient c = f.make_client("alice", 77);
  c.hello();
  const auto v = f.random_vector(f.mat.cols(), 1);
  constexpr int kReqs = 6;
  std::vector<u64> rids;
  for (int i = 0; i < kReqs; ++i) rids.push_back(c.submit(f.matrix_id, v));
  for (u64 rid : rids) c.request_cancel(rid);
  int ok = 0, cancelled = 0;
  for (int i = 0; i < kReqs; ++i) {
    Response r = c.await();
    if (r.status == Status::kOk) {
      ++ok;
      EXPECT_EQ(c.decrypt(r), HmvpEngine::reference(f.mat, v, f.ctx->params().t));
    } else {
      ASSERT_EQ(r.status, Status::kCancelled);
      ++cancelled;
    }
  }
  EXPECT_EQ(ok + cancelled, kReqs);
  f.server.stop();
  const auto counters = f.server.counters();
  EXPECT_EQ(counters.responses, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(counters.cancelled, static_cast<std::uint64_t>(cancelled));
}

TEST(Serve, SurvivesGarbageFrames) {
  ServeFixture f;
  f.server.start();
  ServeClient c = f.make_client("alice", 11);
  c.hello();
  // Unknown type byte, then a truncated request frame.
  ClientLink raw = f.server.connect();
  raw.up->send(std::vector<std::uint8_t>{0xFF, 1, 2, 3});
  raw.up->send(std::vector<std::uint8_t>{
      static_cast<std::uint8_t>(MsgType::kRequest), 9});
  const auto v = f.random_vector(f.mat.cols(), 1);
  c.submit(f.matrix_id, v);
  Response r = c.await();
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(c.decrypt(r), HmvpEngine::reference(f.mat, v, f.ctx->params().t));
  f.server.stop();
  EXPECT_GE(f.server.counters().errors, 2u);
}

// --- Algorithm-aware serving ----------------------------------------------

TEST(Serve, BsgsStampedMatrixServedBitExactVsSingleShot) {
  // The compute loop must actually run the stamped BSGS sweep, and the
  // served ciphertext must match a local single-shot BsgsHmvp on the same
  // request ciphertext bit for bit.
  ServeFixture f;
  const std::uint32_t bid = f.add_bsgs_matrix();
  ASSERT_EQ(f.server.matrix_algorithm(bid), MvpAlgorithm::kBsgs);
  f.server.start();
  ServeClient c = f.make_client("alice", 321, f.bsgs_elements());
  c.hello();
  const auto v = f.random_vector(f.bsgs_mat->cols(), 5);
  std::vector<Ciphertext> sent;
  c.submit(bid, v, MvpAlgorithm::kBsgs, &sent);
  ASSERT_EQ(sent.size(), 1u);
  Response r = c.await();
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.pack_count, 0u) << "bsgs responses use the slot layout";
  ASSERT_EQ(r.packed.size(), 1u);
  EXPECT_EQ(c.decrypt(r),
            HmvpEngine::reference(*f.bsgs_mat, v, f.ctx->params().t));
  BsgsHmvp local(f.ctx, &c.galois_keys());
  Ciphertext want = local.multiply(*f.bsgs_mat, sent[0]);
  EXPECT_EQ(ct_bytes(r.packed[0]), ct_bytes(want));
  f.server.stop();
  const auto counters = f.server.counters();
  EXPECT_EQ(counters.batches_bsgs, 1u);
  EXPECT_EQ(counters.batches_coeff, 0u);
  EXPECT_EQ(counters.encode_cache_misses, 1u);
}

TEST(Serve, MixedAlgorithmLoadAcrossSessions) {
  // Coefficient-stamped and BSGS-stamped matrices interleaved across four
  // sessions; every response decrypt-checked against the plaintext
  // reference, and both sweep engines must have run.
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_window = milliseconds(5);
  cfg.threads = 2;
  ServeFixture f(cfg);
  const std::uint32_t bid = f.add_bsgs_matrix();
  ASSERT_EQ(f.server.matrix_algorithm(f.matrix_id),
            MvpAlgorithm::kCoefficient);
  ASSERT_EQ(f.server.matrix_algorithm(bid), MvpAlgorithm::kBsgs);
  // add_matrix froze the diagonal set before any batch ran.
  EXPECT_EQ(f.server.counters().encode_cache_misses, 1u);
  f.server.start();

  constexpr int kClients = 4;
  constexpr int kPerClient = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int ci = 0; ci < kClients; ++ci) {
    threads.emplace_back([&, ci] {
      ServeClient c = f.make_client("mixed-" + std::to_string(ci), 4000 + ci,
                                    f.bsgs_elements());
      c.hello();
      for (int k = 0; k < kPerClient; ++k) {
        const bool use_bsgs = (ci + k) % 2 == 0;
        const DenseMatrix& m = use_bsgs ? *f.bsgs_mat : f.mat;
        const std::uint32_t mid = use_bsgs ? bid : f.matrix_id;
        const auto v = f.random_vector(m.cols(), ci * 100 + k);
        c.submit(mid, v, f.server.matrix_algorithm(mid));
        Response r = c.await();
        if (r.status != Status::kOk ||
            c.decrypt(r) != HmvpEngine::reference(m, v, f.ctx->params().t)) {
          failures.fetch_add(1);
        }
      }
      c.goodbye();
    });
  }
  for (auto& t : threads) t.join();
  f.server.stop();
  EXPECT_EQ(failures.load(), 0);
  const auto counters = f.server.counters();
  EXPECT_EQ(counters.responses,
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_GT(counters.batches_bsgs, 0u);
  EXPECT_GT(counters.batches_coeff, 0u);
  EXPECT_EQ(counters.batches_bsgs + counters.batches_coeff,
            counters.batches);
  // One diagonal freeze per (matrix, version), at add_matrix; no BSGS
  // batch froze another.
  EXPECT_EQ(counters.encode_cache_misses, 1u);
}

TEST(Serve, MatrixReversionMidFlight) {
  // update_matrix() while the server is running: earlier batches complete
  // on the encoding they snapshotted, later batches see the new version,
  // and the BSGS diagonal set is frozen once per version, by the writer.
  ServeFixture f;
  const std::uint32_t bid = f.add_bsgs_matrix();
  f.server.start();
  ServeClient c = f.make_client("alice", 808, f.bsgs_elements());
  c.hello();
  const u64 t = f.ctx->params().t;

  const auto v1 = f.random_vector(32, 1);
  c.submit(bid, v1, MvpAlgorithm::kBsgs);
  Response r1 = c.await();
  ASSERT_EQ(r1.status, Status::kOk);
  EXPECT_EQ(c.decrypt(r1), HmvpEngine::reference(*f.bsgs_mat, v1, t));
  EXPECT_EQ(f.server.matrix_version(bid), 0u);

  // Re-version with fresh values of the same shape.
  DenseMatrix next = DenseMatrix::random(32, 32, t, f.rng);
  f.server.update_matrix(bid, next);
  EXPECT_EQ(f.server.matrix_version(bid), 1u);
  const auto v2 = f.random_vector(32, 2);
  c.submit(bid, v2, MvpAlgorithm::kBsgs);
  Response r2 = c.await();
  ASSERT_EQ(r2.status, Status::kOk);
  EXPECT_EQ(c.decrypt(r2), HmvpEngine::reference(next, v2, t));

  // Race a re-version against an in-flight request: the response is
  // correct for exactly one of the two versions (whichever encoding the
  // batch snapshotted), never a torn mix.
  DenseMatrix last = DenseMatrix::random(32, 32, t, f.rng);
  const auto v3 = f.random_vector(32, 3);
  c.submit(bid, v3, MvpAlgorithm::kBsgs);
  f.server.update_matrix(bid, last);
  Response r3 = c.await();
  ASSERT_EQ(r3.status, Status::kOk);
  const auto got = c.decrypt(r3);
  const bool matches_old = got == HmvpEngine::reference(next, v3, t);
  const bool matches_new = got == HmvpEngine::reference(last, v3, t);
  EXPECT_TRUE(matches_old != matches_new);
  f.server.stop();
  const auto counters = f.server.counters();
  EXPECT_EQ(counters.reversions, 2u);
  EXPECT_EQ(counters.encode_cache_misses, 3u);

  // The coefficient path re-versions too (same API, eager re-encode).
  // (Server already stopped; snapshot accessors still work.) Only a
  // coefficient-stamped matrix has a coefficient encoding.
  f.server.update_matrix(f.matrix_id,
                         DenseMatrix::random(48, 64, t, f.rng));
  EXPECT_EQ(f.server.matrix_version(f.matrix_id), 1u);
  EXPECT_NE(f.server.matrix(f.matrix_id), nullptr);
  EXPECT_EQ(f.server.matrix(bid), nullptr);
}

// Reads rows of a dense matrix and records every thread that did.
class RecordingRows : public RowSource {
 public:
  explicit RecordingRows(const DenseMatrix& m) : m_(m) {}
  std::size_t rows() const override { return m_.rows(); }
  std::size_t cols() const override { return m_.cols(); }
  void row(std::size_t i, std::uint64_t* out) const override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      readers_.insert(std::this_thread::get_id());
    }
    m_.row(i, out);
  }
  std::set<std::thread::id> readers() const {
    std::lock_guard<std::mutex> lk(mu_);
    return readers_;
  }

 private:
  const DenseMatrix& m_;
  mutable std::mutex mu_;
  mutable std::set<std::thread::id> readers_;
};

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TEST(Serve, ReversionsRaceMixedLoad) {
  // One thread re-versions both matrices K times while three sessions
  // stream mixed BSGS and coefficient requests. Every response must
  // decrypt to a version live between its send and its receipt, each
  // BSGS version is frozen exactly once, and after start() only the
  // update_matrix caller reads a matrix: the compute thread never encodes.
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_window = milliseconds(1);
  cfg.threads = 2;
  ServeFixture f(cfg);
  const std::uint32_t bid = f.add_bsgs_matrix();
  const u64 t = f.ctx->params().t;
  constexpr int kUpdates = 6;
  constexpr int kSessions = 3;
  constexpr int kMinPerSession = 6;

  // Per matrix (0 = coefficient, 1 = BSGS): its values and the
  // [begin, end] of the update_matrix call that installed each version.
  const std::uint32_t ids[2] = {f.matrix_id, bid};
  std::vector<DenseMatrix> versions[2] = {{f.mat}, {*f.bsgs_mat}};
  std::vector<std::pair<std::int64_t, std::int64_t>> installed[2];
  for (int m = 0; m < 2; ++m) {
    installed[m].emplace_back(0, 0);
    for (int k = 0; k < kUpdates; ++k) {
      const DenseMatrix& base = versions[m][0];
      versions[m].push_back(
          DenseMatrix::random(base.rows(), base.cols(), t, f.rng));
    }
  }
  f.server.start();

  std::atomic<bool> updates_done{false};
  std::thread::id updater_id;
  std::set<std::thread::id> readers;
  std::thread updater([&] {
    updater_id = std::this_thread::get_id();
    for (int k = 1; k <= kUpdates; ++k) {
      std::this_thread::sleep_for(milliseconds(3));
      for (int m = 0; m < 2; ++m) {
        RecordingRows src(versions[m][k]);
        const std::int64_t begin = steady_ns();
        f.server.update_matrix(ids[m], src);
        installed[m].emplace_back(begin, steady_ns());
        const auto r = src.readers();
        readers.insert(r.begin(), r.end());
      }
    }
    updates_done.store(true);
  });

  struct Sample {
    int m = 0;
    std::vector<u64> v, got;
    std::int64_t sent = 0, received = 0;
  };
  std::vector<std::vector<Sample>> samples(kSessions);
  std::atomic<int> not_ok{0};
  std::vector<std::thread> sessions;
  for (int si = 0; si < kSessions; ++si) {
    sessions.emplace_back([&, si] {
      ServeClient c = f.make_client("race-" + std::to_string(si), 6000 + si,
                                    f.bsgs_elements());
      c.hello();
      for (int k = 0; k < kMinPerSession || !updates_done.load(); ++k) {
        Sample s;
        s.m = (si + k) % 2;
        s.v = f.random_vector(versions[s.m][0].cols(), si * 1000 + k);
        s.sent = steady_ns();
        c.submit(ids[s.m], s.v, f.server.matrix_algorithm(ids[s.m]));
        Response r = c.await();
        s.received = steady_ns();
        if (r.status != Status::kOk) {
          not_ok.fetch_add(1);
          continue;
        }
        s.got = c.decrypt(r);
        samples[si].push_back(std::move(s));
      }
      c.goodbye();
    });
  }
  for (auto& th : sessions) th.join();
  updater.join();
  f.server.stop();

  EXPECT_EQ(not_ok.load(), 0);
  for (const auto& per_session : samples) {
    for (const Sample& s : per_session) {
      // Version v is live unless it was installed after the receipt or
      // replaced before the send.
      bool live_match = false;
      const auto& inst = installed[s.m];
      for (std::size_t v = 0; v < inst.size() && !live_match; ++v) {
        const bool started = inst[v].first <= s.received;
        const bool replaced =
            v + 1 < inst.size() && inst[v + 1].second < s.sent;
        live_match = started && !replaced &&
                     s.got == HmvpEngine::reference(versions[s.m][v], s.v, t);
      }
      EXPECT_TRUE(live_match) << "matrix " << s.m << " sent at " << s.sent;
    }
  }
  const auto counters = f.server.counters();
  EXPECT_EQ(counters.encode_cache_misses, 1u + kUpdates);
  EXPECT_EQ(counters.reversions, 2u * kUpdates);
  EXPECT_EQ(counters.errors, 0u);
  EXPECT_EQ(readers, std::set<std::thread::id>{updater_id});
}

// --- Hello key validation -------------------------------------------------

TEST(Serve, HelloMissingPackKeysIsRefused) {
  // The 48-row coefficient matrix packs 64 rows (elements 2^l + 1,
  // l = 1..6). A client with two pack levels must be refused at hello
  // rather than abort the compute thread mid-sweep.
  ServeFixture f;
  f.server.start();
  ServeClient shallow(f.ctx, f.server.connect(), "shallow",
                      /*pack_levels=*/2, 31);
  shallow.hello();
  const auto v = f.random_vector(f.mat.cols(), 1);
  shallow.submit(f.matrix_id, v);
  EXPECT_EQ(shallow.await().status, Status::kUnknownSession);
  // Sessions with the full key set are still served.
  ServeClient good = f.make_client("good", 32);
  good.hello();
  good.submit(f.matrix_id, v);
  Response r = good.await();
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(good.decrypt(r), HmvpEngine::reference(f.mat, v, f.ctx->params().t));
  f.server.stop();
  const auto counters = f.server.counters();
  EXPECT_EQ(counters.sessions, 1u);
  EXPECT_EQ(counters.errors, 2u);  // the hello and its session's request
}

TEST(Serve, HelloMissingBsgsRotationKeysIsRefused) {
  // Pack keys alone do not cover the 32-column BSGS matrix's baby/giant
  // rotations, so the hello binds no session for either matrix.
  ServeFixture f;
  const std::uint32_t bid = f.add_bsgs_matrix();
  f.server.start();
  ServeClient norot = f.make_client("norot", 33);
  norot.hello();
  const auto v = f.random_vector(32, 2);
  norot.submit(bid, v, MvpAlgorithm::kBsgs);
  EXPECT_EQ(norot.await().status, Status::kUnknownSession);
  norot.submit(f.matrix_id, f.random_vector(f.mat.cols(), 3));
  EXPECT_EQ(norot.await().status, Status::kUnknownSession);
  ServeClient good = f.make_client("good", 34, f.bsgs_elements());
  good.hello();
  good.submit(bid, v, MvpAlgorithm::kBsgs);
  Response r = good.await();
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(good.decrypt(r),
            HmvpEngine::reference(*f.bsgs_mat, v, f.ctx->params().t));
  f.server.stop();
  EXPECT_EQ(f.server.counters().sessions, 1u);
}

TEST(Serve, BadReHelloDropsTheLiveBinding) {
  // A refused re-hello under a live name unbinds the name: the earlier
  // keys no longer match the client's, so its requests answer
  // kUnknownSession until a complete hello binds it again.
  ServeFixture f;
  f.server.start();
  const u64 t = f.ctx->params().t;
  const auto v = f.random_vector(f.mat.cols(), 4);
  ServeClient alice = f.make_client("alice", 41);
  alice.hello();
  alice.submit(f.matrix_id, v);
  ASSERT_EQ(alice.await().status, Status::kOk);
  ServeClient shallow(f.ctx, f.server.connect(), "alice", /*pack_levels=*/2,
                      42);
  shallow.hello();
  alice.submit(f.matrix_id, v);
  EXPECT_EQ(alice.await().status, Status::kUnknownSession);
  alice.hello();
  alice.submit(f.matrix_id, v);
  Response r = alice.await();
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(alice.decrypt(r), HmvpEngine::reference(f.mat, v, t));
  f.server.stop();
  EXPECT_EQ(f.server.counters().sessions, 2u);
}

// Coefficient matrix encodes (hmvp.encode_matrix spans) recorded while
// `fn` runs.
std::size_t coefficient_encodes(const std::function<void()>& fn) {
  auto& rec = obs::TraceRecorder::instance();
  const bool was_enabled = rec.enabled();
  rec.disable();
  rec.clear();
  rec.enable();
  fn();
  rec.disable();
  std::size_t n = 0;
  for (const auto& ev : rec.events()) {
    if (std::string(ev.name) == "hmvp.encode_matrix") ++n;
  }
  if (was_enabled) rec.enable();
  return n;
}

TEST(Serve, BsgsStampedMatrixGetsNoCoefficientEncode) {
  // Each matrix version is encoded only for the engine it is stamped
  // with: registering and re-versioning a BSGS-stamped matrix runs no
  // coefficient encode and keeps no coefficient encoding.
#ifdef CHAM_OBS_DISABLED
  GTEST_SKIP() << "trace spans compiled out";
#endif
  ServeFixture f;
  const u64 t = f.ctx->params().t;
  std::uint32_t bid = 0;
  EXPECT_EQ(coefficient_encodes([&] {
              bid = f.add_bsgs_matrix();
              f.server.update_matrix(bid, DenseMatrix::random(32, 32, t, f.rng));
            }),
            0u);
  ASSERT_EQ(f.server.matrix_algorithm(bid), MvpAlgorithm::kBsgs);
  EXPECT_EQ(f.server.matrix(bid), nullptr);
  // The probe does see a coefficient-stamped matrix's encode.
  EXPECT_GT(coefficient_encodes([&] {
              f.server.update_matrix(f.matrix_id,
                                     DenseMatrix::random(48, 64, t, f.rng));
            }),
            0u);
}

TEST(Serve, UpdateMatrixRejectsShapeChange) {
  ServeFixture f;
  DenseMatrix wrong = DenseMatrix::random(16, 32, f.ctx->params().t, f.rng);
  EXPECT_THROW(f.server.update_matrix(f.matrix_id, wrong), CheckError);
  EXPECT_THROW(f.server.update_matrix(99, f.mat), CheckError);
}

TEST(Serve, ForcedCoefficientOverridesBsgsStamp) {
  // The A/B bench's control arm: force_algorithm pins every matrix to
  // the coefficient sweep even when the chooser would pick BSGS.
  ServerConfig cfg;
  cfg.force_algorithm = MvpAlgorithm::kCoefficient;
  ServeFixture f(cfg);
  const std::uint32_t bid = f.add_bsgs_matrix();
  ASSERT_EQ(f.server.matrix_algorithm(bid), MvpAlgorithm::kCoefficient);
  f.server.start();
  ServeClient c = f.make_client("alice", 99);
  c.hello();
  const auto v = f.random_vector(32, 4);
  c.submit(bid, v, MvpAlgorithm::kCoefficient);
  Response r = c.await();
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_GT(r.pack_count, 0u) << "forced run must pack LWEs";
  EXPECT_EQ(c.decrypt(r),
            HmvpEngine::reference(*f.bsgs_mat, v, f.ctx->params().t));
  f.server.stop();
  EXPECT_EQ(f.server.counters().batches_coeff, 1u);
  EXPECT_EQ(f.server.counters().batches_bsgs, 0u);
}

TEST(Serve, RoundRobinAcrossAlgorithmHeterogeneousMatrices) {
  // Pre-queued requests against one coefficient and one BSGS matrix:
  // round-robin coalescing must alternate between the two (each batch
  // stays single-matrix, hence single-algorithm) and serve both fully.
  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.batch_window = milliseconds(50);
  ServeFixture f(cfg);
  const std::uint32_t bid = f.add_bsgs_matrix();
  ServeClient c = f.make_client("alice", 606, f.bsgs_elements());
  std::vector<std::vector<u64>> coeff_vs, bsgs_vs;
  std::vector<u64> coeff_rids, bsgs_rids;
  for (int i = 0; i < 3; ++i) {
    coeff_vs.push_back(f.random_vector(f.mat.cols(), 50 + i));
    bsgs_vs.push_back(f.random_vector(32, 60 + i));
  }
  f.server.start();
  c.hello();
  for (int i = 0; i < 3; ++i) {
    coeff_rids.push_back(
        c.submit(f.matrix_id, coeff_vs[i], MvpAlgorithm::kCoefficient));
    bsgs_rids.push_back(c.submit(bid, bsgs_vs[i], MvpAlgorithm::kBsgs));
  }
  const u64 t = f.ctx->params().t;
  for (int i = 0; i < 6; ++i) {
    Response r = c.await();
    ASSERT_EQ(r.status, Status::kOk);
    const auto got = c.decrypt(r);
    bool found = false;
    for (std::size_t j = 0; j < 3; ++j) {
      if (r.request_id == coeff_rids[j]) {
        EXPECT_EQ(got, HmvpEngine::reference(f.mat, coeff_vs[j], t));
        found = true;
      } else if (r.request_id == bsgs_rids[j]) {
        EXPECT_EQ(got, HmvpEngine::reference(*f.bsgs_mat, bsgs_vs[j], t));
        found = true;
      }
    }
    EXPECT_TRUE(found) << "unknown request id " << r.request_id;
  }
  f.server.stop();
  const auto counters = f.server.counters();
  EXPECT_EQ(counters.responses, 6u);
  EXPECT_GT(counters.batches_bsgs, 0u);
  EXPECT_GT(counters.batches_coeff, 0u);
}

// --- RequestQueue unit coverage -------------------------------------------

QueuedRequest make_req(u64 rid, std::uint32_t mid,
                       const std::string& session = "s") {
  QueuedRequest q;
  q.request_id = rid;
  q.matrix_id = mid;
  q.session = session;
  return q;
}

TEST(RequestQueue, CoalescesSameMatrixPreservingOtherOrder) {
  RequestQueue q(16);
  ASSERT_TRUE(q.push(make_req(1, 7)));
  ASSERT_TRUE(q.push(make_req(2, 9)));
  ASSERT_TRUE(q.push(make_req(3, 7)));
  ASSERT_TRUE(q.push(make_req(4, 7)));
  auto batch = q.pop_batch(8, std::chrono::nanoseconds(0));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].request_id, 1u);
  EXPECT_EQ(batch[1].request_id, 3u);
  EXPECT_EQ(batch[2].request_id, 4u);
  auto rest = q.pop_batch(8, std::chrono::nanoseconds(0));
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].request_id, 2u);
}

TEST(RequestQueue, MaxBatchCapsTheSweep) {
  RequestQueue q(16);
  for (u64 i = 1; i <= 5; ++i) ASSERT_TRUE(q.push(make_req(i, 1)));
  EXPECT_EQ(q.pop_batch(2, std::chrono::nanoseconds(0)).size(), 2u);
  EXPECT_EQ(q.pop_batch(2, std::chrono::nanoseconds(0)).size(), 2u);
  EXPECT_EQ(q.pop_batch(2, std::chrono::nanoseconds(0)).size(), 1u);
}

TEST(RequestQueue, AdmissionDepthAndClose) {
  RequestQueue q(2);
  EXPECT_TRUE(q.push(make_req(1, 1)));
  EXPECT_TRUE(q.push(make_req(2, 1)));
  EXPECT_FALSE(q.push(make_req(3, 1)));  // full
  q.close();
  EXPECT_FALSE(q.push(make_req(4, 1)));  // closed
  EXPECT_EQ(q.pop_batch(8, std::chrono::nanoseconds(0)).size(), 2u);
  EXPECT_TRUE(q.pop_batch(8, std::chrono::nanoseconds(0)).empty());
}

TEST(RequestQueue, CancelRemovesOnlyQueuedMatch) {
  RequestQueue q(8);
  ASSERT_TRUE(q.push(make_req(1, 1, "a")));
  ASSERT_TRUE(q.push(make_req(2, 1, "b")));
  EXPECT_FALSE(q.cancel("a", 2));  // rid 2 belongs to "b"
  EXPECT_TRUE(q.cancel("b", 2));
  EXPECT_FALSE(q.cancel("b", 2));  // already gone
  auto batch = q.pop_batch(8, std::chrono::nanoseconds(0));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request_id, 1u);
}

TEST(RequestQueue, RoundRobinServesSkewedMixWithoutStarvation) {
  // Heavily skewed mix: a flood of matrix-0 requests around single
  // requests for matrices 1 and 2, with the flood refilled after every
  // batch. FIFO-head coalescing would serve matrix 0 forever; round-robin
  // must reach every distinct matrix within one cycle of the keys.
  RequestQueue q(64);
  u64 rid = 1;
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.push(make_req(rid++, 0)));
  ASSERT_TRUE(q.push(make_req(100, 1)));
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.push(make_req(rid++, 0)));
  ASSERT_TRUE(q.push(make_req(200, 2)));

  std::vector<std::uint32_t> served;
  for (int round = 0; round < 3; ++round) {
    auto batch = q.pop_batch(4, std::chrono::nanoseconds(0));
    ASSERT_FALSE(batch.empty());
    for (const auto& r : batch) EXPECT_EQ(r.matrix_id, batch[0].matrix_id);
    served.push_back(batch[0].matrix_id);
    // Adversary: keep the flood topped up between batches.
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.push(make_req(rid++, 0)));
  }
  // One full cycle over the three distinct keys, flood notwithstanding.
  EXPECT_EQ(served, (std::vector<std::uint32_t>{0, 1, 2}));

  // The singletons are gone; only the flood remains.
  for (int i = 0; i < 4; ++i) {
    auto batch = q.pop_batch(64, std::chrono::nanoseconds(0));
    ASSERT_FALSE(batch.empty());
    for (const auto& r : batch) EXPECT_EQ(r.matrix_id, 0u);
    if (q.depth() == 0) break;
  }
  EXPECT_EQ(q.depth(), 0u);
}

TEST(RequestQueue, RoundRobinRotatesEqualMix) {
  RequestQueue q(16);
  // Interleaved arrivals across three matrices; batches must cycle
  // 5 -> 6 -> 7 -> 5, taking same-matrix requests in arrival order.
  ASSERT_TRUE(q.push(make_req(1, 5)));
  ASSERT_TRUE(q.push(make_req(2, 6)));
  ASSERT_TRUE(q.push(make_req(3, 7)));
  ASSERT_TRUE(q.push(make_req(4, 5)));
  ASSERT_TRUE(q.push(make_req(5, 6)));
  auto b1 = q.pop_batch(8, std::chrono::nanoseconds(0));
  ASSERT_EQ(b1.size(), 2u);
  EXPECT_EQ(b1[0].request_id, 1u);
  EXPECT_EQ(b1[1].request_id, 4u);
  // Matrix 5 re-queues immediately — but 6 and 7 are ahead of it now.
  ASSERT_TRUE(q.push(make_req(6, 5)));
  auto b2 = q.pop_batch(8, std::chrono::nanoseconds(0));
  ASSERT_EQ(b2.size(), 2u);
  EXPECT_EQ(b2[0].matrix_id, 6u);
  auto b3 = q.pop_batch(8, std::chrono::nanoseconds(0));
  ASSERT_EQ(b3.size(), 1u);
  EXPECT_EQ(b3[0].matrix_id, 7u);
  auto b4 = q.pop_batch(8, std::chrono::nanoseconds(0));
  ASSERT_EQ(b4.size(), 1u);
  EXPECT_EQ(b4[0].request_id, 6u);
}

TEST(RequestQueue, CancelLastRequestRetiresMatrixFromRotation) {
  RequestQueue q(8);
  ASSERT_TRUE(q.push(make_req(1, 3)));
  ASSERT_TRUE(q.push(make_req(2, 4)));
  EXPECT_TRUE(q.cancel("s", 1));  // matrix 3 now has no queued requests
  auto batch = q.pop_batch(8, std::chrono::nanoseconds(0));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].matrix_id, 4u);
  EXPECT_EQ(q.depth(), 0u);
  // Matrix 3 re-entering later is served normally.
  ASSERT_TRUE(q.push(make_req(5, 3)));
  auto again = q.pop_batch(8, std::chrono::nanoseconds(0));
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].request_id, 5u);
}

TEST(RequestQueue, BatchWindowGathersLateArrivals) {
  RequestQueue q(8);
  ASSERT_TRUE(q.push(make_req(1, 1)));
  std::thread late([&] {
    std::this_thread::sleep_for(milliseconds(10));
    q.push(make_req(2, 1));
  });
  auto batch = q.pop_batch(2, milliseconds(500));
  late.join();
  EXPECT_EQ(batch.size(), 2u);
}

}  // namespace
}  // namespace cham::serve
