// Async multi-session HMVP server — the serving analogue of the paper's
// Fig. 1b host/accelerator overlap, run on the process thread pool.
//
// Two pipelined host stages, each its own thread:
//  * ingest — drains the shared inbox channel: expands seed-compressed
//    requests/keys (the decode/encode stage), binds sessions to their
//    per-session EvkManager, and pushes decoded requests through the
//    admission-controlled RequestQueue;
//  * compute — pops coalesced same-matrix batches and runs one batched
//    row sweep (NTT → multiply → extract → pack) across all pool lanes,
//    then serializes and sends each response on its client's channel.
// While compute sweeps batch k, ingest is already decoding batch k+1 —
// the software version of the paper's overlapped host/FPGA stages. Both
// stages meter their busy nanoseconds; stop() publishes the busy/wall
// occupancy of each as gauges, alongside queue/batch counters, to the
// process MetricsRegistry ("serve.*").
//
// Sessions: a client's hello carries its (seed-expanded) Galois keys;
// the server binds them to an Evaluator scoped to that session and that
// hello's keys, so the frozen pack and rotation operands live in an
// EvkManager cache that a re-hello releases. A hello missing a Galois
// element some registered matrix consumes is refused and unbinds its
// name (kUnknownSession thereafter). Requests from different
// sessions still coalesce into one sweep: the coefficient engine shares
// the matrix operands and switches keys per request for its rotations
// and pack tree (HmvpBatchEntry), and a BSGS batch runs per-session
// sub-batches against one shared diagonal set (BsgsBatchEntry). The
// compute loop executes whichever algorithm the matrix was stamped with
// at add_matrix() time (DESIGN.md §6i).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bfv/evaluator.h"
#include "hmvp/bsgs.h"
#include "hmvp/hmvp.h"
#include "io/channel.h"
#include "serve/request_queue.h"
#include "serve/wire.h"

namespace cham::serve {

struct ServerConfig {
  std::size_t max_queue_depth = 64;  // admission cap (push refuses past it)
  std::size_t max_batch = 8;         // coalescing cap per sweep
  std::chrono::nanoseconds batch_window =
      std::chrono::microseconds(200);  // extra wait for same-matrix arrivals
  int threads = 1;                     // pool lanes for the batched sweep
  WireFormat wire = WireFormat::kPacked;
  // When set, every matrix is stamped with this algorithm instead of the
  // choose_mvp_algorithm decision (must be kCoefficient or kBsgs; a
  // forced kBsgs still requires the diagonal shape limits). The A/B
  // serving bench uses kCoefficient to measure the BSGS win.
  std::optional<MvpAlgorithm> force_algorithm;
};

// What a connected client holds: `up` is the server's shared inbox (all
// clients send into it; the messages carry the routing identity), `down`
// is this client's private response channel.
struct ClientLink {
  std::uint64_t client_id = 0;
  BlockingChannel* up = nullptr;
  BlockingChannel* down = nullptr;
};

class HmvpServer {
 public:
  explicit HmvpServer(BfvContextPtr ctx, ServerConfig cfg = {});
  ~HmvpServer();

  // Pre-encode a matrix the server will multiply by (before start()),
  // for its stamped engine only, on up to cfg.threads pool lanes. The
  // returned id is stable; update_matrix() re-versions it in place.
  std::uint32_t add_matrix(const RowSource& a);

  // Replace matrix `id` with new values of the same shape and bump its
  // version. Thread-safe; allowed while running. The new version is
  // encoded for the stamped engine on the caller's thread, one lane (no
  // pool job, so no running sweep waits on it), before the swap: the
  // compute thread never encodes. Any in-flight batch keeps sweeping the
  // snapshot it already holds — a re-version can never invalidate a
  // running sweep.
  void update_matrix(std::uint32_t id, const RowSource& a);

  // Snapshot of the current coefficient encoding (in-flight consumers
  // hold the shared_ptr across re-versions). Each version is encoded only
  // for the engine its matrix is stamped with, so this is null for a
  // BSGS-stamped matrix.
  std::shared_ptr<const EncodedMatrix> matrix(std::uint32_t id) const;
  std::uint32_t matrix_version(std::uint32_t id) const;

  // The algorithm the compute loop runs for this matrix's batches:
  // choose_mvp_algorithm's shape decision (or the config override),
  // stamped at add_matrix time. BSGS batches run as per-session
  // sub-batches of one sweep (BsgsHmvp::multiply_encoded_batch), so
  // cross-session coalescing stays legal; responses come back in the
  // slot layout (pack_count == 0).
  MvpAlgorithm matrix_algorithm(std::uint32_t id) const;

  // Register a client; the returned channels stay valid until the server
  // is destroyed. Thread-safe; allowed while running.
  ClientLink connect();

  void start();
  // Close the inbox, drain both stages, join, then close every client's
  // down channel (queued responses stay receivable) and publish the
  // occupancy gauges. Idempotent.
  void stop();

  struct Counters {
    std::uint64_t requests = 0;    // well-formed requests admitted
    std::uint64_t responses = 0;   // kOk responses sent
    std::uint64_t rejected = 0;    // admission refusals
    std::uint64_t cancelled = 0;   // requests removed by kCancel
    std::uint64_t errors = 0;      // unknown session/matrix, bad request
    std::uint64_t batches = 0;     // sweeps run
    std::uint64_t batched = 0;     // requests served across those sweeps
    std::uint64_t sessions = 0;    // hellos processed
    std::uint64_t batches_bsgs = 0;   // sweeps run on the BSGS engine
    std::uint64_t batches_coeff = 0;  // sweeps run on the coefficient engine
    // BSGS diagonal freezes: one per BSGS-stamped matrix version, run by
    // add_matrix/update_matrix.
    std::uint64_t encode_cache_misses = 0;
    std::uint64_t reversions = 0;  // update_matrix() version bumps
    double batch_occupancy = 0.0;  // batched / batches
  };
  Counters counters() const;

  const BfvContextPtr& context() const { return ctx_; }
  const ServerConfig& config() const { return cfg_; }

 private:
  struct Session {
    std::string name;
    GaloisKeys gk;
    // Bound to EvkManager::shared(ctx, "<name>#<gk.uid>"): scoped to this
    // hello's key material, so a re-hello under the same name gets a
    // fresh manager and the old one (with every key it froze) is
    // released with the old session instead of accumulating.
    Evaluator eval;
    BlockingChannel* down = nullptr;
    bool departed = false;  // goodbye seen; refuse new requests

    Session(const BfvContextPtr& ctx, std::string n, GaloisKeys keys,
            BlockingChannel* d)
        : name(std::move(n)),
          gk(std::move(keys)),
          eval(ctx, name + "#" + std::to_string(gk.uid)),
          down(d) {}
  };

  // One version's frozen operand: exactly one of the two is set, the
  // stamped engine's.
  struct Operand {
    std::shared_ptr<const EncodedMatrix> coeff;
    std::shared_ptr<const BsgsEncodedMatrix> bsgs;
  };

  // One registered matrix. Shape and algorithm stamp are immutable after
  // add_matrix(); the versioned operand behind `mu` is snapshotted by
  // shared_ptr, so a concurrent update_matrix() re-version swaps it out
  // without invalidating the copy an in-flight batch holds. The snapshot
  // is the whole cross-request encode cache.
  struct MatrixEntry {
    std::size_t rows = 0, cols = 0, chunks = 0;
    MvpAlgorithm algo = MvpAlgorithm::kCoefficient;
    mutable std::shared_mutex mu;  // guards the versioned state below
    std::uint32_t version = 0;
    Operand op;
  };

  void ingest_loop();
  void compute_loop();
  void handle_message(const std::vector<std::uint8_t>& blob);
  void respond_error(BlockingChannel* down, std::uint64_t rid, Status status);
  // Build one version's operand for `algo` on up to `threads` lanes; a
  // BSGS freeze counts serve.encode_cache.miss.
  Operand encode(MvpAlgorithm algo, const RowSource& a, int threads);

  BfvContextPtr ctx_;
  ServerConfig cfg_;
  HmvpEngine engine_;  // key-free use only (encode + batched sweep)
  BsgsHmvp bsgs_engine_;  // encode + batched sweep; keys come per request

  std::vector<std::unique_ptr<MatrixEntry>> matrices_;
  // Galois elements the registered matrices' stamped engines consume; a
  // hello must carry all of them.
  std::set<u64> required_galois_;

  BlockingChannel inbox_;
  std::mutex links_mu_;
  std::vector<std::unique_ptr<BlockingChannel>> downs_;  // by client_id

  // Touched only by the ingest thread while running.
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;

  RequestQueue queue_;
  std::thread ingest_;
  std::thread compute_;
  bool running_ = false;
  bool stopped_ = false;
  std::uint64_t started_ns_ = 0;
  std::atomic<std::uint64_t> ingest_busy_ns_{0};
  std::atomic<std::uint64_t> compute_busy_ns_{0};

  std::atomic<std::uint64_t> requests_{0}, responses_{0}, rejected_{0},
      cancelled_{0}, errors_{0}, batches_{0}, batched_{0}, sessions_n_{0},
      batches_bsgs_{0}, batches_coeff_{0}, encode_misses_{0}, reversions_{0};
};

}  // namespace cham::serve
