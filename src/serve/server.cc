#include "serve/server.h"

#include <algorithm>

#include "nt/bitops.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cham::serve {

namespace {

std::uint64_t now_ns() { return obs::TraceRecorder::now_ns(); }

}  // namespace

HmvpServer::HmvpServer(BfvContextPtr ctx, ServerConfig cfg)
    : ctx_(std::move(ctx)),
      cfg_(cfg),
      engine_(ctx_, nullptr),
      bsgs_engine_(ctx_, nullptr),
      queue_(cfg.max_queue_depth) {
  CHAM_CHECK_MSG(cfg_.max_batch >= 1, "max_batch must be positive");
  CHAM_CHECK_MSG(cfg_.threads >= 1, "thread count must be positive");
  if (cfg_.force_algorithm.has_value()) {
    CHAM_CHECK_MSG(*cfg_.force_algorithm == MvpAlgorithm::kCoefficient ||
                       *cfg_.force_algorithm == MvpAlgorithm::kBsgs,
                   "server sweeps run coefficient or bsgs only");
  }
}

HmvpServer::~HmvpServer() { stop(); }

std::uint32_t HmvpServer::add_matrix(const RowSource& a) {
  CHAM_CHECK_MSG(!running_, "register matrices before start()");
  auto entry = std::make_unique<MatrixEntry>();
  entry->rows = a.rows();
  entry->cols = a.cols();
  entry->chunks = (a.cols() + ctx_->n() - 1) / ctx_->n();
  entry->algo = cfg_.force_algorithm.value_or(
      choose_mvp_algorithm(a.rows(), a.cols(), ctx_->n()));
  std::vector<u64> need;  // Galois elements the stamped engine consumes
  if (entry->algo == MvpAlgorithm::kBsgs) {
    const std::size_t half = ctx_->n() / 2;
    CHAM_CHECK_MSG(is_power_of_two(a.cols()) && a.cols() <= half &&
                       a.rows() <= half,
                   "bsgs-stamped matrix violates diagonal shape limits");
    need = bsgs_engine_.required_galois_elements(a.cols());
  } else {
    need = engine_.required_galois_elements(a.rows(), a.cols());
  }
  required_galois_.insert(need.begin(), need.end());
  entry->op = encode(entry->algo, a, cfg_.threads);
  obs::MetricsRegistry::global()
      .counter(std::string("serve.matrix_pref_") +
               mvp_algorithm_name(entry->algo))
      .add(1);
  matrices_.push_back(std::move(entry));
  return static_cast<std::uint32_t>(matrices_.size() - 1);
}

void HmvpServer::update_matrix(std::uint32_t id, const RowSource& a) {
  CHAM_CHECK_MSG(id < matrices_.size(), "unknown matrix id " << id);
  MatrixEntry& entry = *matrices_[id];
  CHAM_CHECK_MSG(a.rows() == entry.rows && a.cols() == entry.cols,
                 "update_matrix must keep the registered shape");
  // Encode outside the lock, on one lane: a multi-lane encode would be a
  // pool job, and ThreadPool::run serializes jobs, so every sweep would
  // wait for it. In-flight sweeps keep their snapshots and the swap below
  // only retargets future batches; the replaced operand is released after
  // the lock, so the compute thread never waits on its free.
  Operand op = encode(entry.algo, a, 1);
  {
    std::unique_lock<std::shared_mutex> lk(entry.mu);
    std::swap(entry.op, op);
    ++entry.version;
  }
  reversions_.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::global().counter("serve.matrix_reversions").add(1);
}

std::shared_ptr<const EncodedMatrix> HmvpServer::matrix(
    std::uint32_t id) const {
  CHAM_CHECK_MSG(id < matrices_.size(), "unknown matrix id " << id);
  std::shared_lock<std::shared_mutex> lk(matrices_[id]->mu);
  return matrices_[id]->op.coeff;
}

std::uint32_t HmvpServer::matrix_version(std::uint32_t id) const {
  CHAM_CHECK_MSG(id < matrices_.size(), "unknown matrix id " << id);
  std::shared_lock<std::shared_mutex> lk(matrices_[id]->mu);
  return matrices_[id]->version;
}

MvpAlgorithm HmvpServer::matrix_algorithm(std::uint32_t id) const {
  CHAM_CHECK_MSG(id < matrices_.size(), "unknown matrix id " << id);
  return matrices_[id]->algo;
}

HmvpServer::Operand HmvpServer::encode(MvpAlgorithm algo,
                                       const RowSource& a, int threads) {
  Operand op;
  if (algo == MvpAlgorithm::kBsgs) {
    op.bsgs = std::make_shared<const BsgsEncodedMatrix>(
        bsgs_engine_.encode_matrix(a, threads));
    encode_misses_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::global().counter("serve.encode_cache.miss").add(1);
  } else {
    op.coeff = std::make_shared<const EncodedMatrix>(
        engine_.encode_matrix(a, threads));
  }
  return op;
}

ClientLink HmvpServer::connect() {
  std::lock_guard<std::mutex> lk(links_mu_);
  downs_.push_back(std::make_unique<BlockingChannel>());
  ClientLink link;
  link.client_id = downs_.size() - 1;
  link.up = &inbox_;
  link.down = downs_.back().get();
  return link;
}

void HmvpServer::start() {
  CHAM_CHECK_MSG(!running_ && !stopped_, "server already started");
  running_ = true;
  started_ns_ = now_ns();
  ingest_ = std::thread([this] { ingest_loop(); });
  compute_ = std::thread([this] { compute_loop(); });
}

void HmvpServer::stop() {
  if (!running_ || stopped_) return;
  stopped_ = true;
  // Stage shutdown in pipeline order: no new messages, drain ingest, then
  // drain the queue through compute.
  inbox_.close();
  ingest_.join();
  queue_.close();
  compute_.join();
  {
    std::lock_guard<std::mutex> lk(links_mu_);
    for (auto& down : downs_) down->close();
  }
  const std::uint64_t wall = now_ns() - started_ns_;
  auto& reg = obs::MetricsRegistry::global();
  if (wall > 0) {
    reg.gauge("serve.occupancy.ingest")
        .set(static_cast<double>(ingest_busy_ns_.load()) /
             static_cast<double>(wall));
    reg.gauge("serve.occupancy.compute")
        .set(static_cast<double>(compute_busy_ns_.load()) /
             static_cast<double>(wall));
  }
  const std::uint64_t b = batches_.load();
  reg.gauge("serve.batch_occupancy")
      .set(b ? static_cast<double>(batched_.load()) / static_cast<double>(b)
             : 0.0);
}

HmvpServer::Counters HmvpServer::counters() const {
  Counters c;
  c.requests = requests_.load();
  c.responses = responses_.load();
  c.rejected = rejected_.load();
  c.cancelled = cancelled_.load();
  c.errors = errors_.load();
  c.batches = batches_.load();
  c.batched = batched_.load();
  c.sessions = sessions_n_.load();
  c.batches_bsgs = batches_bsgs_.load();
  c.batches_coeff = batches_coeff_.load();
  c.encode_cache_misses = encode_misses_.load();
  c.reversions = reversions_.load();
  c.batch_occupancy =
      c.batches ? static_cast<double>(c.batched) / static_cast<double>(c.batches)
                : 0.0;
  return c;
}

void HmvpServer::respond_error(BlockingChannel* down, std::uint64_t rid,
                               Status status) {
  if (down == nullptr) return;
  ByteWriter w;
  build_response(rid, status, {}, 0, 0, cfg_.wire, w);
  down->send(w);
}

void HmvpServer::ingest_loop() {
  while (auto blob = inbox_.recv()) {
    const std::uint64_t t0 = now_ns();
    try {
      handle_message(*blob);
    } catch (const CheckError&) {
      // Malformed frame: nothing routable to answer on — count and drop.
      errors_.fetch_add(1, std::memory_order_relaxed);
      obs::MetricsRegistry::global().counter("serve.errors").add(1);
    }
    ingest_busy_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  }
}

void HmvpServer::handle_message(const std::vector<std::uint8_t>& blob) {
  auto& reg = obs::MetricsRegistry::global();
  ByteReader in(blob);
  const auto type = static_cast<MsgType>(in.u8());
  switch (type) {
    case MsgType::kHello: {
      CHAM_SPAN("serve.ingest.hello");
      const std::uint64_t client_id = in.u64();
      std::string name = read_string(in);
      GaloisKeys gk = load_galois_keys_seeded(in, ctx_);
      BlockingChannel* down = nullptr;
      {
        std::lock_guard<std::mutex> lk(links_mu_);
        CHAM_CHECK_MSG(client_id < downs_.size(), "hello from unknown client");
        down = downs_[client_id].get();
      }
      // A key set missing an element some registered matrix rotates by
      // would fail mid-sweep on the compute thread. Refuse the hello and
      // drop any earlier binding under the name: its keys no longer match
      // the client's, so its requests answer kUnknownSession.
      const bool complete =
          std::all_of(required_galois_.begin(), required_galois_.end(),
                      [&](u64 e) { return gk.has(e); });
      if (!complete) {
        sessions_.erase(name);
        errors_.fetch_add(1, std::memory_order_relaxed);
        reg.counter("serve.errors").add(1);
        return;
      }
      sessions_[name] =
          std::make_shared<Session>(ctx_, name, std::move(gk), down);
      sessions_n_.fetch_add(1, std::memory_order_relaxed);
      reg.counter("serve.sessions").add(1);
      return;
    }
    case MsgType::kRequest: {
      CHAM_SPAN("serve.ingest.request");
      const std::uint64_t t0 = now_ns();
      const std::uint64_t client_id = in.u64();
      const std::string name = read_string(in);
      const std::uint64_t rid = in.u64();
      const std::uint32_t mid = in.u32();
      const std::uint32_t chunks = in.u32();
      BlockingChannel* down = nullptr;
      {
        std::lock_guard<std::mutex> lk(links_mu_);
        CHAM_CHECK_MSG(client_id < downs_.size(),
                       "request from unknown client");
        down = downs_[client_id].get();
      }
      auto it = sessions_.find(name);
      if (it == sessions_.end() || it->second->departed) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        reg.counter("serve.errors").add(1);
        respond_error(down, rid, Status::kUnknownSession);
        return;
      }
      auto session = it->second;
      if (mid >= matrices_.size()) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        reg.counter("serve.errors").add(1);
        respond_error(down, rid, Status::kUnknownMatrix);
        return;
      }
      // A BSGS-stamped matrix expects one slot-tiled ciphertext; its
      // shape limits (cols <= N/2) make that the chunk count anyway.
      const std::size_t want = matrices_[mid]->algo == MvpAlgorithm::kBsgs
                                   ? 1
                                   : matrices_[mid]->chunks;
      if (chunks != want) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        reg.counter("serve.errors").add(1);
        respond_error(down, rid, Status::kBadRequest);
        return;
      }
      QueuedRequest req;
      req.request_id = rid;
      req.matrix_id = mid;
      req.session = name;
      req.ct_v.reserve(chunks);
      for (std::uint32_t c = 0; c < chunks; ++c) {
        req.ct_v.push_back(load_ciphertext_seeded(in, ctx_));
      }
      req.enqueue_ns = now_ns();
      req.binding = session;
      reg.histogram("serve.decode_ns").record(req.enqueue_ns - t0);
      if (!queue_.push(std::move(req))) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        reg.counter("serve.rejected").add(1);
        respond_error(session->down, rid, Status::kRejected);
        return;
      }
      requests_.fetch_add(1, std::memory_order_relaxed);
      reg.counter("serve.requests").add(1);
      reg.gauge("serve.queue_depth").set(static_cast<double>(queue_.depth()));
      return;
    }
    case MsgType::kCancel: {
      const std::uint64_t client_id = in.u64();
      const std::string name = read_string(in);
      const std::uint64_t rid = in.u64();
      BlockingChannel* down = nullptr;
      {
        std::lock_guard<std::mutex> lk(links_mu_);
        if (client_id < downs_.size()) down = downs_[client_id].get();
      }
      if (queue_.cancel(name, rid)) {
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        reg.counter("serve.cancelled").add(1);
        respond_error(down, rid, Status::kCancelled);
      }
      return;
    }
    case MsgType::kGoodbye: {
      in.u64();  // client id: goodbye needs no response routing
      const std::string name = read_string(in);
      auto it = sessions_.find(name);
      if (it == sessions_.end()) return;
      // In-flight requests hold the shared_ptr; they complete normally.
      it->second->departed = true;
      sessions_.erase(it);
      return;
    }
    default:
      CHAM_CHECK_MSG(false, "unknown wire message type "
                                << static_cast<int>(type));
  }
}

void HmvpServer::compute_loop() {
  auto& reg = obs::MetricsRegistry::global();
  while (true) {
    auto batch = queue_.pop_batch(cfg_.max_batch, cfg_.batch_window);
    if (batch.empty()) break;  // closed and drained
    const std::uint64_t t0 = now_ns();
    CHAM_SPAN_ARG("serve.batch", batch.size());
    // The queue only coalesces same-matrix requests; both sweeps below
    // rely on that invariant.
    for (std::size_t i = 1; i < batch.size(); ++i) {
      CHAM_DCHECK_MSG(batch[i].matrix_id == batch[0].matrix_id,
                      "pop_batch mixed matrix ids in one batch");
    }
    MatrixEntry& mat = *matrices_[batch[0].matrix_id];
    Operand op;  // in-flight snapshot; update_matrix built it
    {
      std::shared_lock<std::shared_mutex> lk(mat.mu);
      op = mat.op;
    }
    std::vector<Session*> who(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      who[i] = static_cast<Session*>(batch[i].binding.get());
      reg.histogram("serve.queue_wait_ns").record(t0 - batch[i].enqueue_ns);
    }
    // Both sweeps answer in HmvpResult's layout: the coefficient sweep
    // packs LWEs (coefficient layout), the BSGS sweep returns one
    // slot-layout ciphertext per request, marked by pack_count == 0.
    const bool bsgs = mat.algo == MvpAlgorithm::kBsgs;
    std::vector<HmvpResult> results;
    if (bsgs) {
      std::vector<BsgsBatchEntry> entries(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        CHAM_DCHECK_MSG(batch[i].ct_v.size() == 1,
                        "bsgs request must be one slot-tiled ciphertext");
        entries[i].ct_v = &batch[i].ct_v[0];
        entries[i].eval = &who[i]->eval;
        entries[i].gk = &who[i]->gk;
      }
      auto cts = bsgs_engine_.multiply_encoded_batch(*op.bsgs, entries,
                                                     nullptr, cfg_.threads);
      results.resize(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        results[i].packed.push_back(std::move(cts[i]));
        results[i].rows = mat.rows;
      }
    } else {
      std::vector<HmvpBatchEntry> entries(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        entries[i].ct_v = &batch[i].ct_v;
        entries[i].eval = &who[i]->eval;
        entries[i].gk = &who[i]->gk;
      }
      results = engine_.multiply_encoded_batch(*op.coeff, entries,
                                               cfg_.threads);
    }
    const std::uint64_t t1 = now_ns();
    reg.histogram(bsgs ? "serve.sweep_ns.bsgs" : "serve.sweep_ns.coeff")
        .record(t1 - t0);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      CHAM_SPAN("serve.respond");
      ByteWriter w;
      build_response(batch[i].request_id, Status::kOk, results[i].packed,
                     results[i].rows, results[i].pack_count, cfg_.wire, w);
      who[i]->down->send(w);
      responses_.fetch_add(1, std::memory_order_relaxed);
      reg.counter("serve.responses").add(1);
      reg.histogram("serve.request_ns").record(now_ns() - batch[i].enqueue_ns);
    }
    (bsgs ? batches_bsgs_ : batches_coeff_)
        .fetch_add(1, std::memory_order_relaxed);
    reg.counter(bsgs ? "serve.algo.bsgs" : "serve.algo.coeff").add(1);
    reg.histogram("serve.respond_ns").record(now_ns() - t1);
    reg.histogram("serve.batch_size").record(batch.size());
    batches_.fetch_add(1, std::memory_order_relaxed);
    batched_.fetch_add(batch.size(), std::memory_order_relaxed);
    reg.counter("serve.batches").add(1);
    reg.counter("serve.batched_requests").add(batch.size());
    compute_busy_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  }
}

}  // namespace cham::serve
