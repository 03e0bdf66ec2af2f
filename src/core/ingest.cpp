#include "core/ingest.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/seq_window.h"
#include "obs/flight_recorder.h"
#include "prof/prof.h"
#include "telemetry/metrics.h"

namespace rpm::core {

void IngestConfig::validate() const {
  if (shards == 0) {
    throw std::invalid_argument("IngestConfig: shards must be > 0");
  }
  if (threads > shards) {
    throw std::invalid_argument(
        "IngestConfig: threads must not exceed shards (a worker owns whole "
        "shards; threads=" +
        std::to_string(threads) + " > shards=" + std::to_string(shards) +
        ")");
  }
  if (threads > 0 && queue_capacity == 0) {
    throw std::invalid_argument(
        "IngestConfig: queue_capacity must be > 0 when threads > 0");
  }
  if (dedup_window == 0 || dedup_window > kMaxSeqWindow) {
    throw std::invalid_argument(
        "IngestConfig: dedup_window must be in [1, " +
        std::to_string(kMaxSeqWindow) +
        "] (got " + std::to_string(dedup_window) + ")");
  }
}

namespace {

/// Per-host (host, seq) dedup windows, by host id. With the pool a host's
/// windows live in its shard, touched only by the shard's single consumer.
using DedupMap = std::unordered_map<std::uint32_t, SeqWindow>;

bool dedup_accept(DedupMap& dedup, HostId host, std::uint64_t seq,
                  std::uint64_t window) {
  return dedup.try_emplace(host.value, window).first->second.accept(seq);
}

/// Fold one dedup map into a checkpoint under construction. Callers sort
/// cp.hosts afterwards (hosts are disjoint across shards, so a single final
/// sort canonicalizes the multi-shard case too).
void append_dedup_windows(IngestCheckpoint& cp, const DedupMap& dedup) {
  for (const auto& [host, win] : dedup) {
    cp.hosts.push_back({host, win.max_seq(), win.seen()});
  }
}

void finish_checkpoint(IngestCheckpoint& cp) {
  std::sort(cp.hosts.begin(), cp.hosts.end(),
            [](const IngestCheckpoint::HostWindow& a,
               const IngestCheckpoint::HostWindow& b) {
              return a.host < b.host;
            });
}

void restore_window(DedupMap& dedup, const IngestCheckpoint::HostWindow& w,
                    std::uint64_t window) {
  SeqWindow win(window);
  win.restore(w.max_seq, w.seen);
  dedup.insert_or_assign(w.host, std::move(win));
}

/// Drain/release bookkeeping shared by both backends: the view handed out
/// by drain_period() and, per shard, how many bucket records it covers.
class PeriodDrain {
 public:
  explicit PeriodDrain(std::size_t shards) : covered_(shards, 0) {}

  /// Start a drain; the previous one must have been released.
  PeriodView& begin() {
    if (outstanding_) {
      throw std::logic_error(
          "IngestSink::drain_period: previous period not released");
    }
    outstanding_ = true;
    return view_;
  }

  /// List shard `s`'s bucket into the view in place.
  void add(std::size_t s, const std::vector<ProbeRecord>& bucket) {
    covered_[s] = bucket.size();
    for (const ProbeRecord& r : bucket) view_.push_back(&r);
  }

  [[nodiscard]] bool outstanding() const { return outstanding_; }

  /// Drop the records the view covered from every bucket; records appended
  /// since (submitted after the drain) move to the front. `bucket(s)` names
  /// shard s's bucket.
  template <typename BucketOf>
  void release(BucketOf&& bucket) {
    for (std::size_t s = 0; s < covered_.size(); ++s) {
      std::vector<ProbeRecord>& b = bucket(s);
      b.erase(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(covered_[s]));
      covered_[s] = 0;
    }
    view_.clear();  // keeps capacity for the next period
    outstanding_ = false;
  }

 private:
  PeriodView view_;
  std::vector<std::size_t> covered_;  // per shard
  bool outstanding_ = false;
};

void append_records(std::vector<ProbeRecord>& bucket,
                    std::vector<ProbeRecord>&& records) {
  const std::size_t needed = bucket.size() + records.size();
  if (bucket.capacity() < needed) {
    // Grow geometrically: an exact-size reserve per batch would force a
    // reallocation on every append, quadratic over a period.
    bucket.reserve(std::max(needed, bucket.capacity() * 2));
  }
  bucket.insert(bucket.end(), std::make_move_iterator(records.begin()),
                std::make_move_iterator(records.end()));
}

struct SinkMetrics {
  telemetry::Counter uploads;
  telemetry::Counter records;
  telemetry::Counter batches_accepted;
  telemetry::Counter batches_duplicate;
  std::vector<telemetry::Histogram> bucket_records;  // per shard
  // Worker pool only:
  std::vector<telemetry::Gauge> queue_depth;  // per shard
  std::vector<telemetry::Counter> dropped;    // per shard
};

SinkMetrics make_sink_metrics(std::size_t shards, bool pool) {
  auto& reg = telemetry::registry();
  SinkMetrics m;
  m.uploads = reg.counter("rpm_analyzer_uploads_total",
                          "Agent record batches received");
  m.records = reg.counter("rpm_analyzer_records_total",
                          "Probe records received from Agents");
  m.batches_accepted =
      reg.counter("rpm_analyzer_batches_total",
                  "Transport upload batches by dedup outcome",
                  {{"result", "accepted"}});
  m.batches_duplicate =
      reg.counter("rpm_analyzer_batches_total",
                  "Transport upload batches by dedup outcome",
                  {{"result", "duplicate"}});
  m.bucket_records.reserve(shards);
  for (std::size_t b = 0; b < shards; ++b) {
    m.bucket_records.push_back(reg.histogram(
        "rpm_analyzer_ingest_bucket_records",
        "Records merged from one ingest shard at period close",
        {{"bucket", std::to_string(b)}}));
  }
  if (pool) {
    m.queue_depth.reserve(shards);
    m.dropped.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      m.queue_depth.push_back(reg.gauge(
          "rpm_analyzer_ingest_queue_depth",
          "Pending upload batches in one ingest shard queue (sampled at "
          "submit and at period close)",
          {{"shard", std::to_string(s)}}));
      m.dropped.push_back(reg.counter(
          "rpm_analyzer_ingest_dropped_total",
          "Upload batches evicted (drop-oldest) from a full ingest shard "
          "queue",
          {{"shard", std::to_string(s)}}));
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// InlineSink: the historical single-threaded path, byte for byte.
// ---------------------------------------------------------------------------

class InlineSink final : public IngestSink {
 public:
  InlineSink(const IngestConfig& cfg, IngestHooks hooks)
      : cfg_(cfg),
        hooks_(std::move(hooks)),
        buckets_(cfg.shards),
        summaries_(cfg.shards),
        drain_(cfg.shards),
        metrics_(make_sink_metrics(cfg.shards, /*pool=*/false)) {}

  void submit(UploadBatch&& batch) override {
    // Belt-and-braces: during an outage the upload channels are peer-down
    // and nothing should arrive, but a delivery that races the cutover must
    // not land in a shard no period will ever drain correctly.
    if (paused_) return;
    prof::StageScope prof_scope(prof::Stage::kIngestSubmit);
    if (hooks_.host_alive) hooks_.host_alive(batch.host);
    if (!dedup_accept(dedup_, batch.host, batch.seq, cfg_.dedup_window)) {
      metrics_.batches_duplicate.inc();
      return;
    }
    metrics_.batches_accepted.inc();
    metrics_.uploads.inc();
    metrics_.records.inc(batch.records.size());
    if (!batch.summary.empty()) {
      // Per-shard accumulation (even though everything runs on one thread
      // here) keeps the merge order identical to the worker-pool backend:
      // within a shard by submission order, across shards by index.
      summaries_[batch.host.value % buckets_.size()].merge(batch.summary);
    }
    ingest(batch.host, std::move(batch.records));
  }

  void submit_trusted(HostId host,
                      std::vector<ProbeRecord>&& records) override {
    prof::StageScope prof_scope(prof::Stage::kIngestSubmit);
    metrics_.uploads.inc();
    metrics_.records.inc(records.size());
    if (hooks_.host_alive) hooks_.host_alive(host);
    ingest(host, std::move(records));
  }

  const PeriodView& drain_period() override {
    prof::StageScope prof_scope(prof::Stage::kIngestPeriodView);
    PeriodView& view = drain_.begin();
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      metrics_.bucket_records[b].observe(
          static_cast<double>(buckets_[b].size()));
      drain_.add(b, buckets_[b]);
    }
    return view;
  }

  void release_period() override {
    if (!drain_.outstanding()) return;
    prof::StageScope prof_scope(prof::Stage::kIngestPeriodView);
    drain_.release([this](std::size_t b) -> auto& { return buckets_[b]; });
  }

  sketch::HostSummary drain_summary() override {
    prof::StageScope prof_scope(prof::Stage::kIngestPeriodView);
    sketch::HostSummary merged;
    for (sketch::HostSummary& s : summaries_) {
      merged.merge(s);
      s = sketch::HostSummary{};
    }
    return merged;
  }

  void set_paused(bool paused) override { paused_ = paused; }
  [[nodiscard]] std::size_t num_shards() const override {
    return buckets_.size();
  }
  [[nodiscard]] std::size_t num_threads() const override { return 0; }

  IngestCheckpoint checkpoint() override {
    IngestCheckpoint cp;
    append_dedup_windows(cp, dedup_);
    finish_checkpoint(cp);
    return cp;
  }

  void restore(const IngestCheckpoint& cp) override {
    dedup_.clear();
    for (const auto& w : cp.hosts) {
      restore_window(dedup_, w, cfg_.dedup_window);
    }
  }

 private:
  void ingest(HostId host, std::vector<ProbeRecord>&& records) {
    if (hooks_.tap != nullptr && *hooks_.tap) {
      for (const ProbeRecord& r : records) (*hooks_.tap)(r);
    }
    const std::size_t shard_idx = host.value % buckets_.size();
    if (obs::recorder().enabled()) {
      for (const ProbeRecord& r : records) {
        if (r.flight_sampled) {
          obs::recorder().record(r.id, obs::ProbeEventKind::kAnalyzerIngest,
                                 shard_idx);
        }
      }
    }
    append_records(buckets_[shard_idx], std::move(records));
  }

  const IngestConfig cfg_;
  const IngestHooks hooks_;
  std::vector<std::vector<ProbeRecord>> buckets_;  // by prober host % N
  std::vector<sketch::HostSummary> summaries_;     // parallel to buckets_
  DedupMap dedup_;
  PeriodDrain drain_;
  bool paused_ = false;
  SinkMetrics metrics_;
};

// ---------------------------------------------------------------------------
// WorkerPoolSink: bounded per-shard MPSC queues drained by std::threads.
// ---------------------------------------------------------------------------

class WorkerPoolSink final : public IngestSink {
 public:
  WorkerPoolSink(const IngestConfig& cfg, IngestHooks hooks)
      : cfg_(cfg),
        hooks_(std::move(hooks)),
        metrics_(make_sink_metrics(cfg.shards, /*pool=*/true)),
        drain_(cfg.shards) {
    shards_.resize(cfg_.shards);
    workers_.reserve(cfg_.threads);
    for (std::size_t w = 0; w < cfg_.threads; ++w) {
      workers_.push_back(std::make_unique<Worker>());
    }
    // Static shard -> worker ownership: shard s belongs to worker s % T.
    // One consumer per shard is what makes per-shard processing order equal
    // submission order (the determinism argument in ingest.h).
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      shards_[s].worker = s % cfg_.threads;
      workers_[s % cfg_.threads]->shard_ids.push_back(s);
    }
    for (std::size_t w = 0; w < cfg_.threads; ++w) {
      workers_[w]->thread =
          std::thread([this, w] { worker_loop(*workers_[w]); });
    }
  }

  ~WorkerPoolSink() override {
    for (auto& w : workers_) {
      {
        std::lock_guard<std::mutex> lk(w->mu);
        w->stop = true;
      }
      w->cv.notify_all();
    }
    for (auto& w : workers_) {
      if (w->thread.joinable()) w->thread.join();
    }
  }

  void submit(UploadBatch&& batch) override {
    if (paused_) return;
    if (hooks_.host_alive) hooks_.host_alive(batch.host);
    enqueue(batch.host.value % shards_.size(),
            Item{std::move(batch), /*trusted=*/false});
  }

  void submit_trusted(HostId host,
                      std::vector<ProbeRecord>&& records) override {
    if (hooks_.host_alive) hooks_.host_alive(host);
    UploadBatch batch;
    batch.host = host;
    batch.records = std::move(records);
    enqueue(host.value % shards_.size(),
            Item{std::move(batch), /*trusted=*/true});
  }

  const PeriodView& drain_period() override {
    PeriodView& view = drain_.begin();
    if (stalled_.load(std::memory_order_relaxed)) {
      // Test hook active: workers are parked, so the calling (sim) thread
      // works the queues itself — shard order, per-shard FIFO, exactly what
      // the workers would have done.
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        Worker& w = *workers_[shards_[s].worker];
        std::deque<Item> items;
        {
          std::lock_guard<std::mutex> lk(w.mu);
          items.swap(shards_[s].queue);
        }
        for (Item& it : items) process(s, std::move(it));
      }
    } else {
      prof::StageScope prof_scope(prof::Stage::kIngestDrainBarrier);
      barrier_wait();
    }
    prof::StageScope prof_scope(prof::Stage::kIngestPeriodView);
    // All shard buckets are quiescent now; list them in shard index order so
    // the view is identical to the inline backend's. The tap and flight
    // recorder fire here (period close) rather than at submit — workers
    // never touch them (not thread-safe); see ingest.h.
    const bool flight_on = obs::recorder().enabled();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::vector<ProbeRecord>& bucket = shards_[s].bucket;
      metrics_.bucket_records[s].observe(static_cast<double>(bucket.size()));
      if (hooks_.tap != nullptr && *hooks_.tap) {
        for (const ProbeRecord& r : bucket) (*hooks_.tap)(r);
      }
      if (flight_on) {
        for (const ProbeRecord& r : bucket) {
          if (r.flight_sampled) {
            obs::recorder().record(r.id, obs::ProbeEventKind::kAnalyzerIngest,
                                   s);
          }
        }
      }
      drain_.add(s, bucket);
      metrics_.queue_depth[s].set(0.0);
    }
    return view;
  }

  void release_period() override {
    if (!drain_.outstanding()) return;
    prof::StageScope prof_scope(prof::Stage::kIngestPeriodView);
    // Batches submitted since the drain may still be in flight.
    if (!stalled_.load(std::memory_order_relaxed)) barrier_wait();
    drain_.release(
        [this](std::size_t s) -> auto& { return shards_[s].bucket; });
  }

  sketch::HostSummary drain_summary() override {
    // Sim thread, after drain_period()'s barrier: every shard is quiescent.
    // Per-shard accumulation happened in submission order (single consumer,
    // FIFO queue) and this merge runs in shard index order, so the merged
    // summary — including its floating-point sums — is byte-identical to
    // the inline backend's for any thread count.
    prof::StageScope prof_scope(prof::Stage::kIngestPeriodView);
    sketch::HostSummary merged;
    for (Shard& sh : shards_) {
      merged.merge(sh.summary);
      sh.summary = sketch::HostSummary{};
    }
    return merged;
  }

  void set_paused(bool paused) override { paused_ = paused; }
  [[nodiscard]] std::size_t num_shards() const override {
    return shards_.size();
  }
  [[nodiscard]] std::size_t num_threads() const override {
    return workers_.size();
  }

  void stall_workers_for_test(bool stalled) override {
    stalled_.store(stalled, std::memory_order_relaxed);
    if (!stalled) {
      for (auto& w : workers_) w->cv.notify_all();
    }
  }

  IngestCheckpoint checkpoint() override {
    if (!stalled_.load(std::memory_order_relaxed)) barrier_wait();
    // Hosts are disjoint across shards (static host % shards mapping), so
    // folding every shard map and sorting once yields the canonical form.
    IngestCheckpoint cp;
    for (const Shard& sh : shards_) append_dedup_windows(cp, sh.dedup);
    finish_checkpoint(cp);
    return cp;
  }

  void restore(const IngestCheckpoint& cp) override {
    if (!stalled_.load(std::memory_order_relaxed)) barrier_wait();
    for (Shard& sh : shards_) sh.dedup.clear();
    for (const auto& w : cp.hosts) {
      restore_window(shards_[w.host % shards_.size()].dedup, w,
                     cfg_.dedup_window);
    }
  }

 private:
  struct Item {
    UploadBatch batch;
    bool trusted = false;  // skip (host, seq) dedup
  };

  struct Shard {
    std::deque<Item> queue;  // guarded by the owning worker's mu
    // Touched only by the shard's single consumer (owning worker, or the
    // sim thread inside drain_period after the barrier / under stall):
    std::vector<ProbeRecord> bucket;
    sketch::HostSummary summary;
    DedupMap dedup;
    std::size_t worker = 0;
  };

  struct Worker {
    std::mutex mu;
    std::condition_variable cv;       // producer -> worker: work or stop
    std::condition_variable idle_cv;  // worker -> drain barrier
    std::vector<std::size_t> shard_ids;
    std::size_t in_flight = 0;  // items popped but not yet appended
    bool stop = false;
    std::thread thread;
  };

  /// Block until every queue is empty and every worker is between items.
  /// The predicate is evaluated under w.mu, which the worker releases after
  /// its final bucket append — that acquire/release pair is what makes the
  /// shard state visible to the calling (sim) thread without further locks.
  void barrier_wait() {
    for (auto& wp : workers_) {
      Worker& w = *wp;
      std::unique_lock<std::mutex> lk(w.mu);
      w.cv.notify_all();  // wake a worker that raced its last notify
      w.idle_cv.wait(lk, [&] {
        if (w.in_flight != 0) return false;
        for (std::size_t s : w.shard_ids) {
          if (!shards_[s].queue.empty()) return false;
        }
        return true;
      });
    }
  }

  void enqueue(std::size_t s, Item&& item) {
    Worker& w = *workers_[shards_[s].worker];
    {
      std::lock_guard<std::mutex> lk(w.mu);
      std::deque<Item>& q = shards_[s].queue;
      if (q.size() >= cfg_.queue_capacity) {
        // Backpressure: drop the OLDEST queued batch — fresher data is worth
        // more to a monitoring pipeline than completeness of stale data.
        q.pop_front();
        metrics_.dropped[s].inc();
      }
      q.push_back(std::move(item));
      metrics_.queue_depth[s].set(static_cast<double>(q.size()));
    }
    w.cv.notify_one();
  }

  void worker_loop(Worker& w) {
    std::unique_lock<std::mutex> lk(w.mu);
    for (;;) {
      std::size_t idx = kNone;
      if (!stalled_.load(std::memory_order_relaxed)) {
        for (std::size_t s : w.shard_ids) {
          if (!shards_[s].queue.empty()) {
            idx = s;
            break;
          }
        }
      }
      if (idx == kNone) {
        if (w.stop) return;
        w.idle_cv.notify_all();
        w.cv.wait(lk);
        continue;
      }
      Item item = std::move(shards_[idx].queue.front());
      shards_[idx].queue.pop_front();
      ++w.in_flight;
      lk.unlock();
      process(idx, std::move(item));  // sole consumer: no lock needed
      lk.lock();
      --w.in_flight;
    }
  }

  /// Dedup + count + bucket append for one queued item. Caller guarantees
  /// exclusive access to shard `s` (owning worker, or sim thread at drain).
  /// Profiled as ingest.submit: with workers live this is the worker-thread
  /// side of a submit (the per-thread profiler buffers earn their keep
  /// here); under stall it is the sim thread doing the same work.
  void process(std::size_t s, Item&& item) {
    prof::StageScope prof_scope(prof::Stage::kIngestSubmit);
    Shard& sh = shards_[s];
    if (!item.trusted) {
      if (!dedup_accept(sh.dedup, item.batch.host, item.batch.seq,
                        cfg_.dedup_window)) {
        metrics_.batches_duplicate.inc();
        return;
      }
      metrics_.batches_accepted.inc();
    }
    metrics_.uploads.inc();
    metrics_.records.inc(item.batch.records.size());
    if (!item.batch.summary.empty()) sh.summary.merge(item.batch.summary);
    append_records(sh.bucket, std::move(item.batch.records));
  }

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  const IngestConfig cfg_;
  const IngestHooks hooks_;
  SinkMetrics metrics_;
  std::vector<Shard> shards_;
  std::vector<std::unique_ptr<Worker>> workers_;
  PeriodDrain drain_;                  // sim thread only
  bool paused_ = false;                // sim thread only
  std::atomic<bool> stalled_{false};   // test hook
};

}  // namespace

std::unique_ptr<IngestSink> make_ingest_sink(const IngestConfig& cfg,
                                             IngestHooks hooks) {
  cfg.validate();
  if (cfg.threads == 0) {
    return std::make_unique<InlineSink>(cfg, std::move(hooks));
  }
  return std::make_unique<WorkerPoolSink>(cfg, std::move(hooks));
}

}  // namespace rpm::core
