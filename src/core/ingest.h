// The Analyzer's ingestion runtime: the IngestSink API.
//
// Every record an Agent uploads passes through exactly one IngestSink. The
// sink owns the §4.3 pre-analysis mechanics — sharding by prober host,
// (host, seq) duplicate suppression for the at-least-once transport, and
// the per-period shard buckets — behind a narrow interface so the Analyzer's
// pipeline never cares whether ingestion ran inline on the simulator thread
// or on a worker pool:
//
//   submit(batch)         transport deliveries (deduplicated by (host, seq));
//   submit_trusted(...)   local producers — tests, benches, co-located
//                         collectors — no seq, no duplicate suppression;
//   drain_period()        hand out the period's records in place: a
//                         read-only view (record pointers) over every shard
//                         bucket in shard index order — nothing is copied or
//                         moved (called at period close, sim thread only);
//   release_period()      drop exactly the records the view covered; the
//                         buckets keep their capacity.
//
// View lifetime. The view returned by drain_period() stays valid until
// release_period() or the next submit()/submit_trusted(), whichever comes
// first (a submit may grow a bucket and move its records). Records
// submitted after the drain are not in the view and survive the release:
// they open the next period. Every drain_period() must be followed by a
// release_period() before the next drain. The Analyzer releases right after
// analyze_period() returns, before its period hook runs.
//
// Two backends, selected by IngestConfig::threads:
//
//   threads == 0  InlineSink. Everything happens on the caller's (sim)
//                 thread at submit() time — byte-identical to the historical
//                 Analyzer::ingest_batch path.
//   threads  > 0  WorkerPoolSink. submit() enqueues the batch onto a bounded
//                 per-shard FIFO queue (drop-oldest on overflow, counted in
//                 rpm_analyzer_ingest_dropped_total) and returns; each shard
//                 is owned by exactly one std::thread worker that performs
//                 dedup and bucket append off the sim thread. drain_period()
//                 is a barrier: it waits until every queue is empty and every
//                 worker idle, then lists the buckets in shard index order.
//                 release_period() runs the barrier again before trimming.
//
// Determinism. A host's batches always map to one shard, each shard queue is
// FIFO, and each shard has a single consumer — so per-host dedup decisions
// and per-shard bucket order equal the submission order regardless of thread
// count or interleaving. Listing buckets in shard index order then yields a
// record sequence identical to the inline backend's, which is why verdicts,
// SLA tables, and ChaosReports are identical for any `threads` value (the
// repo-wide same-seed guarantee). The only timing-dependent behavior is
// drop-oldest overflow under live workers; the default queue_capacity is
// sized so simulation workloads never hit it.
//
// Dedup windows are SeqWindow bitmaps (common/seq_window.h): window + 1 bits
// per host, so IngestConfig bounds the window at kMaxSeqWindow.
//
// Observable differences between backends (documented, not load-bearing):
// the record tap and flight-recorder kAnalyzerIngest events fire at submit()
// time inline, but at drain_period() (period close, shard-major order) with
// the worker pool — the recorder and tap are not thread-safe, so workers
// never touch them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/types.h"

namespace rpm::core {

/// One period's drained records, read in place: pointers into the sink's
/// shard buckets, shard index order, submission order within a shard.
using PeriodView = std::vector<const ProbeRecord*>;

/// Canonical snapshot of per-host (host, seq) dedup windows — what the
/// StateJournal persists so a restarted sink keeps rejecting re-delivered
/// history (Agent spill rings drain old seqs after a reconnect). Hosts
/// ascending, seen seqs ascending: same state => same bytes when encoded.
struct IngestCheckpoint {
  struct HostWindow {
    std::uint32_t host = 0;
    std::uint64_t max_seq = 0;
    std::vector<std::uint64_t> seen;  // ascending
  };
  std::vector<HostWindow> hosts;  // ascending by host

  [[nodiscard]] bool empty() const { return hosts.empty(); }
};

/// Ingestion knobs (grouped as AnalyzerConfig::Ingest). Validated with
/// validate() — construction-time rejection, never silent clamping.
struct IngestConfig {
  /// Shard buckets keyed by prober host (host.value % shards).
  std::size_t shards = 8;
  /// Worker threads; 0 selects the inline single-threaded backend. Must not
  /// exceed `shards` (a worker owns whole shards; extras would sit idle).
  std::size_t threads = 0;
  /// Bounded per-shard queue (batches) for the worker pool; overflow drops
  /// the oldest queued batch. Unused by the inline backend.
  std::size_t queue_capacity = 1024;
  /// At-least-once delivery means retried batches arrive twice; per host the
  /// sink remembers batch seqs inside a sliding window of this many seqs
  /// below the highest seen and drops repeats. At most kMaxSeqWindow.
  std::uint64_t dedup_window = 1024;

  /// Throws std::invalid_argument on nonsense: 0 shards, threads > shards,
  /// a 0-capacity queue with workers, or a dedup window of 0 or above
  /// kMaxSeqWindow.
  void validate() const;
};

/// Callbacks the sink fires back into its owner. Both run on the sim thread
/// only (host_alive at submit, tap at submit inline / at drain with the
/// pool), so implementations may touch single-threaded state freely.
struct IngestHooks {
  /// Every submit — duplicate included — proves the uploading host alive
  /// (host-down detection keys on received uploads).
  std::function<void(HostId)> host_alive;
  /// Optional per-record observer; the pointee may be empty (checked per
  /// batch) and may be re-bound between periods by the owner.
  const std::function<void(const ProbeRecord&)>* tap = nullptr;
};

/// The ingestion endpoint. One per Analyzer; all calls from the sim thread.
class IngestSink {
 public:
  virtual ~IngestSink() = default;

  /// Transport delivery path: dedup by (host, seq), then shard. Dropped
  /// silently while paused (Analyzer outage).
  virtual void submit(UploadBatch&& batch) = 0;

  /// Trusted local path: no seq, no duplicate suppression, ignores pause
  /// (matching the historical Analyzer::upload contract).
  virtual void submit_trusted(HostId host,
                              std::vector<ProbeRecord>&& records) = 0;

  /// This period's records in place, shard index order (see the view
  /// lifetime notes above). Worker-pool backend: barrier first. Throws
  /// std::logic_error when the previous drain was never released.
  [[nodiscard]] virtual const PeriodView& drain_period() = 0;

  /// Drop exactly the records the last drain_period() covered; records
  /// submitted since survive. Buckets keep their capacity. No-op without
  /// an outstanding drain. Worker-pool backend: barrier first.
  virtual void release_period() = 0;

  /// Merge and reset the per-shard HostSummary accumulation (sketch-mode
  /// upload thinning). Call after drain_period() on the sim thread — the
  /// pool backend relies on drain_period()'s barrier having run. Summaries
  /// are merged per shard in submission order and across shards in shard
  /// index order, so — like the record view — the result is byte-identical
  /// for any thread count. Empty whenever Agents ship no summaries
  /// (sketch_mode == kOff).
  [[nodiscard]] virtual sketch::HostSummary drain_summary() = 0;

  /// Analyzer outage: while paused, submit() drops on the floor.
  virtual void set_paused(bool paused) = 0;

  /// Canonical snapshot of the per-host dedup windows for the StateJournal.
  /// Sim thread only; the pool backend runs its drain barrier first, so the
  /// snapshot reflects every batch submitted before the call.
  [[nodiscard]] virtual IngestCheckpoint checkpoint() = 0;

  /// Restart path: replace the dedup windows from a journaled snapshot so
  /// re-delivered batches (spill-ring drains, transport retries from before
  /// the crash) are suppressed instead of re-counted. Call on a fresh or
  /// drained sink — buckets are untouched. Seqs below a window are skipped;
  /// a seq above its window's max_seq throws std::invalid_argument
  /// (decode_checkpoint rejects such checkpoints first).
  virtual void restore(const IngestCheckpoint& cp) = 0;

  [[nodiscard]] virtual std::size_t num_shards() const = 0;
  /// 0 for the inline backend.
  [[nodiscard]] virtual std::size_t num_threads() const = 0;

  /// Test-only: park the worker pool so queued batches provably pile up
  /// (deterministic queue-full coverage); drain_period() then processes the
  /// queues on the calling thread. Call before the first submit. No-op on
  /// the inline backend.
  virtual void stall_workers_for_test(bool /*stalled*/) {}
};

/// Build the backend `cfg.threads` selects. Throws via cfg.validate().
std::unique_ptr<IngestSink> make_ingest_sink(const IngestConfig& cfg,
                                             IngestHooks hooks);

}  // namespace rpm::core
