#include "metrics.h"

#include <string>
#include <vector>

namespace perfbench {
namespace {

using rpm::prof::Stage;

double stage_ms(const rpm::prof::ProfileReport& p, Stage s) {
  return static_cast<double>(p.stage(s).total_ns) / 1e6;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void emit_end_to_end(const EndToEnd& e, RunResult& out) {
  out.e2e("setup_s", e.setup_s, "s");
  out.e2e("sim_speed", e.sim_speed, "sim_s/s");
  out.e2e("records_per_s", e.records_per_s, "records/s");
  out.e2e("close_p50_ms", e.close_p50_ms, "ms");
  out.e2e("close_p90_ms", e.close_p90_ms, "ms");
  out.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  out.e2e("verdict_precision", e.verdict_precision, "ratio");
  out.e2e("verdict_recall", e.verdict_recall, "ratio");
  out.e2e("upload_delivered_share", e.upload_delivered_share, "ratio");
}

void emit_layers(const WindowObs& w, const rpm::telemetry::Snapshot& before,
                 const rpm::telemetry::Snapshot& after,
                 const rpm::prof::ProfileReport& prof, RunResult& out) {
  const auto delta = [&](const char* family, const std::string& prefix = "",
                         const std::string& result = "") {
    return family_delta(before, after, family, prefix, result);
  };
  const auto events = static_cast<double>(w.events);
  const auto probes = static_cast<double>(w.probes);
  const double wall_ns = w.wall_s * 1e9;

  // sim: the event loop (scheduler heap + std::function dispatch).
  out.layer("sim.events", events, "count");
  out.layer("sim.events_per_probe", ratio(events, probes), "ratio");
  out.layer("sim.dispatch_ns_mean",
            ratio(static_cast<double>(w.dispatch_ns), events), "ns");
  out.layer("sim.outside_dispatch_share",
            w.events == 0
                ? 0.0
                : ratio(wall_ns - static_cast<double>(w.dispatch_ns), wall_ns),
            "ratio");
  out.layer("sim.pending_max", static_cast<double>(w.pending_max), "count");

  // fabric: datagram forwarding and the fluid plane.
  const double sends = delta("rpm_fabric_sends_total");
  out.layer("fabric.sends", sends, "count");
  out.layer("fabric.drops", delta("rpm_fabric_drops_total"), "count");
  out.layer("fabric.fluid_steps", delta("rpm_fabric_fluid_steps_total"),
            "count");
  out.layer("fabric.sends_per_probe", ratio(sends, probes), "ratio");

  // agent (with rnic/verbs under it): probing and uploads.
  const double timeouts = delta("rpm_agent_probe_timeouts_total");
  const double upload_records = delta("rpm_agent_upload_records_total");
  const double folded = delta("rpm_agent_upload_folded_total");
  out.layer("agent.probes", probes, "count");
  out.layer("agent.timeouts", timeouts, "count");
  out.layer("agent.timeout_share", ratio(timeouts, probes), "ratio");
  out.layer("agent.uploads", delta("rpm_agent_uploads_total"), "count");
  out.layer("agent.upload_records", upload_records, "count");

  // sketch: switch-side link sketches and host-side upload folding.
  out.layer("sketch.reports", delta("rpm_sketch_reports_total", "", "flushed"),
            "count");
  out.layer("sketch.bytes", delta("rpm_sketch_bytes_total"), "bytes");
  out.layer("sketch.fold_share", ratio(folded, folded + upload_records),
            "ratio");
  out.layer("sketch.flush_ms", stage_ms(prof, Stage::kSketchFlush), "ms");

  // transport: per channel family.
  double sent_all = 0.0;
  double retries_all = 0.0;
  for (const char* fam : {"upload", "ctrl", "digest", "sketch"}) {
    const std::string prefix = std::string(fam) + "/";
    const std::string base = std::string("transport.") + fam + ".";
    const double sent = delta("rpm_transport_msgs_total", prefix, "sent");
    const double retries = delta("rpm_transport_msgs_total", prefix, "retry");
    sent_all += sent;
    retries_all += retries;
    out.layer(base + "msgs_sent", sent, "count");
    out.layer(base + "retries", retries, "count");
    out.layer(base + "lost", delta("rpm_transport_msgs_total", prefix, "lost"),
              "count");
    out.layer(base + "expired",
              delta("rpm_transport_msgs_total", prefix, "expired"), "count");
    out.layer(base + "duplicates",
              delta("rpm_transport_msgs_total", prefix, "duplicate"), "count");
    out.layer(base + "bytes", delta("rpm_transport_bytes_total", prefix),
              "bytes");
  }
  out.layer("transport.retry_share", ratio(retries_all, sent_all), "ratio");
  const auto& deliver = prof.stage(Stage::kTransportDeliver);
  out.layer("transport.deliver_ns_mean",
            ratio(static_cast<double>(deliver.total_ns),
                  static_cast<double>(deliver.count)),
            "ns");

  // ingest: the Analyzer's IngestSink.
  out.layer("ingest.batches", delta("rpm_analyzer_uploads_total"), "count");
  out.layer("ingest.records", delta("rpm_analyzer_records_total"), "count");
  out.layer("ingest.dropped", delta("rpm_analyzer_ingest_dropped_total"),
            "count");
  const auto& submit = prof.stage(Stage::kIngestSubmit);
  out.layer("ingest.submit_us_p50",
            w.submit_us_p50 >= 0.0 ? w.submit_us_p50
            : submit.count == 0    ? 0.0
                                   : submit.p50_ns() / 1e3,
            "us");

  // ingest drain barrier and analyzer (analysis_core): per period close,
  // mean over the window's closes.
  const auto closes =
      static_cast<double>(prof.stage(Stage::kPeriodClose).count);
  const auto per_close = [&](Stage s) {
    return ratio(stage_ms(prof, s), closes);
  };
  out.layer("ingest.drain_barrier_ms", per_close(Stage::kIngestDrainBarrier),
            "ms");
  const double close_ms = per_close(Stage::kPeriodClose);
  double children = per_close(Stage::kIngestDrainBarrier) +
                    per_close(Stage::kDigestFlush) +
                    per_close(Stage::kGlobalMerge);
  out.layer("analyzer.close_ms", close_ms, "ms");
  const std::pair<const char*, Stage> drains[] = {
      {"analyzer.triage_ms", Stage::kDrainTriage},
      {"analyzer.vote_ms", Stage::kDrainVote},
      {"analyzer.bottleneck_ms", Stage::kDrainBottleneck},
      {"analyzer.sla_ms", Stage::kDrainSla},
      {"analyzer.impact_ms", Stage::kDrainImpact},
      {"analyzer.diaglog_ms", Stage::kDrainDiaglog},
  };
  for (const auto& [name, stage] : drains) {
    const double ms = per_close(stage);
    children += ms;
    out.layer(name, ms, "ms");
  }
  out.layer("analyzer.unattributed_ms", closes > 0 ? close_ms - children : 0.0,
            "ms");
  out.layer("analyzer.problems", static_cast<double>(w.problems), "count");

  // federation and journal.
  const double digest_bytes = delta("rpm_pod_digest_bytes_total");
  out.layer("federation.digests", static_cast<double>(w.digests), "count");
  out.layer("federation.digest_bytes", digest_bytes, "bytes");
  out.layer("federation.merges", delta("rpm_global_merges_total"), "count");
  out.layer("federation.merge_ms", stage_ms(prof, Stage::kGlobalMerge), "ms");
  out.layer("federation.fan_in_x",
            ratio(delta("rpm_transport_bytes_total", "upload/"), digest_bytes),
            "ratio");
  out.layer("journal.checkpoint_bytes",
            static_cast<double>(w.checkpoint_bytes), "bytes");

  out.layer("chaos.recovery_periods_max",
            static_cast<double>(w.recovery_periods_max), "count");
  out.layer("chaos.mislocalized", static_cast<double>(w.mislocalized),
            "count");
  out.layer("trace_overhead", w.trace_overhead, "ratio");
}

std::vector<Metric> end_to_end_metrics() {
  RunResult r;
  emit_end_to_end(EndToEnd{}, r);
  return r.end_to_end;
}

std::vector<Metric> layer_metrics() {
  RunResult r;
  emit_layers(WindowObs{}, {}, {}, rpm::prof::ProfileReport{}, r);
  return r.per_layer;
}

}  // namespace perfbench
