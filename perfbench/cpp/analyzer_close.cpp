// analyzer_close: the Analyzer alone (no fabric), inline submit() of
// pre-generated upload batches followed by one analyze_now() per period,
// with a 2-thread ingest worker pool over 8 shards.
//
// Set-up (timed kSetups times, half before and half after the measured
// window, median reported) is Analyzer construction plus kWarmup periods.
// The measured window is kMeasured periods; each period's inputs are copied
// from the generated template outside the timed segments, so only submit()
// and analyze_now() are timed.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "close_gen.h"
#include "core/analyzer.h"
#include "core/journal.h"
#include "metrics.h"
#include "prof/prof.h"
#include "sim/scheduler.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace rpm;

constexpr TimeNs kPeriod = sec(5);
constexpr int kSetups = 6;
constexpr int kWarmup = 3;
constexpr int kMeasured = 110;  // p90 then has 11 closes beyond it
constexpr std::size_t kThreads = 2;
constexpr std::size_t kShards = 8;

/// One Analyzer deployment fed by the generated workload.
struct Harness {
  explicit Harness(const CloseWorkload& wl)
      : wl(wl), host_seq(wl.topo.num_hosts(), 0) {
    core::AnalyzerConfig cfg;
    cfg.period = kPeriod;
    cfg.ingest.shards = kShards;
    cfg.ingest.threads = kThreads;
    analyzer = std::make_unique<core::Analyzer>(wl.topo, wl.controller, sched,
                                                cfg);
    analyzer->attach_journal(&journal, "analyzer");
    for (std::uint32_t s = 1; s <= CloseWorkload::kServices; ++s) {
      analyzer->register_service({ServiceId{s}, [] { return 1.0; }});
    }
  }

  /// Period `p`'s inputs: the template with fresh per-host seqs, ids and
  /// timestamps. Not timed.
  std::vector<core::UploadBatch> inputs(int p) {
    std::vector<core::UploadBatch> out = wl.batches;
    std::uint64_t id = static_cast<std::uint64_t>(p) * wl.records() + 1;
    for (core::UploadBatch& b : out) {
      b.seq = ++host_seq[b.host.value];
      for (core::ProbeRecord& r : b.records) {
        r.id = id++;
        r.sent_at += kPeriod * p;
      }
    }
    return out;
  }

  const CloseWorkload& wl;
  sim::InlineScheduler sched;
  core::StateJournal journal;
  std::unique_ptr<core::Analyzer> analyzer;
  std::vector<std::uint64_t> host_seq;
  int next_period = 0;
};

struct PeriodTiming {
  double submit_s = 0.0;
  double close_s = 0.0;
  const core::PeriodReport* report = nullptr;
};

/// submit() every batch, then one analyze_now(); only those two are timed.
PeriodTiming run_period(Harness& h, Spans& spans,
                        std::vector<double>* submit_us) {
  const int p = h.next_period++;
  std::vector<core::UploadBatch> batches = h.inputs(p);
  h.sched.run_until(kPeriod * (p + 1));
  PeriodTiming t;
  Spans::Scope period(spans, "period");
  const auto t0 = Clock::now();
  {
    Spans::Scope s(spans, "IngestSink.submit");
    core::IngestSink& sink = h.analyzer->sink();
    for (core::UploadBatch& b : batches) {
      if (submit_us == nullptr) {
        sink.submit(std::move(b));
        continue;
      }
      const auto b0 = Clock::now();
      sink.submit(std::move(b));
      submit_us->push_back(seconds_since(b0) * 1e6);
    }
  }
  const auto t1 = Clock::now();
  {
    Spans::Scope s(spans, "Analyzer.analyze_now");
    t.report = &h.analyzer->analyze_now();
  }
  t.close_s = seconds_since(t1);
  t.submit_s = std::chrono::duration<double>(t1 - t0).count();
  return t;
}

/// Score one period's verdicts against the planted faults.
struct Score {
  std::size_t claims = 0;
  std::size_t true_claims = 0;
  std::size_t found = 0;  // of the 3 planted faults
};

Score score(const core::PeriodReport& rep, const CloseWorkload& wl) {
  const LinkId peer = wl.topo.link(wl.bad_link).peer;
  bool link = false, rnic = false, host = false;
  Score s;
  for (const core::Problem& p : rep.problems) {
    if (p.priority == core::Priority::kNoise ||
        p.category == core::ProblemCategory::kQpnResetNoise ||
        p.category == core::ProblemCategory::kAgentCpuNoise) {
      continue;
    }
    ++s.claims;
    bool ok = false;
    switch (p.category) {
      case core::ProblemCategory::kSwitchNetworkProblem:
        ok = std::any_of(p.suspect_links.begin(), p.suspect_links.end(),
                         [&](LinkId l) { return l == wl.bad_link || l == peer; });
        link = link || ok;
        break;
      case core::ProblemCategory::kRnicProblem:
        ok = p.rnic == wl.bad_rnic;
        rnic = rnic || ok;
        break;
      case core::ProblemCategory::kHighProcessingDelay:
        ok = p.host == wl.slow_host;
        host = host || ok;
        break;
      default:
        break;
    }
    if (ok) ++s.true_claims;
  }
  s.found = (link ? 1 : 0) + (rnic ? 1 : 0) + (host ? 1 : 0);
  return s;
}

/// Canonical text of one period's verdicts (the gate compares these bytes).
void append_digest(std::string& out, const core::PeriodReport& rep) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "period %lld records=%zu host_down=%zu qpn=%zu cpu=%zu "
                "rnic=%zu switch=%zu sla=%zu/%zu/%.0f/%.0f\n",
                static_cast<long long>(rep.period_end), rep.records_processed,
                rep.timeouts_host_down, rep.timeouts_qpn_reset,
                rep.timeouts_agent_cpu, rep.timeouts_rnic,
                rep.timeouts_switch, rep.cluster_sla.probes,
                rep.cluster_sla.timeouts, rep.cluster_sla.rtt_p50,
                rep.cluster_sla.rtt_p99);
  out += buf;
  for (const core::Problem& p : rep.problems) {
    std::snprintf(buf, sizeof(buf), "  %s %s rnic=%u host=%u n=%zu svc=%u",
                  core::problem_category_name(p.category),
                  core::priority_name(p.priority), p.rnic.value, p.host.value,
                  p.anomalous_probes, p.service.value);
    out += buf;
    for (LinkId l : p.suspect_links) out += " L" + std::to_string(l.value);
    out += '\n';
  }
}

}  // namespace

RunResult run_analyzer_close(const Options& opt, bool traced, Spans& spans) {
  RunResult out;
  Spans::Scope top(spans, "analyzer_close");
  const CloseWorkload wl(opt.seed);  // input generation: not timed

  // ---- set-up: construction + warm-up periods, timed kSetups times: half
  // before the measured window (the last of these harnesses is measured) and
  // half after it ----
  std::vector<double> setup_s;
  const auto timed_set_up = [&] {
    Spans::Scope s(spans, "setup");
    const auto t0 = Clock::now();
    auto h = std::make_unique<Harness>(wl);
    double secs = seconds_since(t0);
    for (int w = 0; w < kWarmup; ++w) {
      const PeriodTiming t = run_period(*h, spans, nullptr);
      secs += t.submit_s + t.close_s;
    }
    setup_s.push_back(secs);
    return h;
  };
  std::unique_ptr<Harness> h;
  for (int i = 0; i < kSetups / 2; ++i) {
    h.reset();
    h = timed_set_up();
  }

  // ---- measured window ----
  auto& reg = telemetry::registry();
  const telemetry::Snapshot before = reg.snapshot();
  const std::uint64_t events0 = h->sched.executed_events();
  if (traced) {
    prof::ProfilerConfig pc;
    pc.max_trace_events = 0;
    prof::profiler().enable(pc);
  }
  std::vector<double> submit_us;
  std::vector<double> close_ms;
  std::vector<double> period_s;  // submit + close
  double wall_s = 0.0;
  std::size_t records = 0;
  Score total;
  std::uint64_t failed = 0;
  std::uint64_t problems = 0;
  // The close runs on this thread; between periods it moves to the next
  // CPU. The ingest workers are left to the kernel.
  auto cores = std::make_unique<CoreRotation>();
  for (int p = 0; p < kMeasured; ++p) {
    cores->step();
    const PeriodTiming t = run_period(*h, spans, traced ? &submit_us : nullptr);
    wall_s += t.submit_s + t.close_s;
    period_s.push_back(t.submit_s + t.close_s);
    close_ms.push_back(t.close_s * 1e3);
    const core::PeriodReport& rep = *t.report;
    records += rep.records_processed;
    problems += rep.problems.size();
    const Score s = score(rep, wl);
    total.claims += s.claims;
    total.true_claims += s.true_claims;
    total.found += s.found;
    const bool ok = s.found == 3 && s.claims == s.true_claims &&
                    rep.records_processed == wl.records() &&
                    rep.timeouts_qpn_reset == wl.stale_qpn_probes;
    if (!ok) ++failed;
    append_digest(out.verdict_bytes, rep);
  }
  cores.reset();
  prof::ProfileReport prof_rep;
  if (traced) {
    prof_rep = prof::profiler().report();
    prof::profiler().disable();
  }
  const telemetry::Snapshot after = reg.snapshot();

  const std::uint64_t events = h->sched.executed_events() - events0;
  const std::uint64_t checkpoint_bytes =
      h->journal.checkpoint_bytes("analyzer");
  h.reset();
  for (int i = 0; i < kSetups - kSetups / 2; ++i) timed_set_up();

  const double submitted = static_cast<double>(wl.records()) * kMeasured;
  EndToEnd e;
  e.setup_s = median(setup_s);
  // Every measured period does the same work, so rates come from the
  // median period: a burst of machine noise in a few periods does not move
  // them.
  const double typical_period_s = median(period_s);
  e.sim_speed = to_seconds(kPeriod) / typical_period_s;
  e.records_per_s = static_cast<double>(wl.records()) / typical_period_s;
  e.close_p50_ms = quantile(close_ms, 0.5);
  e.close_p90_ms = quantile(close_ms, 0.9);
  e.verdict_precision = total.claims == 0
                            ? 1.0
                            : static_cast<double>(total.true_claims) /
                                  static_cast<double>(total.claims);
  e.verdict_recall = static_cast<double>(total.found) / (3.0 * kMeasured);
  // Every batch holds kBatchRecords records, so the share of submitted
  // records reflected in period reports is the share of batches that made it.
  e.upload_delivered_share = static_cast<double>(records) / submitted;
  emit_end_to_end(e, out);

  if (traced) {
    WindowObs w;
    w.wall_s = wall_s;
    w.events = events;
    w.problems = problems;
    w.checkpoint_bytes = checkpoint_bytes;
    w.submit_us_p50 = quantile(submit_us, 0.5);
    emit_layers(w, before, after, prof_rep, out);
  }

  out.attempted = kMeasured;
  out.failed = failed;
  out.check(failed == 0, std::to_string(failed) +
                             " closes missed a planted fault or made a "
                             "false claim");
  out.counts = {{"records", records},
                {"batches", static_cast<std::uint64_t>(
                                family_delta(before, after,
                                             "rpm_analyzer_uploads_total"))},
                {"problems", problems},
                {"closes", static_cast<std::uint64_t>(kMeasured)}};
  char params[320];
  std::snprintf(params, sizeof(params),
                "\"hosts\":%zu,\"records_per_period\":%zu,\"batch\":%zu,"
                "\"ingest_threads\":%zu,\"shards\":%zu,\"warmup_periods\":%d,"
                "\"measured_closes\":%d,\"setups\":%d,\"bad_link\":%u,"
                "\"bad_rnic\":%u,\"slow_host\":%u,\"batch_hash\":\"%016llx\"",
                wl.topo.num_hosts(), wl.records(), CloseWorkload::kBatchRecords,
                kThreads, kShards, kWarmup, kMeasured, kSetups,
                wl.bad_link.value, wl.bad_rnic.value, wl.slow_host.value,
                static_cast<unsigned long long>(wl.hash()));
  out.params = params;
  return out;
}

}  // namespace perfbench
