#include "core/analysis_core.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <sstream>

#include "common/stats.h"
#include "fabric/fabric.h"
#include "obs/flight_recorder.h"
#include "prof/prof.h"
#include "telemetry/trace.h"

namespace rpm::core {

// Per-period pipeline state: built fresh for every close (so hash-container
// iteration orders never carry across periods), threaded through the stage
// functions by reference, and destroyed inside the drain.diaglog scope.
struct AnalysisCore::Close {
  // Sketch-mode adapter: a per-key delay statistic backed either by the
  // exact PercentileWindow (sketch_mode == kOff — byte-identical to the
  // historical path, the sketch member stays empty) or by a mergeable
  // QuantileSketch seeded from the Agents' folded summaries plus this
  // period's raw outlier records (kOn).
  struct DelayStat {
    PercentileWindow win;
    sketch::QuantileSketch sk;
    bool use_sketch = false;

    void add(double v) {
      if (use_sketch) {
        sk.add(v);
      } else {
        win.add(v);
      }
    }
    [[nodiscard]] std::size_t count() const {
      return use_sketch ? static_cast<std::size_t>(sk.count()) : win.count();
    }
    // Non-const: PercentileWindow::percentile sorts its window lazily.
    [[nodiscard]] double percentile(double q) {
      return use_sketch ? sk.quantile(q) : win.percentile(q);
    }
  };
  using RecordsBy =
      std::unordered_map<std::uint32_t, std::vector<const ProbeRecord*>>;
  using IdsBy = std::unordered_map<std::uint32_t, std::vector<std::uint64_t>>;

  Close(const PeriodView& r, const sketch::HostSummary& s, TimeNs n,
        FederationScratch* f, bool sketch_on)
      : records(r), summary(s), now(n), fed(f), sk_on(sketch_on),
        cause(r.size()) {}

  /// Cross-link a Problem with its chain under fresh ids and keep both.
  /// Call after p.summary is final.
  void emit(VerdictLog& log, Problem& p, obs::EvidenceChain& c) {
    log.attach(p, c);
    dlog.chains.push_back(std::move(c));
    rep.problems.push_back(std::move(p));
  }

  const PeriodView& records;
  const sketch::HostSummary& summary;
  const TimeNs now;
  FederationScratch* const fed;
  const bool sk_on;

  PeriodReport rep;
  // Every verdict this period gets an EvidenceChain — input probe ids,
  // thresholds compared, Algorithm 1 vote tally, triage branch.
  obs::DiagnosisLog dlog;
  std::map<std::uint32_t, sketch::LinkSketch> link_sketches;

  // classify
  std::unordered_set<std::uint32_t> down_hosts;
  std::vector<std::optional<AnomalyCause>> cause;  // by record index
  // rnic_detect
  std::unordered_set<std::uint32_t> anomalous_rnics;
  // Observed timeout ratio at the moment each RNIC was blamed (evidence).
  std::unordered_map<std::uint32_t, double> blamed_frac;
  std::unordered_map<std::uint32_t, DelayStat> ok_delay_by_rnic;
  std::unordered_map<std::uint32_t, DelayStat> host_ok_delay;
  std::unordered_set<std::uint32_t> cpu_noise_hosts;
  std::unordered_set<std::uint32_t> starved_hosts;
  // attribute: tallies + per-cause evidence sets
  std::unordered_set<std::uint64_t> rnic_timeout_ids;
  std::unordered_set<std::uint64_t> switch_timeout_ids;
  std::vector<const ProbeRecord*> switch_cluster_evidence;
  RecordsBy switch_service_evidence;  // by service id
  RecordsBy rnic_evidence;            // by rnic id
  IdsBy host_down_ids;
  std::vector<std::uint64_t> qpn_reset_ids;
  IdsBy cpu_noise_ids;
  // sla
  std::vector<const ProbeRecord*> cluster_records;
  RecordsBy service_records;
};

namespace {

void add_probes(obs::EvidenceChain& c,
                const std::vector<const ProbeRecord*>& ev) {
  for (const ProbeRecord* r : ev) add_probe(c, r->id);
}

// Recorder-driven auto-triage: aggregate WHERE the evidence probes died
// from their sampled flight timelines, so an evidence chain cites the
// fabric's own drop sites next to the vote tally. A kFabricDrop event names
// the reason and link; a closed timeline without one means the probe timed
// out with no drop observed (lost to path-incompleteness, or the response
// leg). std::map keeps the aggregation order deterministic.
void fill_drop_sites(obs::EvidenceChain& c,
                     const std::vector<const ProbeRecord*>& ev) {
  if (!obs::recorder().enabled()) return;
  std::map<std::string, std::uint64_t> sites;
  for (const ProbeRecord* r : ev) {
    if (!r->flight_sampled) continue;
    const obs::ProbeTimeline* tl = obs::recorder().timeline(r->id);
    if (tl == nullptr) continue;
    if (const obs::TimelineEvent* e =
            tl->find(obs::ProbeEventKind::kFabricDrop)) {
      sites["fabric-drop:" +
            std::string(fabric::drop_reason_name(
                static_cast<fabric::DropReason>(e->a))) +
            "@link" + std::to_string(e->b)] += 1;
    } else if (tl->closed()) {
      sites["timed-out:no-fabric-drop-observed"] += 1;
    }
  }
  for (auto& [site, cnt] : sites) c.drop_sites.emplace_back(site, cnt);
}

// A voted problem's common fields (and the chain's service).
Problem voted_problem(ProblemCategory category,
                      const std::vector<const ProbeRecord*>& ev,
                      bool from_service, ServiceId svc,
                      obs::EvidenceChain& c) {
  Problem p;
  p.category = category;
  p.anomalous_probes = ev.size();
  p.detected_by_service_tracing = from_service;
  p.service = svc;
  c.service = svc.valid() ? svc.value : 0;
  return p;
}

// Exact SLA table (order statistics over the raw records).
SlaReport make_sla(const std::vector<const ProbeRecord*>& records,
                   const std::unordered_set<std::uint64_t>& rnic_timeouts,
                   const std::unordered_set<std::uint64_t>& switch_timeouts) {
  SlaReport sla;
  PercentileWindow rtt;
  PercentileWindow proc;
  for (const ProbeRecord* r : records) {
    ++sla.probes;
    if (r->status == ProbeStatus::kTimeout) {
      ++sla.timeouts;
      if (rnic_timeouts.contains(r->id)) sla.rnic_drop_rate += 1.0;
      if (switch_timeouts.contains(r->id)) sla.switch_drop_rate += 1.0;
    } else {
      rtt.add(static_cast<double>(r->network_rtt));
      proc.add(static_cast<double>(r->responder_delay));
    }
  }
  if (sla.probes > 0) {
    sla.rnic_drop_rate /= static_cast<double>(sla.probes);
    sla.switch_drop_rate /= static_cast<double>(sla.probes);
  }
  sla.rtt_mean = rtt.mean();
  sla.rtt_p50 = rtt.percentile(0.50);
  sla.rtt_p90 = rtt.percentile(0.90);
  sla.rtt_p99 = rtt.percentile(0.99);
  sla.rtt_p999 = rtt.percentile(0.999);
  sla.proc_p50 = proc.percentile(0.50);
  sla.proc_p90 = proc.percentile(0.90);
  sla.proc_p99 = proc.percentile(0.99);
  sla.proc_p999 = proc.percentile(0.999);
  return sla;
}

// Transition between pipeline stages: closes the previous stage's span,
// wall-clock histogram sample and profiler row, and opens the next;
// enter(-1) closes out. The profiler's coarser stage set folds
// classify/rnic_detect/attribute into drain.triage.
class StageClock {
 public:
  explicit StageClock(const telemetry::Histogram* stage_ns)
      : stage_ns_(stage_ns) {}

  void enter(int next) {
    static constexpr prof::Stage kProfStage[AnalysisCore::kNumStages] = {
        prof::Stage::kDrainTriage,     prof::Stage::kDrainTriage,
        prof::Stage::kDrainTriage,     prof::Stage::kDrainVote,
        prof::Stage::kDrainBottleneck, prof::Stage::kDrainSla,
        prof::Stage::kDrainImpact,
    };
    const auto wall = std::chrono::steady_clock::now();
    if (cur_ >= 0) {
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(wall - t0_)
              .count();
      stage_ns_[cur_].observe(static_cast<double>(ns));
      prof::profiler().record(kProfStage[cur_],
                              static_cast<std::uint64_t>(ns));
      telemetry::tracer().end_span(span_);
    }
    cur_ = next;
    t0_ = wall;
    if (next >= 0) {
      span_ = telemetry::tracer().begin_span(
          std::string("analyzer.") + AnalysisCore::stage_name(next),
          "analyzer");
    }
  }

 private:
  const telemetry::Histogram* stage_ns_;
  int cur_ = -1;
  std::uint64_t span_ = 0;
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace

const char* AnalysisCore::stage_name(int stage) {
  static constexpr const char* kNames[kNumStages] = {
      "classify",    // §4.3.1 noise filters (host down, QPN reset)
      "rnic_detect",  // §4.3.2 anomalous-RNIC detection
      "attribute",    // final per-timeout cause attribution
      "localize",     // §4.3.3 Algorithm-1 voting + problem emission
      "bottlenecks",  // high-RTT / high-processing-delay detection
      "sla",          // percentile aggregation
      "impact",       // §4.3.4 P0/P1/P2 assessment
  };
  return kNames[stage];
}

AnalysisCore::AnalysisCore(const topo::Topology& topo,
                           const Controller* directory, AnalyzerConfig cfg)
    : topo_(topo),
      directory_(directory),
      cfg_(std::move(cfg)),
      log_(cfg_.history_limit, "analyzer") {
  auto& reg = telemetry::registry();
  metrics_.periods =
      reg.counter("rpm_analyzer_periods_total", "Analysis periods executed");
  for (int s = 0; s < kNumStages; ++s) {
    metrics_.stage_ns[s] =
        reg.histogram("rpm_analyzer_stage_ns",
                      "Wall-clock cost of one pipeline stage per period",
                      {{"stage", stage_name(s)}});
  }
  for (std::uint8_t c = 0; c < 5; ++c) {
    metrics_.timeouts_by_cause[c] = reg.counter(
        "rpm_analyzer_timeouts_total", "Timeout probes by attributed cause",
        {{"cause", anomaly_cause_name(static_cast<AnomalyCause>(c))}});
  }
  for (std::uint8_t c = 0; c < 7; ++c) {
    metrics_.problems_by_category[c] = reg.counter(
        "rpm_analyzer_problems_total", "Problems emitted by category",
        {{"category", problem_category_name(static_cast<ProblemCategory>(c))}});
  }
  for (std::uint8_t p = 0; p < 4; ++p) {
    metrics_.problems_by_priority[p] = reg.counter(
        "rpm_analyzer_problem_priority_total", "Problems emitted by priority",
        {{"priority", priority_name(static_cast<Priority>(p))}});
  }
  metrics_.raw_fallback_links = reg.counter(
      "rpm_analyzer_raw_fallback_links_total",
      "Links whose period sketch showed drops, keeping raw records in play");
}

void AnalysisCore::register_service(ServiceBinding binding) {
  if (!binding.metric) {
    throw std::invalid_argument("register_service: metric required");
  }
  services_.push_back(std::move(binding));
}

void AnalysisCore::fill_checkpoint(AnalyzerCheckpoint& cp) const {
  cp.last_period_end = last_period_end_;
  cp.next_problem_id = log_.next_problem_id();
  cp.next_evidence_id = log_.next_evidence_id();
  cp.last_upload.assign(last_upload_.begin(), last_upload_.end());
  std::sort(cp.last_upload.begin(), cp.last_upload.end());
  cp.known_hosts.assign(known_hosts_.begin(), known_hosts_.end());
  std::sort(cp.known_hosts.begin(), cp.known_hosts.end());
  cp.rnic_blamed_until.assign(rnic_blamed_until_.begin(),
                              rnic_blamed_until_.end());
  std::sort(cp.rnic_blamed_until.begin(), cp.rnic_blamed_until.end());
  cp.host_noise_until.assign(host_noise_until_.begin(),
                             host_noise_until_.end());
  std::sort(cp.host_noise_until.begin(), cp.host_noise_until.end());
}

void AnalysisCore::restore(const AnalyzerCheckpoint& cp) {
  last_period_end_ = cp.last_period_end;
  log_.restore_ids(cp.next_problem_id, cp.next_evidence_id);
  last_upload_.clear();
  last_upload_.insert(cp.last_upload.begin(), cp.last_upload.end());
  known_hosts_.clear();
  known_hosts_.insert(cp.known_hosts.begin(), cp.known_hosts.end());
  rnic_blamed_until_.clear();
  rnic_blamed_until_.insert(cp.rnic_blamed_until.begin(),
                            cp.rnic_blamed_until.end());
  host_noise_until_.clear();
  host_noise_until_.insert(cp.host_noise_until.begin(),
                           cp.host_noise_until.end());
}

void AnalysisCore::reset_volatile() {
  last_upload_.clear();
  known_hosts_.clear();
  rnic_blamed_until_.clear();
  host_noise_until_.clear();
  log_.reset();
  last_period_end_ = 0;
  (void)sketch_store_.drain_period();  // pending period sketches die too
}

bool AnalysisCore::noisy_host(const Close& cl, HostId h) const {
  if (cl.cpu_noise_hosts.contains(h.value)) return true;
  if (cl.starved_hosts.contains(h.value)) return true;
  const auto it = host_noise_until_.find(h.value);
  return it != host_noise_until_.end() && it->second >= cl.rep.period_start;
}

bool AnalysisCore::blamed(const Close& cl, RnicId r) const {
  if (cl.anomalous_rnics.contains(r.value)) return true;
  const auto it = rnic_blamed_until_.find(r.value);
  return it != rnic_blamed_until_.end() && it->second >= cl.rep.period_start;
}

const PeriodReport& AnalysisCore::analyze_period(
    const PeriodView& records, const sketch::HostSummary& summary,
    TimeNs now, FederationScratch* fed) {
  // Opened at period end (below) but declared first, so it also times the
  // destruction of every pipeline local on return.
  std::optional<prof::StageScope> diaglog_scope;
  Close cl(records, summary, now, fed,
           cfg_.sketch_mode == SketchMode::kOn);
  cl.rep.period_start = last_period_end_;
  cl.rep.period_end = now;
  last_period_end_ = now;
  cl.rep.records_processed = records.size();
  if (fed != nullptr) {
    fed->foreign.clear();
    fed->down_hosts.clear();
    fed->blamed_rnics.clear();
    fed->cpu_noise_hosts.clear();
    fed->cluster_sla = SlaDigest{};
    fed->service_slas.clear();
    fed->service_nets.clear();
  }
  // Sketch mode: the Agents' folded healthy-probe summaries and the
  // switches' per-link sketches feed the statistics below. Both drains are
  // empty no-ops in kOff.
  if (cl.sk_on) cl.link_sketches = sketch_store_.drain_period();
  cl.dlog.period_start = cl.rep.period_start;
  cl.dlog.period_end = cl.rep.period_end;

  metrics_.periods.inc();
  const std::uint64_t period_span =
      telemetry::tracer().begin_span("analyzer.period", "analyzer");
  StageClock clock(metrics_.stage_ns);
  clock.enter(0);
  classify(cl);
  clock.enter(1);
  detect_rnics(cl);
  clock.enter(2);
  attribute(cl);
  clock.enter(3);
  localize(cl);
  clock.enter(4);
  find_bottlenecks(cl);
  clock.enter(5);
  track_sla(cl);
  clock.enter(6);
  assess_impact(cl);
  clock.enter(-1);
  telemetry::tracer().end_span(period_span);

  // Period-end bookkeeping (metric tallies, history/diagnosis retention,
  // journal spill, freeing the pipeline's scratch) is its own profiled
  // stage: it runs outside the stage clock but still inside the close.
  diaglog_scope.emplace(prof::Stage::kDrainDiaglog);
  return finish(cl);
}

// ---- step 1: non-network timeouts and probe noise (§4.3.1) ----
void AnalysisCore::classify(Close& cl) const {
  for (std::uint32_t h : known_hosts_) {
    const auto it = last_upload_.find(h);
    if (it == last_upload_.end() ||
        cl.now - it->second > cfg_.host_silence_threshold) {
      cl.down_hosts.insert(h);
    }
  }
  if (cl.fed != nullptr) {
    cl.fed->down_hosts.assign(cl.down_hosts.begin(), cl.down_hosts.end());
    std::sort(cl.fed->down_hosts.begin(), cl.fed->down_hosts.end());
  }
  for (std::size_t i = 0; i < cl.records.size(); ++i) {
    const ProbeRecord& r = *cl.records[i];
    if (r.status != ProbeStatus::kTimeout) continue;
    const HostId target_host = topo_.rnic(r.target).host;
    if (cl.down_hosts.contains(target_host.value)) {
      cl.cause[i] = AnomalyCause::kHostDown;
      continue;
    }
    // QPN-reset noise: the probe addressed a QPN older than the freshest
    // registration the Controller holds — or a QPN the Controller has no
    // registration for at all (it restarted and lost its registry, and the
    // target has not re-registered yet). Both are control-plane staleness,
    // not network loss.
    if (const auto info = directory_->comm_info(r.target);
        !info || info->qpn != r.target_qpn) {
      cl.cause[i] = AnomalyCause::kQpnReset;
    }
  }
}

// ---- step 2: anomalous-RNIC detection from ToR-mesh data (§4.3.2) ----
void AnalysisCore::detect_rnics(Close& cl) {
  struct RnicStat {
    std::size_t total = 0;
    std::size_t timeouts = 0;
  };
  // Greedy attribution: a dead RNIC's *outgoing* probes also time out and
  // would inflate its innocent peers' timeout ratios. Repeatedly blame the
  // RNIC with the worst ratio, discount every probe involving it, and
  // re-evaluate — peers polluted only by the culprit come out clean.
  std::unordered_set<std::uint32_t>& anomalous = cl.anomalous_rnics;
  std::unordered_map<std::uint32_t, RnicStat> per_rnic;
  for (;;) {
    per_rnic.clear();
    for (std::size_t i = 0; i < cl.records.size(); ++i) {
      const ProbeRecord& r = *cl.records[i];
      if (r.kind != ProbeKind::kTorMesh || cl.cause[i].has_value()) continue;
      if (anomalous.contains(r.prober.value) ||
          anomalous.contains(r.target.value)) {
        continue;
      }
      RnicStat& st = per_rnic[r.target.value];
      ++st.total;
      if (r.status == ProbeStatus::kTimeout) ++st.timeouts;
    }
    if (cl.sk_on) {
      // Folded ToR-mesh OK counts dilute timeout ratios exactly as their raw
      // records would; pairs touching an already-blamed RNIC are discounted
      // the same way the raw loop above discounts them.
      for (const auto& [pair, cnt] : cl.summary.tormesh_ok) {
        if (anomalous.contains(pair.first) ||
            anomalous.contains(pair.second)) {
          continue;
        }
        per_rnic[pair.second].total += cnt;
      }
    }
    std::uint32_t worst = 0;
    double worst_frac = cfg_.rnic_timeout_threshold;
    bool found = false;
    for (const auto& [rnic, st] : per_rnic) {
      if (st.total < 3) continue;
      const double frac = static_cast<double>(st.timeouts) /
                          static_cast<double>(st.total);
      if (frac > worst_frac) {
        worst = rnic;
        worst_frac = frac;
        found = true;
      }
    }
    if (!found) break;
    anomalous.insert(worst);
    cl.blamed_frac[worst] = worst_frac;
  }

  // Responder-delay evidence per RNIC over ALL completed probes (the greedy
  // loop above excludes blamed RNICs from its stats, but the Fig. 6 filter
  // below needs their delays). In sketch mode the stat is seeded from the
  // Agents' folded per-target delay sketches, then raw outlier records merge
  // in on top.
  if (cl.sk_on) {
    for (const auto& [rid, sk] : cl.summary.ok_delay_by_target) {
      Close::DelayStat& st = cl.ok_delay_by_rnic[rid];
      st.use_sketch = true;
      st.sk.merge(sk);
      Close::DelayStat& hs =
          cl.host_ok_delay[topo_.rnic(RnicId{rid}).host.value];
      hs.use_sketch = true;
      hs.sk.merge(sk);
    }
  }
  for (const ProbeRecord* rp : cl.records) {
    const ProbeRecord& r = *rp;
    if (r.status != ProbeStatus::kOk) continue;
    auto [sit, inserted] = cl.ok_delay_by_rnic.try_emplace(r.target.value);
    if (inserted) sit->second.use_sketch = cl.sk_on;
    sit->second.add(static_cast<double>(r.responder_delay));
    auto [hit, hinserted] =
        cl.host_ok_delay.try_emplace(topo_.rnic(r.target).host.value);
    if (hinserted) hit->second.use_sketch = cl.sk_on;
    hit->second.add(static_cast<double>(r.responder_delay));
  }

  if (cfg_.enable_cpu_noise_filters) filter_cpu_noise(cl);

  // Blame window: anomalous now and for the next minute (§5).
  for (std::uint32_t r : anomalous) {
    rnic_blamed_until_[r] = cl.now + cfg_.rnic_blame_window;
  }
  // Noise hangover: a host the Fig. 6 filter flagged keeps filtering for
  // cpu_noise_window. The starved prober's observation backlog produces
  // straggler timeout records for several periods after the service lets
  // go of the CPU; without the hangover those stragglers reach Algorithm-1
  // voting and fabricate a switch problem.
  for (std::uint32_t h : cl.cpu_noise_hosts) {
    host_noise_until_[h] = cl.now + cfg_.cpu_noise_window;
  }
  // Attribution-only starvation evidence: a host whose completed probes
  // show bottleneck-scale responder delay is the prime suspect for its own
  // timeouts even when no single RNIC crossed the timeout-ratio threshold
  // (e.g. the fault landed mid-period and the ratio sits at the bar). Its
  // timeouts stay out of fabric attribution, but verdict emission is
  // untouched: a merely-overloaded host still gets its end-host-bottleneck
  // problem, not a noise verdict. P99, not P90: after an Analyzer restart
  // the period folds in a healthy backlog that buries the starvation tail
  // below the 90th percentile (a healthy host's P99 sits at the µs scale,
  // three orders of magnitude under the threshold, so P99 stays specific).
  if (cfg_.enable_cpu_noise_filters) {
    for (auto& [h, st] : cl.host_ok_delay) {
      if (st.count() >= 3 &&
          st.percentile(0.99) >
              static_cast<double>(cfg_.high_proc_delay_threshold)) {
        cl.starved_hosts.insert(h);
      }
    }
  }
  if (cl.fed != nullptr) export_noise_state(cl);
}

// Figure 6 false-positive filters: the service occupying the Agent's CPU
// makes probes to *all* of a host's RNICs time out at once, and/or shows up
// as huge responder delays on the probes that did complete.
void AnalysisCore::filter_cpu_noise(Close& cl) const {
  std::unordered_set<std::uint32_t>& anomalous = cl.anomalous_rnics;
  std::unordered_map<std::uint32_t, std::size_t> anomalous_per_host;
  for (std::uint32_t r : anomalous) {
    ++anomalous_per_host[topo_.rnic(RnicId{r}).host.value];
  }
  for (auto it = anomalous.begin(); it != anomalous.end();) {
    const HostId h = topo_.rnic(RnicId{*it}).host;
    const bool multi_rnic_simultaneous = anomalous_per_host[h.value] >= 2;
    bool starved_responder = false;
    if (auto sit = cl.ok_delay_by_rnic.find(*it);
        sit != cl.ok_delay_by_rnic.end()) {
      auto& st = sit->second;
      starved_responder =
          st.count() > 0 &&
          st.percentile(0.9) > static_cast<double>(cfg_.starve_delay_threshold);
    }
    // Third Fig. 6 signal: responder processing delay (④-③) is purely
    // host-side — a switch or link fault times probes out but leaves the
    // delay of the probes that DID complete at the µs scale. An anomalous
    // RNIC on a host whose completed probes show bottleneck-scale delays
    // is therefore the service starving the Agent, even when only one of
    // the host's RNICs crossed the timeout threshold and the per-RNIC p90
    // sits below the starve bar.
    bool starved_host = false;
    if (auto hit = cl.host_ok_delay.find(h.value);
        hit != cl.host_ok_delay.end()) {
      auto& st = hit->second;
      starved_host = st.count() >= 3 &&
                     st.percentile(0.9) >
                         static_cast<double>(cfg_.high_proc_delay_threshold);
    }
    if (multi_rnic_simultaneous || starved_responder || starved_host) {
      cl.cpu_noise_hosts.insert(h.value);
      it = anomalous.erase(it);
    } else {
      ++it;
    }
  }
}

// Federation: the blame windows, the Fig. 6 noise set, its hangover and the
// attribution-only starvation evidence travel in the digest — the global
// tier triages foreign timeouts against the union of every pod's state.
void AnalysisCore::export_noise_state(Close& cl) const {
  FederationScratch& fed = *cl.fed;
  const TimeNs start = cl.rep.period_start;
  for (const auto& [r, until] : rnic_blamed_until_) {
    if (until >= start) fed.blamed_rnics.emplace_back(r, until);
  }
  std::sort(fed.blamed_rnics.begin(), fed.blamed_rnics.end());
  fed.cpu_noise_hosts.assign(cl.cpu_noise_hosts.begin(),
                             cl.cpu_noise_hosts.end());
  for (const auto& [h, until] : host_noise_until_) {
    if (until >= start && !cl.cpu_noise_hosts.contains(h)) {
      fed.cpu_noise_hosts.push_back(h);
    }
  }
  for (std::uint32_t h : cl.starved_hosts) {
    const auto nit = host_noise_until_.find(h);
    if (!cl.cpu_noise_hosts.contains(h) &&
        (nit == host_noise_until_.end() || nit->second < start)) {
      fed.cpu_noise_hosts.push_back(h);
    }
  }
  std::sort(fed.cpu_noise_hosts.begin(), fed.cpu_noise_hosts.end());
}

// ---- step 3: attribute the remaining timeouts ----
void AnalysisCore::attribute(Close& cl) const {
  for (std::size_t i = 0; i < cl.records.size(); ++i) {
    const ProbeRecord& r = *cl.records[i];
    if (r.status != ProbeStatus::kTimeout || cl.cause[i].has_value()) continue;
    const HostId target_host = topo_.rnic(r.target).host;
    // A starved Agent corrupts probes in BOTH directions: its responder
    // never ACKs (timeouts to it) and its prober thread observes ⑥ too
    // late (timeouts from it). Exclude both from network localization.
    if (noisy_host(cl, target_host) || noisy_host(cl, r.prober_host)) {
      cl.cause[i] = AnomalyCause::kAgentCpuNoise;
    } else if (blamed(cl, r.target) || blamed(cl, r.prober)) {
      cl.cause[i] = AnomalyCause::kRnicProblem;
    } else if (cl.fed != nullptr &&
               !cl.fed->local_hosts.contains(target_host.value)) {
      // Federation: the target lives in another pod, so "host down" and
      // "target RNIC blamed" are unknowable here. Voting this path locally
      // would turn every foreign host failure into a fake switch suspect —
      // defer the record to the global tier, which holds the union of every
      // pod's down-host and blamed-RNIC sets. The timeout still counts in
      // this pod's SLA (status-based), just not in cause attribution.
      cl.fed->foreign.push_back(ForeignTimeout::from(r, target_host));
    } else {
      cl.cause[i] = AnomalyCause::kSwitchProblem;
    }
  }

  const bool flight_on = obs::recorder().enabled();
  for (std::size_t i = 0; i < cl.records.size(); ++i) {
    if (!cl.cause[i].has_value()) continue;
    const ProbeRecord& r = *cl.records[i];
    if (flight_on && r.flight_sampled) {
      // Close the loop on the probe's timeline: which cause the Analyzer
      // attributed its timeout to.
      obs::recorder().record(r.id, obs::ProbeEventKind::kVerdict,
                             static_cast<std::uint64_t>(*cl.cause[i]));
    }
    switch (*cl.cause[i]) {
      case AnomalyCause::kHostDown:
        ++cl.rep.timeouts_host_down;
        cl.host_down_ids[topo_.rnic(r.target).host.value].push_back(r.id);
        break;
      case AnomalyCause::kQpnReset:
        ++cl.rep.timeouts_qpn_reset;
        cl.qpn_reset_ids.push_back(r.id);
        break;
      case AnomalyCause::kAgentCpuNoise: {
        ++cl.rep.timeouts_agent_cpu;
        const std::uint32_t th = topo_.rnic(r.target).host.value;
        cl.cpu_noise_ids[noisy_host(cl, HostId{th}) ? th : r.prober_host.value]
            .push_back(r.id);
        break;
      }
      case AnomalyCause::kRnicProblem:
        ++cl.rep.timeouts_rnic;
        cl.rnic_timeout_ids.insert(r.id);
        cl.rnic_evidence[blamed(cl, r.target) ? r.target.value
                                              : r.prober.value]
            .push_back(&r);
        break;
      case AnomalyCause::kSwitchProblem:
        ++cl.rep.timeouts_switch;
        cl.switch_timeout_ids.insert(r.id);
        if (r.kind == ProbeKind::kServiceTracing) {
          cl.switch_service_evidence[r.service.value].push_back(&r);
        } else {
          cl.switch_cluster_evidence.push_back(&r);
        }
        break;
    }
  }
}

// ---- step 3b: emit problems (Algorithm 1 for the network-attributed) ----
void AnalysisCore::localize(Close& cl) {
  for (std::uint32_t h : cl.down_hosts) {
    Problem p;
    p.category = ProblemCategory::kHostDown;
    p.host = HostId{h};
    p.summary = "host " + topo_.host(HostId{h}).name +
                " stopped uploading (host down)";
    obs::EvidenceChain c;
    c.verdict = "host-down";
    c.triage_branch = "timeout-triage: target host silent past threshold";
    const auto lit = last_upload_.find(h);
    add_threshold(c, "host_silence_threshold_ns",
                  static_cast<double>(cfg_.host_silence_threshold),
                  static_cast<double>(lit == last_upload_.end()
                                          ? cl.now
                                          : cl.now - lit->second));
    if (const auto idit = cl.host_down_ids.find(h);
        idit != cl.host_down_ids.end()) {
      for (std::uint64_t id : idit->second) add_probe(c, id);
    }
    cl.emit(log_, p, c);
  }

  for (std::uint32_t r : cl.anomalous_rnics) {
    const std::vector<const ProbeRecord*>& ev = cl.rnic_evidence[r];
    Problem p;
    p.category = ProblemCategory::kRnicProblem;
    p.rnic = RnicId{r};
    p.host = topo_.rnic(RnicId{r}).host;
    p.anomalous_probes = ev.size();
    p.summary = "RNIC " + topo_.rnic(RnicId{r}).name +
                " anomalous (ToR-mesh timeout ratio exceeded)";
    obs::EvidenceChain c;
    c.verdict = "anomalous-rnic";
    c.triage_branch =
        "timeout-triage: ToR-mesh timeout ratio, greedy attribution";
    const auto fit = cl.blamed_frac.find(r);
    add_threshold(c, "rnic_timeout_threshold", cfg_.rnic_timeout_threshold,
                  fit == cl.blamed_frac.end() ? 0.0 : fit->second);
    add_threshold(c, "min_anomalies_for_problem",
                  static_cast<double>(cfg_.min_anomalies_for_problem),
                  static_cast<double>(ev.size()));
    add_probes(c, ev);
    fill_drop_sites(c, ev);
    cl.emit(log_, p, c);
  }

  for (std::uint32_t h : cl.cpu_noise_hosts) {
    Problem p;
    p.category = ProblemCategory::kAgentCpuNoise;
    p.priority = Priority::kNoise;
    p.host = HostId{h};
    p.summary = "probe noise on " + topo_.host(HostId{h}).name +
                " (service occupies Agent CPU)";
    obs::EvidenceChain c;
    c.verdict = "agent-cpu-noise";
    c.triage_branch =
        "timeout-triage: Fig. 6 filter (multi-RNIC simultaneous timeouts, "
        "starved responder delays, or host-level processing-delay tail)";
    double worst_p90 = 0.0;
    for (auto& [rid, st] : cl.ok_delay_by_rnic) {
      if (topo_.rnic(RnicId{rid}).host.value == h && st.count() > 0) {
        worst_p90 = std::max(worst_p90, st.percentile(0.9));
      }
    }
    add_threshold(c, "starve_delay_threshold_ns",
                  static_cast<double>(cfg_.starve_delay_threshold),
                  worst_p90);
    if (auto hit = cl.host_ok_delay.find(h);
        hit != cl.host_ok_delay.end() && hit->second.count() > 0) {
      add_threshold(c, "high_proc_delay_threshold_ns",
                    static_cast<double>(cfg_.high_proc_delay_threshold),
                    hit->second.percentile(0.9));
    }
    if (const auto idit = cl.cpu_noise_ids.find(h);
        idit != cl.cpu_noise_ids.end()) {
      for (std::uint64_t id : idit->second) add_probe(c, id);
    }
    cl.emit(log_, p, c);
  }

  emit_switch_problem(cl, cl.switch_cluster_evidence, false, ServiceId{});
  for (auto& [svc, ev] : cl.switch_service_evidence) {
    emit_switch_problem(cl, ev, true, ServiceId{svc});
  }
}

void AnalysisCore::emit_switch_problem(
    Close& cl, const std::vector<const ProbeRecord*>& ev, bool from_service,
    ServiceId svc) {
  if (ev.size() < cfg_.min_anomalies_for_problem) return;
  obs::EvidenceChain c;
  c.verdict = "switch-network-problem";
  c.triage_branch = from_service ? "timeout-triage: network-attributed "
                                   "(service tracing evidence)"
                                 : "timeout-triage: network-attributed "
                                   "(cluster monitoring evidence)";
  Problem p = voted_problem(ProblemCategory::kSwitchNetworkProblem, ev,
                            from_service, svc, c);
  add_threshold(c, "min_anomalies_for_problem",
                static_cast<double>(cfg_.min_anomalies_for_problem),
                static_cast<double>(ev.size()));
  add_probes(c, ev);
  fill_drop_sites(c, ev);
  vote(ev, p, c);
  if (cl.sk_on && !p.suspect_links.empty()) {
    // Corroborate the vote winner with the switch-side sketch: how many
    // datagrams the fabric itself counted dropped on that link this
    // period. Zero with votes present usually means the drops predate the
    // period boundary (sketches flush on the 5 s cadence).
    const auto lsit = cl.link_sketches.find(p.suspect_links.front().value);
    add_threshold(c, "sketch_link_drops", 0.0,
                  lsit == cl.link_sketches.end()
                      ? 0.0
                      : static_cast<double>(lsit->second.total_drops()));
  }
  std::ostringstream os;
  os << "switch network problem (" << ev.size() << " anomalous probes"
     << (from_service ? ", service tracing" : ", cluster monitoring") << ")";
  if (!p.suspect_links.empty()) {
    os << ", top suspect link: " << topo_.link(p.suspect_links.front()).name;
  }
  p.summary = os.str();
  cl.emit(log_, p, c);
}

void AnalysisCore::emit_hot_rtt(Close& cl,
                                const std::vector<const ProbeRecord*>& ev,
                                bool from_service, ServiceId svc) {
  if (ev.size() < cfg_.min_anomalies_for_problem) return;
  obs::EvidenceChain c;
  c.verdict = "high-network-rtt";
  c.triage_branch = "bottleneck scan: completed probes above RTT threshold";
  Problem p = voted_problem(ProblemCategory::kHighNetworkRtt, ev,
                            from_service, svc, c);
  double worst_rtt = 0.0;
  for (const ProbeRecord* r : ev) {
    worst_rtt = std::max(worst_rtt, static_cast<double>(r->network_rtt));
  }
  add_threshold(c, "high_rtt_threshold_ns",
                static_cast<double>(cfg_.high_rtt_threshold), worst_rtt);
  add_threshold(c, "min_anomalies_for_problem",
                static_cast<double>(cfg_.min_anomalies_for_problem),
                static_cast<double>(ev.size()));
  add_probes(c, ev);
  vote(ev, p, c);
  std::ostringstream os;
  os << "network congestion: " << ev.size() << " probes above RTT threshold"
     << (from_service ? " (service tracing)" : " (cluster monitoring)");
  if (!p.suspect_links.empty()) {
    os << ", hottest link: " << topo_.link(p.suspect_links.front()).name;
  }
  p.summary = os.str();
  cl.emit(log_, p, c);
}

// ---- step 4: bottlenecks (high RTT / high processing delay) ----
void AnalysisCore::find_bottlenecks(Close& cl) {
  std::vector<const ProbeRecord*> hot_cluster;
  Close::RecordsBy hot_service;
  std::unordered_map<std::uint32_t, Close::DelayStat> host_proc_delay;
  Close::IdsBy proc_probe_ids;  // every probe whose delay entered the window
  if (cl.sk_on) {
    // Folded healthy delays roll up to the target's host so the CPU-overload
    // tail scan sees the same population it would with raw records (the ids
    // list stays raw-only — it is a capped evidence sample, not a tally).
    for (const auto& [rid, sk] : cl.summary.ok_delay_by_target) {
      Close::DelayStat& st =
          host_proc_delay[topo_.rnic(RnicId{rid}).host.value];
      st.use_sketch = true;
      st.sk.merge(sk);
    }
  }
  for (const ProbeRecord* rp : cl.records) {
    const ProbeRecord& r = *rp;
    if (r.status != ProbeStatus::kOk) continue;
    if (r.network_rtt > cfg_.high_rtt_threshold) {
      if (r.kind == ProbeKind::kServiceTracing) {
        hot_service[r.service.value].push_back(&r);
      } else {
        hot_cluster.push_back(&r);
      }
    }
    const std::uint32_t th = topo_.rnic(r.target).host.value;
    auto [pit, inserted] = host_proc_delay.try_emplace(th);
    if (inserted) pit->second.use_sketch = cl.sk_on;
    pit->second.add(static_cast<double>(r.responder_delay));
    proc_probe_ids[th].push_back(r.id);
  }
  emit_hot_rtt(cl, hot_cluster, false, ServiceId{});
  for (auto& [svc, ev] : hot_service) {
    emit_hot_rtt(cl, ev, true, ServiceId{svc});
  }

  for (auto& [h, st] : host_proc_delay) {
    if (cl.cpu_noise_hosts.contains(h)) continue;  // already reported as noise
    // Tail-based: an overloaded host shows in its P90 even when healthy
    // probes to its other RNICs dilute the median.
    if (st.count() < cfg_.min_anomalies_for_problem ||
        st.percentile(0.9) <=
            static_cast<double>(cfg_.high_proc_delay_threshold)) {
      continue;
    }
    Problem p;
    p.category = ProblemCategory::kHighProcessingDelay;
    p.host = HostId{h};
    p.anomalous_probes = st.count();
    std::ostringstream os;
    os << "end-host bottleneck on " << topo_.host(HostId{h}).name
       << ": p90 processing delay " << st.percentile(0.9) / 1e6 << " ms";
    p.summary = os.str();
    obs::EvidenceChain c;
    c.verdict = "high-processing-delay";
    c.triage_branch = "bottleneck scan: responder processing delay P90";
    add_threshold(c, "high_proc_delay_threshold_ns",
                  static_cast<double>(cfg_.high_proc_delay_threshold),
                  st.percentile(0.9));
    if (const auto idit = proc_probe_ids.find(h);
        idit != proc_probe_ids.end()) {
      for (std::uint64_t id : idit->second) add_probe(c, id);
    }
    cl.emit(log_, p, c);
  }

  // QPN-reset noise visibility (not a problem, but operators see it).
  if (cl.rep.timeouts_qpn_reset > 0) {
    Problem p;
    p.category = ProblemCategory::kQpnResetNoise;
    p.priority = Priority::kNoise;
    p.anomalous_probes = cl.rep.timeouts_qpn_reset;
    p.summary = "QPN-reset probe noise (stale pinglists after Agent restart)";
    obs::EvidenceChain c;
    c.verdict = "qpn-reset-noise";
    c.triage_branch =
        "timeout-triage: probe addressed a QPN older than the Controller's "
        "freshest registration (or one the Controller lost across a "
        "restart)";
    for (std::uint64_t id : cl.qpn_reset_ids) add_probe(c, id);
    cl.emit(log_, p, c);
  }
}

// ---- step 5: SLA tracking ----
void AnalysisCore::track_sla(Close& cl) {
  for (const ProbeRecord* rp : cl.records) {
    if (rp->kind == ProbeKind::kServiceTracing) {
      cl.service_records[rp->service.value].push_back(rp);
    } else {
      cl.cluster_records.push_back(rp);
    }
  }
  // Mergeable SLA state: exact counts + DDSketch tails, so a federated
  // cluster table is identical no matter how pods are grouped. Foreign
  // timeouts count as probes/timeouts (status-based) but carry no drop
  // attribution — the global tier adds that after its own triage.
  const auto build_digest = [&](const std::vector<const ProbeRecord*>& recs,
                                bool with_summary) {
    SlaDigest d;
    if (with_summary && cl.sk_on) {
      d.rtt.merge(cl.summary.rtt);
      for (const auto& [rid, sk] : cl.summary.ok_delay_by_target) {
        d.proc.merge(sk);
      }
      d.probes += cl.summary.folded_records;
    }
    for (const ProbeRecord* r : recs) {
      ++d.probes;
      if (r->status == ProbeStatus::kTimeout) {
        ++d.timeouts;
        if (cl.rnic_timeout_ids.contains(r->id)) ++d.rnic_drops;
        if (cl.switch_timeout_ids.contains(r->id)) ++d.switch_drops;
      } else {
        d.rtt.add(static_cast<double>(r->network_rtt));
        d.proc.add(static_cast<double>(r->responder_delay));
      }
    }
    return d;
  };
  // Folded records never carry a service id, so service SLAs stay exact;
  // the cluster SLA is the merged sketch digest when sketch mode is on.
  if (cl.sk_on || cl.fed != nullptr) {
    SlaDigest cluster = build_digest(cl.cluster_records, true);
    if (cl.sk_on) cl.rep.cluster_sla = cluster.to_report();
    if (cl.fed != nullptr) cl.fed->cluster_sla = std::move(cluster);
  }
  if (!cl.sk_on) {
    cl.rep.cluster_sla = make_sla(cl.cluster_records, cl.rnic_timeout_ids,
                                  cl.switch_timeout_ids);
  }
  for (auto& [svc, recs] : cl.service_records) {
    cl.rep.service_slas.emplace_back(
        ServiceId{svc},
        make_sla(recs, cl.rnic_timeout_ids, cl.switch_timeout_ids));
  }
  if (cl.fed != nullptr) {
    std::vector<std::uint32_t> svc_ids;
    svc_ids.reserve(cl.service_records.size());
    for (const auto& [svc, recs] : cl.service_records) svc_ids.push_back(svc);
    std::sort(svc_ids.begin(), svc_ids.end());
    for (std::uint32_t svc : svc_ids) {
      cl.fed->service_slas.emplace_back(
          svc, build_digest(cl.service_records[svc], false));
    }
  }
  emit_sla_violation(
      cl.rep.cluster_sla, cfg_.high_rtt_threshold, log_, cl.dlog,
      [&cl](obs::EvidenceChain& c) {
        for (const ProbeRecord* r : cl.cluster_records) {
          if (c.probe_ids.size() >= obs::kEvidenceProbeIdCap) break;
          if (cl.rnic_timeout_ids.contains(r->id) ||
              cl.switch_timeout_ids.contains(r->id)) {
            c.probe_ids.push_back(r->id);
          }
        }
      });
}

// ---- step 6: impact (needs the service networks from this period) ----
void AnalysisCore::assess_impact(Close& cl) {
  // Service network = every link/rnic/host the service's tracing probes
  // touched this period.
  std::unordered_map<std::uint32_t, ServiceNet> nets;
  for (const ProbeRecord* rp : cl.records) {
    const ProbeRecord& r = *rp;
    if (r.kind != ProbeKind::kServiceTracing) continue;
    ServiceNet& n = nets[r.service.value];
    n.rnics.insert(r.prober.value);
    n.rnics.insert(r.target.value);
    n.hosts.insert(topo_.rnic(r.prober).host.value);
    n.hosts.insert(topo_.rnic(r.target).host.value);
    if (r.path_known) {
      for (const routing::Path* p : {&r.fwd_path, &r.rev_path}) {
        for (LinkId l : p->links) n.links.insert(l.value);
      }
    }
  }
  if (cl.fed != nullptr) {
    std::vector<std::uint32_t> svc_ids;
    svc_ids.reserve(nets.size());
    for (const auto& [svc, net] : nets) svc_ids.push_back(svc);
    std::sort(svc_ids.begin(), svc_ids.end());
    const auto sorted = [](const std::unordered_set<std::uint32_t>& set) {
      std::vector<std::uint32_t> v(set.begin(), set.end());
      std::sort(v.begin(), v.end());
      return v;
    };
    for (std::uint32_t svc : svc_ids) {
      const ServiceNet& net = nets[svc];
      cl.fed->service_nets.push_back(
          {svc, sorted(net.links), sorted(net.rnics), sorted(net.hosts)});
    }
  }
  // The flat core keeps the hash map's own order: with overlapping service
  // networks the first touching network is the one charged.
  core::assess_impact(cl.rep.problems, nets, services_,
                      cfg_.degradation_threshold);
  emit_network_innocent(
      cl.rep.problems, services_, cfg_.degradation_threshold, log_, cl.dlog,
      [&cl](ServiceId svc, obs::EvidenceChain& c) {
        if (const auto sit = cl.service_records.find(svc.value);
            sit != cl.service_records.end()) {
          add_probes(c, sit->second);
        }
      });
}

const PeriodReport& AnalysisCore::finish(Close& cl) {
  const PeriodReport& rep = cl.rep;
  metrics_.timeouts_by_cause[static_cast<int>(AnomalyCause::kHostDown)].inc(
      rep.timeouts_host_down);
  metrics_.timeouts_by_cause[static_cast<int>(AnomalyCause::kQpnReset)].inc(
      rep.timeouts_qpn_reset);
  metrics_.timeouts_by_cause[static_cast<int>(AnomalyCause::kAgentCpuNoise)]
      .inc(rep.timeouts_agent_cpu);
  metrics_.timeouts_by_cause[static_cast<int>(AnomalyCause::kRnicProblem)]
      .inc(rep.timeouts_rnic);
  metrics_.timeouts_by_cause[static_cast<int>(AnomalyCause::kSwitchProblem)]
      .inc(rep.timeouts_switch);
  for (const Problem& p : rep.problems) {
    metrics_.problems_by_category[static_cast<int>(p.category)].inc();
    metrics_.problems_by_priority[static_cast<int>(p.priority)].inc();
  }
  if (cl.sk_on) {
    // Links whose sketches show drops this period are the ones whose raw
    // records the pipeline still wants verbatim (upload thinning keeps every
    // timeout raw, so the fallback set is already satisfied — this counts
    // how often it was needed).
    std::uint64_t flagged = 0;
    for (const auto& [lid, ls] : cl.link_sketches) {
      if (ls.total_drops() > 0) ++flagged;
    }
    metrics_.raw_fallback_links.inc(flagged);
  }
  return log_.commit(std::move(cl.rep), std::move(cl.dlog));
}

}  // namespace rpm::core
