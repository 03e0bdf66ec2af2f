#include "core/analysis_core.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>

#include "common/stats.h"
#include "fabric/fabric.h"
#include "obs/flight_recorder.h"
#include "prof/prof.h"
#include "telemetry/trace.h"

namespace rpm::core {

namespace {

// Sketch-mode adapter: a per-key delay statistic backed either by the exact
// PercentileWindow (sketch_mode == kOff — byte-identical to the historical
// path, the sketch member stays empty) or by a mergeable QuantileSketch
// seeded from the Agents' folded summaries plus this period's raw outlier
// records (kOn).
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
  // Non-const: PercentileWindow::percentile sorts its window lazily.
  [[nodiscard]] std::size_t count() const {
    return use_sketch ? static_cast<std::size_t>(sk.count()) : win.count();
  }
  [[nodiscard]] double percentile(double q) {
    return use_sketch ? sk.quantile(q) : win.percentile(q);
  }
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
    : topo_(topo), directory_(directory), cfg_(std::move(cfg)) {
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

void AnalysisCore::attach_journal(StateJournal* journal, std::string role) {
  journal_ = journal;
  role_ = std::move(role);
}

void AnalysisCore::fill_checkpoint(AnalyzerCheckpoint& cp) const {
  cp.last_period_end = last_period_end_;
  cp.next_problem_id = next_problem_id_;
  cp.next_evidence_id = next_evidence_id_;
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
  next_problem_id_ = cp.next_problem_id;
  next_evidence_id_ = cp.next_evidence_id;
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
  history_.clear();
  diagnosis_.clear();
  next_evidence_id_ = 1;
  next_problem_id_ = 1;
  last_period_end_ = 0;
  (void)sketch_store_.drain_period();  // pending period sketches die too
}

void AnalysisCore::vote_paths(
    const std::vector<const ProbeRecord*>& records,
    std::vector<LinkId>& out_links, std::vector<SwitchId>& out_switches,
    std::vector<std::pair<LinkId, std::size_t>>* top_votes,
    obs::EvidenceChain* chain) const {
  // Algorithm 1: count traversals of each link (and switch) over the
  // anomalous probes' forward and ACK paths; return the top voted.
  std::unordered_map<std::uint32_t, std::size_t> link_votes;
  std::unordered_map<std::uint32_t, std::size_t> switch_votes;
  for (const ProbeRecord* r : records) {
    if (!r->path_known) continue;
    for (const routing::Path* p : {&r->fwd_path, &r->rev_path}) {
      for (LinkId l : p->links) ++link_votes[l.value];
      for (SwitchId s : p->switches) ++switch_votes[s.value];
    }
  }
  std::size_t best_link = 0;
  for (const auto& [_, v] : link_votes) best_link = std::max(best_link, v);
  for (const auto& [l, v] : link_votes) {
    if (v == best_link && best_link > 0) out_links.push_back(LinkId{l});
  }
  std::size_t best_switch = 0;
  for (const auto& [_, v] : switch_votes) {
    best_switch = std::max(best_switch, v);
  }
  for (const auto& [s, v] : switch_votes) {
    if (v == best_switch && best_switch > 0) {
      out_switches.push_back(SwitchId{s});
    }
  }
  std::sort(out_links.begin(), out_links.end());
  std::sort(out_switches.begin(), out_switches.end());
  if (top_votes != nullptr) {
    std::vector<std::pair<LinkId, std::size_t>> all;
    all.reserve(link_votes.size());
    for (const auto& [l, v] : link_votes) all.emplace_back(LinkId{l}, v);
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (all.size() > 10) all.resize(10);
    *top_votes = std::move(all);
  }
  if (chain != nullptr) {
    // Evidence: the full tally (descending, bounded), not just the winners —
    // explain() must show how close the runners-up were.
    static constexpr std::size_t kTallyCap = 64;
    const auto fill = [](const std::unordered_map<std::uint32_t,
                                                  std::size_t>& votes,
                         std::vector<obs::VoteCount>& out) {
      out.reserve(std::min(votes.size(), kTallyCap));
      for (const auto& [id, v] : votes) out.push_back({id, v});
      std::sort(out.begin(), out.end(),
                [](const obs::VoteCount& a, const obs::VoteCount& b) {
                  if (a.votes != b.votes) return a.votes > b.votes;
                  return a.id < b.id;
                });
      if (out.size() > kTallyCap) out.resize(kTallyCap);
    };
    fill(link_votes, chain->link_votes);
    fill(switch_votes, chain->switch_votes);
  }
}

SlaReport AnalysisCore::make_sla(
    const std::vector<const ProbeRecord*>& records,
    const std::unordered_set<std::uint64_t>& rnic_timeouts,
    const std::unordered_set<std::uint64_t>& switch_timeouts) const {
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

SlaReport AnalysisCore::make_sla_sketch(
    const std::vector<const ProbeRecord*>& records,
    const sketch::HostSummary& summary,
    const std::unordered_set<std::uint64_t>& rnic_timeouts,
    const std::unordered_set<std::uint64_t>& switch_timeouts) const {
  // Sketch-mode cluster SLA: percentiles come from the merged quantile
  // sketches (Agents' folded summaries + this period's raw records) instead
  // of exact order statistics. Counts stay exact: every timeout rides the
  // wire raw, and the folded healthy probes are tallied by folded_records.
  SlaReport sla;
  sketch::QuantileSketch rtt;
  sketch::QuantileSketch proc;
  rtt.merge(summary.rtt);
  for (const auto& [rid, sk] : summary.ok_delay_by_target) proc.merge(sk);
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
  sla.probes += summary.folded_records;
  if (sla.probes > 0) {
    sla.rnic_drop_rate /= static_cast<double>(sla.probes);
    sla.switch_drop_rate /= static_cast<double>(sla.probes);
  }
  sla.rtt_mean = rtt.mean();
  sla.rtt_p50 = rtt.quantile(0.50);
  sla.rtt_p90 = rtt.quantile(0.90);
  sla.rtt_p99 = rtt.quantile(0.99);
  sla.rtt_p999 = rtt.quantile(0.999);
  sla.proc_p50 = proc.quantile(0.50);
  sla.proc_p90 = proc.quantile(0.90);
  sla.proc_p99 = proc.quantile(0.99);
  sla.proc_p999 = proc.quantile(0.999);
  return sla;
}

const PeriodReport& AnalysisCore::analyze_period(
    const PeriodView& records, const sketch::HostSummary& summary,
    TimeNs now, FederationScratch* fed) {
  // Opened at period end (below) but declared first, so it also times the
  // destruction of every pipeline local on return.
  std::optional<prof::StageScope> diaglog_scope;
  PeriodReport rep;
  rep.period_start = last_period_end_;
  rep.period_end = now;
  last_period_end_ = now;

  rep.records_processed = records.size();

  if (fed != nullptr) {
    fed->foreign.clear();
    fed->down_hosts.clear();
    fed->blamed_rnics.clear();
    fed->cpu_noise_hosts.clear();
    fed->cluster_sla = SlaDigest{};
    fed->service_slas.clear();
    fed->service_nets.clear();
  }

  // Sketch mode (ROADMAP "Switch-side sketch summaries"): the Agents' folded
  // healthy-probe summaries and the switches' per-link sketches feed the
  // statistics below. Both drains are empty no-ops in kOff.
  const bool sk_on = cfg_.sketch_mode == SketchMode::kOn;
  std::map<std::uint32_t, sketch::LinkSketch> link_sketches;
  if (sk_on) link_sketches = sketch_store_.drain_period();

  // Diagnosis explainability (src/obs): every verdict this period gets an
  // EvidenceChain — input probe ids, thresholds compared, Algorithm 1 vote
  // tally, triage branch — collected into one DiagnosisLog.
  obs::DiagnosisLog dlog;
  dlog.period_start = rep.period_start;
  dlog.period_end = rep.period_end;
  const auto add_probe = [](obs::EvidenceChain& c, std::uint64_t id) {
    ++c.total_probes;
    if (c.probe_ids.size() < obs::kEvidenceProbeIdCap) {
      c.probe_ids.push_back(id);
    }
  };
  const auto add_probes = [&add_probe](
                              obs::EvidenceChain& c,
                              const std::vector<const ProbeRecord*>& ev) {
    for (const ProbeRecord* r : ev) add_probe(c, r->id);
  };
  const auto add_threshold = [](obs::EvidenceChain& c, const char* name,
                                double threshold, double observed) {
    c.thresholds.push_back({name, threshold, observed, observed > threshold});
  };
  // Cross-links Problem <-> chain. Call after p.summary is final; the chain
  // is then pushed into dlog (chains are built locally so vector growth
  // never invalidates a reference).
  const auto attach_evidence = [this](Problem& p, obs::EvidenceChain& c) {
    p.problem_id = next_problem_id_++;
    c.id = next_evidence_id_++;
    p.evidence.id = c.id;
    c.problem_id = p.problem_id;
    c.summary = p.summary;
  };

  metrics_.periods.inc();
  const std::uint64_t period_span =
      telemetry::tracer().begin_span("analyzer.period", "analyzer");
  int cur_stage = -1;
  std::uint64_t stage_span = 0;
  std::chrono::steady_clock::time_point stage_t0{};
  // Transition between pipeline stages: close the previous stage's span and
  // wall-clock histogram sample, open the next. enter_stage(-1) closes out.
  // The wall-clock profiler reuses enter_stage's clock reads; its coarser
  // stage set folds classify/rnic_detect/attribute into drain.triage.
  static constexpr prof::Stage kProfStage[kNumStages] = {
      prof::Stage::kDrainTriage,     prof::Stage::kDrainTriage,
      prof::Stage::kDrainTriage,     prof::Stage::kDrainVote,
      prof::Stage::kDrainBottleneck, prof::Stage::kDrainSla,
      prof::Stage::kDrainImpact,
  };
  const auto enter_stage = [&](int next) {
    const auto wall = std::chrono::steady_clock::now();
    if (cur_stage >= 0) {
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(wall -
                                                               stage_t0)
              .count();
      metrics_.stage_ns[cur_stage].observe(static_cast<double>(ns));
      prof::profiler().record(kProfStage[cur_stage],
                              static_cast<std::uint64_t>(ns));
      telemetry::tracer().end_span(stage_span);
    }
    cur_stage = next;
    stage_t0 = wall;
    if (next >= 0) {
      stage_span = telemetry::tracer().begin_span(
          std::string("analyzer.") + stage_name(next), "analyzer");
    }
  };

  // ---- step 1: non-network timeouts and probe noise (§4.3.1) ----
  enter_stage(0);

  std::unordered_set<std::uint32_t> down_hosts;
  for (std::uint32_t h : known_hosts_) {
    const auto it = last_upload_.find(h);
    if (it == last_upload_.end() ||
        now - it->second > cfg_.host_silence_threshold) {
      down_hosts.insert(h);
    }
  }
  if (fed != nullptr) {
    fed->down_hosts.assign(down_hosts.begin(), down_hosts.end());
    std::sort(fed->down_hosts.begin(), fed->down_hosts.end());
  }

  std::vector<std::optional<AnomalyCause>> cause(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ProbeRecord& r = *records[i];
    if (r.status != ProbeStatus::kTimeout) continue;
    const HostId target_host = topo_.rnic(r.target).host;
    if (down_hosts.contains(target_host.value)) {
      cause[i] = AnomalyCause::kHostDown;
      continue;
    }
    // QPN-reset noise: the probe addressed a QPN older than the freshest
    // registration the Controller holds — or a QPN the Controller has no
    // registration for at all (it restarted and lost its registry, and the
    // target has not re-registered yet). Both are control-plane staleness,
    // not network loss.
    if (const auto info = directory_->comm_info(r.target);
        !info || info->qpn != r.target_qpn) {
      cause[i] = AnomalyCause::kQpnReset;
    }
  }

  // ---- step 2: anomalous-RNIC detection from ToR-mesh data (§4.3.2) ----
  enter_stage(1);

  struct RnicStat {
    std::size_t total = 0;
    std::size_t timeouts = 0;
    PercentileWindow ok_responder_delay;
  };
  // Greedy attribution: a dead RNIC's *outgoing* probes also time out and
  // would inflate its innocent peers' timeout ratios. Repeatedly blame the
  // RNIC with the worst ratio, discount every probe involving it, and
  // re-evaluate — peers polluted only by the culprit come out clean.
  std::unordered_set<std::uint32_t> anomalous_rnics;
  // Observed timeout ratio at the moment each RNIC was blamed (evidence).
  std::unordered_map<std::uint32_t, double> blamed_frac;
  std::unordered_map<std::uint32_t, RnicStat> per_rnic;
  for (;;) {
    per_rnic.clear();
    for (std::size_t i = 0; i < records.size(); ++i) {
      const ProbeRecord& r = *records[i];
      if (r.kind != ProbeKind::kTorMesh || cause[i].has_value()) continue;
      if (anomalous_rnics.contains(r.prober.value) ||
          anomalous_rnics.contains(r.target.value)) {
        continue;
      }
      RnicStat& st = per_rnic[r.target.value];
      ++st.total;
      if (r.status == ProbeStatus::kTimeout) {
        ++st.timeouts;
      } else {
        st.ok_responder_delay.add(static_cast<double>(r.responder_delay));
      }
    }
    if (sk_on) {
      // Folded ToR-mesh OK counts dilute timeout ratios exactly as their raw
      // records would; pairs touching an already-blamed RNIC are discounted
      // the same way the raw loop above discounts them.
      for (const auto& [pair, cnt] : summary.tormesh_ok) {
        if (anomalous_rnics.contains(pair.first) ||
            anomalous_rnics.contains(pair.second)) {
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
    anomalous_rnics.insert(worst);
    blamed_frac[worst] = worst_frac;
  }

  // Responder-delay evidence per RNIC over ALL completed probes (the greedy
  // loop above excludes blamed RNICs from its stats, but the Fig. 6 filter
  // below needs their delays). In sketch mode the stat is seeded from the
  // Agents' folded per-target delay sketches, then raw outlier records merge
  // in on top.
  std::unordered_map<std::uint32_t, DelayStat> ok_delay_by_rnic;
  std::unordered_map<std::uint32_t, DelayStat> host_ok_delay;
  if (sk_on) {
    for (const auto& [rid, sk] : summary.ok_delay_by_target) {
      DelayStat& st = ok_delay_by_rnic[rid];
      st.use_sketch = true;
      st.sk.merge(sk);
      DelayStat& hs = host_ok_delay[topo_.rnic(RnicId{rid}).host.value];
      hs.use_sketch = true;
      hs.sk.merge(sk);
    }
  }
  for (const ProbeRecord* rp : records) {
    const ProbeRecord& r = *rp;
    if (r.status == ProbeStatus::kOk) {
      auto [sit, inserted] = ok_delay_by_rnic.try_emplace(r.target.value);
      if (inserted) sit->second.use_sketch = sk_on;
      sit->second.add(static_cast<double>(r.responder_delay));
      auto [hit, hinserted] =
          host_ok_delay.try_emplace(topo_.rnic(r.target).host.value);
      if (hinserted) hit->second.use_sketch = sk_on;
      hit->second.add(static_cast<double>(r.responder_delay));
    }
  }

  // Figure 6 false-positive filters: the service occupying the Agent's CPU
  // makes probes to *all* of a host's RNICs time out at once, and/or shows
  // up as huge responder delays on the probes that did complete.
  std::unordered_set<std::uint32_t> cpu_noise_hosts;
  if (cfg_.enable_cpu_noise_filters) {
    std::unordered_map<std::uint32_t, std::size_t> anomalous_per_host;
    for (std::uint32_t r : anomalous_rnics) {
      ++anomalous_per_host[topo_.rnic(RnicId{r}).host.value];
    }
    for (auto it = anomalous_rnics.begin(); it != anomalous_rnics.end();) {
      const HostId h = topo_.rnic(RnicId{*it}).host;
      const bool multi_rnic_simultaneous =
          anomalous_per_host[h.value] >= 2;
      bool starved_responder = false;
      if (auto sit = ok_delay_by_rnic.find(*it);
          sit != ok_delay_by_rnic.end()) {
        auto& st = sit->second;
        starved_responder =
            st.count() > 0 &&
            st.percentile(0.9) >
                static_cast<double>(cfg_.starve_delay_threshold);
      }
      // Third Fig. 6 signal: responder processing delay (④-③) is purely
      // host-side — a switch or link fault times probes out but leaves the
      // delay of the probes that DID complete at the µs scale. An anomalous
      // RNIC on a host whose completed probes show bottleneck-scale delays
      // is therefore the service starving the Agent, even when only one of
      // the host's RNICs crossed the timeout threshold and the per-RNIC p90
      // sits below the starve bar.
      bool starved_host = false;
      if (auto hit = host_ok_delay.find(h.value);
          hit != host_ok_delay.end()) {
        auto& st = hit->second;
        starved_host =
            st.count() >= 3 &&
            st.percentile(0.9) >
                static_cast<double>(cfg_.high_proc_delay_threshold);
      }
      if (multi_rnic_simultaneous || starved_responder || starved_host) {
        cpu_noise_hosts.insert(h.value);
        it = anomalous_rnics.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Blame window: anomalous now and for the next minute (§5).
  for (std::uint32_t r : anomalous_rnics) {
    rnic_blamed_until_[r] = now + cfg_.rnic_blame_window;
  }
  // Noise hangover: a host the Fig. 6 filter flagged keeps filtering for
  // cpu_noise_window. The starved prober's observation backlog produces
  // straggler timeout records for several periods after the service lets
  // go of the CPU; without the hangover those stragglers reach Algorithm-1
  // voting and fabricate a switch problem.
  for (std::uint32_t h : cpu_noise_hosts) {
    host_noise_until_[h] = now + cfg_.cpu_noise_window;
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
  std::unordered_set<std::uint32_t> starved_hosts;
  if (cfg_.enable_cpu_noise_filters) {
    for (auto& [h, st] : host_ok_delay) {
      if (st.count() >= 3 &&
          st.percentile(0.99) >
              static_cast<double>(cfg_.high_proc_delay_threshold)) {
        starved_hosts.insert(h);
      }
    }
  }
  const auto noisy_host = [&](HostId h) {
    if (cpu_noise_hosts.contains(h.value)) return true;
    if (starved_hosts.contains(h.value)) return true;
    const auto it = host_noise_until_.find(h.value);
    return it != host_noise_until_.end() && it->second >= rep.period_start;
  };
  const auto blamed = [&](RnicId r) {
    if (anomalous_rnics.contains(r.value)) return true;
    const auto it = rnic_blamed_until_.find(r.value);
    return it != rnic_blamed_until_.end() && it->second >= rep.period_start;
  };
  if (fed != nullptr) {
    for (const auto& [r, until] : rnic_blamed_until_) {
      if (until >= rep.period_start) fed->blamed_rnics.emplace_back(r, until);
    }
    std::sort(fed->blamed_rnics.begin(), fed->blamed_rnics.end());
    fed->cpu_noise_hosts.assign(cpu_noise_hosts.begin(),
                                cpu_noise_hosts.end());
    // The hangover and the attribution-only starvation evidence travel
    // too: the global tier triages foreign timeouts against the union of
    // every pod's noise state, stragglers included.
    for (const auto& [h, until] : host_noise_until_) {
      if (until >= rep.period_start && !cpu_noise_hosts.contains(h)) {
        fed->cpu_noise_hosts.push_back(h);
      }
    }
    for (std::uint32_t h : starved_hosts) {
      if (!cpu_noise_hosts.contains(h) &&
          (!host_noise_until_.contains(h) ||
           host_noise_until_[h] < rep.period_start)) {
        fed->cpu_noise_hosts.push_back(h);
      }
    }
    std::sort(fed->cpu_noise_hosts.begin(), fed->cpu_noise_hosts.end());
  }

  // ---- step 3: attribute the remaining timeouts ----
  enter_stage(2);

  for (std::size_t i = 0; i < records.size(); ++i) {
    const ProbeRecord& r = *records[i];
    if (r.status != ProbeStatus::kTimeout || cause[i].has_value()) continue;
    const HostId target_host = topo_.rnic(r.target).host;
    // A starved Agent corrupts probes in BOTH directions: its responder
    // never ACKs (timeouts to it) and its prober thread observes â¥ too
    // late (timeouts from it). Exclude both from network localization.
    if (noisy_host(target_host) || noisy_host(r.prober_host)) {
      cause[i] = AnomalyCause::kAgentCpuNoise;
    } else if (blamed(r.target) || blamed(r.prober)) {
      cause[i] = AnomalyCause::kRnicProblem;
    } else if (fed != nullptr &&
               !fed->local_hosts.contains(target_host.value)) {
      // Federation: the target lives in another pod, so "host down" and
      // "target RNIC blamed" are unknowable here. Voting this path locally
      // would turn every foreign host failure into a fake switch suspect —
      // defer the record to the global tier, which holds the union of every
      // pod's down-host and blamed-RNIC sets. The timeout still counts in
      // this pod's SLA (status-based), just not in cause attribution.
      ForeignTimeout f;
      f.probe_id = r.id;
      f.kind = r.kind;
      f.prober = r.prober;
      f.target = r.target;
      f.prober_host = r.prober_host;
      f.target_host = target_host;
      f.service = r.service;
      f.path_known = r.path_known;
      if (r.path_known) {
        for (const routing::Path* p : {&r.fwd_path, &r.rev_path}) {
          for (LinkId l : p->links) f.path_links.push_back(l.value);
          for (SwitchId s : p->switches) f.path_switches.push_back(s.value);
        }
      }
      fed->foreign.push_back(std::move(f));
    } else {
      cause[i] = AnomalyCause::kSwitchProblem;
    }
  }

  // Tallies + per-cause evidence sets.
  std::unordered_set<std::uint64_t> rnic_timeout_ids;
  std::unordered_set<std::uint64_t> switch_timeout_ids;
  std::vector<const ProbeRecord*> switch_cluster_evidence;
  std::unordered_map<std::uint32_t, std::vector<const ProbeRecord*>>
      switch_service_evidence;  // by service id
  std::unordered_map<std::uint32_t, std::vector<const ProbeRecord*>>
      rnic_evidence;  // by rnic id
  std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> host_down_ids;
  std::vector<std::uint64_t> qpn_reset_ids;
  std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> cpu_noise_ids;
  const bool flight_on = obs::recorder().enabled();
  // Recorder-driven auto-triage: aggregate WHERE the evidence probes died
  // from their sampled flight timelines, so an evidence chain cites the
  // fabric's own drop sites next to the vote tally. A kFabricDrop event
  // names the reason and link; a closed timeline without one means the probe
  // timed out with no drop observed (lost to path-incompleteness, or the
  // response leg). std::map keeps the aggregation order deterministic.
  const auto fill_drop_sites = [&](obs::EvidenceChain& c,
                                   const std::vector<const ProbeRecord*>&
                                       ev) {
    if (!flight_on) return;
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
  };
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!cause[i].has_value()) continue;
    const ProbeRecord& r = *records[i];
    if (flight_on && r.flight_sampled) {
      // Close the loop on the probe's timeline: which cause the Analyzer
      // attributed its timeout to.
      obs::recorder().record(r.id, obs::ProbeEventKind::kVerdict,
                             static_cast<std::uint64_t>(*cause[i]));
    }
    switch (*cause[i]) {
      case AnomalyCause::kHostDown:
        ++rep.timeouts_host_down;
        host_down_ids[topo_.rnic(r.target).host.value].push_back(r.id);
        break;
      case AnomalyCause::kQpnReset:
        ++rep.timeouts_qpn_reset;
        qpn_reset_ids.push_back(r.id);
        break;
      case AnomalyCause::kAgentCpuNoise: {
        ++rep.timeouts_agent_cpu;
        const std::uint32_t th = topo_.rnic(r.target).host.value;
        cpu_noise_ids[noisy_host(HostId{th}) ? th : r.prober_host.value]
            .push_back(r.id);
        break;
      }
      case AnomalyCause::kRnicProblem:
        ++rep.timeouts_rnic;
        rnic_timeout_ids.insert(r.id);
        rnic_evidence[blamed(r.target) ? r.target.value : r.prober.value]
            .push_back(&r);
        break;
      case AnomalyCause::kSwitchProblem:
        ++rep.timeouts_switch;
        switch_timeout_ids.insert(r.id);
        if (r.kind == ProbeKind::kServiceTracing) {
          switch_service_evidence[r.service.value].push_back(&r);
        } else {
          switch_cluster_evidence.push_back(&r);
        }
        break;
    }
  }

  // ---- emit problems ----
  enter_stage(3);

  for (std::uint32_t h : down_hosts) {
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
                                          ? now
                                          : now - lit->second));
    if (const auto idit = host_down_ids.find(h);
        idit != host_down_ids.end()) {
      for (std::uint64_t id : idit->second) add_probe(c, id);
    }
    attach_evidence(p, c);
    dlog.chains.push_back(std::move(c));
    rep.problems.push_back(std::move(p));
  }

  for (std::uint32_t r : anomalous_rnics) {
    Problem p;
    p.category = ProblemCategory::kRnicProblem;
    p.rnic = RnicId{r};
    p.host = topo_.rnic(RnicId{r}).host;
    p.anomalous_probes = rnic_evidence[r].size();
    p.summary = "RNIC " + topo_.rnic(RnicId{r}).name +
                " anomalous (ToR-mesh timeout ratio exceeded)";
    obs::EvidenceChain c;
    c.verdict = "anomalous-rnic";
    c.triage_branch =
        "timeout-triage: ToR-mesh timeout ratio, greedy attribution";
    const auto fit = blamed_frac.find(r);
    add_threshold(c, "rnic_timeout_threshold", cfg_.rnic_timeout_threshold,
                  fit == blamed_frac.end() ? 0.0 : fit->second);
    add_threshold(c, "min_anomalies_for_problem",
                  static_cast<double>(cfg_.min_anomalies_for_problem),
                  static_cast<double>(rnic_evidence[r].size()));
    add_probes(c, rnic_evidence[r]);
    fill_drop_sites(c, rnic_evidence[r]);
    attach_evidence(p, c);
    dlog.chains.push_back(std::move(c));
    rep.problems.push_back(std::move(p));
  }

  for (std::uint32_t h : cpu_noise_hosts) {
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
    for (auto& [rid, st] : ok_delay_by_rnic) {
      if (topo_.rnic(RnicId{rid}).host.value == h && st.count() > 0) {
        worst_p90 = std::max(worst_p90, st.percentile(0.9));
      }
    }
    add_threshold(c, "starve_delay_threshold_ns",
                  static_cast<double>(cfg_.starve_delay_threshold),
                  worst_p90);
    if (auto hit = host_ok_delay.find(h); hit != host_ok_delay.end() &&
                                          hit->second.count() > 0) {
      add_threshold(c, "high_proc_delay_threshold_ns",
                    static_cast<double>(cfg_.high_proc_delay_threshold),
                    hit->second.percentile(0.9));
    }
    if (const auto idit = cpu_noise_ids.find(h);
        idit != cpu_noise_ids.end()) {
      for (std::uint64_t id : idit->second) add_probe(c, id);
    }
    attach_evidence(p, c);
    dlog.chains.push_back(std::move(c));
    rep.problems.push_back(std::move(p));
  }

  const auto emit_switch_problem = [&](std::vector<const ProbeRecord*>& ev,
                                       bool from_service, ServiceId svc) {
    if (ev.size() < cfg_.min_anomalies_for_problem) return;
    Problem p;
    p.category = ProblemCategory::kSwitchNetworkProblem;
    p.anomalous_probes = ev.size();
    p.detected_by_service_tracing = from_service;
    p.service = svc;
    obs::EvidenceChain c;
    c.verdict = "switch-network-problem";
    c.triage_branch = from_service
                          ? "timeout-triage: network-attributed "
                            "(service tracing evidence)"
                          : "timeout-triage: network-attributed "
                            "(cluster monitoring evidence)";
    c.service = svc.valid() ? svc.value : 0;
    add_threshold(c, "min_anomalies_for_problem",
                  static_cast<double>(cfg_.min_anomalies_for_problem),
                  static_cast<double>(ev.size()));
    add_probes(c, ev);
    fill_drop_sites(c, ev);
    vote_paths(ev, p.suspect_links, p.suspect_switches, &p.top_link_votes,
               &c);
    if (sk_on && !p.suspect_links.empty()) {
      // Corroborate the vote winner with the switch-side sketch: how many
      // datagrams the fabric itself counted dropped on that link this
      // period. Zero with votes present usually means the drops predate the
      // period boundary (sketches flush on the 5 s cadence).
      const auto lsit = link_sketches.find(p.suspect_links.front().value);
      add_threshold(c, "sketch_link_drops", 0.0,
                    lsit == link_sketches.end()
                        ? 0.0
                        : static_cast<double>(lsit->second.total_drops()));
    }
    std::ostringstream os;
    os << "switch network problem (" << ev.size() << " anomalous probes"
       << (from_service ? ", service tracing" : ", cluster monitoring")
       << ")";
    if (!p.suspect_links.empty()) {
      os << ", top suspect link: " << topo_.link(p.suspect_links.front()).name;
    }
    p.summary = os.str();
    attach_evidence(p, c);
    dlog.chains.push_back(std::move(c));
    rep.problems.push_back(std::move(p));
  };
  emit_switch_problem(switch_cluster_evidence, false, ServiceId{});
  for (auto& [svc, ev] : switch_service_evidence) {
    emit_switch_problem(ev, true, ServiceId{svc});
  }

  // ---- step 4: bottlenecks (high RTT / high processing delay) ----
  enter_stage(4);

  std::vector<const ProbeRecord*> hot_cluster;
  std::unordered_map<std::uint32_t, std::vector<const ProbeRecord*>>
      hot_service;
  std::unordered_map<std::uint32_t, DelayStat> host_proc_delay;
  std::unordered_map<std::uint32_t, std::vector<std::uint64_t>>
      proc_probe_ids;  // every probe whose delay entered the host's window
  if (sk_on) {
    // Folded healthy delays roll up to the target's host so the CPU-overload
    // tail scan sees the same population it would with raw records (the ids
    // list stays raw-only — it is a capped evidence sample, not a tally).
    for (const auto& [rid, sk] : summary.ok_delay_by_target) {
      DelayStat& st = host_proc_delay[topo_.rnic(RnicId{rid}).host.value];
      st.use_sketch = true;
      st.sk.merge(sk);
    }
  }
  for (const ProbeRecord* rp : records) {
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
    if (inserted) pit->second.use_sketch = sk_on;
    pit->second.add(static_cast<double>(r.responder_delay));
    proc_probe_ids[th].push_back(r.id);
  }
  const auto emit_hot = [&](std::vector<const ProbeRecord*>& ev,
                            bool from_service, ServiceId svc) {
    if (ev.size() < cfg_.min_anomalies_for_problem) return;
    Problem p;
    p.category = ProblemCategory::kHighNetworkRtt;
    p.anomalous_probes = ev.size();
    p.detected_by_service_tracing = from_service;
    p.service = svc;
    obs::EvidenceChain c;
    c.verdict = "high-network-rtt";
    c.triage_branch = "bottleneck scan: completed probes above RTT threshold";
    c.service = svc.valid() ? svc.value : 0;
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
    vote_paths(ev, p.suspect_links, p.suspect_switches, &p.top_link_votes,
               &c);
    std::ostringstream os;
    os << "network congestion: " << ev.size() << " probes above RTT threshold"
       << (from_service ? " (service tracing)" : " (cluster monitoring)");
    if (!p.suspect_links.empty()) {
      os << ", hottest link: " << topo_.link(p.suspect_links.front()).name;
    }
    p.summary = os.str();
    attach_evidence(p, c);
    dlog.chains.push_back(std::move(c));
    rep.problems.push_back(std::move(p));
  };
  emit_hot(hot_cluster, false, ServiceId{});
  for (auto& [svc, ev] : hot_service) emit_hot(ev, true, ServiceId{svc});

  for (auto& [h, st] : host_proc_delay) {
    if (cpu_noise_hosts.contains(h)) continue;  // already reported as noise
    // Tail-based: an overloaded host shows in its P90 even when healthy
    // probes to its other RNICs dilute the median.
    if (st.count() >= cfg_.min_anomalies_for_problem &&
        st.percentile(0.9) >
            static_cast<double>(cfg_.high_proc_delay_threshold)) {
      Problem p;
      p.category = ProblemCategory::kHighProcessingDelay;
      p.host = HostId{h};
      p.anomalous_probes = st.count();
      std::ostringstream os;
      os << "end-host bottleneck on " << topo_.host(HostId{h}).name
         << ": p90 processing delay "
         << st.percentile(0.9) / 1e6 << " ms";
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
      attach_evidence(p, c);
      dlog.chains.push_back(std::move(c));
      rep.problems.push_back(std::move(p));
    }
  }

  // QPN-reset noise visibility (not a problem, but operators see it).
  if (rep.timeouts_qpn_reset > 0) {
    Problem p;
    p.category = ProblemCategory::kQpnResetNoise;
    p.priority = Priority::kNoise;
    p.anomalous_probes = rep.timeouts_qpn_reset;
    p.summary = "QPN-reset probe noise (stale pinglists after Agent restart)";
    obs::EvidenceChain c;
    c.verdict = "qpn-reset-noise";
    c.triage_branch =
        "timeout-triage: probe addressed a QPN older than the Controller's "
        "freshest registration (or one the Controller lost across a "
        "restart)";
    for (std::uint64_t id : qpn_reset_ids) add_probe(c, id);
    attach_evidence(p, c);
    dlog.chains.push_back(std::move(c));
    rep.problems.push_back(std::move(p));
  }

  // ---- step 5: SLA tracking ----
  enter_stage(5);

  std::vector<const ProbeRecord*> cluster_records;
  std::unordered_map<std::uint32_t, std::vector<const ProbeRecord*>>
      service_records;
  for (const ProbeRecord* rp : records) {
    const ProbeRecord& r = *rp;
    if (r.kind == ProbeKind::kServiceTracing) {
      service_records[r.service.value].push_back(&r);
    } else {
      cluster_records.push_back(&r);
    }
  }
  // Folded records never carry a service id, so service SLAs stay exact;
  // the cluster SLA is sketch-driven when sketch mode is on.
  rep.cluster_sla =
      sk_on ? make_sla_sketch(cluster_records, summary, rnic_timeout_ids,
                              switch_timeout_ids)
            : make_sla(cluster_records, rnic_timeout_ids, switch_timeout_ids);
  for (auto& [svc, recs] : service_records) {
    rep.service_slas.emplace_back(
        ServiceId{svc}, make_sla(recs, rnic_timeout_ids, switch_timeout_ids));
  }
  if (fed != nullptr) {
    // Mergeable SLA state for the digest: exact counts + DDSketch tails, so
    // the global cluster table is identical no matter how pods are grouped.
    // Foreign timeouts count as probes/timeouts (status-based) but carry no
    // drop attribution — the global tier adds that after its own triage.
    const auto build_digest =
        [&](const std::vector<const ProbeRecord*>& recs, bool with_summary) {
          SlaDigest d;
          if (with_summary && sk_on) {
            d.rtt.merge(summary.rtt);
            for (const auto& [rid, sk] : summary.ok_delay_by_target) {
              d.proc.merge(sk);
            }
            d.probes += summary.folded_records;
          }
          for (const ProbeRecord* r : recs) {
            ++d.probes;
            if (r->status == ProbeStatus::kTimeout) {
              ++d.timeouts;
              if (rnic_timeout_ids.contains(r->id)) ++d.rnic_drops;
              if (switch_timeout_ids.contains(r->id)) ++d.switch_drops;
            } else {
              d.rtt.add(static_cast<double>(r->network_rtt));
              d.proc.add(static_cast<double>(r->responder_delay));
            }
          }
          return d;
        };
    fed->cluster_sla = build_digest(cluster_records, /*with_summary=*/true);
    std::vector<std::uint32_t> svc_ids;
    svc_ids.reserve(service_records.size());
    for (const auto& [svc, recs] : service_records) svc_ids.push_back(svc);
    std::sort(svc_ids.begin(), svc_ids.end());
    for (std::uint32_t svc : svc_ids) {
      fed->service_slas.emplace_back(
          svc, build_digest(service_records[svc], /*with_summary=*/false));
    }
  }
  if (rep.cluster_sla.rnic_drop_rate > 0.0 ||
      rep.cluster_sla.switch_drop_rate > 0.0) {
    // SLA violation: network-attributed drops are never in budget. The chain
    // samples the offending probe ids so explain() leads straight to flight
    // timelines.
    obs::EvidenceChain c;
    c.id = next_evidence_id_++;
    c.verdict = "sla-violation";
    c.triage_branch = "sla: network-attributed drop rate above target";
    add_threshold(c, "network_drop_rate_target", 0.0,
                  rep.cluster_sla.rnic_drop_rate +
                      rep.cluster_sla.switch_drop_rate);
    add_threshold(c, "high_rtt_threshold_ns",
                  static_cast<double>(cfg_.high_rtt_threshold),
                  rep.cluster_sla.rtt_p99);
    c.total_probes = rep.cluster_sla.probes;
    for (const ProbeRecord* r : cluster_records) {
      if (c.probe_ids.size() >= obs::kEvidenceProbeIdCap) break;
      if (rnic_timeout_ids.contains(r->id) ||
          switch_timeout_ids.contains(r->id)) {
        c.probe_ids.push_back(r->id);
      }
    }
    std::ostringstream os;
    os << "cluster SLA violated: network-attributed drop rate "
       << (rep.cluster_sla.rnic_drop_rate +
           rep.cluster_sla.switch_drop_rate)
       << " over " << rep.cluster_sla.probes << " probes";
    c.summary = os.str();
    rep.cluster_sla.evidence.id = c.id;
    dlog.chains.push_back(std::move(c));
  }

  // ---- step 6: impact (needs the service networks from this period) ----
  enter_stage(6);

  // Service network = every link/rnic/host the service's tracing probes
  // touched this period.
  struct ServiceNet {
    std::unordered_set<std::uint32_t> links;
    std::unordered_set<std::uint32_t> rnics;
    std::unordered_set<std::uint32_t> hosts;
  };
  std::unordered_map<std::uint32_t, ServiceNet> nets;
  for (const ProbeRecord* rp : records) {
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
  if (fed != nullptr) {
    std::vector<std::uint32_t> svc_ids;
    svc_ids.reserve(nets.size());
    for (const auto& [svc, net] : nets) svc_ids.push_back(svc);
    std::sort(svc_ids.begin(), svc_ids.end());
    for (std::uint32_t svc : svc_ids) {
      const ServiceNet& net = nets[svc];
      ServiceNetDigest d;
      d.service = svc;
      d.links.assign(net.links.begin(), net.links.end());
      d.rnics.assign(net.rnics.begin(), net.rnics.end());
      d.hosts.assign(net.hosts.begin(), net.hosts.end());
      std::sort(d.links.begin(), d.links.end());
      std::sort(d.rnics.begin(), d.rnics.end());
      std::sort(d.hosts.begin(), d.hosts.end());
      fed->service_nets.push_back(std::move(d));
    }
  }

  for (Problem& p : rep.problems) {
    if (p.priority == Priority::kNoise) continue;
    // Find a service whose network this problem touches.
    ServiceId affected;
    if (p.detected_by_service_tracing) {
      affected = p.service;
    } else {
      for (const auto& [svc, net] : nets) {
        const bool rnic_hit =
            p.rnic.valid() && net.rnics.contains(p.rnic.value);
        // Host overlap only applies to host-scoped problems (host down, CPU
        // bottleneck). An RNIC problem on a worker host whose OTHER RNIC
        // serves the job is still outside the service network (=> P2).
        const bool host_hit = !p.rnic.valid() && p.host.valid() &&
                              net.hosts.contains(p.host.value);
        bool link_hit = false;
        for (LinkId l : p.suspect_links) {
          if (net.links.contains(l.value)) {
            link_hit = true;
            break;
          }
        }
        if (rnic_hit || host_hit || link_hit) {
          affected = ServiceId{svc};
          break;
        }
      }
    }
    if (!affected.valid()) {
      p.priority = Priority::kP2;  // outside every service network
      continue;
    }
    p.in_service_network = true;
    p.service = affected;
    // Severe metric degradation => P0; otherwise P1 (fix on benefit).
    double metric = 1.0;
    for (const ServiceBinding& b : services_) {
      if (b.id == affected) metric = b.metric();
    }
    p.priority = metric < cfg_.degradation_threshold ? Priority::kP0
                                                     : Priority::kP1;
  }

  // Per-service "network innocent" verdicts (§4.3.4): no P0/P1 problem in
  // the service's network this period — exoneration gets receipts too.
  for (const ServiceBinding& b : services_) {
    bool guilty = false;
    for (const Problem& p : rep.problems) {
      if ((p.priority == Priority::kP0 || p.priority == Priority::kP1) &&
          p.service == b.id) {
        guilty = true;
        break;
      }
    }
    if (guilty) continue;
    obs::EvidenceChain c;
    c.id = next_evidence_id_++;
    c.verdict = "network-innocent";
    c.triage_branch = "impact: no P0/P1 problem inside the service network";
    c.service = b.id.value;
    add_threshold(c, "degradation_threshold", cfg_.degradation_threshold,
                  b.metric());
    if (const auto sit = service_records.find(b.id.value);
        sit != service_records.end()) {
      add_probes(c, sit->second);
    }
    c.summary = "network innocent for service " + std::to_string(b.id.value) +
                " this period";
    dlog.chains.push_back(std::move(c));
  }

  enter_stage(-1);
  telemetry::tracer().end_span(period_span);

  // Period-end bookkeeping (metric tallies, history/diagnosis retention,
  // journal spill, freeing the pipeline's scratch) is its own profiled
  // stage: it runs outside the enter_stage window but still inside the
  // period close.
  diaglog_scope.emplace(prof::Stage::kDrainDiaglog);
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
  if (sk_on) {
    // Links whose sketches show drops this period are the ones whose raw
    // records the pipeline still wants verbatim (upload thinning keeps every
    // timeout raw, so the fallback set is already satisfied — this counts
    // how often it was needed).
    std::uint64_t flagged = 0;
    for (const auto& [lid, ls] : link_sketches) {
      if (ls.total_drops() > 0) ++flagged;
    }
    metrics_.raw_fallback_links.inc(flagged);
  }

  history_.push_back(std::move(rep));
  while (history_.size() > cfg_.history_limit) history_.pop_front();
  diagnosis_.push_back(std::move(dlog));
  while (diagnosis_.size() > cfg_.history_limit) {
    // Evidence retention (ROADMAP): aged-out DiagnosisLogs spill into the
    // journal archive instead of vanishing; explain() falls back to it.
    if (journal_ != nullptr) {
      journal_->archive(role_, std::move(diagnosis_.front()));
    }
    diagnosis_.pop_front();
  }
  return history_.back();
}

std::string AnalysisCore::explain(std::uint64_t problem_id) const {
  for (auto it = diagnosis_.rbegin(); it != diagnosis_.rend(); ++it) {
    if (const obs::EvidenceChain* c = it->find_problem(problem_id)) {
      return obs::to_json(*c);
    }
  }
  // Post-mortem fallback: the period may have aged past history_limit into
  // the journal archive.
  if (journal_ != nullptr) {
    if (const obs::EvidenceChain* c = journal_->find_problem(role_,
                                                             problem_id)) {
      return obs::to_json(*c);
    }
  }
  return {};
}

const obs::EvidenceChain* AnalysisCore::evidence(EvidenceRef ref) const {
  if (!ref.valid()) return nullptr;
  for (auto it = diagnosis_.rbegin(); it != diagnosis_.rend(); ++it) {
    if (const obs::EvidenceChain* c = it->find(ref.id)) return c;
  }
  if (journal_ != nullptr) return journal_->find_evidence(role_, ref.id);
  return nullptr;
}

bool AnalysisCore::network_innocent(ServiceId service) const {
  const PeriodReport* rep = last_report();
  if (rep == nullptr) return true;
  for (const Problem& p : rep->problems) {
    if ((p.priority == Priority::kP0 || p.priority == Priority::kP1) &&
        p.service == service) {
      return false;
    }
  }
  return true;
}

}  // namespace rpm::core
