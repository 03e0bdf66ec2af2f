#include "core/federation.h"

#include <algorithm>
#include <any>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "obs/flight_recorder.h"
#include "prof/prof.h"
#include "telemetry/trace.h"

namespace rpm::core {

namespace {

// Digest flight traces live far above the probe id space (probes count up
// from 1; sketch reports use bit 62). The global tier reconstructs the same
// id from (pod, seq), so its kDigestMerge event lands on the timeline the
// pod opened at flush — one causal story per digest.
constexpr std::uint64_t kDigestTraceBase = 1ull << 61;

std::uint64_t digest_trace_id(std::uint32_t pod, std::uint64_t seq) {
  return kDigestTraceBase | (static_cast<std::uint64_t>(pod) << 32) |
         (seq & 0xFFFFFFFFull);
}

}  // namespace

// ---------------------------------------------------------------------------
// PodAnalyzer
// ---------------------------------------------------------------------------

PodAnalyzer::PodAnalyzer(const topo::Topology& topo,
                         const Controller& controller,
                         sim::Scheduler& sched, AnalyzerConfig cfg,
                         std::uint32_t pod, std::vector<HostId> hosts)
    : pod_(pod),
      hosts_(std::move(hosts)),
      role_("pod" + std::to_string(pod)),
      analyzer_(topo, controller, sched, std::move(cfg)) {
  if (hosts_.empty()) {
    throw std::invalid_argument("PodAnalyzer: empty host set");
  }
  for (HostId h : hosts_) scratch_.local_hosts.insert(h.value);
  analyzer_.set_federation_scratch(&scratch_);
  analyzer_.set_period_hook(
      [this](const PeriodReport& rep, const obs::DiagnosisLog& dlog) {
        on_period(rep, dlog);
      });
  analyzer_.set_checkpoint_hook(
      [this](AnalyzerCheckpoint& cp) { cp.digest_seq = seq_; });
  // PodAnalyzers exist only in federated deployments (pods >= 2), so these
  // series never appear in a flat run's scrape.
  auto& reg = telemetry::registry();
  digests_total_ =
      reg.counter("rpm_pod_digests_total", "PodDigests flushed by this pod",
                  {{"pod", std::to_string(pod_)}});
  digest_bytes_total_ = reg.counter("rpm_pod_digest_bytes_total",
                                    "Declared wire bytes of flushed digests",
                                    {{"pod", std::to_string(pod_)}});
}

void PodAnalyzer::on_period(const PeriodReport& rep,
                            const obs::DiagnosisLog& dlog) {
  prof::StageScope prof_scope(prof::Stage::kDigestFlush);
  PodDigest d;
  d.pod = pod_;
  d.seq = ++seq_;
  d.period_start = rep.period_start;
  d.period_end = rep.period_end;
  d.records_processed = rep.records_processed;
  d.problems = rep.problems;
  d.chains = dlog.chains;
  d.timeouts_host_down = rep.timeouts_host_down;
  d.timeouts_qpn_reset = rep.timeouts_qpn_reset;
  d.timeouts_agent_cpu = rep.timeouts_agent_cpu;
  d.timeouts_rnic = rep.timeouts_rnic;
  d.timeouts_switch = rep.timeouts_switch;
  // The scratch outputs are rebuilt by the next analyze pass — move, don't
  // copy.
  d.down_hosts = std::move(scratch_.down_hosts);
  d.blamed_rnics = std::move(scratch_.blamed_rnics);
  d.cpu_noise_hosts = std::move(scratch_.cpu_noise_hosts);
  d.foreign = std::move(scratch_.foreign);
  d.cluster_sla = std::move(scratch_.cluster_sla);
  d.service_slas = std::move(scratch_.service_slas);
  d.service_nets = std::move(scratch_.service_nets);

  const std::size_t bytes = pod_digest_wire_bytes(d);
  bytes_sent_ += bytes;
  digests_total_.inc();
  digest_bytes_total_.inc(static_cast<double>(bytes));

  obs::FlightRecorder& fr = obs::recorder();
  if (fr.enabled()) {
    const std::uint64_t trace = digest_trace_id(pod_, d.seq);
    if (fr.begin_probe(trace, "pod-digest",
                       static_cast<std::uint64_t>(d.period_end))) {
      fr.record(trace, obs::ProbeEventKind::kDigestFlush, d.seq,
                d.problems.size());
    }
  }

  if (channel_ != nullptr) {
    channel_->send(std::any(std::move(d)), bytes);
  }
}

void PodAnalyzer::attach_journal(StateJournal* journal) {
  journal_ = journal;
  analyzer_.attach_journal(journal, role_);
}

void PodAnalyzer::crash() {
  analyzer_.crash();
  seq_ = 0;  // lost with the process; restart_from_journal reloads it
}

bool PodAnalyzer::restart_from_journal() {
  if (journal_ != nullptr) {
    if (const auto cp = journal_->load_checkpoint(role_)) {
      seq_ = cp->digest_seq;
    }
  }
  return analyzer_.restore_from_journal();
}

// ---------------------------------------------------------------------------
// GlobalAnalyzer
// ---------------------------------------------------------------------------

GlobalAnalyzer::GlobalAnalyzer(const topo::Topology& topo,
                               sim::Scheduler& sched, Config cfg)
    : topo_(topo),
      sched_(sched),
      cfg_(std::move(cfg)),
      log_(cfg_.analyzer.history_limit, "global") {
  if (cfg_.analyzer.period <= 0) {
    throw std::invalid_argument("GlobalAnalyzer: period must be positive");
  }
  if (cfg_.digest_dedup_window == 0 ||
      cfg_.digest_dedup_window > kMaxSeqWindow) {
    throw std::invalid_argument(
        "GlobalAnalyzer: digest_dedup_window must be in [1, " +
        std::to_string(kMaxSeqWindow) + "]");
  }
  // Federated deployments only — never present in a flat scrape.
  auto& reg = telemetry::registry();
  merges_total_ = reg.counter("rpm_global_merges_total",
                              "Global merge passes completed");
  digests_merged_total_ = reg.counter(
      "rpm_global_digests_merged_total",
      "PodDigests folded into global merges (first deliveries only)");
}

void GlobalAnalyzer::ingest_digest(PodDigest&& d) {
  if (outage_) return;  // a blacked-out merge tier hears nothing
  SeqWindow& win =
      digest_dedup_.try_emplace(d.pod, cfg_.digest_dedup_window).first->second;
  if (!win.accept(d.seq)) {
    ++duplicate_digests_;
    return;
  }
  pending_.push_back(std::move(d));
}

void GlobalAnalyzer::register_service(ServiceBinding binding) {
  services_.push_back(std::move(binding));
}

void GlobalAnalyzer::start() {
  if (merge_task_) return;
  merge_task_ = std::make_unique<sim::PeriodicTask>(
      sched_, cfg_.analyzer.period, [this] {
        if (!outage_) merge_now();
      });
  // Offset past the pods' period boundary so in-flight digests land first.
  merge_task_->start(cfg_.analyzer.period + cfg_.merge_offset);
}

void GlobalAnalyzer::stop() {
  if (merge_task_) merge_task_->cancel();
  merge_task_.reset();
}

void GlobalAnalyzer::set_outage(bool outage) {
  if (outage_ == outage) return;
  outage_ = outage;
  if (outage_) {
    pending_.clear();
    telemetry::tracer().instant("global-analyzer-outage-begin", "control");
    return;
  }
  telemetry::tracer().instant("global-analyzer-outage-end", "control");
  // The blackout never reads as a giant merge period.
  last_period_end_ = sched_.now();
}

void GlobalAnalyzer::attach_journal(StateJournal* journal) {
  journal_ = journal;
  log_.attach_journal(journal, "global");
}

void GlobalAnalyzer::crash() {
  telemetry::tracer().instant("global-analyzer-crash", "control");
  outage_ = true;
  pending_.clear();
  digest_dedup_.clear();
  log_.reset();
  last_period_end_ = 0;
}

bool GlobalAnalyzer::restart_from_journal() {
  std::optional<AnalyzerCheckpoint> cp;
  if (journal_ != nullptr) cp = journal_->load_checkpoint("global");
  if (cp.has_value()) {
    log_.restore_ids(cp->next_problem_id, cp->next_evidence_id);
    digest_dedup_.clear();
    for (const IngestCheckpoint::HostWindow& hw : cp->digest_dedup.hosts) {
      SeqWindow win(cfg_.digest_dedup_window);
      win.restore(hw.max_seq, hw.seen);
      digest_dedup_.emplace(hw.host, std::move(win));
    }
  }
  outage_ = false;
  // Fresh boundary either way — downtime is not a merge period.
  last_period_end_ = sched_.now();
  telemetry::tracer().instant("global-analyzer-restart", "control");
  return cp.has_value();
}

void GlobalAnalyzer::save_checkpoint() {
  if (journal_ == nullptr) return;
  prof::StageScope prof_scope(prof::Stage::kCheckpointSave);
  AnalyzerCheckpoint cp;
  cp.last_period_end = last_period_end_;
  cp.next_problem_id = log_.next_problem_id();
  cp.next_evidence_id = log_.next_evidence_id();
  std::vector<std::uint32_t> pods;
  pods.reserve(digest_dedup_.size());
  for (const auto& [pod, st] : digest_dedup_) pods.push_back(pod);
  std::sort(pods.begin(), pods.end());
  for (std::uint32_t pod : pods) {
    const SeqWindow& win = digest_dedup_.at(pod);
    // The "host" slot carries the pod id for digest windows.
    cp.digest_dedup.hosts.push_back({pod, win.max_seq(), win.seen()});
  }
  journal_->save_checkpoint("global", cp);
}

// Per-merge state, threaded through the stage functions by reference.
struct GlobalAnalyzer::Merge {
  struct PendingProblem {
    Problem p;                  // evidence ref already remapped
    std::size_t chain_idx = 0;  // its chain's index in dlog.chains
  };
  static constexpr std::size_t kNoChain = static_cast<std::size_t>(-1);

  std::vector<PodDigest> digests;
  PeriodReport rep;
  obs::DiagnosisLog dlog;
  // foreign triage
  std::vector<const ForeignTimeout*> foreign_cluster;
  std::map<std::uint32_t, std::vector<const ForeignTimeout*>> foreign_service;
  std::size_t foreign_rnic_drops = 0;
  std::size_t foreign_switch_drops = 0;
  std::map<std::uint32_t, std::pair<std::size_t, std::size_t>>
      foreign_svc_drops;  // service -> {rnic, switch} drops
  std::vector<std::uint64_t> foreign_drop_ids;  // SLA evidence sample
  // Pod verdicts (re-id'd) plus the cross-pod foreign-vote verdicts, before
  // same-fault grouping.
  std::vector<PendingProblem> pool;
};

const PeriodReport& GlobalAnalyzer::merge_now() {
  // A global merge is the federation tier's period close: same watchdog,
  // with the merge itself as a profiled stage inside it.
  prof::PeriodCloseScope close_scope;
  prof::StageScope merge_scope(prof::Stage::kGlobalMerge);
  const TimeNs now = sched_.now();
  Merge m;
  m.digests = std::move(pending_);
  pending_.clear();
  // Deterministic merge order regardless of transport interleaving.
  std::sort(m.digests.begin(), m.digests.end(),
            [](const PodDigest& a, const PodDigest& b) {
              if (a.pod != b.pod) return a.pod < b.pod;
              return a.seq < b.seq;
            });
  m.rep.period_start = last_period_end_;
  m.rep.period_end = now;
  last_period_end_ = now;
  m.dlog.period_start = m.rep.period_start;
  m.dlog.period_end = m.rep.period_end;

  ++merges_;
  merges_total_.inc();
  digests_merged_total_.inc(static_cast<double>(m.digests.size()));
  const std::uint64_t span =
      telemetry::tracer().begin_span("global.merge", "analyzer");

  triage_foreign(m);
  reid_pod_verdicts(m);
  emit_foreign_problem(m, m.foreign_cluster, false, ServiceId{});
  for (auto& [svc, ev] : m.foreign_service) {
    emit_foreign_problem(m, ev, true, ServiceId{svc});
  }
  group_cross_pod(m);
  track_sla(m);
  assess_impact(m);

  telemetry::tracer().end_span(span);
  const PeriodReport& rep = log_.commit(std::move(m.rep), std::move(m.dlog));
  save_checkpoint();
  return rep;
}

// Digest tallies, the union of pod liveness/blame state, and triage of the
// deferred foreign timeouts: a pod could not tell whether a timeout to
// another pod's host was the host dying, its RNIC, or the fabric; with every
// pod's down-host and blame state unioned, the global tier re-runs the
// §4.3.1 branch.
void GlobalAnalyzer::triage_foreign(Merge& m) const {
  PeriodReport& rep = m.rep;
  obs::FlightRecorder& fr = obs::recorder();
  std::unordered_set<std::uint32_t> down;
  std::unordered_map<std::uint32_t, TimeNs> blamed;  // rnic -> max until
  std::unordered_set<std::uint32_t> cpu_noise;
  for (const PodDigest& d : m.digests) {
    rep.records_processed += d.records_processed;
    rep.timeouts_host_down += d.timeouts_host_down;
    rep.timeouts_qpn_reset += d.timeouts_qpn_reset;
    rep.timeouts_agent_cpu += d.timeouts_agent_cpu;
    rep.timeouts_rnic += d.timeouts_rnic;
    rep.timeouts_switch += d.timeouts_switch;
    if (fr.enabled()) {
      fr.record(digest_trace_id(d.pod, d.seq),
                obs::ProbeEventKind::kDigestMerge, d.pod, d.seq);
    }
    for (std::uint32_t h : d.down_hosts) down.insert(h);
    for (const auto& [r, until] : d.blamed_rnics) {
      TimeNs& u = blamed[r];
      u = std::max(u, until);
    }
    for (std::uint32_t h : d.cpu_noise_hosts) cpu_noise.insert(h);
  }

  const auto blamed_now = [&](RnicId r) {
    const auto it = blamed.find(r.value);
    return it != blamed.end() && it->second >= rep.period_start;
  };
  for (const PodDigest& d : m.digests) {
    for (const ForeignTimeout& f : d.foreign) {
      if (down.contains(f.target_host.value)) {
        // The owning pod's digest already carries the host-down Problem;
        // here the probe just stops polluting network attribution.
        ++rep.timeouts_host_down;
        continue;
      }
      if (cpu_noise.contains(f.target_host.value) ||
          cpu_noise.contains(f.prober_host.value)) {
        // The owning pod's Fig. 6 filter flagged the host: the service is
        // starving its Agent, so cross-pod probes to it time out without
        // any fabric fault. The pod's digest already carries the noise
        // verdict — here the probe just stays out of Algorithm-1 voting.
        ++rep.timeouts_agent_cpu;
        continue;
      }
      const bool traced = f.kind == ProbeKind::kServiceTracing;
      m.foreign_drop_ids.push_back(f.probe_id);
      if (blamed_now(f.target) || blamed_now(f.prober)) {
        ++rep.timeouts_rnic;
        ++m.foreign_rnic_drops;
        if (traced) ++m.foreign_svc_drops[f.service.value].first;
        continue;
      }
      ++rep.timeouts_switch;
      ++m.foreign_switch_drops;
      if (traced) {
        ++m.foreign_svc_drops[f.service.value].second;
        m.foreign_service[f.service.value].push_back(&f);
      } else {
        m.foreign_cluster.push_back(&f);
      }
    }
  }
}

// Collect pod verdicts, re-id'd into the global evidence space.
void GlobalAnalyzer::reid_pod_verdicts(Merge& m) {
  for (PodDigest& d : m.digests) {
    std::unordered_map<std::uint64_t, std::uint64_t> ev_map;
    std::unordered_map<std::uint64_t, std::size_t> chain_by_ev;
    for (obs::EvidenceChain& c : d.chains) {
      const std::uint64_t new_id = log_.new_evidence_id();
      ev_map[c.id] = new_id;
      c.id = new_id;
      // Re-linked below for problems that survive the merge; pod-local SLA
      // and innocent verdicts stay as supporting evidence.
      c.problem_id = 0;
      chain_by_ev[new_id] = m.dlog.chains.size();
      m.dlog.chains.push_back(std::move(c));
    }
    for (Problem& p : d.problems) {
      Merge::PendingProblem pp;
      pp.p = std::move(p);
      pp.p.problem_id = 0;
      pp.chain_idx = Merge::kNoChain;
      if (pp.p.evidence.valid()) {
        const auto it = ev_map.find(pp.p.evidence.id);
        pp.p.evidence.id = it == ev_map.end() ? 0 : it->second;
        const auto cit = chain_by_ev.find(pp.p.evidence.id);
        if (cit != chain_by_ev.end()) pp.chain_idx = cit->second;
      }
      m.pool.push_back(std::move(pp));
    }
  }
}

// Cross-pod Algorithm 1 over the foreign switch evidence.
void GlobalAnalyzer::emit_foreign_problem(
    Merge& m, const std::vector<const ForeignTimeout*>& ev, bool from_service,
    ServiceId svc) {
  if (ev.size() < cfg_.analyzer.min_anomalies_for_problem) return;
  Merge::PendingProblem pp;
  Problem& p = pp.p;
  p.category = ProblemCategory::kSwitchNetworkProblem;
  p.anomalous_probes = ev.size();
  p.detected_by_service_tracing = from_service;
  p.service = svc;
  obs::EvidenceChain c;
  c.verdict = "switch-network-problem";
  c.triage_branch = "global: cross-pod foreign-timeout voting";
  c.service = svc.valid() ? svc.value : 0;
  add_threshold(c, "min_anomalies_for_problem",
                static_cast<double>(cfg_.analyzer.min_anomalies_for_problem),
                static_cast<double>(ev.size()));
  for (const ForeignTimeout* f : ev) add_probe(c, f->probe_id);
  vote(ev, p, c);
  std::ostringstream os;
  os << "switch network problem (" << ev.size()
     << " anomalous cross-pod probes"
     << (from_service ? ", service tracing" : ", cluster monitoring") << ")";
  if (!p.suspect_links.empty()) {
    os << ", top suspect link: " << topo_.link(p.suspect_links.front()).name;
  }
  p.summary = os.str();
  c.id = log_.new_evidence_id();
  c.summary = p.summary;
  p.evidence.id = c.id;
  pp.chain_idx = m.dlog.chains.size();
  m.dlog.chains.push_back(std::move(c));
  m.pool.push_back(std::move(pp));
}

// One problem for a group of same-fault pod reports, voted over the union
// of their tallies.
Problem GlobalAnalyzer::merge_group(Merge& m,
                                    const std::vector<std::size_t>& members,
                                    std::size_t& chain_idx) {
  const Merge::PendingProblem& first = m.pool[members.front()];
  Problem g;
  g.category = first.p.category;
  g.rnic = first.p.rnic;
  g.host = first.p.host;
  g.service = first.p.service;
  g.detected_by_service_tracing = first.p.detected_by_service_tracing;
  g.priority = first.p.priority;
  obs::EvidenceChain c;
  c.triage_branch = "global-merge: cross-pod vote union";
  c.service = g.service.valid() ? g.service.value : 0;
  VoteTally tally;
  bool have_verdict = false;  // from the first member that has a chain
  for (std::size_t idx : members) {
    const Merge::PendingProblem& pp = m.pool[idx];
    g.anomalous_probes += pp.p.anomalous_probes;
    // Most severe wins (P0 < P1 < ... numerically); the impact pass
    // re-derives it for non-noise problems anyway.
    g.priority = std::min(g.priority, pp.p.priority);
    if (pp.chain_idx == Merge::kNoChain) continue;
    const obs::EvidenceChain& mc = m.dlog.chains[pp.chain_idx];
    if (!have_verdict) {
      c.verdict = mc.verdict;
      have_verdict = true;
    }
    for (std::uint64_t id : mc.probe_ids) add_probe(c, id);
    c.total_probes += mc.total_probes - mc.probe_ids.size();
    tally.add(mc);
  }
  tally.vote(g, c);
  std::ostringstream os;
  os << "global-merge: " << problem_category_name(g.category) << " across "
     << members.size() << " pod reports (" << g.anomalous_probes
     << " anomalous probes)";
  if (!g.suspect_links.empty()) {
    os << ", top suspect link: " << topo_.link(g.suspect_links.front()).name;
  }
  g.summary = os.str();
  add_threshold(c, "min_anomalies_for_problem",
                static_cast<double>(cfg_.analyzer.min_anomalies_for_problem),
                static_cast<double>(g.anomalous_probes));
  c.id = log_.new_evidence_id();
  c.summary = g.summary;
  g.evidence.id = c.id;
  chain_idx = m.dlog.chains.size();
  m.dlog.chains.push_back(std::move(c));
  return g;
}

// Cross-pod merge of same-fault verdicts. Two pods looking at one broken
// spine link each vote it from their own evidence; the operator wants ONE
// problem with the union tally. Grouping: voted categories (switch problem /
// high RTT) merge by suspect-link overlap (connected components) when
// cluster-scoped and by service when service-traced; host-/RNIC-scoped
// categories merge by their location; QPN-reset noise merges wholesale.
void GlobalAnalyzer::group_cross_pod(Merge& m) {
  const auto links_overlap = [](const std::vector<LinkId>& a,
                                const std::vector<LinkId>& b) {
    for (LinkId x : a) {
      for (LinkId y : b) {
        if (x == y) return true;
      }
    }
    return false;
  };
  const auto same_scope_key = [](const Problem& a, const Problem& b) {
    if (a.category != b.category) return false;
    switch (a.category) {
      case ProblemCategory::kSwitchNetworkProblem:
      case ProblemCategory::kHighNetworkRtt:
        // Handled by the link-overlap pass below.
        return false;
      case ProblemCategory::kHostDown:
      case ProblemCategory::kHighProcessingDelay:
      case ProblemCategory::kAgentCpuNoise:
        return a.host == b.host;
      case ProblemCategory::kRnicProblem:
        return a.rnic == b.rnic;
      case ProblemCategory::kQpnResetNoise:
        return true;
    }
    return false;
  };

  std::vector<Merge::PendingProblem>& pool = m.pool;
  std::vector<bool> consumed(pool.size(), false);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (consumed[i]) continue;
    const Problem& pi = pool[i].p;
    std::vector<std::size_t> members{i};
    const bool voted_cat =
        pi.category == ProblemCategory::kSwitchNetworkProblem ||
        pi.category == ProblemCategory::kHighNetworkRtt;
    if (voted_cat && !pi.detected_by_service_tracing) {
      // Connected component by suspect-link overlap (transitive: a shared
      // link chains reports together even when the endpoints differ).
      std::vector<LinkId> component_links = pi.suspect_links;
      bool grew = true;
      while (grew) {
        grew = false;
        for (std::size_t j = i + 1; j < pool.size(); ++j) {
          if (consumed[j]) continue;
          const Problem& pj = pool[j].p;
          if (pj.category != pi.category || pj.detected_by_service_tracing) {
            continue;
          }
          if (std::find(members.begin(), members.end(), j) != members.end()) {
            continue;
          }
          if (!links_overlap(component_links, pj.suspect_links)) continue;
          members.push_back(j);
          for (LinkId l : pj.suspect_links) component_links.push_back(l);
          grew = true;
        }
      }
    } else if (voted_cat) {
      for (std::size_t j = i + 1; j < pool.size(); ++j) {
        if (consumed[j]) continue;
        const Problem& pj = pool[j].p;
        if (pj.category == pi.category && pj.detected_by_service_tracing &&
            pj.service == pi.service) {
          members.push_back(j);
        }
      }
    } else {
      for (std::size_t j = i + 1; j < pool.size(); ++j) {
        if (!consumed[j] && same_scope_key(pi, pool[j].p)) members.push_back(j);
      }
    }
    for (std::size_t idx : members) consumed[idx] = true;
    Problem p;
    std::size_t chain_idx = pool[i].chain_idx;
    if (members.size() == 1) {
      p = std::move(pool[i].p);
    } else {
      p = merge_group(m, members, chain_idx);
    }
    p.problem_id = log_.new_problem_id();
    if (chain_idx != Merge::kNoChain) {
      m.dlog.chains[chain_idx].problem_id = p.problem_id;
    }
    m.rep.problems.push_back(std::move(p));
  }
}

// Cluster / service SLA tables from the mergeable digests. Exact counts +
// DDSketch tails merge associatively, so the table is the same no matter
// how the fleet is podded; the foreign timeouts the global tier just
// attributed add their drop classification on top.
void GlobalAnalyzer::track_sla(Merge& m) {
  SlaDigest cluster;
  for (const PodDigest& d : m.digests) cluster.merge(d.cluster_sla);
  cluster.rnic_drops += m.foreign_rnic_drops;
  cluster.switch_drops += m.foreign_switch_drops;
  m.rep.cluster_sla = cluster.to_report();
  std::map<std::uint32_t, SlaDigest> svc_slas;
  for (const PodDigest& d : m.digests) {
    for (const auto& [svc, sd] : d.service_slas) svc_slas[svc].merge(sd);
  }
  for (auto& [svc, drops] : m.foreign_svc_drops) {
    svc_slas[svc].rnic_drops += drops.first;
    svc_slas[svc].switch_drops += drops.second;
  }
  for (auto& [svc, sd] : svc_slas) {
    m.rep.service_slas.emplace_back(ServiceId{svc}, sd.to_report());
  }
  emit_sla_violation(m.rep.cluster_sla, cfg_.analyzer.high_rtt_threshold, log_,
                     m.dlog, [&m](obs::EvidenceChain& c) {
                       for (std::uint64_t id : m.foreign_drop_ids) {
                         if (c.probe_ids.size() >= obs::kEvidenceProbeIdCap) {
                           break;
                         }
                         c.probe_ids.push_back(id);
                       }
                     });
}

// Impact (§4.3.4) against the union service networks, walked by service id.
void GlobalAnalyzer::assess_impact(Merge& m) {
  std::map<std::uint32_t, ServiceNet> nets;
  for (const PodDigest& d : m.digests) {
    for (const ServiceNetDigest& sn : d.service_nets) {
      ServiceNet& n = nets[sn.service];
      n.links.insert(sn.links.begin(), sn.links.end());
      n.rnics.insert(sn.rnics.begin(), sn.rnics.end());
      n.hosts.insert(sn.hosts.begin(), sn.hosts.end());
    }
  }
  core::assess_impact(m.rep.problems, nets, services_,
                      cfg_.analyzer.degradation_threshold);
  emit_network_innocent(m.rep.problems, services_,
                        cfg_.analyzer.degradation_threshold, log_, m.dlog);
}

}  // namespace rpm::core
