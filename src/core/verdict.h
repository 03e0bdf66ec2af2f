// The verdict path both analysis tiers share (§4.3.3–§4.3.4): Algorithm 1
// voting, the evidence-chain helpers, the P0/P1/P2 impact pass with the
// chains it writes, and the verdict history. AnalysisCore votes over
// ProbeRecords; GlobalAnalyzer over the ForeignTimeouts and chain tallies
// pods ship in their digests.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/digest.h"
#include "core/journal.h"
#include "core/types.h"
#include "obs/diagnosis.h"

namespace rpm::core {

/// How an analysis tier watches a service's key performance metric
/// (§4.3.4): `metric` returns the current relative performance in [0,1].
struct ServiceBinding {
  ServiceId id;
  std::function<double()> metric;
};

void add_probe(obs::EvidenceChain& c, std::uint64_t id);
void add_threshold(obs::EvidenceChain& c, const char* name, double threshold,
                   double observed);

/// Algorithm 1 (§4.3.3): count traversals of each link and switch over the
/// anomalous probes' forward and ACK paths.
class VoteTally {
 public:
  static constexpr std::size_t kTopLinks = 10;  // Problem::top_link_votes
  static constexpr std::size_t kTallyCap = 64;  // chain link/switch tallies

  /// A probe's forward + reverse path (skipped when the path is unknown).
  void add(const ProbeRecord& r);
  /// A pod-shipped timeout's flattened fwd+rev path (same skip rule).
  void add(const ForeignTimeout& f);
  /// A chain's recorded tallies — the union of per-pod votes.
  void add(const obs::EvidenceChain& c);

  /// Write the vote: every top-voted link and switch (ties all win, sorted
  /// by id) into `p`, the top-10 link votes into `p.top_link_votes`, and the
  /// capped link/switch tallies into `c`. Lists order by (votes descending,
  /// id ascending).
  void vote(Problem& p, obs::EvidenceChain& c) const;

 private:
  std::unordered_map<std::uint32_t, std::size_t> links_;
  std::unordered_map<std::uint32_t, std::size_t> switches_;
};

/// Vote one evidence list (pointers to ProbeRecords or ForeignTimeouts).
template <typename Evidence>
void vote(const std::vector<const Evidence*>& ev, Problem& p,
          obs::EvidenceChain& c) {
  VoteTally t;
  for (const Evidence* e : ev) t.add(*e);
  t.vote(p, c);
}

/// Every link/RNIC/host a service's tracing probes touched this period.
struct ServiceNet {
  std::unordered_set<std::uint32_t> links;
  std::unordered_set<std::uint32_t> rnics;
  std::unordered_set<std::uint32_t> hosts;

  [[nodiscard]] bool touches(const Problem& p) const;
};

/// P0 when the affected service's metric is below `degradation_threshold`,
/// P1 otherwise; P2 when no service is affected.
void assign_priority(Problem& p, ServiceId affected,
                     const std::vector<ServiceBinding>& services,
                     double degradation_threshold);

/// §4.3.4 impact pass over every non-noise problem. `nets` maps service id
/// -> ServiceNet and is walked in the caller's iteration order: the first
/// network a problem touches is the service it is charged to.
template <typename Nets>
void assess_impact(std::vector<Problem>& problems, const Nets& nets,
                   const std::vector<ServiceBinding>& services,
                   double degradation_threshold) {
  for (Problem& p : problems) {
    if (p.priority == Priority::kNoise) continue;
    ServiceId affected;
    if (p.detected_by_service_tracing) {
      affected = p.service;
    } else {
      for (const auto& [svc, net] : nets) {
        if (net.touches(p)) {
          affected = ServiceId{svc};
          break;
        }
      }
    }
    assign_priority(p, affected, services, degradation_threshold);
  }
}

/// No P0/P1 problem is charged to `service`.
[[nodiscard]] bool network_innocent(const std::vector<Problem>& problems,
                                    ServiceId service);

class VerdictLog;

/// One "network-innocent" chain per watched service with no P0/P1 problem:
/// exoneration gets receipts too. `add_probes` (optional) cites the
/// service's probes.
void emit_network_innocent(
    const std::vector<Problem>& problems,
    const std::vector<ServiceBinding>& services, double degradation_threshold,
    VerdictLog& log, obs::DiagnosisLog& dlog,
    const std::function<void(ServiceId, obs::EvidenceChain&)>& add_probes =
        {});

/// The cluster SLA-violation chain, when any drop was network-attributed
/// (never in budget). `sample_probes` adds offending probe ids; stop at
/// obs::kEvidenceProbeIdCap.
void emit_sla_violation(
    SlaReport& sla, TimeNs high_rtt_threshold, VerdictLog& log,
    obs::DiagnosisLog& dlog,
    const std::function<void(obs::EvidenceChain&)>& sample_probes);

/// One PeriodReport and one DiagnosisLog per period, trimmed together at
/// `history_limit`; trimmed logs spill into the attached journal's archive,
/// which explain()/evidence() fall back to. Owns the monotone problem and
/// evidence id spaces.
class VerdictLog {
 public:
  VerdictLog(std::size_t history_limit, std::string role);

  [[nodiscard]] std::uint64_t new_problem_id() { return next_problem_id_++; }
  [[nodiscard]] std::uint64_t new_evidence_id() { return next_evidence_id_++; }
  /// Give `p` and `c` fresh ids and cross-link them. Call once p.summary is
  /// final (the chain copies it).
  void attach(Problem& p, obs::EvidenceChain& c);

  const PeriodReport& commit(PeriodReport&& rep, obs::DiagnosisLog&& dlog);

  void reset();  // crash: history, diagnoses and id counters die
  [[nodiscard]] std::uint64_t next_problem_id() const {
    return next_problem_id_;
  }
  [[nodiscard]] std::uint64_t next_evidence_id() const {
    return next_evidence_id_;
  }
  void restore_ids(std::uint64_t next_problem, std::uint64_t next_evidence) {
    next_problem_id_ = next_problem;
    next_evidence_id_ = next_evidence;
  }

  void attach_journal(StateJournal* journal, std::string role) {
    journal_ = journal;
    role_ = std::move(role);
  }

  [[nodiscard]] const std::deque<PeriodReport>& history() const {
    return history_;
  }
  [[nodiscard]] const PeriodReport* last_report() const {
    return history_.empty() ? nullptr : &history_.back();
  }
  [[nodiscard]] bool network_innocent(ServiceId service) const;
  /// The evidence chain behind a Problem as JSON ("" when unknown).
  [[nodiscard]] std::string explain(std::uint64_t problem_id) const;
  [[nodiscard]] const obs::EvidenceChain* evidence(EvidenceRef ref) const;
  [[nodiscard]] const obs::DiagnosisLog* last_diagnosis() const {
    return diagnosis_.empty() ? nullptr : &diagnosis_.back();
  }
  [[nodiscard]] const std::deque<obs::DiagnosisLog>& diagnosis_history()
      const {
    return diagnosis_;
  }

 private:
  std::size_t history_limit_;
  std::string role_;
  StateJournal* journal_ = nullptr;
  std::deque<PeriodReport> history_;
  std::deque<obs::DiagnosisLog> diagnosis_;  // trimmed with history_
  std::uint64_t next_evidence_id_ = 1;
  std::uint64_t next_problem_id_ = 1;
};

}  // namespace rpm::core
