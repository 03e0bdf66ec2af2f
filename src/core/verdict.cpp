#include "core/verdict.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace rpm::core {

void add_probe(obs::EvidenceChain& c, std::uint64_t id) {
  ++c.total_probes;
  if (c.probe_ids.size() < obs::kEvidenceProbeIdCap) c.probe_ids.push_back(id);
}

void add_threshold(obs::EvidenceChain& c, const char* name, double threshold,
                   double observed) {
  c.thresholds.push_back({name, threshold, observed, observed > threshold});
}

// ---- Algorithm 1 ----

void VoteTally::add(const ProbeRecord& r) {
  if (!r.path_known) return;
  for (const routing::Path* p : {&r.fwd_path, &r.rev_path}) {
    for (LinkId l : p->links) ++links_[l.value];
    for (SwitchId s : p->switches) ++switches_[s.value];
  }
}

void VoteTally::add(const ForeignTimeout& f) {
  if (!f.path_known) return;
  for (std::uint32_t l : f.path_links) ++links_[l];
  for (std::uint32_t s : f.path_switches) ++switches_[s];
}

void VoteTally::add(const obs::EvidenceChain& c) {
  for (const obs::VoteCount& v : c.link_votes) links_[v.id] += v.votes;
  for (const obs::VoteCount& v : c.switch_votes) switches_[v.id] += v.votes;
}

namespace {

using Votes = std::unordered_map<std::uint32_t, std::size_t>;

/// (votes descending, id ascending), cut to `cap` entries.
std::vector<obs::VoteCount> ranked(const Votes& votes, std::size_t cap) {
  std::vector<obs::VoteCount> out;
  out.reserve(votes.size());
  for (const auto& [id, v] : votes) out.push_back({id, v});
  std::sort(out.begin(), out.end(),
            [](const obs::VoteCount& a, const obs::VoteCount& b) {
              if (a.votes != b.votes) return a.votes > b.votes;
              return a.id < b.id;
            });
  if (out.size() > cap) out.resize(cap);
  return out;
}

/// Every id holding the top vote count (empty input: no winner), sorted.
template <typename Id>
std::vector<Id> winners(const std::vector<obs::VoteCount>& ranked_votes) {
  std::vector<Id> out;
  for (const obs::VoteCount& v : ranked_votes) {
    if (v.votes != ranked_votes[0].votes) break;
    out.push_back(Id{v.id});
  }
  return out;
}

}  // namespace

void VoteTally::vote(Problem& p, obs::EvidenceChain& c) const {
  // The ranked lists hold every id until cut, so the winners (a prefix of
  // equal top counts, ids ascending) are exact even past the caps.
  const std::vector<obs::VoteCount> link_rank = ranked(links_, links_.size());
  const std::vector<obs::VoteCount> switch_rank =
      ranked(switches_, switches_.size());
  p.suspect_links = winners<LinkId>(link_rank);
  p.suspect_switches = winners<SwitchId>(switch_rank);
  p.top_link_votes.clear();
  for (std::size_t i = 0; i < link_rank.size() && i < kTopLinks; ++i) {
    p.top_link_votes.emplace_back(LinkId{link_rank[i].id}, link_rank[i].votes);
  }
  // Evidence: the full tally (bounded), not just the winners — explain()
  // must show how close the runners-up were.
  c.link_votes.assign(
      link_rank.begin(),
      link_rank.begin() +
          static_cast<std::ptrdiff_t>(std::min(link_rank.size(), kTallyCap)));
  c.switch_votes.assign(
      switch_rank.begin(),
      switch_rank.begin() + static_cast<std::ptrdiff_t>(
                                std::min(switch_rank.size(), kTallyCap)));
}

// ---- impact (§4.3.4) ----

bool ServiceNet::touches(const Problem& p) const {
  if (p.rnic.valid() && rnics.contains(p.rnic.value)) return true;
  // Host overlap only applies to host-scoped problems (host down, CPU
  // bottleneck). An RNIC problem on a worker host whose OTHER RNIC serves
  // the job is still outside the service network (=> P2).
  if (!p.rnic.valid() && p.host.valid() && hosts.contains(p.host.value)) {
    return true;
  }
  return std::any_of(p.suspect_links.begin(), p.suspect_links.end(),
                     [this](LinkId l) { return links.contains(l.value); });
}

void assign_priority(Problem& p, ServiceId affected,
                     const std::vector<ServiceBinding>& services,
                     double degradation_threshold) {
  if (!affected.valid()) {
    p.priority = Priority::kP2;  // outside every service network
    return;
  }
  p.in_service_network = true;
  p.service = affected;
  // Severe metric degradation => P0; otherwise P1 (fix on benefit).
  double metric = 1.0;
  for (const ServiceBinding& b : services) {
    if (b.id == affected) metric = b.metric();
  }
  p.priority =
      metric < degradation_threshold ? Priority::kP0 : Priority::kP1;
}

bool network_innocent(const std::vector<Problem>& problems,
                      ServiceId service) {
  return std::none_of(problems.begin(), problems.end(), [&](const Problem& p) {
    return (p.priority == Priority::kP0 || p.priority == Priority::kP1) &&
           p.service == service;
  });
}

void emit_network_innocent(
    const std::vector<Problem>& problems,
    const std::vector<ServiceBinding>& services, double degradation_threshold,
    VerdictLog& log, obs::DiagnosisLog& dlog,
    const std::function<void(ServiceId, obs::EvidenceChain&)>& add_probes) {
  for (const ServiceBinding& b : services) {
    if (!network_innocent(problems, b.id)) continue;
    obs::EvidenceChain c;
    c.id = log.new_evidence_id();
    c.verdict = "network-innocent";
    c.triage_branch = "impact: no P0/P1 problem inside the service network";
    c.service = b.id.value;
    add_threshold(c, "degradation_threshold", degradation_threshold,
                  b.metric());
    if (add_probes) add_probes(b.id, c);
    c.summary = "network innocent for service " + std::to_string(b.id.value) +
                " this period";
    dlog.chains.push_back(std::move(c));
  }
}

void emit_sla_violation(
    SlaReport& sla, TimeNs high_rtt_threshold, VerdictLog& log,
    obs::DiagnosisLog& dlog,
    const std::function<void(obs::EvidenceChain&)>& sample_probes) {
  if (sla.rnic_drop_rate <= 0.0 && sla.switch_drop_rate <= 0.0) return;
  // The chain samples the offending probe ids so explain() leads straight
  // to flight timelines.
  obs::EvidenceChain c;
  c.id = log.new_evidence_id();
  c.verdict = "sla-violation";
  c.triage_branch = "sla: network-attributed drop rate above target";
  const double drop_rate = sla.rnic_drop_rate + sla.switch_drop_rate;
  add_threshold(c, "network_drop_rate_target", 0.0, drop_rate);
  add_threshold(c, "high_rtt_threshold_ns",
                static_cast<double>(high_rtt_threshold), sla.rtt_p99);
  c.total_probes = sla.probes;
  sample_probes(c);
  std::ostringstream os;
  os << "cluster SLA violated: network-attributed drop rate " << drop_rate
     << " over " << sla.probes << " probes";
  c.summary = os.str();
  sla.evidence.id = c.id;
  dlog.chains.push_back(std::move(c));
}

// ---- VerdictLog ----

VerdictLog::VerdictLog(std::size_t history_limit, std::string role)
    : history_limit_(history_limit), role_(std::move(role)) {}

void VerdictLog::attach(Problem& p, obs::EvidenceChain& c) {
  p.problem_id = new_problem_id();
  c.id = new_evidence_id();
  p.evidence.id = c.id;
  c.problem_id = p.problem_id;
  c.summary = p.summary;
}

const PeriodReport& VerdictLog::commit(PeriodReport&& rep,
                                       obs::DiagnosisLog&& dlog) {
  history_.push_back(std::move(rep));
  while (history_.size() > history_limit_) history_.pop_front();
  diagnosis_.push_back(std::move(dlog));
  while (diagnosis_.size() > history_limit_) {
    // Evidence retention: aged-out DiagnosisLogs spill into the journal
    // archive instead of vanishing; explain() falls back to it.
    if (journal_ != nullptr) {
      journal_->archive(role_, std::move(diagnosis_.front()));
    }
    diagnosis_.pop_front();
  }
  return history_.back();
}

void VerdictLog::reset() {
  history_.clear();
  diagnosis_.clear();
  next_evidence_id_ = 1;
  next_problem_id_ = 1;
}

bool VerdictLog::network_innocent(ServiceId service) const {
  const PeriodReport* rep = last_report();
  return rep == nullptr || core::network_innocent(rep->problems, service);
}

std::string VerdictLog::explain(std::uint64_t problem_id) const {
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

const obs::EvidenceChain* VerdictLog::evidence(EvidenceRef ref) const {
  if (!ref.valid()) return nullptr;
  for (auto it = diagnosis_.rbegin(); it != diagnosis_.rend(); ++it) {
    if (const obs::EvidenceChain* c = it->find(ref.id)) return c;
  }
  if (journal_ != nullptr) return journal_->find_evidence(role_, ref.id);
  return nullptr;
}

}  // namespace rpm::core
