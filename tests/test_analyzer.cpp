// Unit tests of the Analyzer pipeline (§4.3) on synthetic probe records —
// precise control over every classification branch.
#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/analyzer.h"
#include "core/controller.h"
#include "core/digest.h"
#include "core/ingest.h"
#include "core/journal.h"
#include "core/verdict.h"
#include "rnic/rnic.h"
#include "routing/ecmp.h"
#include "sim/scheduler.h"
#include "telemetry/metrics.h"
#include "topo/topology.h"

namespace rpm::core {
namespace {

topo::ClosConfig clos_cfg() {
  topo::ClosConfig cfg;
  cfg.num_pods = 2;
  cfg.tors_per_pod = 2;
  cfg.aggs_per_pod = 2;
  cfg.spines_per_plane = 2;
  cfg.hosts_per_tor = 2;
  cfg.rnics_per_host = 2;
  return cfg;
}

class AnalyzerTest : public ::testing::Test {
 protected:
  AnalyzerTest()
      : topo_(topo::build_clos(clos_cfg())),
        router_(topo_),
        ctrl_(topo_, router_),
        analyzer_(topo_, ctrl_, sched_) {
    // Register every RNIC with a known QPN.
    for (const topo::HostInfo& h : topo_.hosts()) {
      std::vector<RnicCommInfo> infos;
      for (RnicId r : h.rnics) {
        infos.push_back(
            {r, topo_.rnic(r).ip, rnic::gid_of(r), Qpn{0x100 + r.value}});
      }
      ctrl_.register_agent(h.id, infos);
    }
  }

  ProbeRecord make_record(RnicId prober, RnicId target, ProbeStatus status,
                          ProbeKind kind = ProbeKind::kTorMesh) {
    ProbeRecord r;
    r.id = next_id_++;
    r.kind = kind;
    r.prober = prober;
    r.target = target;
    r.prober_host = topo_.rnic(prober).host;
    r.target_qpn = Qpn{0x100 + target.value};
    r.status = status;
    r.sent_at = sched_.now();
    if (status == ProbeStatus::kOk) {
      r.network_rtt = usec(5);
      r.responder_delay = usec(8);
      r.prober_delay = usec(8);
    }
    // Realistic traced paths for voting.
    FiveTuple t;
    t.src_ip = topo_.rnic(prober).ip;
    t.dst_ip = topo_.rnic(target).ip;
    t.src_port = static_cast<std::uint16_t>(1000 + (r.id % 5000));
    r.fwd_path = router_.resolve(prober, target, t);
    FiveTuple rev = t;
    std::swap(rev.src_ip, rev.dst_ip);
    r.rev_path = router_.resolve(target, prober, rev);
    r.path_known = true;
    return r;
  }

  /// Keeps a host "alive" by uploading heartbeats from it.
  void heartbeat_all_hosts() {
    for (const topo::HostInfo& h : topo_.hosts()) {
      analyzer_.upload(h.id, {});
    }
  }

  /// Healthy ToR-mesh background so per-RNIC stats have denominators.
  void upload_healthy_tormesh(int rounds = 20) {
    std::vector<ProbeRecord> recs;
    for (int i = 0; i < rounds; ++i) {
      for (SwitchId tor : topo_.tor_switches()) {
        const auto& group = topo_.rnics_under_tor(tor);
        for (std::size_t a = 0; a < group.size(); ++a) {
          recs.push_back(make_record(group[a], group[(a + 1) % group.size()],
                                     ProbeStatus::kOk));
        }
      }
    }
    analyzer_.upload(HostId{0}, std::move(recs));
  }

  topo::Topology topo_;
  routing::EcmpRouter router_;
  sim::InlineScheduler sched_;
  Controller ctrl_;
  Analyzer analyzer_;
  std::uint64_t next_id_ = 1;
};

TEST_F(AnalyzerTest, EmptyPeriodIsClean) {
  heartbeat_all_hosts();
  const PeriodReport& rep = analyzer_.analyze_now();
  EXPECT_EQ(rep.records_processed, 0u);
  EXPECT_TRUE(rep.problems.empty());
  EXPECT_EQ(rep.cluster_sla.probes, 0u);
}

TEST_F(AnalyzerTest, HostDownWhenSilent) {
  // Host 3 never uploads after becoming known; everyone else heartbeats.
  analyzer_.upload(HostId{3}, {});
  sched_.run_until(sec(30));  // > 20 s silence
  for (const topo::HostInfo& h : topo_.hosts()) {
    if (h.id != HostId{3}) analyzer_.upload(h.id, {});
  }
  // Timeouts to host 3's RNICs are attributed to the down host.
  std::vector<ProbeRecord> recs;
  const RnicId dead = topo_.host(HostId{3}).rnics[0];
  for (int i = 0; i < 10; ++i) {
    recs.push_back(make_record(RnicId{0}, dead, ProbeStatus::kTimeout));
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  EXPECT_EQ(rep.timeouts_host_down, 10u);
  EXPECT_EQ(rep.timeouts_switch, 0u);
  EXPECT_EQ(rep.timeouts_rnic, 0u);
  bool host_down_problem = false;
  for (const auto& p : rep.problems) {
    if (p.category == ProblemCategory::kHostDown && p.host == HostId{3}) {
      host_down_problem = true;
    }
  }
  EXPECT_TRUE(host_down_problem);
}

TEST_F(AnalyzerTest, QpnMismatchIsNoiseNotNetwork) {
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  std::vector<ProbeRecord> recs;
  for (int i = 0; i < 10; ++i) {
    ProbeRecord r = make_record(RnicId{0}, RnicId{2}, ProbeStatus::kTimeout);
    r.target_qpn = Qpn{0x9999};  // stale QPN
    recs.push_back(r);
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  EXPECT_EQ(rep.timeouts_qpn_reset, 10u);
  EXPECT_EQ(rep.timeouts_rnic, 0u);
  EXPECT_EQ(rep.timeouts_switch, 0u);
}

TEST_F(AnalyzerTest, TorMeshTimeoutRatioFlagsRnic) {
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  // 30% of probes to RNIC 6 time out (> 10% threshold).
  std::vector<ProbeRecord> recs;
  for (int i = 0; i < 14; ++i) {
    recs.push_back(make_record(RnicId{4}, RnicId{6}, ProbeStatus::kOk));
  }
  for (int i = 0; i < 6; ++i) {
    recs.push_back(make_record(RnicId{4}, RnicId{6}, ProbeStatus::kTimeout));
  }
  analyzer_.upload(HostId{2}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  bool flagged = false;
  for (const auto& p : rep.problems) {
    if (p.category == ProblemCategory::kRnicProblem && p.rnic == RnicId{6}) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
  EXPECT_EQ(rep.timeouts_rnic, 6u);
}

TEST_F(AnalyzerTest, BelowThresholdRatioDoesNotFlag) {
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  // 5% timeouts: below the 10% bar.
  std::vector<ProbeRecord> recs;
  for (int i = 0; i < 38; ++i) {
    recs.push_back(make_record(RnicId{4}, RnicId{6}, ProbeStatus::kOk));
  }
  for (int i = 0; i < 2; ++i) {
    recs.push_back(make_record(RnicId{4}, RnicId{6}, ProbeStatus::kTimeout));
  }
  analyzer_.upload(HostId{2}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  for (const auto& p : rep.problems) {
    EXPECT_NE(p.category, ProblemCategory::kRnicProblem);
  }
  // The sub-threshold timeouts fall through to switch attribution.
  EXPECT_EQ(rep.timeouts_switch, 2u);
}

TEST_F(AnalyzerTest, GreedyAttributionClearsPollutedPeers) {
  heartbeat_all_hosts();
  // RNIC 0 is dead: probes TO it all fail, and probes FROM it fail too,
  // polluting peers 1, 2, 3 under the same ToR.
  std::vector<ProbeRecord> recs;
  const auto& group = topo_.rnics_under_tor(topo_.rnic(RnicId{0}).tor);
  ASSERT_EQ(group.size(), 4u);
  for (int round = 0; round < 10; ++round) {
    for (RnicId a : group) {
      for (RnicId b : group) {
        if (a == b) continue;
        const bool involves_dead = (a == RnicId{0}) || (b == RnicId{0});
        recs.push_back(make_record(
            a, b, involves_dead ? ProbeStatus::kTimeout : ProbeStatus::kOk));
      }
    }
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  std::size_t rnic_problems = 0;
  RnicId flagged;
  for (const auto& p : rep.problems) {
    if (p.category == ProblemCategory::kRnicProblem) {
      ++rnic_problems;
      flagged = p.rnic;
    }
  }
  EXPECT_EQ(rnic_problems, 1u) << "peers must not be blamed";
  EXPECT_EQ(flagged, RnicId{0});
  EXPECT_EQ(rep.timeouts_switch, 0u);
}

TEST_F(AnalyzerTest, MultiRnicSimultaneousTimeoutsAreCpuNoise) {
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  // Both RNICs of host 1 (RNICs 2 and 3) "drop" 30% simultaneously.
  std::vector<ProbeRecord> recs;
  for (RnicId victim : topo_.host(HostId{1}).rnics) {
    for (int i = 0; i < 14; ++i) {
      recs.push_back(make_record(RnicId{0}, victim, ProbeStatus::kOk));
    }
    for (int i = 0; i < 6; ++i) {
      recs.push_back(make_record(RnicId{0}, victim, ProbeStatus::kTimeout));
    }
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  EXPECT_GT(rep.timeouts_agent_cpu, 0u);
  EXPECT_EQ(rep.timeouts_rnic, 0u);
  bool noise = false;
  for (const auto& p : rep.problems) {
    EXPECT_NE(p.category, ProblemCategory::kRnicProblem);
    if (p.category == ProblemCategory::kAgentCpuNoise &&
        p.host == HostId{1}) {
      noise = true;
      EXPECT_EQ(p.priority, Priority::kNoise);
    }
  }
  EXPECT_TRUE(noise);
}

TEST_F(AnalyzerTest, StarvedResponderDelayIsCpuNoise) {
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  // Only ONE RNIC of the host shows timeouts (multi-RNIC filter does not
  // fire), but its completed probes show ~200 ms responder delays.
  std::vector<ProbeRecord> recs;
  for (int i = 0; i < 14; ++i) {
    ProbeRecord r = make_record(RnicId{0}, RnicId{2}, ProbeStatus::kOk);
    r.responder_delay = msec(200);
    recs.push_back(r);
  }
  for (int i = 0; i < 6; ++i) {
    recs.push_back(make_record(RnicId{0}, RnicId{2}, ProbeStatus::kTimeout));
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  for (const auto& p : rep.problems) {
    EXPECT_NE(p.category, ProblemCategory::kRnicProblem);
  }
  EXPECT_GT(rep.timeouts_agent_cpu, 0u);
}

TEST_F(AnalyzerTest, FiltersCanBeDisabled) {
  AnalyzerConfig cfg;
  cfg.enable_cpu_noise_filters = false;
  Analyzer no_filters(topo_, ctrl_, sched_, cfg);
  for (const topo::HostInfo& h : topo_.hosts()) no_filters.upload(h.id, {});
  std::vector<ProbeRecord> recs;
  for (RnicId victim : topo_.host(HostId{1}).rnics) {
    for (int i = 0; i < 14; ++i) {
      recs.push_back(make_record(RnicId{0}, victim, ProbeStatus::kOk));
    }
    for (int i = 0; i < 6; ++i) {
      recs.push_back(make_record(RnicId{0}, victim, ProbeStatus::kTimeout));
    }
  }
  no_filters.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = no_filters.analyze_now();
  // Without the Fig. 6 filters both RNICs are (wrongly) flagged.
  std::size_t rnic_problems = 0;
  for (const auto& p : rep.problems) {
    if (p.category == ProblemCategory::kRnicProblem) ++rnic_problems;
  }
  EXPECT_EQ(rnic_problems, 2u);
}

TEST_F(AnalyzerTest, Algorithm1FindsCommonLink) {
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  // Build timeout probes that all share one fabric link: same (src, dst,
  // port) repeated — deterministic ECMP gives one path.
  std::vector<ProbeRecord> recs;
  ProbeRecord proto =
      make_record(RnicId{0}, RnicId{12}, ProbeStatus::kTimeout,
                  ProbeKind::kInterTor);
  const LinkId common = proto.fwd_path.links[1];
  for (int i = 0; i < 10; ++i) {
    ProbeRecord r = proto;
    r.id = next_id_++;
    recs.push_back(r);
  }
  // Plus unrelated OK probes elsewhere.
  for (int i = 0; i < 50; ++i) {
    recs.push_back(make_record(RnicId{4}, RnicId{8}, ProbeStatus::kOk,
                               ProbeKind::kInterTor));
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  const Problem* sw = nullptr;
  for (const auto& p : rep.problems) {
    if (p.category == ProblemCategory::kSwitchNetworkProblem) sw = &p;
  }
  ASSERT_NE(sw, nullptr);
  bool found = false;
  for (LinkId l : sw->suspect_links) {
    if (l == common) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(sw->top_link_votes.empty());
  EXPECT_GE(sw->top_link_votes.front().second, 10u);
}

// ---- the shared Algorithm 1 voter (core/verdict.h) ----

ForeignTimeout foreign_path(std::vector<std::uint32_t> links,
                            std::vector<std::uint32_t> switches) {
  ForeignTimeout f;
  f.path_known = true;
  f.path_links = std::move(links);
  f.path_switches = std::move(switches);
  return f;
}

template <typename Evidence>
std::pair<Problem, obs::EvidenceChain> vote_over(
    const std::vector<Evidence>& evidence) {
  std::vector<const Evidence*> ev;
  for (const Evidence& e : evidence) ev.push_back(&e);
  std::pair<Problem, obs::EvidenceChain> out;
  vote(ev, out.first, out.second);
  return out;
}

void expect_same_vote(const std::pair<Problem, obs::EvidenceChain>& a,
                      const std::pair<Problem, obs::EvidenceChain>& b) {
  EXPECT_EQ(a.first.suspect_links, b.first.suspect_links);
  EXPECT_EQ(a.first.suspect_switches, b.first.suspect_switches);
  EXPECT_EQ(a.first.top_link_votes, b.first.top_link_votes);
  ASSERT_EQ(a.second.link_votes.size(), b.second.link_votes.size());
  for (std::size_t i = 0; i < a.second.link_votes.size(); ++i) {
    EXPECT_EQ(a.second.link_votes[i].id, b.second.link_votes[i].id);
    EXPECT_EQ(a.second.link_votes[i].votes, b.second.link_votes[i].votes);
  }
  ASSERT_EQ(a.second.switch_votes.size(), b.second.switch_votes.size());
  for (std::size_t i = 0; i < a.second.switch_votes.size(); ++i) {
    EXPECT_EQ(a.second.switch_votes[i].id, b.second.switch_votes[i].id);
    EXPECT_EQ(a.second.switch_votes[i].votes, b.second.switch_votes[i].votes);
  }
}

TEST(VoteTally, TiesReturnEveryWinnerSorted) {
  const auto [p, c] = vote_over(std::vector<ForeignTimeout>{
      foreign_path({7, 3, 9}, {2}), foreign_path({3, 7}, {1})});
  EXPECT_EQ(p.suspect_links, (std::vector<LinkId>{LinkId{3}, LinkId{7}}));
  EXPECT_EQ(p.suspect_switches,
            (std::vector<SwitchId>{SwitchId{1}, SwitchId{2}}));
  ASSERT_EQ(p.top_link_votes.size(), 3u);
  EXPECT_EQ(p.top_link_votes[0], std::make_pair(LinkId{3}, std::size_t{2}));
  EXPECT_EQ(p.top_link_votes[1], std::make_pair(LinkId{7}, std::size_t{2}));
  EXPECT_EQ(p.top_link_votes[2], std::make_pair(LinkId{9}, std::size_t{1}));
  ASSERT_EQ(c.switch_votes.size(), 2u);
  EXPECT_EQ(c.switch_votes[0].id, 1u);
  EXPECT_EQ(c.switch_votes[1].id, 2u);
}

TEST_F(AnalyzerTest, VoteSkipsUnknownPathsAndEmptyInput) {
  ProbeRecord r = make_record(RnicId{0}, RnicId{12}, ProbeStatus::kTimeout,
                              ProbeKind::kInterTor);
  r.path_known = false;
  ForeignTimeout f = ForeignTimeout::from(r, topo_.rnic(r.target).host);
  EXPECT_TRUE(f.path_links.empty());
  f.path_links = {1, 2};  // a stray path with the flag off still abstains
  for (const auto& [p, c] :
       {vote_over(std::vector<ProbeRecord>{r, r}),
        vote_over(std::vector<ForeignTimeout>{f}),
        vote_over(std::vector<ProbeRecord>{})}) {
    EXPECT_TRUE(p.suspect_links.empty());
    EXPECT_TRUE(p.suspect_switches.empty());
    EXPECT_TRUE(p.top_link_votes.empty());
    EXPECT_TRUE(c.link_votes.empty());
    EXPECT_TRUE(c.switch_votes.empty());
  }
}

TEST(VoteTally, TopTenAndTallyCapOrderByVotesThenId) {
  // 80 links and 80 switches; id i gets (i % 4) + 1 votes.
  std::vector<ForeignTimeout> ev;
  std::vector<obs::VoteCount> want;
  for (std::uint32_t i = 0; i < 80; ++i) {
    const std::size_t votes = i % 4 + 1;
    for (std::size_t k = 0; k < votes; ++k) ev.push_back(foreign_path({i}, {i}));
    want.push_back({i, votes});
  }
  std::sort(want.begin(), want.end(),
            [](const obs::VoteCount& a, const obs::VoteCount& b) {
              if (a.votes != b.votes) return a.votes > b.votes;
              return a.id < b.id;
            });
  const auto [p, c] = vote_over(ev);
  ASSERT_EQ(p.top_link_votes.size(), VoteTally::kTopLinks);
  for (std::size_t i = 0; i < VoteTally::kTopLinks; ++i) {
    EXPECT_EQ(p.top_link_votes[i].first, LinkId{want[i].id});
    EXPECT_EQ(p.top_link_votes[i].second, want[i].votes);
  }
  ASSERT_EQ(c.link_votes.size(), VoteTally::kTallyCap);
  ASSERT_EQ(c.switch_votes.size(), VoteTally::kTallyCap);
  for (std::size_t i = 0; i < VoteTally::kTallyCap; ++i) {
    EXPECT_EQ(c.link_votes[i].id, want[i].id);
    EXPECT_EQ(c.link_votes[i].votes, want[i].votes);
    EXPECT_EQ(c.switch_votes[i].id, want[i].id);
  }
  // Winners: all 20 ids holding 4 votes, ascending.
  ASSERT_EQ(p.suspect_links.size(), 20u);
  EXPECT_EQ(p.suspect_links.front(), LinkId{3});
  EXPECT_EQ(p.suspect_links.back(), LinkId{79});
}

TEST_F(AnalyzerTest, RecordsAndForeignTimeoutsVoteIdentically) {
  std::vector<ProbeRecord> recs;
  std::vector<ForeignTimeout> foreign;
  for (const auto& [a, b] : {std::pair{0u, 12u}, std::pair{2u, 9u},
                             std::pair{5u, 14u}, std::pair{0u, 12u}}) {
    recs.push_back(make_record(RnicId{a}, RnicId{b}, ProbeStatus::kTimeout,
                               ProbeKind::kInterTor));
    foreign.push_back(ForeignTimeout::from(recs.back(),
                                           topo_.rnic(RnicId{b}).host));
  }
  const auto from_records = vote_over(recs);
  EXPECT_FALSE(from_records.first.suspect_links.empty());
  expect_same_vote(from_records, vote_over(foreign));
}

TEST_F(AnalyzerTest, UnionOfChainTalliesEqualsVoteOverUnionEvidence) {
  std::vector<ProbeRecord> a;
  std::vector<ProbeRecord> b;
  for (std::uint32_t i = 0; i < 6; ++i) {
    a.push_back(make_record(RnicId{i}, RnicId{15 - i}, ProbeStatus::kTimeout,
                            ProbeKind::kInterTor));
    b.push_back(make_record(RnicId{i + 2}, RnicId{12 - i},
                            ProbeStatus::kTimeout, ProbeKind::kInterTor));
  }
  const auto va = vote_over(a);
  const auto vb = vote_over(b);
  ASSERT_LT(va.second.link_votes.size(), VoteTally::kTallyCap);
  ASSERT_LT(vb.second.link_votes.size(), VoteTally::kTallyCap);
  ASSERT_LT(va.second.switch_votes.size(), VoteTally::kTallyCap);
  ASSERT_LT(vb.second.switch_votes.size(), VoteTally::kTallyCap);
  VoteTally merged;
  merged.add(va.second);
  merged.add(vb.second);
  std::pair<Problem, obs::EvidenceChain> from_chains;
  merged.vote(from_chains.first, from_chains.second);

  std::vector<ProbeRecord> both = a;
  both.insert(both.end(), b.begin(), b.end());
  expect_same_vote(from_chains, vote_over(both));
}

TEST_F(AnalyzerTest, RnicBlameWindowPersistsAcrossPeriods) {
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  // Period 1: RNIC 6 anomalous.
  std::vector<ProbeRecord> recs;
  for (int i = 0; i < 20; ++i) {
    recs.push_back(make_record(RnicId{4}, RnicId{6}, ProbeStatus::kTimeout));
  }
  analyzer_.upload(HostId{2}, std::move(recs));
  sched_.run_until(sec(20));
  analyzer_.analyze_now();
  // Period 2 (within the 60 s blame window): sparse timeouts to RNIC 6 must
  // still be attributed to the RNIC, not to switches.
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  recs.clear();
  recs.push_back(make_record(RnicId{4}, RnicId{6}, ProbeStatus::kTimeout,
                             ProbeKind::kInterTor));
  recs.push_back(make_record(RnicId{4}, RnicId{6}, ProbeStatus::kTimeout,
                             ProbeKind::kInterTor));
  analyzer_.upload(HostId{2}, std::move(recs));
  sched_.run_until(sec(40));
  const PeriodReport& rep = analyzer_.analyze_now();
  EXPECT_EQ(rep.timeouts_rnic, 2u);
  EXPECT_EQ(rep.timeouts_switch, 0u);
}

TEST_F(AnalyzerTest, SlaSplitsRnicAndSwitchDropRates) {
  heartbeat_all_hosts();
  upload_healthy_tormesh(10);  // 160 OK probes
  std::vector<ProbeRecord> recs;
  // An anomalous RNIC (20 timeouts)...
  for (int i = 0; i < 20; ++i) {
    recs.push_back(make_record(RnicId{4}, RnicId{6}, ProbeStatus::kTimeout));
  }
  // ...and a switch problem (10 timeouts on one inter-ToR tuple).
  ProbeRecord proto = make_record(RnicId{0}, RnicId{12},
                                  ProbeStatus::kTimeout, ProbeKind::kInterTor);
  for (int i = 0; i < 10; ++i) {
    ProbeRecord r = proto;
    r.id = next_id_++;
    recs.push_back(r);
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  const auto& sla = rep.cluster_sla;
  EXPECT_EQ(sla.probes, 160u + 30u);
  EXPECT_EQ(sla.timeouts, 30u);
  EXPECT_NEAR(sla.rnic_drop_rate, 20.0 / 190.0, 1e-9);
  EXPECT_NEAR(sla.switch_drop_rate, 10.0 / 190.0, 1e-9);
  EXPECT_GT(sla.rtt_p50, 0.0);
}

TEST_F(AnalyzerTest, ServiceImpactPriorities) {
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  // A degraded service whose tracing sees switch timeouts -> P0.
  double metric = 0.2;  // below the 0.5 threshold
  analyzer_.register_service({ServiceId{9}, [&metric] { return metric; }});
  std::vector<ProbeRecord> recs;
  ProbeRecord proto = make_record(RnicId{0}, RnicId{12},
                                  ProbeStatus::kTimeout,
                                  ProbeKind::kServiceTracing);
  proto.service = ServiceId{9};
  for (int i = 0; i < 10; ++i) {
    ProbeRecord r = proto;
    r.id = next_id_++;
    recs.push_back(r);
  }
  // Plus OK service probes so the service network is known.
  for (int i = 0; i < 50; ++i) {
    ProbeRecord r = make_record(RnicId{0}, RnicId{12}, ProbeStatus::kOk,
                                ProbeKind::kServiceTracing);
    r.service = ServiceId{9};
    recs.push_back(r);
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  const Problem* sw = nullptr;
  for (const auto& p : rep.problems) {
    if (p.category == ProblemCategory::kSwitchNetworkProblem) sw = &p;
  }
  ASSERT_NE(sw, nullptr);
  EXPECT_TRUE(sw->detected_by_service_tracing);
  EXPECT_TRUE(sw->in_service_network);
  EXPECT_EQ(sw->priority, Priority::kP0);
  EXPECT_FALSE(analyzer_.network_innocent(ServiceId{9}));
  // A healthy metric downgrades the same evidence to P1.
  metric = 0.9;
  heartbeat_all_hosts();
  recs.clear();
  for (int i = 0; i < 10; ++i) {
    ProbeRecord r = proto;
    r.id = next_id_++;
    recs.push_back(r);
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep2 = analyzer_.analyze_now();
  for (const auto& p : rep2.problems) {
    if (p.category == ProblemCategory::kSwitchNetworkProblem) {
      EXPECT_EQ(p.priority, Priority::kP1);
    }
  }
}

TEST_F(AnalyzerTest, NetworkInnocentWhenNoServiceProblems) {
  analyzer_.register_service({ServiceId{9}, [] { return 0.1; }});
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  analyzer_.analyze_now();
  // Service degraded but no P0/P1: the network is innocent.
  EXPECT_TRUE(analyzer_.network_innocent(ServiceId{9}));
}

TEST_F(AnalyzerTest, HighProcessingDelayProblem) {
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  std::vector<ProbeRecord> recs;
  for (int i = 0; i < 20; ++i) {
    ProbeRecord r = make_record(RnicId{0}, RnicId{4}, ProbeStatus::kOk);
    r.responder_delay = msec(20);  // way above the 5 ms threshold
    recs.push_back(r);
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  const Problem* p = nullptr;
  for (const auto& prob : rep.problems) {
    if (prob.category == ProblemCategory::kHighProcessingDelay) p = &prob;
  }
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->host, topo_.rnic(RnicId{4}).host);
}

TEST_F(AnalyzerTest, HistoryBounded) {
  AnalyzerConfig cfg;
  cfg.history_limit = 3;
  Analyzer a(topo_, ctrl_, sched_, cfg);
  for (int i = 0; i < 10; ++i) a.analyze_now();
  EXPECT_EQ(a.history().size(), 3u);
}

TEST_F(AnalyzerTest, RecordTapSeesEveryUpload) {
  int taps = 0;
  analyzer_.set_record_tap([&](const ProbeRecord&) { ++taps; });
  std::vector<ProbeRecord> recs;
  recs.push_back(make_record(RnicId{0}, RnicId{1}, ProbeStatus::kOk));
  recs.push_back(make_record(RnicId{0}, RnicId{2}, ProbeStatus::kOk));
  analyzer_.upload(HostId{0}, std::move(recs));
  EXPECT_EQ(taps, 2);
}

TEST_F(AnalyzerTest, ShardedIngestMergesEveryHostsRecords) {
  // Records spread across all ingest buckets must all reach the same
  // period report, independent of the shard count.
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    AnalyzerConfig cfg;
    cfg.ingest.shards = shards;
    Analyzer a(topo_, ctrl_, sched_, cfg);
    std::size_t total = 0;
    std::uint64_t seq = 1;
    for (const topo::HostInfo& h : topo_.hosts()) {
      UploadBatch b;
      b.host = h.id;
      b.seq = seq++;
      for (int i = 0; i < 5; ++i) {
        b.records.push_back(
            make_record(h.rnics[0], h.rnics[1], ProbeStatus::kOk));
      }
      total += b.records.size();
      a.sink().submit(std::move(b));
    }
    const PeriodReport& rep = a.analyze_now();
    EXPECT_EQ(rep.records_processed, total) << "shards=" << shards;
  }
}

TEST_F(AnalyzerTest, DuplicateBatchesAreSuppressed) {
  // An at-least-once transport redelivers batches; the same (host, seq)
  // must count once no matter how often it arrives.
  UploadBatch b;
  b.host = HostId{0};
  b.seq = 7;
  b.records.push_back(make_record(RnicId{0}, RnicId{1}, ProbeStatus::kOk));
  b.records.push_back(make_record(RnicId{0}, RnicId{2}, ProbeStatus::kOk));

  analyzer_.sink().submit(UploadBatch(b));
  analyzer_.sink().submit(UploadBatch(b));  // retransmit duplicate
  analyzer_.sink().submit(UploadBatch(b));

  // A distinct sequence number from the same host is new data.
  UploadBatch b2 = b;
  b2.seq = 8;
  analyzer_.sink().submit(std::move(b2));

  const PeriodReport& rep = analyzer_.analyze_now();
  EXPECT_EQ(rep.records_processed, 4u);  // 2 + 2, duplicates dropped
}

TEST_F(AnalyzerTest, StaleBatchBehindDedupWindowIsDropped) {
  AnalyzerConfig cfg;
  cfg.ingest.dedup_window = 4;
  Analyzer a(topo_, ctrl_, sched_, cfg);
  auto batch = [&](std::uint64_t seq) {
    UploadBatch b;
    b.host = HostId{0};
    b.seq = seq;
    b.records.push_back(make_record(RnicId{0}, RnicId{1}, ProbeStatus::kOk));
    return b;
  };
  a.sink().submit(batch(100));
  a.sink().submit(batch(101));
  // Far behind the window: can only be an ancient retransmit.
  a.sink().submit(batch(10));
  const PeriodReport& rep = a.analyze_now();
  EXPECT_EQ(rep.records_processed, 2u);
}

TEST_F(AnalyzerTest, DuplicateBatchStillProvesHostLiveness) {
  // Host 0 keeps resending one batch (its acks are being lost). It must not
  // be declared down: duplicates still prove the Agent is alive.
  UploadBatch b;
  b.host = HostId{0};
  b.seq = 1;
  analyzer_.sink().submit(UploadBatch(b));
  sched_.run_until(sec(30));  // beyond the 20 s silence threshold
  for (const topo::HostInfo& h : topo_.hosts()) {
    if (h.id != HostId{0}) analyzer_.upload(h.id, {});
  }
  analyzer_.sink().submit(UploadBatch(b));  // duplicate, fresh timestamp
  const PeriodReport& rep = analyzer_.analyze_now();
  for (const auto& p : rep.problems) {
    EXPECT_FALSE(p.category == ProblemCategory::kHostDown &&
                 p.host == HostId{0});
  }
}

TEST_F(AnalyzerTest, RetriedBatchLeavesVoteTallyUnchanged) {
  // An at-least-once transport — and the Agent's own requeue of expired
  // batches, which reuses the original sequence number — can deliver the
  // same (host, seq) batch several times. Algorithm 1's vote tally and the
  // evidence chain behind the switch verdict must count each probe once.
  std::vector<ProbeRecord> healthy;
  for (int i = 0; i < 50; ++i) {
    healthy.push_back(make_record(RnicId{4}, RnicId{8}, ProbeStatus::kOk,
                                  ProbeKind::kInterTor));
  }
  UploadBatch b;
  b.host = HostId{0};
  b.seq = 42;
  const ProbeRecord proto = make_record(RnicId{0}, RnicId{12},
                                        ProbeStatus::kTimeout,
                                        ProbeKind::kInterTor);
  for (int i = 0; i < 10; ++i) {
    ProbeRecord r = proto;
    r.id = next_id_++;
    b.records.push_back(r);
  }

  struct Outcome {
    std::size_t records = 0;
    std::size_t top_votes = 0;
    std::string chain_json;
  };
  const auto run = [&](int deliveries) {
    Analyzer a(topo_, ctrl_, sched_);
    for (const topo::HostInfo& h : topo_.hosts()) a.upload(h.id, {});
    a.upload(HostId{0}, healthy);
    for (int i = 0; i < deliveries; ++i) a.sink().submit(UploadBatch(b));
    const PeriodReport& rep = a.analyze_now();
    const Problem* sw = nullptr;
    for (const Problem& p : rep.problems) {
      if (p.category == ProblemCategory::kSwitchNetworkProblem) sw = &p;
    }
    Outcome out;
    out.records = rep.records_processed;
    if (sw != nullptr) {
      out.top_votes = sw->top_link_votes.empty()
                          ? 0
                          : sw->top_link_votes.front().second;
      if (const obs::EvidenceChain* c = a.evidence(sw->evidence)) {
        out.chain_json = obs::to_json(*c);
      }
    }
    return out;
  };

  const Outcome once = run(1);
  const Outcome thrice = run(3);
  EXPECT_EQ(once.records, 60u);
  EXPECT_EQ(thrice.records, once.records);
  // Exactly the 10 distinct timeout probes vote — never 30.
  EXPECT_EQ(once.top_votes, 10u);
  EXPECT_EQ(thrice.top_votes, once.top_votes);
  // Byte-identical receipts: probe ids, tallies, thresholds all unchanged.
  ASSERT_FALSE(once.chain_json.empty());
  EXPECT_EQ(thrice.chain_json, once.chain_json);
}

TEST_F(AnalyzerTest, SpillDrainedBatchesLeaveVoteTallyUnchanged) {
  // During an Analyzer outage the Agent parks fully-retried batches in its
  // spill ring and drains them on reconnect — out of order relative to the
  // wire, possibly duplicated by the at-least-once transport, and landing
  // in a later analysis period than they would have. Summed across periods,
  // the (host, seq) dedup and period bucketing must absorb that late
  // history without double-counting a single Algorithm-1 vote.
  const auto make_batch = [&](std::uint64_t seq) {
    UploadBatch b;
    b.host = HostId{0};
    b.seq = seq;
    for (int i = 0; i < 5; ++i) {
      b.records.push_back(make_record(RnicId{0}, RnicId{12},
                                      ProbeStatus::kTimeout,
                                      ProbeKind::kInterTor));
    }
    return b;
  };
  const UploadBatch b1 = make_batch(1);
  const UploadBatch b2 = make_batch(2);
  const UploadBatch b3 = make_batch(3);
  const UploadBatch b4 = make_batch(4);

  std::vector<ProbeRecord> healthy;
  for (int i = 0; i < 50; ++i) {
    healthy.push_back(make_record(RnicId{4}, RnicId{8}, ProbeStatus::kOk,
                                  ProbeKind::kInterTor));
  }

  struct Tally {
    std::size_t records = 0;
    std::size_t votes = 0;
  };
  const auto tally_period = [](Analyzer& a, Tally& t) {
    const PeriodReport& rep = a.analyze_now();
    t.records += rep.records_processed;
    for (const Problem& p : rep.problems) {
      if (p.category == ProblemCategory::kSwitchNetworkProblem &&
          !p.top_link_votes.empty()) {
        t.votes += p.top_link_votes.front().second;
      }
    }
  };
  const auto feed = [&](Analyzer& a) {
    for (const topo::HostInfo& h : topo_.hosts()) a.upload(h.id, {});
    a.upload(HostId{0}, healthy);
  };

  // Baseline: all four batches arrive in order inside one period.
  Analyzer in_order(topo_, ctrl_, sched_);
  Tally baseline;
  feed(in_order);
  for (const UploadBatch* b : {&b1, &b2, &b3, &b4}) {
    in_order.sink().submit(UploadBatch(*b));
  }
  tally_period(in_order, baseline);
  EXPECT_EQ(baseline.records, 70u);
  EXPECT_EQ(baseline.votes, 20u);  // 4 batches x 5 distinct timeout probes

  // Outage replay: batch 1 lands normally; the period closes; then the
  // spill ring drains 3, 2, a transport-duplicated 2, and 4 into the next
  // period.
  Analyzer replay(topo_, ctrl_, sched_);
  Tally late;
  feed(replay);
  replay.sink().submit(UploadBatch(b1));
  tally_period(replay, late);
  feed(replay);
  for (const UploadBatch* b : {&b3, &b2, &b2, &b4}) {
    replay.sink().submit(UploadBatch(*b));
  }
  tally_period(replay, late);

  // The healthy background was fed twice (once per period); discount it.
  EXPECT_EQ(late.records - healthy.size(), baseline.records);
  EXPECT_EQ(late.votes, baseline.votes);
}

TEST_F(AnalyzerTest, ConfigValidation) {
  AnalyzerConfig bad;
  bad.period = 0;
  EXPECT_THROW(Analyzer(topo_, ctrl_, sched_, bad), std::invalid_argument);
  EXPECT_THROW(analyzer_.register_service({ServiceId{1}, nullptr}),
               std::invalid_argument);

  // IngestConfig::validate rejects nonsense instead of silently clamping.
  AnalyzerConfig zero_shards;
  zero_shards.ingest.shards = 0;
  EXPECT_THROW(Analyzer(topo_, ctrl_, sched_, zero_shards),
               std::invalid_argument);
  AnalyzerConfig too_many_threads;
  too_many_threads.ingest.shards = 2;
  too_many_threads.ingest.threads = 3;
  EXPECT_THROW(Analyzer(topo_, ctrl_, sched_, too_many_threads),
               std::invalid_argument);
  AnalyzerConfig no_queue;
  no_queue.ingest.threads = 1;
  no_queue.ingest.queue_capacity = 0;
  EXPECT_THROW(Analyzer(topo_, ctrl_, sched_, no_queue),
               std::invalid_argument);
  AnalyzerConfig no_window;
  no_window.ingest.dedup_window = 0;
  EXPECT_THROW(Analyzer(topo_, ctrl_, sched_, no_window),
               std::invalid_argument);
  // A window sizes a per-host bitmap: above the stated maximum is rejected,
  // not allocated.
  AnalyzerConfig too_wide;
  too_wide.ingest.dedup_window = kMaxSeqWindow + 1;
  EXPECT_THROW(Analyzer(topo_, ctrl_, sched_, too_wide),
               std::invalid_argument);
  AnalyzerConfig widest;
  widest.ingest.dedup_window = kMaxSeqWindow;
  EXPECT_NO_THROW(Analyzer(topo_, ctrl_, sched_, widest));

  // A sane worker-pool config constructs (and joins its threads) cleanly.
  AnalyzerConfig pool;
  pool.ingest.threads = 2;
  EXPECT_NO_THROW(Analyzer(topo_, ctrl_, sched_, pool));
}

TEST_F(AnalyzerTest, SinkSubmitIsTheIngestSurface) {
  // The deprecated ingest_batch shim is gone; sink().submit() is the one
  // ingest surface.
  UploadBatch b;
  b.host = HostId{0};
  b.seq = 1;
  b.records.push_back(make_record(RnicId{0}, RnicId{1}, ProbeStatus::kOk));
  analyzer_.sink().submit(std::move(b));
  EXPECT_EQ(analyzer_.analyze_now().records_processed, 1u);
}

TEST_F(AnalyzerTest, WorkerPoolVerdictsMatchInlineForAnyThreadCount) {
  // Determinism property: the same uploads produce byte-identical verdicts,
  // SLA tables, diagnosis JSON and checkpoint bytes whether ingestion ran
  // inline (threads = 0) or on a 1-, 2- or 4-thread worker pool, period
  // after period. Per-shard FIFO queues + single-consumer shards + a
  // shard-index-order view make the analyzed record sequence identical to
  // the inline path's. The view is released after every close, so period
  // k's records never reappear in period k + 1, and records a period hook
  // submits open the next period.
  constexpr int kPeriods = 3;
  constexpr std::uint64_t kIdsPerPeriod = 1'000'000;
  constexpr std::size_t kRecordsPerPeriod = 30 + 10 + 8;

  // Build every period's uploads once; each run replays copies. Period p's
  // record ids lie in (p * kIdsPerPeriod, (p + 1) * kIdsPerPeriod).
  std::vector<std::vector<UploadBatch>> periods(kPeriods);
  std::uint64_t seq = 1;
  for (int p = 0; p < kPeriods; ++p) {
    std::uint64_t id = static_cast<std::uint64_t>(p) * kIdsPerPeriod + 1;
    const auto add = [&](UploadBatch& b, ProbeRecord r) {
      r.id = id++;
      b.records.push_back(r);
    };
    std::vector<UploadBatch>& batches = periods[p];
    for (const topo::HostInfo& h : topo_.hosts()) {  // liveness heartbeats
      UploadBatch b;
      b.host = h.id;
      b.seq = seq++;
      batches.push_back(std::move(b));
    }
    UploadBatch healthy;  // ToR-mesh background with denominators
    healthy.host = HostId{0};
    healthy.seq = seq++;
    for (int i = 0; i < 30; ++i) {
      add(healthy, make_record(RnicId{4}, RnicId{8}, ProbeStatus::kOk,
                               ProbeKind::kInterTor));
    }
    batches.push_back(std::move(healthy));
    UploadBatch timeouts;  // a switch problem: common-path timeouts
    timeouts.host = HostId{1};
    timeouts.seq = seq++;
    for (int i = 0; i < 10; ++i) {
      add(timeouts, make_record(RnicId{2}, RnicId{12}, ProbeStatus::kTimeout,
                                ProbeKind::kInterTor));
    }
    batches.push_back(std::move(timeouts));
    UploadBatch hot;  // congestion: sustained high RTT
    hot.host = HostId{2};
    hot.seq = seq++;
    for (int i = 0; i < 8; ++i) {
      ProbeRecord r = make_record(RnicId{5}, RnicId{9}, ProbeStatus::kOk,
                                  ProbeKind::kInterTor);
      r.network_rtt = msec(2);
      add(hot, r);
    }
    batches.push_back(std::move(hot));
  }
  // What the period hook submits after closing period p: one record with
  // the next period's first id, a seq no period uses.
  ProbeRecord late_proto =
      make_record(RnicId{6}, RnicId{10}, ProbeStatus::kOk);

  const auto digest = [&](std::size_t threads) {
    AnalyzerConfig cfg;
    cfg.ingest.threads = threads;
    sim::InlineScheduler sched;
    StateJournal journal;
    Analyzer a(topo_, ctrl_, sched, cfg);
    a.attach_journal(&journal, "analyzer");
    EXPECT_EQ(a.sink().num_threads(), threads);
    int period = 0;
    a.set_period_hook([&](const PeriodReport&, const obs::DiagnosisLog&) {
      if (period + 1 == kPeriods) return;
      UploadBatch late;
      late.host = HostId{3};
      late.seq = seq + static_cast<std::uint64_t>(period);
      late.records.push_back(late_proto);
      late.records.back().id =
          static_cast<std::uint64_t>(period + 1) * kIdsPerPeriod;
      a.sink().submit(std::move(late));
    });
    std::ostringstream os;
    for (period = 0; period < kPeriods; ++period) {
      for (const UploadBatch& b : periods[period]) {
        a.sink().submit(UploadBatch(b));
        a.sink().submit(UploadBatch(b));  // at-least-once duplicate
      }
      sched.run_until(sec(5) * (period + 1));
      const PeriodReport& rep = a.analyze_now();
      // Exactly this period's records, plus the hook's late one after the
      // first close.
      EXPECT_EQ(rep.records_processed,
                kRecordsPerPeriod + (period > 0 ? 1u : 0u))
          << "period " << period << " threads " << threads;
      const std::uint64_t lo = static_cast<std::uint64_t>(period) *
                               kIdsPerPeriod;
      std::size_t evidence_ids = 0;
      for (const obs::EvidenceChain& c : a.last_diagnosis()->chains) {
        for (std::uint64_t id : c.probe_ids) {
          EXPECT_GE(id, lo) << "period " << period << " threads " << threads;
          EXPECT_LT(id, lo + kIdsPerPeriod);
          ++evidence_ids;
        }
      }
      EXPECT_GT(evidence_ids, 0u);
      os << rep.records_processed << '|' << rep.timeouts_switch << '|'
         << rep.timeouts_rnic << '|' << rep.timeouts_host_down << '|'
         << rep.cluster_sla.probes << '|' << rep.cluster_sla.timeouts << '|'
         << rep.cluster_sla.rtt_p50 << '|' << rep.cluster_sla.rtt_p99 << '|'
         << rep.cluster_sla.switch_drop_rate << '\n';
      for (const Problem& p : rep.problems) {
        os << static_cast<int>(p.category) << ':'
           << static_cast<int>(p.priority) << ':' << p.summary;
        for (LinkId l : p.suspect_links) os << ':' << l.value;
        os << '\n';
      }
      os << obs::to_json(*a.last_diagnosis()) << '\n';
      const std::optional<AnalyzerCheckpoint> cp =
          journal.load_checkpoint("analyzer");
      EXPECT_TRUE(cp.has_value());
      if (cp.has_value()) {
        std::vector<std::uint8_t> bytes;
        encode_checkpoint(*cp, bytes);
        for (std::uint8_t byte : bytes) os << static_cast<int>(byte) << ',';
        os << '\n';
      }
    }
    return os.str();
  };

  const std::string inline_digest = digest(0);
  EXPECT_GT(inline_digest.size(), 100u);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    EXPECT_EQ(digest(threads), inline_digest) << "threads " << threads;
  }
}

TEST(JournalDedupWindows, OutOfOrderOrFutureSeqsAreCorrupt) {
  // A restored window is a ring over [max_seq - window, max_seq]: a seen
  // list that is not strictly ascending, or holds a seq above max_seq,
  // would alias onto a live slot. Decode rejects it through the corrupt-
  // checkpoint path (nullopt + rpm_journal_corrupt_total), never a throw.
  const auto corrupt_metric = [] {
    return telemetry::registry().snapshot().sum("rpm_journal_corrupt_total");
  };
  const auto loads = [](const AnalyzerCheckpoint& cp) {
    StateJournal journal;
    journal.save_checkpoint("analyzer", cp);
    const bool ok = journal.load_checkpoint("analyzer").has_value();
    EXPECT_EQ(journal.corrupt_total(), ok ? 0u : 1u);
    return ok;
  };
  const double before = corrupt_metric();

  AnalyzerCheckpoint good;
  good.ingest.hosts = {{0, 10, {3, 9, 10}}};
  good.digest_dedup.hosts = {{1, 5, {4, 5}}};
  EXPECT_TRUE(loads(good));

  AnalyzerCheckpoint descending = good;
  descending.ingest.hosts[0].seen = {9, 8};
  EXPECT_FALSE(loads(descending));
  AnalyzerCheckpoint repeated = good;
  repeated.ingest.hosts[0].seen = {9, 9};
  EXPECT_FALSE(loads(repeated));
  AnalyzerCheckpoint future = good;
  future.ingest.hosts[0].seen = {9, 11};
  EXPECT_FALSE(loads(future));
  AnalyzerCheckpoint future_digest = good;
  future_digest.digest_dedup.hosts[0].seen = {6};
  EXPECT_FALSE(loads(future_digest));

  EXPECT_DOUBLE_EQ(corrupt_metric() - before, 4.0);
}

TEST(JournalDedupWindows, HostileCountsAreCorrupt) {
  // A checkpoint whose CRC is valid but whose element counts claim more
  // elements than the buffer holds must decode as corrupt (nullopt +
  // rpm_journal_corrupt_total), not throw std::length_error or
  // std::bad_alloc from a reserve() of the claimed size.
  const auto crc32 = [](const std::vector<std::uint8_t>& b, std::size_t n) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      crc ^= b[i];
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };
  const auto corrupt_metric = [] {
    return telemetry::registry().snapshot().sum("rpm_journal_corrupt_total");
  };
  AnalyzerCheckpoint cp;
  cp.last_upload = {{1, sec(1)}};
  cp.known_hosts = {1, 2};
  cp.ingest.hosts = {{0, 10, {9, 10}}};
  std::vector<std::uint8_t> good;
  encode_checkpoint(cp, good);
  const std::size_t payload = good.size() - 4;
  // Count offsets in the encoding: last_upload after three u64 fields,
  // known_hosts after one 12-byte (id, time) entry, ingest.hosts after two
  // u32 hosts and two empty id-time lists, and that window's seen count
  // after its host and max_seq.
  const std::size_t last_upload = 24;
  const std::size_t known_hosts = last_upload + 8 + 12;
  const std::size_t ingest_hosts = known_hosts + 8 + 8 + 8 + 8;
  const std::size_t seen = ingest_hosts + 8 + 4 + 8;

  const double before = corrupt_metric();
  for (const std::size_t at : {last_upload, known_hosts, ingest_hosts, seen}) {
    for (const std::uint64_t count :
         {std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
      std::vector<std::uint8_t> forged = good;
      for (std::size_t i = 0; i < 8; ++i) {
        forged[at + i] = static_cast<std::uint8_t>(count >> (8 * i));
      }
      const std::uint32_t crc = crc32(forged, payload);
      for (std::size_t i = 0; i < 4; ++i) {
        forged[payload + i] = static_cast<std::uint8_t>(crc >> (8 * i));
      }
      // The journal holds the good encoding; flip exactly the bits that
      // differ from the forged one.
      StateJournal journal;
      journal.save_checkpoint("analyzer", cp);
      ASSERT_EQ(journal.checkpoint_bytes("analyzer"), good.size());
      for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
        const std::uint8_t mask = static_cast<std::uint8_t>(1u << (bit % 8));
        if ((good[bit / 8] & mask) != (forged[bit / 8] & mask)) {
          journal.corrupt_checkpoint("analyzer", bit);
        }
      }
      EXPECT_FALSE(journal.load_checkpoint("analyzer").has_value())
          << "count " << count << " at " << at;
      EXPECT_EQ(journal.corrupt_total(), 1u);
    }
  }
  EXPECT_DOUBLE_EQ(corrupt_metric() - before, 8.0);
}

TEST_F(AnalyzerTest, RestoredWindowSkipsSeqsBelowTheWindow) {
  // Window 4 over max_seq 10 is [6, 10]. The journaled seq 3 is already out
  // of it; restored into the ring it would alias onto seq 8's slot and drop
  // a fresh batch 8 as a duplicate.
  AnalyzerConfig cfg;
  cfg.ingest.dedup_window = 4;
  for (const std::size_t threads : {0u, 2u}) {
    cfg.ingest.threads = threads;
    StateJournal journal;
    AnalyzerCheckpoint cp;
    cp.ingest.hosts = {{0, 10, {3, 9, 10}}};
    journal.save_checkpoint("analyzer", cp);
    Analyzer a(topo_, ctrl_, sched_, cfg);
    a.attach_journal(&journal, "analyzer");
    a.crash();
    ASSERT_TRUE(a.restore_from_journal());
    const auto batch = [&](std::uint64_t seq) {
      UploadBatch b;
      b.host = HostId{0};
      b.seq = seq;
      b.records.push_back(make_record(RnicId{0}, RnicId{1}, ProbeStatus::kOk));
      return b;
    };
    a.sink().submit(batch(8));   // fresh, inside the window
    a.sink().submit(batch(9));   // journaled: duplicate
    a.sink().submit(batch(3));   // below the window: too old
    a.sink().submit(batch(11));  // fresh, new maximum
    EXPECT_EQ(a.analyze_now().records_processed, 2u) << "threads " << threads;
  }
}

TEST(IngestSinkTest, QueueFullDropsOldestAndCountsIt) {
  // Bounded per-shard queues shed load by dropping the OLDEST queued batch,
  // counted in rpm_analyzer_ingest_dropped_total. Workers are parked via the
  // test hook so the overflow is deterministic.
  IngestConfig cfg;
  cfg.shards = 2;
  cfg.threads = 2;
  cfg.queue_capacity = 4;
  auto sink = make_ingest_sink(cfg, {});
  sink->stall_workers_for_test(true);

  const double dropped_before =
      telemetry::registry().snapshot().sum("rpm_analyzer_ingest_dropped_total");
  for (std::uint64_t s = 1; s <= 10; ++s) {  // host 0 -> shard 0, capacity 4
    UploadBatch b;
    b.host = HostId{0};
    b.seq = s;
    ProbeRecord r;
    r.id = s;
    b.records.push_back(r);
    sink->submit(std::move(b));
  }
  const double dropped_after =
      telemetry::registry().snapshot().sum("rpm_analyzer_ingest_dropped_total");
  EXPECT_DOUBLE_EQ(dropped_after - dropped_before, 6.0);

  // Drain processes what survived: the four NEWEST batches, in order.
  const PeriodView& records = sink->drain_period();
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i]->id, 7u + i);
  }

  // Unstall + a fresh submit: the pool processes it normally again. It lands
  // in the drained shard's bucket after the drain, so the release keeps it.
  sink->stall_workers_for_test(false);
  UploadBatch fresh;
  fresh.host = HostId{0};
  fresh.seq = 11;
  fresh.records.emplace_back();
  fresh.records.back().id = 11;
  sink->submit(std::move(fresh));
  sink->release_period();
  const PeriodView& next = sink->drain_period();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0]->id, 11u);
  sink->release_period();
}

}  // namespace
}  // namespace rpm::core
