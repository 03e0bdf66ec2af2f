// Verdict-bytes golden test: pins the exact verdict output of both analysis
// tiers across commits. Two-run determinism tests only compare a commit
// against itself; this one compares against files checked in under
// tests/golden/, so a refactor that shifts one problem id, one summary, one
// chain field or one SLA digit fails here.
//
// Each run plays the chaos acceptance campaign (Controller crash + restart,
// Agent restart, Analyzer brownout, host failure, fabric corruption) with a
// watched DML service so the impact pass, service SLAs and network-innocent
// chains all produce output. The serialized text is the ChaosReport JSON,
// then per period one PeriodReport line (problems + SLA tables) and the
// period's obs::to_json(DiagnosisLog).
//
// On a mismatch the test prints the first differing line and writes the
// full actual text to `golden_<name>.actual` in the working directory; to
// re-pin after an intended verdict change, copy that file over the golden.
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "chaos/chaos.h"
#include "core/rpingmesh.h"
#include "faults/faults.h"
#include "host/cluster.h"
#include "obs/diagnosis.h"
#include "topo/topology.h"
#include "traffic/dml.h"

namespace rpm {
namespace {

topo::ClosConfig clos_cfg() {
  topo::ClosConfig cfg;
  cfg.num_pods = 2;
  cfg.tors_per_pod = 2;
  cfg.aggs_per_pod = 2;
  cfg.spines_per_plane = 2;
  cfg.hosts_per_tor = 2;
  cfg.rnics_per_host = 2;
  cfg.host_link.capacity_gbps = 100.0;
  cfg.fabric_link.capacity_gbps = 100.0;
  return cfg;
}

std::string sla_text(const core::SlaReport& s) {
  std::ostringstream os;
  os.precision(17);
  os << "{" << s.probes << "," << s.timeouts;
  for (const double v :
       {s.rnic_drop_rate, s.switch_drop_rate, s.rtt_mean, s.rtt_p50,
        s.rtt_p90, s.rtt_p99, s.rtt_p999, s.proc_p50, s.proc_p90, s.proc_p99,
        s.proc_p999}) {
    os << "," << v;
  }
  os << ",ev" << s.evidence.id << "}";
  return os.str();
}

std::string report_text(const core::PeriodReport& rep) {
  std::ostringstream os;
  os << "period " << rep.period_start << "-" << rep.period_end
     << " records=" << rep.records_processed
     << " timeouts=" << rep.timeouts_host_down << "/"
     << rep.timeouts_qpn_reset << "/" << rep.timeouts_agent_cpu << "/"
     << rep.timeouts_rnic << "/" << rep.timeouts_switch
     << " cluster_sla=" << sla_text(rep.cluster_sla);
  for (const auto& [svc, sla] : rep.service_slas) {
    os << " svc" << svc.value << "=" << sla_text(sla);
  }
  for (const core::Problem& p : rep.problems) {
    os << " | #" << p.problem_id << " ev" << p.evidence.id << " "
       << core::problem_category_name(p.category) << " "
       << core::priority_name(p.priority) << " rnic" << p.rnic.value
       << " host" << p.host.value << " svc" << p.service.value
       << (p.in_service_network ? " in-net" : "")
       << (p.detected_by_service_tracing ? " traced" : "")
       << " n=" << p.anomalous_probes << " links[";
    for (LinkId l : p.suspect_links) os << l.value << ",";
    os << "] switches[";
    for (SwitchId s : p.suspect_switches) os << s.value << ",";
    os << "] top[";
    for (const auto& [l, v] : p.top_link_votes) os << l.value << ":" << v << ",";
    os << "] \"" << p.summary << "\"";
  }
  return os.str();
}

/// One acceptance campaign; federated runs use 2 analysis pods with
/// sketch-driven analysis on.
std::string run_campaign(bool federated) {
  host::ClusterConfig ccfg;
  ccfg.seed = 7;
  host::Cluster cluster(topo::build_clos(clos_cfg()), ccfg);
  core::RPingmeshConfig rcfg;
  rcfg.analyzer.period = sec(5);
  if (federated) {
    rcfg.federation.pods = 2;
    rcfg.analyzer.sketch_mode = core::SketchMode::kOn;
  }
  core::RPingmesh rpm(cluster, rcfg);
  faults::FaultInjector injector(cluster);
  rpm.start();
  // Agents register before the job's QPs come up, so its connections are
  // picked up for service tracing. RNIC 6 sits on host 3, which the plan
  // fails: the host-down verdict lands inside the service network.
  cluster.run_for(sec(5));

  traffic::DmlConfig dml;
  dml.service = ServiceId{7};
  dml.workers = {RnicId{0}, RnicId{6}, RnicId{8}, RnicId{12}};
  dml.compute_time = msec(200);
  dml.comm_bytes = 20'000'000;
  traffic::DmlService svc(cluster, dml);
  rpm.watch_service(
      {dml.service, [&svc] { return svc.relative_throughput(); }});
  svc.start();

  LinkId fabric_link;
  for (const topo::Link& l : cluster.topology().links()) {
    if (l.from.is_switch() && l.to.is_switch()) {
      fabric_link = l.id;
      break;
    }
  }
  chaos::ChaosPlan plan;
  plan.seed = 7;
  plan.duration = sec(120);
  plan.controller_crash(sec(30))
      .agent_restart(sec(32), HostId{1})
      .controller_restart(sec(50))
      .analyzer_outage(sec(55), sec(73))
      .inject(sec(75), "host3-down", faults::FaultSpec::host_down(HostId{3}))
      .clear(sec(95), "host3-down")
      .inject(sec(100), "fabric-corruption",
              faults::FaultSpec::corruption(fabric_link, 0.5));
  chaos::ChaosRunner runner(cluster, rpm, injector);
  std::string out = runner.run(plan).to_json() + "\n";

  const auto& logs = federated ? rpm.global_analyzer().verdicts().diagnosis_history()
                               : rpm.analyzer().diagnosis_history();
  const auto& history = rpm.scored_history();
  EXPECT_EQ(logs.size(), history.size());
  for (std::size_t i = 0; i < history.size() && i < logs.size(); ++i) {
    out += report_text(history[i]) + "\n";
    out += obs::to_json(logs[i]) + "\n";
  }
  svc.stop();
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void expect_matches_golden(const std::string& name, const std::string& got) {
  const std::string path = std::string(RPM_GOLDEN_DIR) + "/" + name + ".txt";
  const std::string want = read_file(path);
  if (got == want) return;
  const std::string actual_path = "golden_" + name + ".actual";
  std::ofstream(actual_path, std::ios::binary) << got;
  ASSERT_FALSE(want.empty()) << "missing golden file " << path
                             << "; actual output written to " << actual_path;
  std::istringstream a(want);
  std::istringstream b(got);
  std::string la;
  std::string lb;
  for (std::size_t line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a && !more_b) break;
    if (more_a && more_b && la == lb) continue;
    // Lines can be long (one DiagnosisLog each): show the neighbourhood of
    // the first differing column.
    std::size_t col = 0;
    while (col < la.size() && col < lb.size() && la[col] == lb[col]) ++col;
    const std::size_t from = col > 80 ? col - 80 : 0;
    FAIL() << name << ": first difference at line " << line << ", column "
           << col + 1 << "\n  golden: "
           << (more_a ? la.substr(from, 200) : "<end of file>")
           << "\n  actual: "
           << (more_b ? lb.substr(from, 200) : "<end of file>")
           << "\nfull actual output written to " << actual_path;
  }
}

TEST(Golden, FlatVerdictBytes) {
  expect_matches_golden("flat_acceptance", run_campaign(false));
}

TEST(Golden, FederatedSketchVerdictBytes) {
  expect_matches_golden("federated_sketch_acceptance", run_campaign(true));
}

}  // namespace
}  // namespace rpm
