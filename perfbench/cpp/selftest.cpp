#include "selftest.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "close_gen.h"
#include "common.h"
#include "metrics.h"

namespace perfbench {
namespace {

using namespace rpm;

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

void generator_is_deterministic() {
  const CloseWorkload a(7);
  const CloseWorkload b(7);
  const CloseWorkload c(8);
  expect(a.hash() == b.hash(), "same seed gives the same batch hash");
  expect(a.hash() != c.hash(), "another seed gives another batch hash");
  expect(a.batches.size() == CloseWorkload::kBatches &&
             std::all_of(a.batches.begin(), a.batches.end(),
                         [](const core::UploadBatch& x) {
                           return x.records.size() ==
                                  CloseWorkload::kBatchRecords;
                         }),
         "every period has kBatches full batches");
}

void planted_faults_are_valid(std::uint64_t seed) {
  const CloseWorkload wl(seed);
  const topo::Topology& topo = wl.topo;
  const topo::Link& link = topo.link(wl.bad_link);
  expect(link.from.is_switch() && link.to.is_switch(),
         "planted link joins two switches");
  expect(wl.bad_rnic.value < topo.num_rnics(), "planted RNIC exists");
  expect(wl.slow_host.value < topo.num_hosts() &&
             wl.slow_host != topo.rnic(wl.bad_rnic).host,
         "slow host exists and is not the faulty RNIC's host");
  // Enough evidence for each verdict, above the Analyzer's thresholds.
  expect(wl.link_timeouts >= 3, "link fault produces >= 3 timeouts");
  expect(wl.rnic_tormesh_probes > 0 &&
             static_cast<double>(wl.rnic_tormesh_timeouts) >
                 0.10 * static_cast<double>(wl.rnic_tormesh_probes),
         "RNIC fault exceeds the 10% ToR-mesh timeout threshold");
  expect(wl.slow_host_probes > 0, "slow host receives completed probes");
  expect(wl.stale_qpn_probes > 0, "stale-QPN probes are planted");

  // Record-level consistency with the topology and the Controller.
  const RnicId slow_rnic = topo.host(wl.slow_host).rnics[0];
  bool paths_ok = true, link_ok = true, qpn_ok = true, isolated = true;
  std::size_t stale = 0;
  for (const core::UploadBatch& b : wl.batches) {
    for (const core::ProbeRecord& r : b.records) {
      paths_ok = paths_ok && r.fwd_path.complete && r.rev_path.complete &&
                 r.fwd_path.links.front() == topo.rnic(r.prober).uplink &&
                 r.fwd_path.links.back() == topo.rnic(r.target).downlink;
      const auto info = wl.controller.comm_info(r.target);
      if (!info || info->qpn != r.target_qpn) ++stale;
      if (r.status != core::ProbeStatus::kTimeout) continue;
      const bool via_link =
          std::count(r.fwd_path.links.begin(), r.fwd_path.links.end(),
                     wl.bad_link) +
              std::count(r.rev_path.links.begin(), r.rev_path.links.end(),
                         wl.bad_link) >
          0;
      const bool stale_qpn = !info || info->qpn != r.target_qpn;
      const bool at_rnic = r.kind == core::ProbeKind::kTorMesh &&
                           r.target == wl.bad_rnic;
      link_ok = link_ok && (via_link || stale_qpn || at_rnic);
      qpn_ok = qpn_ok && (!stale_qpn || r.target != wl.bad_rnic);
      isolated = isolated && r.target != slow_rnic && r.prober != slow_rnic;
    }
  }
  expect(paths_ok, "every record carries complete ECMP paths of its pair");
  expect(link_ok, "every timeout is explained by a planted fault");
  expect(qpn_ok && stale == wl.stale_qpn_probes,
         "stale-QPN probes are exactly the planted ones");
  expect(isolated, "the slow host takes part in no timeout");
}

void spans_nest() {
  Spans s(true);
  {
    Spans::Scope a(s, "outer");
    {
      Spans::Scope b(s, "inner.1");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    {
      Spans::Scope c(s, "inner.2");
      Spans::Scope d(s, "leaf");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  expect(s.spans().size() == 4 && s.spans()[1].parent == 0 &&
             s.spans()[2].parent == 0 && s.spans()[3].parent == 2,
         "spans record their parent");
  expect(s.nested(), "spans nest inside their parents");
  const std::vector<std::int64_t> self = s.self_ns();
  expect(std::all_of(self.begin(), self.end(),
                     [](std::int64_t x) { return x >= 0; }),
         "self times are >= 0");
  const auto dur = [&](std::size_t i) {
    return static_cast<std::int64_t>(s.spans()[i].end_ns -
                                     s.spans()[i].start_ns);
  };
  expect(self[0] == dur(0) - dur(1) - dur(2),
         "self time is duration minus direct children");
  Spans off(false);
  { Spans::Scope x(off, "ignored"); }
  expect(off.spans().empty(), "a disabled recorder records nothing");
}

void print_set(const char* key, const std::vector<Metric>& ms, bool last) {
  std::printf("\"%s\":[", key);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s{\"name\":\"%s\",\"unit\":\"%s\"}", i == 0 ? "" : ",",
                ms[i].name.c_str(), ms[i].unit.c_str());
  }
  std::printf("]%s", last ? "" : ",");
}

}  // namespace

int run_selftest() {
  generator_is_deterministic();
  for (std::uint64_t seed : {7, 11}) planted_faults_are_valid(seed);
  spans_nest();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

int list_metrics() {
  std::printf("{");
  print_set("end_to_end", end_to_end_metrics(), false);
  print_set("per_layer", layer_metrics(), true);
  std::printf("}\n");
  return 0;
}

}  // namespace perfbench
