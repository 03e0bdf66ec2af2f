#include "close_gen.h"

#include <algorithm>
#include <span>

#include "common.h"
#include "common/rng.h"

namespace perfbench {
namespace {

using namespace rpm;

/// One probe target of a host, with its 5-tuple and both traced paths.
struct Target {
  RnicId rnic;
  core::ProbeKind kind = core::ProbeKind::kTorMesh;
  ServiceId service;
  FiveTuple tuple;
  routing::Path fwd;
  routing::Path rev;
};

bool crosses(const routing::Path& p, LinkId link) {
  return std::find(p.links.begin(), p.links.end(), link) != p.links.end();
}

constexpr std::uint32_t kIntertorTargets = 8;
constexpr std::uint32_t kServiceHosts = 16;      // members per service
constexpr std::uint32_t kServiceTargets = 4;     // peers each member traces
constexpr double kRnicTimeoutShare = 0.3;
constexpr double kStaleQpnShare = 0.01;

}  // namespace

CloseWorkload::CloseWorkload(std::uint64_t seed)
    : topo(topo::build_clos(clos256())),
      router(topo),
      controller(topo, router) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 0x51ed);
  const std::size_t n_hosts = topo.num_hosts();

  // Register every RNIC so the Controller hands out real QPNs.
  for (const topo::HostInfo& h : topo.hosts()) {
    std::vector<core::RnicCommInfo> infos;
    for (RnicId r : h.rnics) {
      const topo::RnicInfo& ri = topo.rnic(r);
      infos.push_back({r, ri.ip, Gid{0xfe80'0000'0000'0000ULL | r.value},
                       Qpn{static_cast<std::uint32_t>(
                           1000 + rng.uniform_int(0, 1 << 20))}});
    }
    controller.register_agent(h.id, infos);
  }

  // Planted entities.
  std::vector<LinkId> fabric_links;
  for (const topo::Link& l : topo.links()) {
    if (l.from.is_switch() && l.to.is_switch()) fabric_links.push_back(l.id);
  }
  bad_rnic = RnicId{static_cast<std::uint32_t>(rng.index(topo.num_rnics()))};
  do {
    slow_host = HostId{static_cast<std::uint32_t>(rng.index(n_hosts))};
  } while (slow_host == topo.rnic(bad_rnic).host);
  bad_link = fabric_links[rng.index(fabric_links.size())];

  const auto make_target = [&](RnicId src, RnicId dst, core::ProbeKind kind,
                               ServiceId svc) {
    Target t;
    t.rnic = dst;
    t.kind = kind;
    t.service = svc;
    t.tuple.src_ip = topo.rnic(src).ip;
    t.tuple.dst_ip = topo.rnic(dst).ip;
    t.tuple.src_port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
    FiveTuple back = t.tuple;
    std::swap(back.src_ip, back.dst_ip);
    t.fwd = router.resolve(src, dst, t.tuple);
    t.rev = router.resolve(dst, src, back);
    return t;
  };

  // Per-host target lists: ToR-mesh peers, Equation-1-style inter-ToR
  // tuples, and service-tracing peers.
  std::vector<std::uint32_t> order(n_hosts);
  for (std::uint32_t i = 0; i < n_hosts; ++i) order[i] = i;
  rng.shuffle(std::span<std::uint32_t>(order));
  std::vector<ServiceId> service_of(n_hosts);
  for (std::uint32_t s = 0; s < kServices; ++s) {
    for (std::uint32_t k = 0; k < kServiceHosts; ++k) {
      service_of[order[s * kServiceHosts + k]] = ServiceId{s + 1};
    }
  }
  std::vector<std::vector<Target>> tormesh(n_hosts), intertor(n_hosts),
      service(n_hosts);
  for (const topo::HostInfo& h : topo.hosts()) {
    const RnicId src = h.rnics[0];
    const SwitchId tor = topo.rnic(src).tor;
    for (RnicId peer : topo.rnics_under_tor(tor)) {
      if (peer != src) {
        tormesh[h.id.value].push_back(
            make_target(src, peer, core::ProbeKind::kTorMesh, {}));
      }
    }
    while (intertor[h.id.value].size() < kIntertorTargets) {
      const RnicId dst{static_cast<std::uint32_t>(rng.index(topo.num_rnics()))};
      if (topo.rnic(dst).tor == tor) continue;
      intertor[h.id.value].push_back(
          make_target(src, dst, core::ProbeKind::kInterTor, {}));
    }
    const ServiceId svc = service_of[h.id.value];
    if (!svc.valid()) continue;
    while (service[h.id.value].size() < kServiceTargets) {
      const std::uint32_t peer = order[(svc.value - 1) * kServiceHosts +
                                       rng.index(kServiceHosts)];
      if (peer == h.id.value) continue;
      service[h.id.value].push_back(make_target(
          src, topo.host(HostId{peer}).rnics[0],
          core::ProbeKind::kServiceTracing, svc));
    }
  }

  // Records: batch j belongs to host j % hosts; within a host, a fixed
  // 10:7:3 cycle of ToR-mesh : inter-ToR : service-tracing probes.
  const RnicId slow_rnic = topo.host(slow_host).rnics[0];
  const TimeNs period = sec(5);
  std::vector<std::size_t> cursor(n_hosts, 0);
  batches.resize(kBatches);
  for (std::size_t j = 0; j < kBatches; ++j) {
    const std::uint32_t h = static_cast<std::uint32_t>(j % n_hosts);
    core::UploadBatch& b = batches[j];
    b.host = HostId{h};
    b.records.resize(kBatchRecords);
    const RnicId src = topo.host(b.host).rnics[0];
    for (std::size_t i = 0; i < kBatchRecords; ++i) {
      const std::size_t n = cursor[h]++;
      const std::size_t slot = n % 20;
      const std::vector<Target>* pool = &tormesh[h];
      if (slot >= 17 && !service[h].empty()) {
        pool = &service[h];
      } else if (slot >= 10) {
        pool = &intertor[h];
      }
      const Target& t = (*pool)[(n / 20) % pool->size()];
      core::ProbeRecord& r = b.records[i];
      r.kind = t.kind;
      r.prober = src;
      r.prober_host = b.host;
      r.target = t.rnic;
      r.service = t.service;
      r.tuple = t.tuple;
      r.target_qpn = controller.comm_info(t.rnic)->qpn;
      r.sent_at = static_cast<TimeNs>((n * 6151) % 4999) * (period / 5000);
      r.fwd_path = t.fwd;
      r.rev_path = t.rev;
      r.path_known = true;
      r.status = core::ProbeStatus::kOk;
      r.network_rtt = usec(3) + rng.uniform_int(0, 5000);
      r.responder_delay = usec(2) + rng.uniform_int(0, 2000);
      r.prober_delay = usec(3) + rng.uniform_int(0, 1000);

      const bool planted_endpoint = src == bad_rnic || t.rnic == bad_rnic ||
                                    src == slow_rnic || t.rnic == slow_rnic;
      bool timeout = false;
      if (t.kind != core::ProbeKind::kTorMesh && !planted_endpoint &&
          (crosses(t.fwd, bad_link) || crosses(t.rev, bad_link))) {
        timeout = true;
        ++link_timeouts;
      } else if (t.kind == core::ProbeKind::kTorMesh && t.rnic == bad_rnic) {
        ++rnic_tormesh_probes;
        if (rng.chance(kRnicTimeoutShare)) {
          timeout = true;
          ++rnic_tormesh_timeouts;
        }
      } else if (!planted_endpoint && rng.chance(kStaleQpnShare)) {
        timeout = true;
        r.target_qpn = Qpn{r.target_qpn.value + 1};
        ++stale_qpn_probes;
      }
      if (timeout) {
        r.status = core::ProbeStatus::kTimeout;
        r.network_rtt = 0;
        r.responder_delay = 0;
        r.prober_delay = 0;
      } else if (t.rnic == slow_rnic) {
        r.responder_delay = msec(8) + rng.uniform_int(0, 500'000);
        ++slow_host_probes;
      }
    }
  }
}

std::uint64_t CloseWorkload::hash() const {
  Fnv1a h;
  const auto mix = [&h](std::uint64_t v) { h.u64(v); };
  mix(bad_link.value);
  mix(bad_rnic.value);
  mix(slow_host.value);
  for (const core::UploadBatch& b : batches) {
    mix(b.host.value);
    for (const core::ProbeRecord& r : b.records) {
      mix(static_cast<std::uint64_t>(r.kind));
      mix(r.prober.value);
      mix(r.target.value);
      mix(r.service.value);
      mix(r.tuple.src_port);
      mix(r.target_qpn.value);
      mix(static_cast<std::uint64_t>(r.sent_at));
      mix(static_cast<std::uint64_t>(r.status));
      mix(static_cast<std::uint64_t>(r.network_rtt));
      mix(static_cast<std::uint64_t>(r.responder_delay));
      for (LinkId l : r.fwd_path.links) mix(l.value);
      for (LinkId l : r.rev_path.links) mix(l.value);
    }
  }
  return h.value();
}

}  // namespace perfbench
