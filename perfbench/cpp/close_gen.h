// Seeded input generator for analyzer_close: one period's worth of Agent
// upload batches for a 256-host Clos, with planted faults whose verdicts
// are known in advance.
//
// Records mix ToR-mesh, inter-ToR and service-tracing probes; every path is
// a real EcmpRouter path and every addressed QPN is read back from a real
// Controller the generator registered the RNICs with. Planted faults:
//   * one direction of a switch-switch cable: every probe whose forward or
//     ACK path crosses it times out;
//   * one RNIC: a share of the ToR-mesh probes addressed to it time out,
//     above the 10% anomalous-RNIC threshold;
//   * one host: every completed probe to it shows high responder delay;
//   * a share of probes address a stale QPN and time out (QPN-reset noise).
// The faulted RNIC and host never take part in the link's timeouts, so each
// fault has exactly one correct verdict.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/controller.h"
#include "core/types.h"
#include "routing/ecmp.h"
#include "topo/topology.h"

namespace perfbench {

struct CloseWorkload {
  static constexpr std::size_t kBatchRecords = 128;
  static constexpr std::size_t kBatches = 1563;  // ~200k records per period
  static constexpr std::uint32_t kServices = 4;

  explicit CloseWorkload(std::uint64_t seed);
  CloseWorkload(const CloseWorkload&) = delete;
  CloseWorkload& operator=(const CloseWorkload&) = delete;

  rpm::topo::Topology topo;
  rpm::routing::EcmpRouter router;
  rpm::core::Controller controller;

  // Planted faults (the ground truth verdicts are scored against).
  rpm::LinkId bad_link;    // directed switch-switch link
  rpm::RnicId bad_rnic;
  rpm::HostId slow_host;

  /// One period of batches, sent_at relative to the period start; host and
  /// records set, seq left 0 (the harness numbers batches per host).
  std::vector<rpm::core::UploadBatch> batches;

  // What the generator planted, per period (for validity checks).
  std::size_t link_timeouts = 0;
  std::size_t rnic_tormesh_probes = 0;
  std::size_t rnic_tormesh_timeouts = 0;
  std::size_t slow_host_probes = 0;
  std::size_t stale_qpn_probes = 0;

  [[nodiscard]] std::size_t records() const {
    return kBatches * kBatchRecords;
  }
  /// FNV-1a over every generated field: same seed => same hash.
  [[nodiscard]] std::uint64_t hash() const;
};

}  // namespace perfbench
