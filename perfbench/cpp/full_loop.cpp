// flat_mesh and fed_sketch_chaos: the whole probe -> fabric -> Agent upload
// -> transport -> ingest -> period close -> verdict loop on a 256-host Clos,
// driven by a scripted chaos plan.
//
// An untraced pass measures kWindows windows, each one ChaosRunner::run of
// the plan on a fresh deployment, starting from its first verdict. Window
// k + 1 runs on window_seed(seed, k): the cluster's randomness and the fault
// placement differ between windows, so precision and recall are pooled over
// kWindows seeded cases instead of resting on one. Rates are the median over
// windows. Before each window the pass times
// kSetupsPerWindow set-ups (construction of the Cluster and RPingmesh,
// start(), and simulation until the first analysis period has closed); the
// last one is measured, and setup_s is the median over all of them. Spreading
// windows and set-ups through the run averages over the machine's speed
// phases. A traced pass measures window 1 after one set-up; the gate in
// main.cpp compares it with the untraced window 1.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/rng.h"
#include "core/rpingmesh.h"
#include "faults/faults.h"
#include "host/cluster.h"
#include "metrics.h"
#include "prof/prof.h"
#include "telemetry/metrics.h"
#include "topo/topology.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace rpm;

constexpr TimeNs kPeriod = sec(5);
constexpr int kWindows = 3;
constexpr int kSetupsPerWindow = 2;
constexpr TimeNs kPlanDuration = sec(130);

/// Seed of window k + 1 (k from 0) of a run with --seed `seed`; window 1
/// runs on the run's own seed.
std::uint64_t window_seed(std::uint64_t seed, int k) {
  return seed + static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
}

struct Deployment {
  Deployment(std::uint64_t seed, bool federated)
      : cluster(topo::build_clos(clos256()),
                [seed] {
                  host::ClusterConfig c;
                  c.seed = seed;
                  return c;
                }()),
        rpm(cluster,
            [federated] {
              core::RPingmeshConfig c;
              c.analyzer.period = kPeriod;
              if (federated) {
                c.federation.pods = 4;
                c.federation.standby_controller = true;
                c.analyzer.sketch_mode = core::SketchMode::kOn;
              }
              return c;
            }()),
        injector(cluster) {}

  host::Cluster cluster;
  core::RPingmesh rpm;
  faults::FaultInjector injector;
  TimeNs started_at = 0;  // simulated time of start(): the Analyzers' phase
};

/// Fault placement drawn from the seed: one switch-switch cable to corrupt
/// and one RNIC to flap (never host 5's, which the plan restarts).
struct Placement {
  LinkId corrupt_link;
  RnicId flap_rnic;
};

Placement place(const topo::Topology& topo, std::uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<LinkId> fabric_links;
  for (const topo::Link& l : topo.links()) {
    if (l.from.is_switch() && l.to.is_switch()) fabric_links.push_back(l.id);
  }
  Placement p;
  p.corrupt_link = fabric_links[rng.index(fabric_links.size())];
  do {
    p.flap_rnic =
        RnicId{static_cast<std::uint32_t>(rng.index(topo.num_rnics()))};
  } while (topo.rnic(p.flap_rnic).host == HostId{5});
  return p;
}

/// Known defect (README.md): a Controller crash leaves the probe mesh
/// skewed, with or without a standby. Some Agents stall, and the Analyzer
/// reports their hosts down from then on; a fault on such a host is masked
/// by the host-down verdict. On other seeds the Analyzer blames the flapping
/// RNIC's ToR peers instead of it. True when a period ending inside
/// [from, to) reported `rnic`'s host down or blamed another RNIC under
/// `rnic`'s ToR.
bool defect_masked(const topo::Topology& topo,
                   const std::deque<core::PeriodReport>& hist, RnicId rnic,
                   TimeNs from, TimeNs to) {
  const topo::RnicInfo& faulty = topo.rnic(rnic);
  for (const core::PeriodReport& rep : hist) {
    if (rep.period_end < from || rep.period_end >= to) continue;
    for (const core::Problem& p : rep.problems) {
      if (p.category == core::ProblemCategory::kHostDown &&
          p.host == faulty.host) {
        return true;
      }
      if (p.category == core::ProblemCategory::kRnicProblem &&
          p.rnic != rnic && topo.rnic(p.rnic).tor == faulty.tor) {
        return true;
      }
    }
  }
  return false;
}

chaos::ChaosPlan make_plan(std::uint64_t seed, bool federated,
                           const Placement& at) {
  chaos::ChaosPlan plan;
  plan.seed = seed;
  plan.duration = kPlanDuration;
  // The Controller crash triggers the known defect (see defect_masked) in
  // both deployments, the federated one with its warm standby too. Only the
  // flat one runs it: flat_mesh carries the defect's baseline, and
  // fed_sketch_chaos keeps precision and recall free of it.
  if (!federated) {
    plan.controller_crash(sec(20)).controller_restart(sec(35));
  }
  plan.agent_restart(sec(22), HostId{5})
      .inject(sec(60), "corruption",
              faults::FaultSpec::corruption(at.corrupt_link, 0.3))
      .clear(sec(90), "corruption")
      .inject(sec(95), "rnic-flapping",
              faults::FaultSpec::rnic_flapping(at.flap_rnic, sec(2), sec(3)))
      .clear(sec(115), "rnic-flapping");
  if (federated) {
    plan.analyzer_outage(sec(45), sec(55))
        .pod_analyzer_crash(sec(70), 1)
        .pod_analyzer_restart(sec(80), 1);
  }
  return plan;
}

/// Construct, start, and simulate until the first verdict exists.
std::unique_ptr<Deployment> set_up(std::uint64_t seed, bool federated,
                                   Spans& spans) {
  Spans::Scope s(spans, "setup");
  std::unique_ptr<Deployment> d;
  {
    Spans::Scope c(spans, "deploy.construct");
    d = std::make_unique<Deployment>(seed, federated);
  }
  {
    Spans::Scope c(spans, "rpm.start");
    d->started_at = d->cluster.scheduler().now();
    d->rpm.start();
  }
  Spans::Scope w(spans, "cluster.run_for.warmup");
  d->cluster.run_for(kPeriod);
  while (d->rpm.scored_history().empty()) {
    if (d->cluster.scheduler().now() > 12 * kPeriod) {
      throw std::runtime_error("no verdict within the warm-up bound");
    }
    d->cluster.run_for(msec(100));
  }
  return d;
}

/// Times every period boundary from outside with two benchmark events per
/// analysis tick, one 1 ns before the tick and one 1 ns after it. The wall
/// time between them is that of every event at the tick's simulated instant:
/// the Agents' upload timers, which share the Analyzers' phase, and then the
/// period close of every Analyzer that ticks (in the federated deployment,
/// the PodAnalyzers'; the global merge follows once their digests arrive and
/// is not part of the sample). So a sample is the wall time from reaching
/// the period boundary to that boundary's verdicts. A tick at which no period
/// closed gives no sample. This adds two events per period and no per-event
/// cost: the scheduler's dispatch observer stays unset. After each tick's
/// sample the thread moves to the next CPU (CoreRotation), about every 0.4 s
/// of wall time.
class BoundaryTimer {
 public:
  BoundaryTimer(sim::Scheduler& sched, TimeNs first_tick,
                telemetry::Counter periods)
      : sched_(sched), periods_(periods) {
    arm(first_tick);
  }
  ~BoundaryTimer() {
    before_.cancel();
    after_.cancel();
  }
  BoundaryTimer(const BoundaryTimer&) = delete;
  BoundaryTimer& operator=(const BoundaryTimer&) = delete;

  [[nodiscard]] const std::vector<double>& samples_ms() const {
    return samples_ms_;
  }

 private:
  void arm(TimeNs tick) {
    before_ = sched_.schedule_at(tick - 1, [this] {
      periods_seen_ = periods_.value();
      t0_ = Clock::now();
    });
    after_ = sched_.schedule_at(tick + 1, [this, tick] {
      const double ms = seconds_since(t0_) * 1e3;
      if (periods_.value() != periods_seen_) samples_ms_.push_back(ms);
      cores_.step();
      arm(tick + kPeriod);
    });
  }

  sim::Scheduler& sched_;
  telemetry::Counter periods_;
  std::uint64_t periods_seen_ = 0;
  Clock::time_point t0_;
  sim::EventHandle before_;
  sim::EventHandle after_;
  std::vector<double> samples_ms_;
  CoreRotation cores_;
};

std::uint64_t checkpoint_bytes(core::RPingmesh& rpm) {
  std::uint64_t total = rpm.journal().checkpoint_bytes("analyzer") +
                        rpm.journal().checkpoint_bytes("global");
  for (std::size_t p = 0; p < 4; ++p) {
    total += rpm.journal().checkpoint_bytes("pod" + std::to_string(p));
  }
  return total;
}

/// What one measured window produced.
struct Window {
  WindowObs obs;
  telemetry::Snapshot before;
  telemetry::Snapshot after;
  prof::ProfileReport prof;
  double records = 0.0;  // probe results that reached the analysis tier
  double batches_sent = 0.0;       // upload/ channels
  double batches_delivered = 0.0;  // upload/ channels
  std::size_t true_positives = 0;
  std::size_t claims = 0;  // verdicts ChaosRunner scored for precision
  std::size_t scored_faults = 0;
  std::size_t matched_faults = 0;
  std::vector<double> boundary_ms;
  std::size_t periods = 0;
  bool defect_masked = false;  // the known defect hid the flapping RNIC
  std::vector<std::string> errors;
  std::string verdict_bytes;
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  std::string params;       // deployment and plan, the same in every window
  std::string case_params;  // this window's seed, fault placement, verdicts
};

/// One ChaosRunner::run of the plan on `d`, which has just been set up.
Window run_window(Deployment& d, std::uint64_t seed, bool federated,
                  bool traced, Spans& spans) {
  Window win;
  WindowObs& w = win.obs;
  host::Cluster& cluster = d.cluster;
  core::RPingmesh& rpm = d.rpm;
  sim::Scheduler& sched = cluster.scheduler();
  const TimeNs warmup_sim = sched.now() - d.started_at;
  const Placement placement = place(cluster.topology(), seed);
  const chaos::ChaosPlan plan = make_plan(seed, federated, placement);

  auto& reg = telemetry::registry();
  BoundaryTimer boundaries(
      sched, d.started_at + (warmup_sim / kPeriod + 1) * kPeriod,
      reg.counter("rpm_analyzer_periods_total", "Analysis periods executed"));

  // The traced pass also times every event callback through the
  // scheduler's dispatch observer. The untraced pass leaves it unset: the
  // observer costs about 100 ns per event, which would be benchmark
  // overhead in the rates.
  struct ObserverGuard {
    sim::Scheduler& sched;
    ~ObserverGuard() { sched.set_dispatch_observer({}); }
  } guard{sched};
  if (traced) {
    sched.set_dispatch_observer([&](std::uint32_t, std::uint64_t ns) {
      w.dispatch_ns += ns;
      const std::uint64_t pending = sched.pending_events();
      if (pending > w.pending_max) w.pending_max = pending;
    });
  }

  std::uint64_t probes0 = 0;
  for (std::size_t h = 0; h < rpm.num_agents(); ++h) {
    probes0 += rpm.agent(HostId{static_cast<std::uint32_t>(h)}).probes_sent();
  }
  std::uint64_t digests0 = 0;
  for (std::size_t p = 0; federated && p < rpm.num_pods(); ++p) {
    digests0 += rpm.pod_analyzer(p).digests_sent();
  }
  const std::uint64_t events0 = sched.executed_events();
  const std::size_t history0 = rpm.scored_history().size();
  win.before = reg.snapshot();
  if (traced) {
    prof::ProfilerConfig pc;
    pc.max_trace_events = 0;
    prof::profiler().enable(pc);
  }

  // ---- measured window ----
  chaos::ChaosRunner runner(cluster, rpm, d.injector);
  const auto t0 = Clock::now();
  chaos::ChaosReport rep;
  {
    Spans::Scope s(spans, "chaos.ChaosRunner.run");
    rep = runner.run(plan);
  }
  w.wall_s = seconds_since(t0);

  if (traced) {
    win.prof = prof::profiler().report();
    prof::profiler().disable();
  }
  win.after = reg.snapshot();

  w.events = sched.executed_events() - events0;
  for (std::size_t h = 0; h < rpm.num_agents(); ++h) {
    w.probes += rpm.agent(HostId{static_cast<std::uint32_t>(h)}).probes_sent();
  }
  w.probes -= probes0;
  for (std::size_t p = 0; federated && p < rpm.num_pods(); ++p) {
    w.digests += rpm.pod_analyzer(p).digests_sent();
  }
  w.digests -= digests0;
  w.checkpoint_bytes = checkpoint_bytes(rpm);
  w.problems = rep.problems_total;
  w.mislocalized = rep.mislocalized;
  for (const chaos::ChaosReport::Recovery& r : rep.recoveries) {
    w.recovery_periods_max =
        std::max(w.recovery_periods_max, r.periods_to_recover);
  }

  // Records that reached the analysis tier: raw records the periods
  // processed plus records the Agents folded into host summaries.
  std::uint64_t raw_records = 0;
  const auto& hist = rpm.scored_history();
  for (std::size_t i = history0; i < hist.size(); ++i) {
    raw_records += hist[i].records_processed;
  }
  win.records =
      static_cast<double>(raw_records) +
      family_delta(win.before, win.after, "rpm_agent_upload_folded_total");
  win.batches_sent = family_delta(win.before, win.after,
                                  "rpm_transport_msgs_total", "upload/", "sent");
  win.batches_delivered =
      family_delta(win.before, win.after, "rpm_transport_msgs_total",
                   "upload/", "delivered");
  win.true_positives = rep.true_positives;
  win.claims = rep.true_positives + rep.false_positives + rep.mislocalized;
  for (const chaos::ChaosReport::GroundTruthScore& gt : rep.ground_truths) {
    win.scored_faults += gt.scored ? 1 : 0;
    win.matched_faults += gt.scored && gt.matched ? 1 : 0;
  }
  win.boundary_ms = boundaries.samples_ms();
  win.periods = rep.periods;

  // ---- correctness of the outputs ----
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) win.errors.push_back(what);
  };
  check(rep.periods >= static_cast<std::size_t>(plan.duration / kPeriod) - 2,
        "fewer analysis periods than the plan spans");
  const TimeNs plan_t0 = sched.now() - plan.duration;
  for (const chaos::ChaosReport::GroundTruthScore& gt : rep.ground_truths) {
    if (!gt.scored || gt.matched) continue;
    // The only tolerated miss is the known defect's, in the flat
    // deployment: a flapping RNIC whose host the Analyzer reports down, or
    // whose ToR peers it blames instead. fed_sketch_chaos runs the same
    // fault without the Controller crash and tolerates no miss.
    const bool masked =
        !federated && gt.label == "rnic-flapping" &&
        defect_masked(cluster.topology(), rpm.scored_history(),
                      placement.flap_rnic, plan_t0 + gt.injected_at,
                      plan_t0 + plan.duration + kPeriod);
    win.defect_masked = win.defect_masked || masked;
    check(masked, "scored fault " + gt.label + " was not localized");
  }
  check(rep.false_positives == 0, "a verdict named a fault-free entity");
  check(rep.switch_false_positives == 0,
        "a control-plane event was blamed on a switch");
  for (const chaos::ChaosReport::Recovery& r : rep.recoveries) {
    check(r.periods_to_recover >= 0, r.event + " never recovered");
  }
  check(win.records > 0 && w.probes > 0, "no probe results reached analysis");
  check(win.boundary_ms.size() + 2 >= rep.periods,
        "period closes not observed");

  win.verdict_bytes = rep.to_json();
  win.counts = {{"sim.events", w.events},
                {"agent.probes", w.probes},
                {"records", static_cast<std::uint64_t>(win.records)},
                {"digests", w.digests},
                {"periods", rep.periods},
                {"close_samples", win.boundary_ms.size()}};
  char params[384];
  std::snprintf(
      params, sizeof(params),
      "\"hosts\":%zu,\"pods\":%d,\"period_s\":5,\"plan_s\":%lld,"
      "\"federation_pods\":%d,\"sketch\":\"%s\",\"ingest_threads\":0,"
      "\"warmup_sim_ms\":%lld",
      cluster.num_hosts(), 4, static_cast<long long>(plan.duration / sec(1)),
      federated ? 4 : 1, federated ? "on" : "off",
      static_cast<long long>(warmup_sim / msec(1)));
  win.params = params;
  Fnv1a verdicts;
  verdicts.bytes(win.verdict_bytes);
  std::snprintf(params, sizeof(params),
                "{\"seed\":%llu,\"corrupt_link\":%u,\"flap_rnic\":%u,"
                "\"verdict_fnv1a64\":\"%016llx\"}",
                static_cast<unsigned long long>(seed),
                placement.corrupt_link.value, placement.flap_rnic.value,
                static_cast<unsigned long long>(verdicts.value()));
  win.case_params = params;
  if (!traced) {
    // Only the traced pass reports per-layer figures from these; dropping
    // them keeps the benchmark's own memory out of later windows' peak RSS.
    win.before = {};
    win.after = {};
  }
  return win;
}

}  // namespace

RunResult run_full_loop(const Options& opt, bool federated, bool traced,
                        Spans& spans) {
  RunResult out;
  Spans::Scope top(spans, federated ? "fed_sketch_chaos" : "flat_mesh");
  const int windows = traced ? 1 : kWindows;
  const int setups_per_window = traced ? 1 : kSetupsPerWindow;

  std::vector<double> setup_s;
  std::vector<double> sim_speed;
  std::vector<double> records_per_s;
  std::vector<double> boundary_ms;
  // Pooled over windows: precision and recall as ChaosRunner computes them
  // for one window, and the upload delivery share.
  std::size_t true_positives = 0;
  std::size_t claims = 0;
  std::size_t scored_faults = 0;
  std::size_t matched_faults = 0;
  double batches_sent = 0.0;
  double batches_delivered = 0.0;
  std::string cases;
  Window first;
  for (int k = 0; k < windows; ++k) {
    const std::uint64_t seed = window_seed(opt.seed, k);
    std::unique_ptr<Deployment> d;
    for (int i = 0; i < setups_per_window; ++i) {
      d.reset();
      const auto t0 = Clock::now();
      d = set_up(seed, federated, spans);
      setup_s.push_back(seconds_since(t0));
    }
    Window win = run_window(*d, seed, federated, traced, spans);
    d.reset();
    sim_speed.push_back(to_seconds(kPlanDuration) / win.obs.wall_s);
    records_per_s.push_back(win.records / win.obs.wall_s);
    boundary_ms.insert(boundary_ms.end(), win.boundary_ms.begin(),
                       win.boundary_ms.end());
    true_positives += win.true_positives;
    claims += win.claims;
    scored_faults += win.scored_faults;
    matched_faults += win.matched_faults;
    batches_sent += win.batches_sent;
    batches_delivered += win.batches_delivered;
    cases += (cases.empty() ? "" : ",") + win.case_params;
    if (win.defect_masked) {
      std::fprintf(stderr,
                   "known defect: window %d (seed %llu): rnic-flapping "
                   "missed; its host was reported down or its ToR peers "
                   "were blamed\n",
                   k + 1, static_cast<unsigned long long>(seed));
    }
    for (const std::string& e : win.errors) {
      out.check(false, "window " + std::to_string(k + 1) + ": " + e);
    }
    out.attempted += win.periods;
    out.failed += win.errors.empty() ? 0 : 1;
    if (k == 0) first = std::move(win);
  }

  EndToEnd e;
  e.setup_s = median(setup_s);
  e.sim_speed = median(sim_speed);
  e.records_per_s = median(records_per_s);
  e.close_p50_ms = quantile(boundary_ms, 0.5);
  e.close_p90_ms = quantile(boundary_ms, 0.9);
  e.verdict_precision =
      claims == 0 ? 1.0
                  : static_cast<double>(true_positives) /
                        static_cast<double>(claims);
  e.verdict_recall = scored_faults == 0
                         ? 1.0
                         : static_cast<double>(matched_faults) /
                               static_cast<double>(scored_faults);
  e.upload_delivered_share =
      batches_sent > 0 ? batches_delivered / batches_sent : 0.0;
  emit_end_to_end(e, out);
  if (traced) {
    emit_layers(first.obs, first.before, first.after, first.prof, out);
  }

  // The manifest's counts and verdict hash are window 1's, the window the
  // traced gate compares; "cases" lists every window's.
  out.verdict_bytes = std::move(first.verdict_bytes);
  out.counts = std::move(first.counts);
  char params[128];
  std::snprintf(params, sizeof(params),
                ",\"windows\":%d,\"setups\":%zu,\"close_samples\":%zu,",
                windows, setup_s.size(), boundary_ms.size());
  out.params = first.params + params + "\"cases\":[" + cases + "]";
  return out;
}

}  // namespace perfbench
