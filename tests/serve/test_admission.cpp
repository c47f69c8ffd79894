#include "serve/admission.hpp"

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>

#include "graph/scenario.hpp"
#include "snapshot_fixture.hpp"

namespace tc::serve {
namespace {

app::StentBoostConfig small_app(u64 seed = 5) {
  return app::StentBoostConfig::make(/*width=*/96, /*height=*/96,
                                     /*frames=*/8, seed);
}

AdmissionController make_controller(i32 pool_threads = 4) {
  return AdmissionController(AdmissionConfig{}, pool_threads,
                             plat::PlatformSpec::paper_platform());
}

/// A hand-built demand that passes every feasibility check by default.
StreamDemand feasible_demand(f64 cores, f64 bus_mbps = 10.0) {
  StreamDemand d;
  d.deadline_ms = 10.0;
  d.frame_ms = cores * d.deadline_ms;
  d.cores = cores;
  d.memory_bus_mbps = bus_mbps;
  d.best_plan_ms = 1.0;
  d.plan_feasible = true;
  return d;
}

TEST(AdmissionVerdictNames, CoverAllVerdicts) {
  EXPECT_STREQ(to_string(AdmissionVerdict::Admit), "admit");
  EXPECT_STREQ(to_string(AdmissionVerdict::Queue), "queue");
  EXPECT_STREQ(to_string(AdmissionVerdict::Reject), "reject");
}

TEST(EstimateDemand, ColdProbePricesTheStream) {
  AdmissionController ctrl = make_controller();
  const StreamDemand d = ctrl.estimate_demand(small_app(), /*deadline_ms=*/50.0,
                                              /*max_stripes_per_task=*/4,
                                              /*snapshot=*/nullptr);
  EXPECT_FALSE(d.warm);
  EXPECT_GT(d.frame_ms, 0.0);
  EXPECT_GT(d.cores, 0.0);
  EXPECT_GT(d.best_plan_ms, 0.0);
  // Probe attribution (Fig. 4 buses): a 96x96 working set fits in L2, so
  // cache and I/O traffic must be attributed while memory-bus traffic may
  // legitimately be zero.
  EXPECT_GT(d.bus_mb_per_frame[0], 0.0);
  EXPECT_GE(d.bus_mb_per_frame[1], 0.0);
  EXPECT_GT(d.bus_mb_per_frame[2], 0.0);
  EXPECT_NEAR(d.memory_bus_mbps, d.bus_mb_per_frame[1] * 1000.0 / 50.0, 1e-9);
  // Cores = frame_ms / deadline (above the configured floor).
  EXPECT_NEAR(d.cores, std::max(ctrl.config().min_cores, d.frame_ms / 50.0),
              1e-9);
}

TEST(EstimateDemand, WarmSnapshotSkipsTheProbe) {
  AdmissionController ctrl = make_controller();
  exec::PredictorSnapshot snap =
      learnt_snapshot(32, {{app::kRdgFull, 4.0}, {app::kMkxFull, 2.0}});
  snap.bus_mb_per_frame = {1.0, 2.0, 0.5};

  const StreamDemand d =
      ctrl.estimate_demand(small_app(), /*deadline_ms=*/60.0,
                           /*max_stripes_per_task=*/4, &snap);
  EXPECT_TRUE(d.warm);
  // The snapshot's expected scenario runs RDG_FULL and MKX_FULL (the only
  // nodes it learnt): their predictions sum to the frame cost.
  EXPECT_NEAR(d.frame_ms, 6.0, 1e-9);
  EXPECT_NEAR(d.bus_mb_per_frame[1], 2.0, 1e-9);
  EXPECT_NEAR(d.memory_bus_mbps, 2.0 * 1000.0 / 60.0, 1e-9);
}

TEST(Decide, NoDeadlineRejects) {
  AdmissionController ctrl = make_controller();
  StreamDemand d = feasible_demand(0.5);
  d.deadline_ms = 0.0;
  const AdmissionDecision decision = ctrl.decide(d);
  EXPECT_EQ(decision.verdict, AdmissionVerdict::Reject);
  EXPECT_FALSE(decision.reason.empty());
}

TEST(Decide, InfeasiblePlanRejectsEvenWithIdleCapacity) {
  AdmissionController ctrl = make_controller();
  StreamDemand d = feasible_demand(0.1);
  d.plan_feasible = false;
  d.best_plan_ms = 42.0;
  EXPECT_EQ(ctrl.decide(d).verdict, AdmissionVerdict::Reject);
}

TEST(Decide, DemandBeyondTotalCapacityRejects) {
  AdmissionController ctrl = make_controller(/*pool_threads=*/4);
  // 4 threads (or fewer cores in the affinity mask) x 0.85 headroom; 3.4
  // cores on a host with at least 4 cores.
  const f64 capacity = ctrl.capacity_cores();
  EXPECT_NEAR(capacity, std::min(4, plat::affinity_cores()) * 0.85, 1e-12);
  EXPECT_EQ(ctrl.decide(feasible_demand(capacity + 0.1)).verdict,
            AdmissionVerdict::Reject);
  EXPECT_EQ(ctrl.decide(feasible_demand(capacity - 0.4)).verdict,
            AdmissionVerdict::Admit);
}

TEST(Decide, CapacityCappedByTheAffinityMask) {
#if defined(__linux__)
  // Restrict this thread to one core: a 4-thread pool then prices only one
  // core of capacity.  The mask is restored before any assertion.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  i32 first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const f64 restricted = make_controller(/*pool_threads=*/4).capacity_cores();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_NEAR(restricted, 1.0 * 0.85, 1e-12);
  // Restored: the pool's threads bound it again (4-core host: 3.4 cores).
  EXPECT_NEAR(make_controller(/*pool_threads=*/4).capacity_cores(),
              std::min(4, plat::affinity_cores()) * 0.85, 1e-12);
#else
  GTEST_SKIP() << "affinity masks are Linux-only";
#endif
}

TEST(Decide, BusSaturationRejectsAloneQueuesAgainstResidual) {
  AdmissionController ctrl = make_controller();
  const f64 bus_cap = ctrl.capacity_bus_mbps();
  EXPECT_EQ(ctrl.decide(feasible_demand(0.1, bus_cap * 1.01)).verdict,
            AdmissionVerdict::Reject);

  // Two streams at 60 % of the bus each: the first admits, the second only
  // queues (it would fit an idle server).
  const StreamDemand heavy = feasible_demand(0.1, bus_cap * 0.6);
  EXPECT_EQ(ctrl.decide(heavy).verdict, AdmissionVerdict::Admit);
  ctrl.commit(heavy);
  EXPECT_EQ(ctrl.decide(heavy).verdict, AdmissionVerdict::Queue);
}

TEST(Decide, QueueWhenResidualExhaustedAdmitAfterRelease) {
  AdmissionController ctrl = make_controller(/*pool_threads=*/4);
  // 2 of 3.4 cores on a host with at least 4 cores.
  const f64 share = ctrl.capacity_cores() * (2.0 / 3.4);
  const StreamDemand big = feasible_demand(share);
  EXPECT_EQ(ctrl.decide(big).verdict, AdmissionVerdict::Admit);
  ctrl.commit(big);
  EXPECT_EQ(ctrl.admitted_streams(), 1);
  EXPECT_NEAR(ctrl.committed_cores(), share, 1e-9);

  // The residual is smaller than the stream: a second one fits an idle
  // server but not this one -> Queue, not Reject.
  EXPECT_EQ(ctrl.decide(big).verdict, AdmissionVerdict::Queue);

  ctrl.release(big);
  EXPECT_EQ(ctrl.admitted_streams(), 0);
  EXPECT_NEAR(ctrl.committed_cores(), 0.0, 1e-9);
  EXPECT_EQ(ctrl.decide(big).verdict, AdmissionVerdict::Admit);
}

TEST(Decide, ReleaseFloorsAtZero) {
  AdmissionController ctrl = make_controller();
  ctrl.release(feasible_demand(1.0, 100.0));
  EXPECT_NEAR(ctrl.committed_cores(), 0.0, 1e-12);
  EXPECT_NEAR(ctrl.committed_bus_mbps(), 0.0, 1e-12);
  EXPECT_EQ(ctrl.admitted_streams(), 0);
}

/// Demand of a stream pinned to one scenario: every node active under the
/// switch bitmask costs 1 ms serial.
StreamDemand scenario_demand(graph::ScenarioId scenario, f64 deadline_ms) {
  const std::array<bool, app::kNodeCount> active =
      app::scenario_node_activity(scenario);
  StreamDemand d;
  d.deadline_ms = deadline_ms;
  for (bool a : active) {
    if (a) d.frame_ms += 1.0;
  }
  d.cores = d.frame_ms / deadline_ms;
  d.memory_bus_mbps = 1.0;
  d.best_plan_ms = deadline_ms * 0.5;
  d.plan_feasible = true;
  return d;
}

TEST(ScenarioSweep, AllEightScenariosAdmitOnAnIdleServer) {
  AdmissionController ctrl = make_controller();
  for (graph::ScenarioId s = 0; s < 8; ++s) {
    const AdmissionDecision decision = ctrl.decide(scenario_demand(s, 20.0));
    EXPECT_EQ(decision.verdict, AdmissionVerdict::Admit)
        << "scenario " << s << ": " << decision.reason;
  }
}

TEST(ScenarioSweep, HeavierScenariosDemandMoreCores) {
  // Turning a switch on can only add active nodes, so demand is monotone in
  // the bitmask partial order; the all-on scenario dominates the all-off one.
  for (graph::ScenarioId s = 0; s < 8; ++s) {
    for (i32 sw = 0; sw < 3; ++sw) {
      const graph::ScenarioId with_sw = s | (1u << sw);
      EXPECT_GE(scenario_demand(with_sw, 20.0).cores,
                scenario_demand(s, 20.0).cores)
          << "scenario " << s << " switch " << sw;
    }
  }
  EXPECT_GT(scenario_demand(7, 20.0).cores, scenario_demand(0, 20.0).cores);
}

TEST(ScenarioSweep, VerdictDegradesWithCommittedLoadPerScenario) {
  // Tight deadline: each full-scenario stream demands most of the capacity.
  AdmissionController ctrl = make_controller(/*pool_threads=*/4);
  const f64 deadline = 4.0;

  const StreamDemand full = scenario_demand(7, deadline);
  ASSERT_EQ(ctrl.decide(full).verdict, AdmissionVerdict::Admit);
  ctrl.commit(full);

  // With the heavy stream committed, every scenario that no longer fits the
  // residual queues; none may be rejected (each fits an idle server).
  for (graph::ScenarioId s = 0; s < 8; ++s) {
    const StreamDemand d = scenario_demand(s, deadline);
    const AdmissionDecision decision = ctrl.decide(d);
    EXPECT_NE(decision.verdict, AdmissionVerdict::Reject)
        << "scenario " << s << ": " << decision.reason;
    if (d.cores > ctrl.residual_cores()) {
      EXPECT_EQ(decision.verdict, AdmissionVerdict::Queue) << "scenario " << s;
    } else {
      EXPECT_EQ(decision.verdict, AdmissionVerdict::Admit) << "scenario " << s;
    }
  }
}

}  // namespace
}  // namespace tc::serve
