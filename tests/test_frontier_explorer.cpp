// Differential-testing harness for the batched owner-computes frontier
// explorer (sched/frontier_explorer.hpp), the parallel engine: the
// frontier census must be BIT-EQUAL to the sequential oracle's on every
// cell of two grids — the legacy-machine differential grid (the scalar
// StepMachine arena path) and the simulable-registry × fault-kind ×
// crash-budget grid (the IR/generated batch path) — with symmetry
// reduction on and off, under forced spilling, and at any worker and
// shard count down to one of each.  Witnesses must strictly replay,
// including witnesses reconstructed out of spilled runs.  Also covers
// ExploreOptions::max_states truncation (a capped run must be incomplete
// and must not fabricate a violation on a correct configuration) and the
// loud failure on an out-of-range object/register index.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>

#include "explore_diff.hpp"
#include "legacy/machines.hpp"
#include "proto/registry.hpp"
#include "sched/explorer.hpp"
#include "sched/frontier_explorer.hpp"
#include "verify/run.hpp"

namespace ff {
namespace {

using model::FaultKind;
using model::kUnbounded;
using sched::ExploreOptions;
using sched::ExploreResult;
using sched::FrontierExploreOptions;
using sched::FrontierExploreResult;
using sched::ViolationKind;
using testutil::differential_grid;
using testutil::expect_census_matches;
using testutil::expect_frontier_matches_sequential;
using testutil::expect_witness_reproduces;
using testutil::frontier_options;
using testutil::frontier_run;
using testutil::full_space_options;
using testutil::GridCase;
using testutil::iota_inputs;
using testutil::make_world;

/// One cell of the registry grid: a registered protocol under a fault
/// kind and a crash budget, described as the canonical verify::JobSpec
/// the front ends would submit.  verify::instantiate() resolves the
/// config/factory/inputs the engines actually see — the test exercises
/// the same resolution path instead of re-deriving SimConfig by hand.
struct RegistryCase {
  std::string label;
  verify::JobSpec spec;
};

std::vector<RegistryCase> registry_grid() {
  std::vector<RegistryCase> grid;
  for (const auto& info : proto::ProtocolRegistry::instance().all()) {
    if (!info.simulable) continue;
    for (const FaultKind kind :
         {FaultKind::kNone, FaultKind::kOverriding, FaultKind::kSilent,
          FaultKind::kInvisible, FaultKind::kArbitrary,
          FaultKind::kNonresponsive}) {
      for (const std::uint32_t crash_budget : {0u, 1u}) {
        RegistryCase rc;
        rc.label = info.name + "/" + std::string(model::to_string(kind)) +
                   "/crash" + std::to_string(crash_budget);
        rc.spec.protocol = info.name;
        rc.spec.kind = kind;
        rc.spec.t = kind == FaultKind::kNone ? 0 : 1;
        rc.spec.crash_budget = crash_budget;
        rc.spec.processes = 2;
        rc.spec.engine = verify::Engine::kFrontier;
        rc.spec.sleep_sets = false;  // the frontier engine rejects POR
        rc.spec.killed_is_violation = kind == FaultKind::kNonresponsive;
        rc.spec.stop_at_first_violation = false;
        grid.push_back(std::move(rc));
      }
    }
  }
  return grid;
}

// ---------------------------------------------------------------------------
// Legacy-machine grid: the scalar StepMachine arena path.
// ---------------------------------------------------------------------------

TEST(FrontierDifferential, LegacyGridTwoThreads) {
  for (const GridCase& gc : differential_grid()) {
    expect_frontier_matches_sequential(make_world(gc), *gc.factory,
                                       full_space_options(gc), 2, 0,
                                       gc.name + " threads=2");
  }
}

TEST(FrontierDifferential, LegacyGridSymmetryOff) {
  std::size_t i = 0;
  for (const GridCase& gc : differential_grid()) {
    if (i++ % 3 != 0) continue;  // every third cell keeps runtime bounded
    ExploreOptions opts = full_space_options(gc);
    opts.symmetry_reduction = false;
    expect_frontier_matches_sequential(make_world(gc), *gc.factory, opts, 4,
                                       0, gc.name + " sym=off");
  }
}

// ---------------------------------------------------------------------------
// The parallel engine against the sequential oracle at the worker/shard
// extremes and under stop-at-first.
// ---------------------------------------------------------------------------

TEST(ParallelDifferential, FullGridTwoThreads) {
  // Two workers over sixteen shards: more shards than workers, so every
  // worker owns several and handoffs cross the rings in both directions.
  for (const GridCase& gc : differential_grid()) {
    expect_frontier_matches_sequential(make_world(gc), *gc.factory,
                                       full_space_options(gc), 2, 16,
                                       gc.name + " threads=2 shards=16");
  }
}

TEST(ParallelDifferential, FullGridFourThreads) {
  for (const GridCase& gc : differential_grid()) {
    expect_frontier_matches_sequential(make_world(gc), *gc.factory,
                                       full_space_options(gc), 4, 0,
                                       gc.name + " threads=4");
  }
}

TEST(ParallelDifferential, SingleThreadSingleShardDegenerate) {
  // One worker owning one shard: no handoff ring ever carries a state,
  // and the census must still match the oracle.
  std::size_t i = 0;
  for (const GridCase& gc : differential_grid()) {
    if (i++ % 3 != 0) continue;  // every third cell keeps runtime bounded
    expect_frontier_matches_sequential(make_world(gc), *gc.factory,
                                       full_space_options(gc), 1, 1,
                                       gc.name + " threads=1 shards=1");
  }
}

TEST(ParallelDifferential, DefaultOptionsStopAtFirstAgreesOnVerdict) {
  // stop_at_first_violation = true (the default): which violation is
  // reported first is traversal-dependent, but whether ANY violation
  // exists is a property of the graph and must agree.
  std::size_t i = 0;
  for (const GridCase& gc : differential_grid()) {
    if (i++ % 2 != 0) continue;
    const sched::SimWorld world = make_world(gc);
    ExploreOptions opts;  // defaults: stop at first violation
    opts.killed_is_violation = gc.kind == FaultKind::kNonresponsive;

    const ExploreResult seq = sched::explore(world, opts);
    const ExploreResult fr = frontier_run(world, *gc.factory, opts, 2);
    EXPECT_EQ(seq.violation.has_value(), fr.violation.has_value())
        << gc.name;
    EXPECT_EQ(seq.complete, fr.complete) << gc.name;
    if (fr.violation) {
      expect_witness_reproduces(world, *fr.violation, gc.name);
    }
  }
}

TEST(ParallelDifferential, NonterminationWitnessRevisitsState) {
  // §3.4: retry-silent under unboundedly many silent faults livelocks.
  // On the legacy scalar path the SCC post-pass must find the cycle and
  // produce a witness whose replay revisits a state with a process step
  // in the repeated suffix.
  const GridCase gc{"retry-silent/silent/tinf/n2",
                    std::make_shared<consensus::RetrySilentFactory>(),
                    FaultKind::kSilent, kUnbounded, 2};
  const sched::SimWorld world = make_world(gc);
  const ExploreResult result =
      frontier_run(world, *gc.factory, full_space_options(gc), 2, 8);
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, ViolationKind::kNontermination);
  EXPECT_GT(result.violations_of(ViolationKind::kNontermination), 0u);
  expect_witness_reproduces(world, *result.violation, gc.name);
}

TEST(ParallelDifferential, TerminalInitialState) {
  // A zero-process world on the legacy scalar path is terminal at the
  // root; both explorers handle it without spawning work.
  const consensus::SingleCasFactory factory;
  sched::SimConfig config;
  config.num_objects = 1;
  const sched::SimWorld world(config, factory, {});
  const ExploreResult seq = sched::explore(world);
  const ExploreResult fr = frontier_run(world, factory, ExploreOptions{}, 2);
  EXPECT_EQ(seq.states_visited, fr.states_visited);
  EXPECT_EQ(seq.terminal_states, fr.terminal_states);
  EXPECT_EQ(seq.complete, fr.complete);
  EXPECT_EQ(seq.violation.has_value(), fr.violation.has_value());
}

// ---------------------------------------------------------------------------
// Registry grid: every simulable protocol under every per-operation
// fault kind and crash budget 0/1 — the IR/generated batch path.
// ---------------------------------------------------------------------------

TEST(FrontierDifferential, RegistryGridWithCrashBudgets) {
  std::size_t compared = 0;
  std::size_t threw = 0;
  for (const RegistryCase& rc : registry_grid()) {
    const verify::Instance instance = verify::instantiate(rc.spec);
    ExploreOptions opts;
    opts.stop_at_first_violation = rc.spec.stop_at_first_violation;
    opts.killed_is_violation = rc.spec.killed_is_violation;
    // A corrupted delivered value can drive an indexed protocol to an
    // out-of-range register (announce-cas under invisible/arbitrary
    // faults): the sequential oracle throws out_of_range there, and the
    // frontier must fail the same way instead of returning a verdict.
    bool oracle_threw = false;
    try {
      (void)sched::explore(instance.world(), opts);
    } catch (const std::out_of_range&) {
      oracle_threw = true;
    }
    if (oracle_threw) {
      EXPECT_THROW((void)frontier_run(instance.world(), *instance.factory,
                                      opts, 4),
                   std::out_of_range)
          << rc.label;
      ++threw;
      continue;
    }
    expect_frontier_matches_sequential(instance.world(), *instance.factory,
                                       opts, 4, 0, rc.label);
    ++compared;
  }
  EXPECT_GE(compared, 80u);  // 8 protocols × 6 kinds × 2 budgets, few throw
  EXPECT_GT(threw, 0u);
}

// ---------------------------------------------------------------------------
// Shard invariance: the census is a property of the graph, not of the
// partitioning.
// ---------------------------------------------------------------------------

TEST(FrontierDifferential, ShardCountInvariance) {
  const auto factory = proto::machine_factory("staged");
  sched::SimConfig config;
  config.num_objects = factory->objects_used();
  config.num_registers = factory->registers_used();
  config.kind = FaultKind::kOverriding;
  config.t = 1;
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  const sched::SimWorld world(config, *factory, iota_inputs(3));
  for (const std::uint32_t shards : {1u, 2u, 8u}) {
    expect_frontier_matches_sequential(
        world, *factory, opts, 4, shards,
        "staged shards=" + std::to_string(shards));
  }
}

// ---------------------------------------------------------------------------
// Forced spill: a byte-sized watermark spills every wave; the census and
// the reconstructed witnesses must not change.
// ---------------------------------------------------------------------------

FrontierExploreOptions spill_opts(FrontierExploreOptions options,
                                  const std::string& subdir) {
  options.spill_dir =
      (std::filesystem::path(::testing::TempDir()) / subdir).string();
  options.mem_limit_bytes = 1;  // below any table: spill after every wave
  return options;
}

TEST(FrontierSpill, ForcedSpillCensusParity) {
  std::size_t i = 0;
  for (const GridCase& gc : differential_grid()) {
    if (i++ % 4 != 0) continue;
    const sched::SimWorld world = make_world(gc);
    const FrontierExploreOptions options =
        spill_opts(frontier_options(full_space_options(gc), 2),
                   "ff_spill_" + std::to_string(i));
    const FrontierExploreResult spilled = frontier_explore(
        world.config(), *gc.factory, world.inputs(), options);
    EXPECT_GT(spilled.stats.spill_runs, 0u) << gc.name;
    EXPECT_GT(spilled.stats.spilled_records, 0u) << gc.name;
    const ExploreResult seq = sched::explore(world, options.explore);
    expect_census_matches(seq, spilled.explore, gc.name + " spilled");
    if (spilled.explore.violation) {
      expect_witness_reproduces(world, *spilled.explore.violation,
                                gc.name + " spilled witness");
    }
  }
}

TEST(FrontierSpill, SpilledWitnessStrictReplay) {
  // Single-CAS under one silent fault violates agreement (the winning
  // CAS is lost); with a byte watermark the witness chain must be
  // walked back through the spilled runs by binary search and still
  // strictly replay.
  const auto factory = proto::machine_factory("single-cas");
  sched::SimConfig config;
  config.num_objects = factory->objects_used();
  config.kind = FaultKind::kSilent;
  config.t = 1;
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  const FrontierExploreOptions options =
      spill_opts(frontier_options(opts, 2), "ff_spill_witness");
  const FrontierExploreResult fr =
      frontier_explore(config, *factory, iota_inputs(2), options);
  EXPECT_GT(fr.stats.spill_runs, 0u);
  ASSERT_TRUE(fr.explore.violation.has_value());
  const sched::SimWorld world(config, *factory, iota_inputs(2));
  expect_witness_reproduces(world, *fr.explore.violation, "spilled witness");
}

// ---------------------------------------------------------------------------
// Nontermination, engine stats, and edge cases.
// ---------------------------------------------------------------------------

TEST(FrontierExplorer, NonterminationWitnessRevisitsState) {
  // §3.4: retry-silent under unboundedly many silent faults livelocks;
  // the SCC post-pass must find the cycle and produce a replayable lap.
  const auto factory = proto::machine_factory("retry-silent");
  sched::SimConfig config;
  config.num_objects = factory->objects_used();
  config.kind = FaultKind::kSilent;
  config.t = kUnbounded;
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  const FrontierExploreResult fr =
      frontier_explore(config, *factory, iota_inputs(2),
                       frontier_options(opts, 2));
  ASSERT_TRUE(fr.explore.violation.has_value());
  EXPECT_EQ(fr.explore.violation->kind, ViolationKind::kNontermination);
  EXPECT_GT(fr.explore.violations_of(ViolationKind::kNontermination), 0u);
  const sched::SimWorld world(config, *factory, iota_inputs(2));
  expect_witness_reproduces(world, *fr.explore.violation, "retry-silent");
}

TEST(FrontierExplorer, StatsReflectBatchedStepping) {
  // The generated path must actually batch: at least one batch_deliver
  // sweep, lanes hash-consed, memoization hits on revisited transitions,
  // and a nonzero peak-memory census.
  const auto factory = proto::machine_factory("staged");
  sched::SimConfig config;
  config.num_objects = factory->objects_used();
  config.num_registers = factory->registers_used();
  config.kind = FaultKind::kOverriding;
  config.t = 1;
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  const FrontierExploreResult fr =
      frontier_explore(config, *factory, iota_inputs(3),
                       frontier_options(opts, 4));
  EXPECT_TRUE(fr.explore.complete);
  EXPECT_GT(fr.stats.waves, 0u);
  EXPECT_GT(fr.stats.batch_sweeps, 0u);
  EXPECT_GT(fr.stats.batched_lanes, 0u);
  EXPECT_GT(fr.stats.memo_hits, 0u);
  EXPECT_GT(fr.stats.arena_lanes, 0u);
  EXPECT_GT(fr.explore.peak_bytes, 0u);
  EXPECT_EQ(fr.stats.spill_runs, 0u);  // no spill_dir configured
}

TEST(FrontierExplorer, MaxStatesTruncationIsIncompleteNotWrong) {
  // A capped run must flag incompleteness and must not fabricate a
  // violation on a correct configuration.
  const auto factory = proto::machine_factory("staged");
  sched::SimConfig config;
  config.num_objects = factory->objects_used();
  config.num_registers = factory->registers_used();
  config.kind = FaultKind::kOverriding;
  config.t = 1;
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  opts.max_states = 10;
  const FrontierExploreResult fr =
      frontier_explore(config, *factory, iota_inputs(3),
                       frontier_options(opts, 2));
  EXPECT_FALSE(fr.explore.complete);
  EXPECT_FALSE(fr.explore.violation.has_value());
}

TEST(FrontierExplorer, TerminalInitialState) {
  // A zero-process world is terminal at the root; the first dedup pass
  // interns it and wave 0 expands nothing.
  const auto factory = proto::machine_factory("single-cas");
  sched::SimConfig config;
  config.num_objects = factory->objects_used();
  const FrontierExploreResult fr =
      frontier_explore(config, *factory, {},
                       frontier_options(ExploreOptions{}, 2));
  const sched::SimWorld world(config, *factory, {});
  const ExploreResult seq = sched::explore(world);
  EXPECT_EQ(seq.states_visited, fr.explore.states_visited);
  EXPECT_EQ(seq.terminal_states, fr.explore.terminal_states);
  EXPECT_EQ(seq.complete, fr.explore.complete);
  EXPECT_EQ(seq.violation.has_value(), fr.explore.violation.has_value());
  EXPECT_EQ(fr.stats.waves, 0u);
}

TEST(FrontierExplorer, OutOfRangeIndexThrows) {
  // announce-cas under arbitrary faults at n = 3: a fabricated CAS
  // response becomes a register index past the end.  The run has no
  // verdict, so the engine must throw from the calling thread instead
  // of returning an incomplete "no violation".
  verify::JobSpec spec;
  spec.protocol = "announce-cas";
  spec.kind = FaultKind::kArbitrary;
  spec.processes = 3;
  spec.engine = verify::Engine::kFrontier;
  spec.sleep_sets = false;
  for (const std::uint32_t threads : {1u, 4u}) {
    spec.threads = threads;
    EXPECT_THROW((void)verify::run(spec), std::out_of_range) << threads;
  }
}

TEST(FrontierExplorer, SleepSetsRejected) {
  // Sleep-set POR is a DFS-path notion a BFS wavefront cannot carry
  // soundly; the engine rejects the flag loudly instead of silently
  // ignoring it (the silent-ignore era made cache keys ambiguous).
  const auto factory = proto::machine_factory("single-cas");
  sched::SimConfig config;
  config.num_objects = factory->objects_used();
  FrontierExploreOptions options;  // explore.sleep_sets defaults to true
  EXPECT_THROW(frontier_explore(config, *factory, iota_inputs(2), options),
               std::invalid_argument);
  // The same rule holds one layer up, at job validation time.
  verify::JobSpec spec;
  spec.protocol = "single-cas";
  spec.engine = verify::Engine::kFrontier;  // sleep_sets defaults to true
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ExploreOptions::max_states truncation.
// ---------------------------------------------------------------------------

// staged f=2, t=2, n=3 is a known-correct configuration whose state space
// far exceeds the cap used here: a truncated run must come back
// incomplete and must NOT fabricate a violation.
TEST(MaxStatesTruncation, ParallelCapIsIncompleteAndFabricatesNothing) {
  const consensus::StagedFactory factory(2, 2);
  sched::SimConfig config;
  config.num_objects = 2;
  config.kind = FaultKind::kOverriding;
  config.t = 2;
  const sched::SimWorld world(config, factory, iota_inputs(3));
  ExploreOptions options;
  options.stop_at_first_violation = false;
  options.max_states = 500;
  for (const std::uint32_t threads : {1u, 4u}) {
    const ExploreResult result = frontier_run(world, factory, options, threads);
    EXPECT_FALSE(result.complete) << threads;
    EXPECT_FALSE(result.violation.has_value()) << threads;
    EXPECT_EQ(result.violations_found, 0u) << threads;
    EXPECT_LE(result.states_visited, options.max_states + threads) << threads;
  }
}

TEST(MaxStatesTruncation, UncappedMediumWorldIsCompleteAndAgrees) {
  // staged f=2, t=2 at n=2: the same protocol family as the capped run
  // above, but small enough (~380k states) to explore exhaustively.
  const consensus::StagedFactory factory(2, 2);
  sched::SimConfig config;
  config.num_objects = 2;
  config.kind = FaultKind::kOverriding;
  config.t = 2;
  const sched::SimWorld world(config, factory, iota_inputs(2));
  ExploreOptions options;
  options.stop_at_first_violation = false;
  const ExploreResult seq = sched::explore(world, options);
  const ExploreResult fr = frontier_run(world, factory, options, 2);
  expect_census_matches(seq, fr, "staged f2 t2 n2");
  EXPECT_EQ(seq.violations_found, 0u);
  EXPECT_EQ(fr.violations_found, 0u);
}

}  // namespace
}  // namespace ff
