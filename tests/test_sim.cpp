// Simulator-layer tests: SimWorld mechanics, machine encodings, solo-run
// equivalence between the machine and thread implementations, and explorer
// basics on tiny configurations.
#include <gtest/gtest.h>

#include <memory>

#include "legacy/f_plus_one.hpp"
#include "legacy/machines.hpp"
#include "legacy/retry_silent.hpp"
#include "legacy/single_cas.hpp"
#include "legacy/staged.hpp"
#include "faults/faulty_cas.hpp"
#include "objects/atomic_cas.hpp"
#include "sched/explorer.hpp"
#include "sched/random_walk.hpp"
#include "sched/sim_world.hpp"

namespace ff {
namespace {

using consensus::FPlusOneFactory;
using consensus::RetrySilentFactory;
using consensus::SingleCasFactory;
using consensus::StagedFactory;
using model::FaultKind;
using model::Value;
using sched::Choice;
using sched::SimConfig;
using sched::SimWorld;

SimConfig overriding_config(std::uint32_t objects, std::uint32_t t) {
  SimConfig config;
  config.num_objects = objects;
  config.kind = FaultKind::kOverriding;
  config.t = t;
  return config;
}

// --- SimWorld mechanics -----------------------------------------------------

TEST(SimWorld, SoloHerlihyRunDecidesOwnInput) {
  SingleCasFactory factory;
  SimWorld world(overriding_config(1, 0), factory, {41});
  ASSERT_FALSE(world.terminal());
  const auto choices = world.enabled();
  ASSERT_EQ(choices.size(), 1u);  // t=0: no fault branch
  world.apply(choices[0]);
  EXPECT_TRUE(world.terminal());
  EXPECT_EQ(world.decisions()[0], 41u);
  EXPECT_EQ(world.object_value(0), Value::of(41));
}

TEST(SimWorld, FaultBranchOnlyWhenItWouldManifest) {
  SingleCasFactory factory;
  SimWorld world(overriding_config(1, model::kUnbounded), factory, {1, 2});
  // Initially both processes CAS(⊥, v): comparison succeeds, so an
  // overriding fault would not manifest — no fault branches.
  for (const Choice& c : world.enabled()) EXPECT_FALSE(c.fault);
  world.apply({0, false, 0});  // p0 writes 1
  // Now p1's CAS(⊥,2) would fail: the overriding fault manifests.
  const auto choices = world.enabled();
  ASSERT_EQ(choices.size(), 2u);
  EXPECT_FALSE(choices[0].fault);
  EXPECT_TRUE(choices[1].fault);
}

TEST(SimWorld, OverridingFaultWritesAndReturnsTruth) {
  SingleCasFactory factory;
  SimWorld world(overriding_config(1, 1), factory, {1, 2});
  world.apply({0, false, 0});
  world.apply({1, true, 0});  // p1's CAS overrides
  EXPECT_EQ(world.object_value(0), Value::of(2));
  EXPECT_EQ(world.faults_used(0), 1u);
  // p1 saw old=1 ≠ ⊥ and adopted it.
  EXPECT_EQ(world.decisions()[1], 1u);
}

TEST(SimWorld, BudgetStopsFaultBranches) {
  SingleCasFactory factory;
  SimWorld world(overriding_config(1, 1), factory, {1, 2, 3});
  world.apply({0, false, 0});
  world.apply({1, true, 0});  // consumes the only fault
  const auto choices = world.enabled();
  for (const Choice& c : choices) EXPECT_FALSE(c.fault);
}

TEST(SimWorld, FaultingProcessRestriction) {
  SimConfig config = overriding_config(1, model::kUnbounded);
  config.faulting_processes = {1};
  SingleCasFactory factory;
  SimWorld world(config, factory, {1, 2, 3});
  world.apply({0, false, 0});
  // Only p1's steps may fault.
  for (const Choice& c : world.enabled()) {
    if (c.fault) {
      EXPECT_EQ(c.pid, 1u);
    }
  }
}

TEST(SimWorld, FaultyMaskRestrictsObjects) {
  SimConfig config = overriding_config(2, model::kUnbounded);
  config.faulty = {false, true};
  FPlusOneFactory factory(2);
  SimWorld world(config, factory, {1, 2});
  world.apply({0, false, 0});  // p0 writes O_0 = 1
  // p1 now CASes O_0 (not faulty): no fault branch despite mismatch.
  for (const Choice& c : world.enabled()) EXPECT_FALSE(c.fault);
}

TEST(SimWorld, CopyIsIndependent) {
  SingleCasFactory factory;
  SimWorld a(overriding_config(1, 1), factory, {1, 2});
  SimWorld b = a;
  a.apply({0, false, 0});
  EXPECT_TRUE(a.object_value(0) == Value::of(1));
  EXPECT_TRUE(b.object_value(0).is_bottom());
  EXPECT_FALSE(b.terminal());
}

TEST(SimWorld, EncodeDistinguishesStates) {
  SingleCasFactory factory;
  SimWorld a(overriding_config(1, 1), factory, {1, 2});
  SimWorld b = a;
  EXPECT_EQ(a.encode(), b.encode());
  a.apply({0, false, 0});
  EXPECT_NE(a.encode(), b.encode());
  b.apply({0, false, 0});
  EXPECT_EQ(a.encode(), b.encode());
}

TEST(SimWorld, NonresponsiveKillsProcess) {
  SimConfig config = overriding_config(1, 1);
  config.kind = FaultKind::kNonresponsive;
  SingleCasFactory factory;
  SimWorld world(config, factory, {1, 2});
  world.apply({0, true, 0});  // p0's CAS never returns
  EXPECT_TRUE(world.killed(0));
  EXPECT_FALSE(world.terminal());
  world.apply({1, false, 0});
  EXPECT_TRUE(world.terminal());
  EXPECT_TRUE(world.any_killed());
  EXPECT_FALSE(world.decisions()[0].has_value());
  EXPECT_EQ(world.decisions()[1], 2u);
}

TEST(SimWorld, SilentFaultBranchesOnlyOnMatch) {
  SimConfig config = overriding_config(1, model::kUnbounded);
  config.kind = FaultKind::kSilent;
  SingleCasFactory factory;
  SimWorld world(config, factory, {1, 2});
  // Content ⊥ matches expected ⊥: silent fault manifests.
  bool has_fault = false;
  for (const Choice& c : world.enabled()) has_fault |= c.fault;
  EXPECT_TRUE(has_fault);
  world.apply({0, true, 0});  // silent: p0 believes it wrote
  EXPECT_TRUE(world.object_value(0).is_bottom());
  EXPECT_EQ(world.decisions()[0], 1u);  // p0 decided its own value
}

// --- solo-run equivalence: machine vs thread implementation ---------------

TEST(Equivalence, SingleCasSolo) {
  SingleCasFactory factory;
  SimWorld world(overriding_config(1, 0), factory, {9});
  while (!world.terminal()) world.apply({0, false, 0});

  objects::AtomicCas object(0);
  consensus::SingleCasConsensus protocol(object);
  const auto decision = protocol.decide(9, 0);
  EXPECT_EQ(world.decisions()[0], decision.value);
  EXPECT_EQ(world.total_steps(), decision.cas_steps);
}

TEST(Equivalence, FPlusOneSolo) {
  constexpr std::uint32_t kObjects = 4;
  FPlusOneFactory factory(kObjects);
  SimWorld world(overriding_config(kObjects, 0), factory, {9});
  while (!world.terminal()) world.apply({0, false, 0});

  std::vector<std::unique_ptr<objects::AtomicCas>> bank;
  std::vector<objects::CasObject*> raw;
  for (std::uint32_t i = 0; i < kObjects; ++i) {
    bank.push_back(std::make_unique<objects::AtomicCas>(i));
    raw.push_back(bank.back().get());
  }
  consensus::FPlusOneConsensus protocol(raw);
  const auto decision = protocol.decide(9, 0);
  EXPECT_EQ(world.decisions()[0], decision.value);
  EXPECT_EQ(world.total_steps(), decision.cas_steps);
}

TEST(Equivalence, StagedSoloStepForStep) {
  for (const auto& [f, t] : {std::pair{1u, 1u}, {2u, 1u}, {2u, 2u}, {3u, 1u}}) {
    StagedFactory factory(f, t);
    SimWorld world(overriding_config(f, 0), factory, {5});
    std::uint64_t guard = 0;
    while (!world.terminal()) {
      world.apply({0, false, 0});
      ASSERT_LT(++guard, 1000000u);
    }

    std::vector<std::unique_ptr<objects::AtomicCas>> bank;
    std::vector<objects::CasObject*> raw;
    for (std::uint32_t i = 0; i < f; ++i) {
      bank.push_back(std::make_unique<objects::AtomicCas>(i));
      raw.push_back(bank.back().get());
    }
    consensus::StagedConsensus protocol(raw, t);
    const auto decision = protocol.decide(5, 0);
    EXPECT_TRUE(decision.decided);
    EXPECT_EQ(world.decisions()[0], decision.value) << "f=" << f << " t=" << t;
    EXPECT_EQ(world.total_steps(), decision.cas_steps)
        << "f=" << f << " t=" << t;
  }
}

TEST(Equivalence, RetrySilentSolo) {
  RetrySilentFactory factory;
  SimConfig config = overriding_config(1, 0);
  config.kind = FaultKind::kSilent;
  SimWorld world(config, factory, {3});
  while (!world.terminal()) world.apply({0, false, 0});

  objects::AtomicCas object(0);
  consensus::RetrySilentConsensus protocol(object);
  const auto decision = protocol.decide(3, 0);
  EXPECT_EQ(world.decisions()[0], decision.value);
  EXPECT_EQ(world.total_steps(), decision.cas_steps);
}

// --- explorer basics --------------------------------------------------------

TEST(Explorer, FaultFreeHerlihyTwoProcs) {
  SingleCasFactory factory;
  SimWorld world(overriding_config(1, 0), factory, {1, 2});
  const auto result = sched::explore(world);
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.violation.has_value());
  // Two schedules, two winners.
  EXPECT_EQ(result.agreed_values.size(), 2u);
}

TEST(Explorer, FaultFreeHerlihyManyProcs) {
  SingleCasFactory factory;
  for (std::uint32_t n = 2; n <= 5; ++n) {
    std::vector<std::uint64_t> inputs;
    for (std::uint32_t i = 0; i < n; ++i) inputs.push_back(i + 1);
    SimWorld world(overriding_config(1, 0), factory, inputs);
    const auto result = sched::explore(world);
    EXPECT_TRUE(result.complete) << "n=" << n;
    EXPECT_FALSE(result.violation.has_value()) << "n=" << n;
    EXPECT_EQ(result.agreed_values.size(), n) << "n=" << n;
  }
}

TEST(Explorer, ReplayReproducesViolation) {
  // Herlihy with one overriding fault and three processes disagrees; the
  // witness schedule must replay to an inconsistent terminal state.
  SingleCasFactory factory;
  SimWorld world(overriding_config(1, 1), factory, {1, 2, 3});
  const auto result = sched::explore(world);
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, sched::ViolationKind::kInconsistent);

  const SimWorld replayed = sched::replay(world, result.violation->schedule);
  EXPECT_TRUE(replayed.terminal());
  const auto decisions = replayed.decisions();
  std::set<std::uint64_t> distinct;
  for (const auto& d : decisions) {
    ASSERT_TRUE(d.has_value());
    distinct.insert(*d);
  }
  EXPECT_GE(distinct.size(), 2u);
}

TEST(Explorer, CountsTerminalStatesOnToyConfig) {
  // n=1: a solo run has exactly one schedule and one terminal state.
  SingleCasFactory factory;
  SimWorld world(overriding_config(1, 0), factory, {7});
  const auto result = sched::explore(world);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.terminal_states, 1u);
  EXPECT_EQ(result.states_visited, 2u);  // initial + decided
}

TEST(Explorer, StateCapAborts) {
  StagedFactory factory(2, 2);
  SimWorld world(overriding_config(2, 2), factory, {1, 2, 3});
  sched::ExploreOptions options;
  options.max_states = 100;
  const auto result = sched::explore(world, options);
  EXPECT_FALSE(result.complete);
  EXPECT_LE(result.states_visited, 102u);
}

TEST(MaxStatesTruncation, SequentialCapIsIncompleteAndFabricatesNothing) {
  // staged f=2, t=2, n=3 is a known-correct configuration whose state
  // space far exceeds the cap: a truncated full-space run must come back
  // incomplete and must NOT fabricate a violation.
  StagedFactory factory(2, 2);
  SimWorld world(overriding_config(2, 2), factory, {1, 2, 3});
  sched::ExploreOptions options;
  options.stop_at_first_violation = false;
  options.max_states = 500;
  const auto result = sched::explore(world, options);
  EXPECT_FALSE(result.complete);
  EXPECT_FALSE(result.violation.has_value());
  EXPECT_EQ(result.violations_found, 0u);
  EXPECT_LE(result.states_visited, options.max_states + 1);
}

TEST(RandomWalk, TerminatesAndAgreesOnFaultFreeRun) {
  FPlusOneFactory factory(3);
  SimWorld world(overriding_config(3, 0), factory, {1, 2, 3});
  const auto outcome = sched::random_walk(world, {.seed = 1});
  EXPECT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.agreed.has_value());
  EXPECT_EQ(outcome.steps, 9u);  // 3 processes × 3 objects
}

TEST(RandomWalk, DeterministicInSeed) {
  FPlusOneFactory factory(2);
  SimWorld world(overriding_config(2, model::kUnbounded), factory, {1, 2, 3});
  const auto a = sched::random_walk(world, {.seed = 99, .fault_bias = 0.7});
  const auto b = sched::random_walk(world, {.seed = 99, .fault_bias = 0.7});
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.agreed, b.agreed);
  EXPECT_EQ(a.consistent, b.consistent);
}

TEST(RandomWalkCampaign, AggregatesOutcomes) {
  FPlusOneFactory factory(2);  // f+1 = 2 objects, 1 faulty: always correct
  SimConfig config = overriding_config(2, model::kUnbounded);
  config.faulty = {true, false};
  SimWorld world(config, factory, {1, 2, 3});
  const auto report = sched::run_walk_campaign(world, 50, {.seed = 5});
  EXPECT_EQ(report.walks, 50u);
  EXPECT_TRUE(report.all_ok());
}

}  // namespace
}  // namespace ff
