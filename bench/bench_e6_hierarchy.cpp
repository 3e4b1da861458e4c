// E6 — Section 5.2 closing remark: f CAS objects with a bounded number of
// overriding faults each have consensus number exactly f+1, so faulty
// CAS ensembles populate EVERY level of the Herlihy consensus hierarchy.
//
// Regenerates the f × n grid of verdicts and the resulting consensus
// numbers.  Cells are proven exhaustively where feasible; larger cells
// use the covering adversary (for violations) and randomized walks (for
// stress evidence), with the method reported per cell.
#include <iostream>
#include <numeric>

#include "hierarchy/consensus_number.hpp"
#include "proto/registry.hpp"
#include "sched/explorer.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const ff::util::Cli cli(argc, argv);
  const auto max_f = cli.get_u32("max-f", 4);
  const auto t = cli.get_u32("t", 1);

  std::cout << "=== E6: the Herlihy hierarchy from faulty CAS ensembles "
               "(Section 5.2) ===\n\n";

  ff::hierarchy::ProbeOptions options;
  options.explorer_max_states = cli.get_uint("state-cap", 1'500'000);
  options.walks = cli.get_uint("walks", 200);

  ff::util::Table grid({"f", "t", "n", "verdict", "method", "effort",
                        "detail"});
  ff::util::Table numbers({"f (faulty objects)", "t", "consensus number",
                           "theory (f+1)"});
  for (std::uint32_t f = 1; f <= max_f; ++f) {
    const auto estimate = ff::hierarchy::estimate_staged_consensus_number(
        f, t, f + 3, options);
    for (const auto& cell : estimate.cells) {
      grid.add(cell.f, cell.t, cell.n,
               std::string(ff::hierarchy::to_string(cell.evidence)),
               cell.method, cell.effort, cell.detail);
    }
    numbers.add(f, t, estimate.consensus_number, f + 1);
  }
  std::cout << grid << '\n' << numbers
            << "\nEach level n = f+1 of the hierarchy is realized by an "
               "ensemble of f bounded-fault CAS objects.\n\n";

  // Level 2, two ways: the textbook CORRECT test&set bit vs one
  // bounded-overriding-FAULTY CAS object — same consensus number, and
  // both refuted identically at n = 3.
  ff::util::Table level2({"object at level 2", "n=2", "n=3"});
  auto verdict = [](const ff::sched::MachineFactory& factory,
                    ff::sched::SimConfig config, std::uint32_t n) {
    std::vector<std::uint64_t> inputs(n);
    std::iota(inputs.begin(), inputs.end(), 10);
    config.num_registers = factory.registers_used();
    const ff::sched::SimWorld world(config, factory, inputs);
    const auto result = ff::sched::explore(world);
    return std::string(result.violation
                           ? ff::sched::to_string(result.violation->kind)
                           : (result.complete ? "OK (proven)" : "capped"));
  };
  {
    ff::sched::SimConfig clean;
    clean.num_objects = 1;
    clean.kind = ff::model::FaultKind::kNone;
    level2.add("correct test&set bit",
               verdict(*ff::proto::machine_factory(
                           "tas", ff::proto::Params{{"n", 2}}),
                       clean, 2),
               verdict(*ff::proto::machine_factory(
                           "tas", ff::proto::Params{{"n", 3}}),
                       clean, 3));
    ff::sched::SimConfig faulty;
    faulty.num_objects = 1;
    faulty.kind = ff::model::FaultKind::kOverriding;
    faulty.t = 1;
    level2.add("faulty CAS (1 overriding fault), staged protocol",
               verdict(*ff::proto::machine_factory(
                           "staged", ff::proto::Params{{"f", 1}, {"t", 1}}),
                       faulty, 2),
               verdict(*ff::proto::machine_factory(
                           "staged", ff::proto::Params{{"f", 1}, {"t", 1}}),
                       faulty, 3));
  }
  std::cout << "Level 2 from two directions (weak-but-correct vs "
               "strong-but-faulty):\n"
            << level2 << '\n';
  return 0;
}
