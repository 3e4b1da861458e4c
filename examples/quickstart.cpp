// Quickstart: build a bank of possibly-faulty CAS objects, run the
// paper's f-tolerant consensus protocol (Figure 2) across real threads,
// and verify the outcome.
//
//   $ ./quickstart [--f 2] [--n 4] [--trials 100] [--fault-rate 0.5]
#include <iostream>
#include <memory>
#include <vector>

#include "faults/budget.hpp"
#include "faults/faulty_cas.hpp"
#include "faults/policy.hpp"
#include "proto/registry.hpp"
#include "runtime/stress.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const ff::util::Cli cli(argc, argv);
  const auto f = cli.get_u32("f", 2);
  const auto n = cli.get_u32("n", 4);
  const auto trials = cli.get_uint("trials", 100);
  const double fault_rate = cli.get_double("fault-rate", 0.5);

  std::cout << "Consensus from faulty CAS objects (Sheffi & Petrank 2020)\n"
            << "f = " << f << " faulty objects (unbounded overriding "
            << "faults), " << f + 1 << " objects total, n = " << n
            << " processes\n\n";

  // f+1 CAS objects; up to f of them may fault, each attempting a fault
  // on ~fault_rate of its invocations.
  ff::faults::FaultBudget budget(f + 1, /*f=*/f, ff::model::kUnbounded);
  ff::faults::ProbabilisticFault policy(fault_rate, /*seed=*/42);

  std::vector<std::unique_ptr<ff::faults::FaultyCas>> bank;
  std::vector<ff::objects::CasObject*> raw;
  for (std::uint32_t i = 0; i <= f; ++i) {
    bank.push_back(std::make_unique<ff::faults::FaultyCas>(
        i, ff::model::FaultKind::kOverriding, &policy, &budget));
    raw.push_back(bank.back().get());
  }

  const auto protocol_ptr = ff::proto::protocol(
      "f-plus-one", ff::proto::Params{{"k", f + 1}}, raw);
  ff::consensus::Protocol& protocol = *protocol_ptr;

  ff::runtime::StressOptions options;
  options.processes = n;
  options.budget.max_units = trials;
  options.seed = 0x5eed;
  const auto report = ff::runtime::run_stress(
      protocol, options,
      [&](std::uint64_t) { budget.reset(); });

  std::cout << "trials               : " << report.trials << '\n'
            << "all-correct          : " << (report.all_ok() ? "yes" : "NO")
            << '\n'
            << "agreement rate       : " << report.ok_rate() << '\n'
            << "mean CAS steps/proc  : " << report.steps_per_process.mean()
            << " (theory: exactly " << f + 1 << ")\n";
  return report.all_ok() ? 0 : 1;
}
