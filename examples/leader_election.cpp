// leader_election — epoch-based leader election on faulty hardware.
//
// Every epoch, all workers propose themselves as leader through a
// consensus instance built from f CAS objects that may ALL suffer up to
// t overriding faults each (the staged protocol of Figure 3 — note: no
// correct object exists anywhere in the system!).  The elected leader
// performs the epoch's work; every worker must observe the same leader
// in every epoch.
//
//   $ ./leader_election [--workers 3] [--epochs 50] [--t 2]
//
// The worker count is capped at f+1 = workers, i.e. we run with f =
// workers-1 objects, the exact boundary Theorem 6 proves tight.
#include <cstdio>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "faults/budget.hpp"
#include "faults/faulty_cas.hpp"
#include "faults/policy.hpp"
#include "proto/registry.hpp"
#include "util/cli.hpp"
#include "util/spin_barrier.hpp"

int main(int argc, char** argv) {
  const ff::util::Cli cli(argc, argv);
  const auto workers = cli.get_u32("workers", 3);
  const auto epochs = cli.get_u32("epochs", 50);
  const auto t = cli.get_u32("t", 2);
  const std::uint32_t f = workers - 1;

  std::cout << "leader_election: " << workers << " workers, " << epochs
            << " epochs, staged consensus over f=" << f
            << " all-faulty CAS objects (t=" << t << " overriding faults "
            << "each, maxStage=" << ff::model::staged_max_stage(f, t)
            << ")\n";

  ff::faults::AlwaysFault policy;  // worst structured adversary
  ff::faults::FaultBudget budget(f, f, t);
  std::vector<std::unique_ptr<ff::faults::FaultyCas>> bank;
  std::vector<ff::objects::CasObject*> raw;
  for (std::uint32_t i = 0; i < f; ++i) {
    bank.push_back(std::make_unique<ff::faults::FaultyCas>(
        i, ff::model::FaultKind::kOverriding, &policy, &budget));
    raw.push_back(bank.back().get());
  }
  const auto election_ptr = ff::proto::protocol(
      "staged", ff::proto::Params{{"f", f}, {"t", t}}, raw);
  ff::consensus::Protocol& election = *election_ptr;
  election.set_step_limit(10'000'000);

  // elected[epoch][worker] = leader this worker observed.
  std::vector<std::vector<std::uint64_t>> elected(
      epochs, std::vector<std::uint64_t>(workers));
  std::vector<std::uint64_t> terms(workers, 0);
  ff::util::SpinBarrier barrier(workers);

  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (std::uint32_t epoch = 0; epoch < epochs; ++epoch) {
        barrier.arrive_and_wait();
        if (w == 0) {  // one worker resets the shared instance per epoch
          election.reset();
          budget.reset();
        }
        barrier.arrive_and_wait();
        // Propose myself (+1: inputs must be non-zero-distinct per epoch).
        const auto decision = election.decide(w + 1, w);
        elected[epoch][w] = decision.decided ? decision.value : 0;
      }
    });
  }
  for (auto& t_ : threads) t_.join();

  // Verify: one leader per epoch, observed identically by everyone.
  std::uint32_t disagreements = 0;
  for (std::uint32_t epoch = 0; epoch < epochs; ++epoch) {
    const std::uint64_t leader = elected[epoch][0];
    bool agree = leader != 0;
    for (std::uint32_t w = 1; w < workers; ++w) {
      agree = agree && elected[epoch][w] == leader;
    }
    if (!agree) {
      ++disagreements;
    } else {
      ++terms[static_cast<std::uint32_t>(leader - 1)];
    }
  }

  std::cout << "epochs with split brain : " << disagreements << " (must be 0)\n";
  for (std::uint32_t w = 0; w < workers; ++w) {
    std::printf("worker %u led %lu/%u epochs\n", w,
                static_cast<unsigned long>(terms[w]), epochs);
  }
  return disagreements == 0 ? 0 : 1;
}
