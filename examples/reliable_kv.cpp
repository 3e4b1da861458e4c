// reliable_kv — a replicated key-value store built on faulty-CAS
// consensus (the "universal construction" use of consensus the paper's
// introduction motivates).
//
// N worker threads share a replicated log.  For every log slot each
// worker proposes its own PUT operation; a consensus instance built from
// f+1 CAS objects (up to f with unbounded overriding faults — Figure 2)
// decides which proposal wins the slot.  Every worker applies the decided
// operations, in slot order, to its private replica.  Because consensus
// is fault-tolerant, all replicas end up identical even though the
// hardware misbehaves.
//
//   $ ./reliable_kv [--workers 4] [--slots 200] [--f 2] [--fault-rate 0.6]
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "consensus/consensus.hpp"
#include "faults/budget.hpp"
#include "faults/faulty_cas.hpp"
#include "faults/policy.hpp"
#include "proto/registry.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/spin_barrier.hpp"

namespace {

using ff::consensus::InputValue;

/// A PUT operation packed into a consensus input value:
/// [worker:8 | key:8 | value:16].
struct PutOp {
  std::uint8_t worker;
  std::uint8_t key;
  std::uint16_t value;

  [[nodiscard]] InputValue pack() const {
    return (static_cast<InputValue>(worker) << 24) |
           (static_cast<InputValue>(key) << 16) | value;
  }
  static PutOp unpack(InputValue v) {
    return PutOp{static_cast<std::uint8_t>(v >> 24),
                 static_cast<std::uint8_t>(v >> 16),
                 static_cast<std::uint16_t>(v)};
  }
};

}  // namespace

int main(int argc, char** argv) {
  const ff::util::Cli cli(argc, argv);
  const auto workers = cli.get_u32("workers", 4);
  const auto slots = cli.get_u32("slots", 200);
  const auto f = cli.get_u32("f", 2);
  const double fault_rate = cli.get_double("fault-rate", 0.6);

  std::cout << "reliable_kv: " << workers << " workers, " << slots
            << " log slots, consensus per slot from " << f + 1
            << " CAS objects (" << f << " may fault, rate " << fault_rate
            << ")\n";

  // One consensus instance per log slot, each over its own object bank.
  ff::faults::ProbabilisticFault policy(fault_rate, 0xCAFE);
  std::vector<std::unique_ptr<ff::faults::FaultBudget>> budgets;
  std::vector<std::unique_ptr<ff::faults::FaultyCas>> objects;
  std::vector<std::unique_ptr<ff::consensus::Protocol>> log;
  for (std::uint32_t slot = 0; slot < slots; ++slot) {
    budgets.push_back(std::make_unique<ff::faults::FaultBudget>(
        f + 1, f, ff::model::kUnbounded));
    std::vector<ff::objects::CasObject*> raw;
    for (std::uint32_t i = 0; i <= f; ++i) {
      // Object ids are bank-local: each slot's budget tracks its own
      // objects 0..f.
      objects.push_back(std::make_unique<ff::faults::FaultyCas>(
          i, ff::model::FaultKind::kOverriding, &policy,
          budgets.back().get()));
      raw.push_back(objects.back().get());
    }
    log.push_back(ff::proto::protocol(
        "f-plus-one", ff::proto::Params{{"k", f + 1}}, raw));
  }

  // Each worker proposes ops and applies the winners.
  std::vector<std::map<std::uint8_t, std::uint16_t>> replicas(workers);
  std::vector<std::uint64_t> wins(workers, 0);
  ff::util::SpinBarrier barrier(workers);
  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      ff::util::Xoshiro256 rng(0xBEEF + w);
      for (std::uint32_t slot = 0; slot < slots; ++slot) {
        // Rendezvous per slot so every slot is genuinely contended
        // (without it one worker sprints ahead and wins everything).
        barrier.arrive_and_wait();
        const PutOp proposal{static_cast<std::uint8_t>(w),
                             static_cast<std::uint8_t>(rng.below(16)),
                             static_cast<std::uint16_t>(rng.below(1000))};
        const auto decision = log[slot]->decide(proposal.pack(), w);
        const PutOp winner = PutOp::unpack(decision.value);
        replicas[w][winner.key] = winner.value;
        if (winner.worker == w) ++wins[w];
      }
    });
  }
  for (auto& t : threads) t.join();

  // All replicas must be identical.
  bool identical = true;
  for (std::uint32_t w = 1; w < workers; ++w) {
    identical = identical && replicas[w] == replicas[0];
  }

  std::cout << "replica consistency  : " << (identical ? "IDENTICAL" : "DIVERGED")
            << '\n'
            << "keys in store        : " << replicas[0].size() << '\n';
  for (std::uint32_t w = 0; w < workers; ++w) {
    std::printf("worker %u won %lu/%u slots\n", w,
                static_cast<unsigned long>(wins[w]), slots);
  }
  std::cout << "final store (first 8 keys):\n";
  int shown = 0;
  for (const auto& [key, value] : replicas[0]) {
    if (shown++ == 8) break;
    std::printf("  k%-3u = %u\n", key, value);
  }
  return identical ? 0 : 1;
}
