#include "probe.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "sched/explore_common.hpp"
#include "sched/reduce.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Median cost of one back-to-back clock read pair: subtracted from each
/// timed call so the per-call figures are not mostly clock.
double clock_pair_ns() {
  std::vector<double> samples(4001);
  for (double& s : samples) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    s = ns_between(a, b);
  }
  std::nth_element(samples.begin(), samples.begin() + 2000, samples.end());
  return samples[2000];
}

}  // namespace

ProbeResult probe(const ff::verify::Instance& instance) {
  using ff::sched::Choice;
  using ff::sched::EncodedState;
  using ff::sched::Footprint;
  using ff::sched::SimWorld;

  const double overhead = clock_pair_ns();
  ProbeResult r;
  double* bucket = nullptr;
  Clock::time_point t0;
  auto start = [&](double& b) {
    bucket = &b;
    t0 = Clock::now();
  };
  auto stop = [&] { *bucket += std::max(0.0, ns_between(t0, Clock::now()) - overhead); };

  SimWorld cur = instance.world();
  const bool sym =
      instance.spec.symmetry_reduction && cur.processes_symmetric();
  ff::sched::StateEncoder encoder;
  ff::sched::detail::FlatFpMap table(std::size_t{1} << 16);

  struct Frame {
    EncodedState enc;
    std::vector<Choice> choices;
    std::vector<Footprint> feet;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  std::vector<SimWorld::StepUndo> undo(64);

  auto push = [&](EncodedState&& enc) {
    Frame f;
    f.enc = std::move(enc);
    start(r.enabled_ns);
    f.choices = cur.enabled();
    stop();
    ++r.expansions;
    start(r.footprint_ns);
    for (const Choice& c : f.choices) f.feet.push_back(ff::sched::footprint_of(cur, c));
    stop();
    stack.push_back(std::move(f));
  };

  EncodedState root;
  encoder.encode(cur, root);
  std::uint32_t next_id = 0;
  table.insert_or_get(ff::sched::fingerprint_state(root, sym), next_id++);
  r.states = 1;
  if (cur.terminal()) {
    r.terminals = 1;
    return r;
  }
  push(std::move(root));

  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next == f.choices.size()) {
      stack.pop_back();
      if (!stack.empty()) {
        start(r.step_ns);
        cur.undo_step(undo[stack.size()]);
        stop();
      }
      continue;
    }
    const std::size_t i = f.next++;
    const Choice choice = f.choices[i];
    const std::size_t slot = stack.size();
    if (slot >= undo.size()) undo.resize(slot + 32);

    // The sleep-set engine tests each explored sibling for independence
    // against the chosen step; the probe times the same pair tests.
    start(r.footprint_ns);
    for (std::size_t j = 0; j < i; ++j) {
      r.independent_pairs += ff::sched::independent(f.choices[j], f.feet[j],
                                                    choice, f.feet[i])
                                 ? 1
                                 : 0;
    }
    stop();
    r.sibling_pairs += i;

    start(r.step_ns);
    cur.apply_with_undo(choice, undo[slot]);
    stop();
    EncodedState child;
    start(r.patch_ns);
    encoder.patch(cur, f.enc, choice.pid, child);
    stop();
    start(r.fingerprint_ns);
    const auto fp = ff::sched::fingerprint_state(child, sym);
    stop();
    start(r.table_ns);
    const std::uint32_t existing = table.insert_or_get(fp, next_id);
    stop();
    ++r.transitions;

    if (existing == ff::sched::detail::FlatFpMap::kNoValue) {
      ++next_id;
      ++r.states;
      if (!cur.terminal()) {
        push(std::move(child));  // `f` is dangling from here on
        continue;
      }
      ++r.terminals;
    }
    start(r.step_ns);
    cur.undo_step(undo[slot]);
    stop();
  }
  return r;
}

std::string probe_cross_check(const ProbeResult& probe,
                              std::uint64_t engine_states,
                              std::uint64_t engine_terminals) {
  if (probe.states == engine_states && probe.terminals == engine_terminals) {
    return {};
  }
  return "probe walked " + std::to_string(probe.states) + " states / " +
         std::to_string(probe.terminals) + " terminals, engine reported " +
         std::to_string(engine_states) + " / " +
         std::to_string(engine_terminals);
}

}  // namespace perfbench
