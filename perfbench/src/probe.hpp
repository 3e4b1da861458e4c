// The layer probe: an outside-in walk of a job's whole canonical state
// graph through the public per-layer calls, timing each call class.
//
// It is a plain DFS over one world stepped in place, like the DFS
// engine, but with no sleep sets: they prune transitions, never states,
// so the probe's state count must equal the engine's states_visited on
// every complete census — the cross-check that says the probe walked
// the same graph the timings are attributed to.
#pragma once

#include <cstdint>
#include <string>

#include "verify/run.hpp"

namespace perfbench {

struct ProbeResult {
  std::uint64_t states = 0;
  std::uint64_t terminals = 0;
  std::uint64_t expansions = 0;   ///< enabled() calls (non-terminal states)
  std::uint64_t transitions = 0;  ///< table probes (one per transition)
  /// Sibling pairs the sleep-set engine would test, and how many of
  /// them commute.
  std::uint64_t sibling_pairs = 0;
  std::uint64_t independent_pairs = 0;
  // Summed call time, ns, with the clock's own cost subtracted.
  double enabled_ns = 0;      ///< SimWorld::enabled
  double step_ns = 0;         ///< apply_with_undo + undo_step
  double patch_ns = 0;        ///< StateEncoder::patch
  double fingerprint_ns = 0;  ///< fingerprint_state
  double table_ns = 0;        ///< FlatFpMap::insert_or_get
  double footprint_ns = 0;    ///< footprint_of + independent

  [[nodiscard]] double layer_ns() const {
    return enabled_ns + step_ns + patch_ns + fingerprint_ns + table_ns +
           footprint_ns;
  }
};

/// Walks the canonical graph of `instance` (symmetry as its spec says).
[[nodiscard]] ProbeResult probe(const ff::verify::Instance& instance);

/// Empty when the probe agrees with the engine's census, else why not.
[[nodiscard]] std::string probe_cross_check(const ProbeResult& probe,
                                            std::uint64_t engine_states,
                                            std::uint64_t engine_terminals);

}  // namespace perfbench
