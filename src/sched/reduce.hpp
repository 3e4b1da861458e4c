// State-space reduction engine: process-symmetry canonicalization and a
// sleep-set partial-order independence relation, shared by the sequential
// explorer, the frontier explorer, the BFS witness minimizer and the
// fuzzer's novelty signal.  DESIGN.md §3d carries the soundness argument;
// the short version:
//
//   * Symmetry.  When every machine is pid-oblivious
//     (MachineFactory::pid_oblivious) and no fault rule names a process
//     (SimWorld::processes_symmetric), any permutation π of process ids
//     maps executions to executions: shared objects, registers and fault
//     budgets are process-anonymous, and a machine's behaviour is a
//     function of its encoded block alone.  All checked properties
//     (agreement, validity, stall, nontermination) are invariant under π,
//     so it suffices to visit one representative per orbit.  We keep REAL
//     worlds on the search structures and only canonicalize the
//     memoization key: the canonical fingerprint hashes the shared prefix
//     followed by the per-process blocks in sorted order.  Witnesses
//     therefore remain directly replayable schedules.
//
//   * Sleep sets.  Two choices are independent when they are steps of
//     different processes touching disjoint shared locations (CAS object
//     vs. register namespaces; a fault branch footprints the object of
//     the faulted operation, so budget accounting stays per-location).
//     Adversary corruption steps are dependent with everything — their
//     enabledness reads every object's value and budget.  Executing
//     independent steps in either order reaches the same state and
//     preserves enabledness, so a DFS may put the not-chosen independent
//     alternatives "to sleep" along the chosen branch (Godefroid's sleep
//     sets, with the state-matching refinement for revisits).  Sleep sets
//     prune transitions, never states: the census of visited states and
//     terminal violations is bit-identical to the unreduced search.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sched/explore_common.hpp"
#include "sched/sim_world.hpp"

namespace ff::sched {

// ---------------------------------------------------------------------------
// Block-structured encodings.
// ---------------------------------------------------------------------------

/// One encoded SimWorld in block form: the shared prefix followed by one
/// block per process (pid order), with offsets so individual blocks can
/// be compared, re-sorted and patched without re-encoding the world.
struct EncodedState {
  std::vector<std::uint64_t> words;
  std::uint32_t shared_len = 0;
  /// block_off[p]..block_off[p+1] is process p's block; size processes+1.
  std::vector<std::uint32_t> block_off;

  [[nodiscard]] std::uint32_t processes() const noexcept {
    return block_off.empty()
               ? 0
               : static_cast<std::uint32_t>(block_off.size() - 1);
  }
};

/// Encoder with reusable scratch buffers: full encodes for roots, and
/// incremental patches for children (only the shared prefix and the
/// stepping process's block are re-encoded; an adversary step re-encodes
/// the shared prefix alone).
class StateEncoder {
 public:
  /// Full block-structured encode of `world` into `out`.
  void encode(const SimWorld& world, EncodedState& out);

  /// Incremental encode of `child`, which differs from the world encoded
  /// as `parent` by one applied Choice of process `changed_pid`
  /// (kAdversaryPid for adversary corruption steps).
  void patch(const SimWorld& child, const EncodedState& parent,
             objects::ProcessId changed_pid, EncodedState& out);

 private:
  std::vector<std::uint64_t> scratch_;
};

/// The canonical block order: process indices sorted by lexicographic
/// block content, ties by pid (so the order is deterministic).  Appends
/// nothing to `e`; writes the permutation into `order`.
void canonical_order(const EncodedState& e, std::vector<std::uint32_t>& order);

/// Inverse of canonical_order: slot_of[pid] = position of pid's block in
/// the canonical order.
void canonical_slots(const EncodedState& e, std::vector<std::uint32_t>& slot_of);

/// FpFold hash of one contiguous block of words (the per-process block
/// hash feeding the canonical fingerprint's multiset combine).
[[nodiscard]] detail::Fingerprint hash_block(const std::uint64_t* begin,
                                             const std::uint64_t* end);

/// Canonical fingerprint from precombined parts: folds the shared
/// prefix, then the order-insensitive block-hash sums.  An engine that
/// maintains (sum_a, sum_b) incrementally — one process block changes
/// per transition, so subtract the old block's hash_block and add the
/// new one — gets the exact value fingerprint_state(e, true) computes
/// from scratch, without materializing the child encoding.
[[nodiscard]] detail::Fingerprint fingerprint_shared_sum(
    const std::uint64_t* shared, std::uint32_t shared_len,
    std::uint64_t sum_a, std::uint64_t sum_b);

/// Fingerprint of the state.  `canonical` folds the shared prefix and
/// an order-insensitive combine of the per-process block hashes, so two
/// states equal up to a process permutation collide on purpose;
/// otherwise this equals detail::fingerprint(e.words).
[[nodiscard]] detail::Fingerprint fingerprint_state(const EncodedState& e,
                                                    bool canonical);

/// Materialized canonical word sequence (shared prefix + sorted blocks).
/// Test/diagnostic helper; the explorers only ever hash it.
[[nodiscard]] std::vector<std::uint64_t> canonical_words(const EncodedState& e);

/// A permutation π with mate's block at π[p] equal to base's block at p
/// (and equal shared prefixes) — i.e. mate = π·base up to encoding.
/// nullopt when the states are not orbit-mates.
[[nodiscard]] std::optional<std::vector<std::uint32_t>> match_permutation(
    const EncodedState& base, const EncodedState& mate);

/// Applies π to the pids of a schedule (adversary steps are fixed points).
[[nodiscard]] std::vector<Choice> permute_pids(
    const std::vector<Choice>& schedule, const std::vector<std::uint32_t>& pi);

/// Symmetric-cycle closure.  `segment` leads from `ancestor` to an
/// orbit-mate of it (equal canonical encodings).  Returns an extended
/// schedule that leads from `ancestor` back to a state with the EXACT
/// same encoding, by replaying the segment under successive powers of the
/// matched permutation (at most `max_laps` laps — the permutation's order
/// is at most lcm(1..n), tiny for explorable n).  nullopt only if the
/// states are not actually orbit-mates or the lap cap is hit.
[[nodiscard]] std::optional<std::vector<Choice>> close_symmetric_cycle(
    const SimWorld& ancestor, const std::vector<Choice>& segment,
    std::uint32_t max_laps = 5040);

// ---------------------------------------------------------------------------
// Independence relation for sleep-set POR.
// ---------------------------------------------------------------------------

/// The shared location a choice touches at a given state.
struct Footprint {
  enum class Space : std::uint8_t {
    kNone,      ///< no pending operation (not a schedulable choice)
    kObject,    ///< a CAS object (clean or faulted — budget is per-object)
    kRegister,  ///< a read/write register (disjoint namespace)
    kGlobal,    ///< adversary corruption: dependent with everything
  };
  Space space = Space::kNone;
  objects::ObjectId id = 0;
  /// False only for register reads; CAS steps always count as writes.
  bool writes = true;
};

[[nodiscard]] Footprint footprint_of(const SimWorld& world, const Choice& c);

/// Two choices commute at the state the footprints were taken in: steps
/// of different processes whose locations are disjoint (or both reads of
/// the same register), neither being an adversary step.
[[nodiscard]] bool independent(const Choice& ca, const Footprint& fa,
                               const Choice& cb, const Footprint& fb);

/// Canonical sleep-set key of a choice: the pid is replaced by its
/// canonical slot when `slot_of` is non-empty (symmetry active), making
/// stored sleep sets comparable across orbit representatives.  Adversary
/// choices never enter sleep sets (they are dependent with everything).
[[nodiscard]] inline std::uint64_t sleep_key(
    const Choice& c, const std::vector<std::uint32_t>& slot_of) {
  const std::uint64_t slot =
      (c.pid == kAdversaryPid || slot_of.empty()) ? c.pid : slot_of[c.pid];
  return (slot << 34) | (static_cast<std::uint64_t>(c.crash ? 1 : 0) << 33) |
         (static_cast<std::uint64_t>(c.fault ? 1 : 0) << 32) | c.fault_variant;
}

/// Inverse of sleep_key: resolves a canonical key against a concrete
/// representative's canonical order (`order` empty = identity).  Among
/// processes with equal blocks any resolution is interchangeable; the
/// deterministic order makes it reproducible.
[[nodiscard]] inline Choice resolve_sleep_key(
    std::uint64_t key, const std::vector<std::uint32_t>& order) {
  const auto slot = static_cast<std::uint32_t>(key >> 34);
  Choice c;
  c.pid = order.empty() ? slot : order.at(slot);
  c.crash = ((key >> 33) & 1) != 0;
  c.fault = ((key >> 32) & 1) != 0;
  c.fault_variant = static_cast<std::uint32_t>(key & 0xFFFFFFFFULL);
  return c;
}

/// Normal form of a schedule under the independence relation: adjacent
/// independent choices are bubbled into ascending (pid, fault, variant)
/// order.  Trace-equivalent schedules (equal up to swapping independent
/// neighbours) normalize to the same sequence and reach the same state.
[[nodiscard]] std::vector<Choice> normalize_trace(const SimWorld& initial,
                                                  std::vector<Choice> schedule);

}  // namespace ff::sched
