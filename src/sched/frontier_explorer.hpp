// Batched owner-computes frontier explorer (DESIGN.md §3i).
//
// The parallel engine: a breadth-first wavefront over the same state
// graph the sequential DFS (sched/explorer.hpp) explores, built around
// three ideas:
//
//   * OWNER-COMPUTES SHARDING.  The canonical-fingerprint space is
//     hash-partitioned into shards, each owned by exactly one worker.  A
//     successor whose fingerprint lands in another worker's shard is
//     FORWARDED through a bounded SPSC handoff ring (util/handoff.hpp)
//     instead of being inserted under a striped lock, so every
//     fingerprint table has a single writer and needs no locking at all.
//     Every fingerprint is tested for novelty by exactly one owner, so
//     the visit-once invariant of the sequential search is preserved.
//
//   * MEMOIZED LANE STEPPING.  Process states are hash-consed into a
//     lane arena (a machine's encoded block determines its behaviour —
//     the StepMachine contract), so stepping is memoized per (lane,
//     returned value) transition.  A memo miss clones the interned
//     machine and steps the copy once; most transitions are memo hits.
//
//   * DISK-SPILLED CENSUSES.  When the in-memory census exceeds a
//     watermark, each worker sorts its shard's (fingerprint, parent_fp,
//     choice) records by fingerprint and appends them as a run file to
//     `spill_dir`; later waves deduplicate by merge-joining their sorted
//     candidates against the runs, and witness reconstruction walks the
//     parent-fingerprint back-pointers through the runs by binary
//     search.  Peak census memory is bounded by the watermark (plus the
//     never-spilled edge list the nontermination scan needs).
//
// The result satisfies the ExploreResult contract: the census
// (states_visited, terminal_states, agreed_values, violation counts per
// terminal kind) is BIT-EQUAL to the sequential explorer's on every
// input, with symmetry reduction composing through the same
// sched/reduce.hpp canonical fingerprints.  Differences from the DFS by
// design:
//
//   * Sleep-set POR is REJECTED: ExploreOptions::sleep_sets = true makes
//     frontier_explore throw std::invalid_argument (it used to be
//     silently ignored).  Sleep sets are a DFS-path notion (the
//     not-chosen alternatives of THIS path are put to sleep along the
//     chosen branch); a BFS wave has no path context to carry them
//     soundly, and because sleep sets prune transitions but never
//     states, the visited-state census is identical anyway (see
//     find_shortest_violation, which makes the same argument).
//     verify::JobSpec::validate() enforces the same rule up front.
//   * Nontermination is found by a post-join Tarjan pass over the
//     recorded edges (no worker owns a root-to-state path, so DFS
//     back-edge detection does not apply): kNontermination counts
//     process edges inside cyclic SCCs of the explored graph, not DFS
//     back-edges; compare presence, not counts.
//   * max_depth is the BFS radius (longest SHORTEST path from the
//     root), not the longest DFS path.
//   * Which violation is reported first differs from DFS order; the
//     frontier picks the lexicographically least (depth, fingerprint)
//     violating state, so ITS choice is deterministic across thread and
//     shard counts.  Witnesses strictly replay either way.
//   * A corrupted delivered value that drives an indexed protocol to an
//     out-of-range object or register stops the workers, and
//     frontier_explore throws std::out_of_range from the calling thread,
//     as the DFS does through SimWorld's checked accessors.
#pragma once

#include <cstdint>
#include <string>

#include "sched/explorer.hpp"
#include "sched/sim_world.hpp"

namespace ff::sched {

struct FrontierExploreOptions {
  ExploreOptions explore;  ///< sleep_sets = true throws (see header note)
  /// Worker threads; 0 = hardware concurrency.
  std::uint32_t num_threads = 0;
  /// Fingerprint-space shards (rounded up to a power of two); 0 picks
  /// max(64, workers).  Each shard is owned by worker (shard % workers),
  /// so any count >= workers keeps every worker busy; the census is
  /// invariant under the shard count.
  std::uint32_t shard_count = 0;
  /// Directory for sorted spill runs.  Empty disables spilling (the
  /// engine then ignores mem_limit_bytes and keeps everything in RAM).
  std::string spill_dir;
  /// In-memory watermark over the spillable census structures
  /// (fingerprint tables + witness records).  0 = never spill.
  std::uint64_t mem_limit_bytes = 0;
};

/// Counters specific to the frontier engine, reported next to the
/// ExploreResult census by the CLI/bench front ends.
struct FrontierStats {
  std::uint64_t waves = 0;             ///< BFS levels expanded
  std::uint64_t workers = 0;           ///< worker threads the run used
  std::uint64_t forwarded = 0;         ///< cross-shard handoffs
  std::uint64_t spill_runs = 0;        ///< sorted runs written
  std::uint64_t spilled_records = 0;   ///< records in those runs
  std::uint64_t spill_bytes = 0;       ///< bytes written to spill_dir
  /// Lanes stepped on a deliver-memo miss; the memo answers the rest.
  /// The historical name stays because perfbench's batched_lane_share
  /// reads it as the miss share.
  std::uint64_t batched_lanes = 0;
  std::uint64_t memo_hits = 0;         ///< transitions answered by memo
  std::uint64_t arena_lanes = 0;       ///< distinct hash-consed lanes

  friend bool operator==(const FrontierStats&,
                         const FrontierStats&) = default;
};

struct FrontierExploreResult {
  ExploreResult explore;
  FrontierStats stats;
};

/// Explores the full state graph of `SimWorld(config, factory, inputs)`
/// breadth-first.  The factory reference must outlive the call.
[[nodiscard]] FrontierExploreResult frontier_explore(
    const SimConfig& config, const MachineFactory& factory,
    const std::vector<std::uint64_t>& inputs,
    const FrontierExploreOptions& options = {});

}  // namespace ff::sched
