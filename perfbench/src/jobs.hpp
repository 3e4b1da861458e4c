// Job pools and the seeded draws of the three workloads.
//
// Every job any seed can draw is listed here, so the committed known
// answers (known_answers.json) cover every draw.  The census pool is
// stratified: each stratum holds alternatives of equal census size and
// near-equal cost (staged vs recoverable-staged without crashes, or
// arbitrary vs data faults), and a seed picks one alternative per
// stratum and the visiting order.  A second seed therefore changes the
// jobs but not the shape of the work, which keeps the end-to-end
// metrics comparable across seeds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "verify/job.hpp"

namespace perfbench {

struct JobDesc {
  std::string protocol;
  std::map<std::string, std::uint64_t> params;
  std::string kind = "overriding";  ///< CLI vocabulary
  std::uint32_t t = 1;              ///< fault budget per object
  std::uint32_t processes = 2;
  std::uint32_t crash_budget = 0;
  bool equal_inputs = false;
  bool stop_at_first_violation = true;

  /// Stable, human-readable identity; the key of the known answers.
  [[nodiscard]] std::string key() const;

  /// The JobSpec handed to the library.  `threads` only matters for the
  /// frontier engine (sleep sets are a DFS notion and are switched off
  /// there, as the job layer requires).
  [[nodiscard]] ff::verify::JobSpec spec(
      ff::verify::Engine engine = ff::verify::Engine::kDfs,
      std::uint32_t threads = 0) const;
};

/// Census strata: one alternative per stratum is drawn.
[[nodiscard]] const std::vector<std::vector<JobDesc>>& census_strata();

/// The regrid grid: small jobs, each at most tens of milliseconds cold.
[[nodiscard]] const std::vector<JobDesc>& regrid_grid();

/// Every job of both pools (census alternatives first).
[[nodiscard]] std::vector<JobDesc> all_jobs();

/// One alternative per stratum, in a seeded visiting order.
[[nodiscard]] std::vector<JobDesc> draw_census(std::uint64_t seed);

/// Calls in one regrid stream epoch.
inline constexpr std::size_t kRegridStreamLength = 480;

/// A seeded stream of indices into regrid_grid(), drawn with replacement.
[[nodiscard]] std::vector<std::size_t> draw_regrid_stream(std::uint64_t seed);

}  // namespace perfbench
