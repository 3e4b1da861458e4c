// Known answers: the census every timed job must reproduce.
//
// They are generated once through an independent path — the IrMachine
// interpreter on the DFS engine (JobSpec::interpreted) — and committed
// beside the benchmark, so a timed run on the generated machines, the
// frontier engine or the cache is checked against a different code path
// than the one it times.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "jobs.hpp"
#include "verify/report.hpp"

namespace perfbench {

struct Answer {
  bool complete = false;
  std::uint64_t states = 0;
  std::uint64_t terminals = 0;
  std::set<std::uint64_t> agreed;
  /// Violation kind name -> count (nontermination compared by presence).
  std::map<std::string, std::uint64_t> violations;

  friend bool operator==(const Answer&, const Answer&) = default;
};

/// JobDesc::key() -> answer.
using Answers = std::map<std::string, Answer>;

[[nodiscard]] Answer answer_of(const ff::verify::Report& report);

/// Reads the committed file; throws std::runtime_error when it is
/// missing or malformed.
[[nodiscard]] Answers load_answers(const std::string& path);

/// Serializes one answer per line, sorted by key.
[[nodiscard]] std::string answers_json(const Answers& answers);

/// Runs every job of both pools on the interpreter (DFS) and collects
/// the answers.
[[nodiscard]] Answers generate_answers();

/// Empty when `report` matches the job's known answer, else the first
/// difference (a job without an answer is a difference too).
[[nodiscard]] std::string check_report(const JobDesc& job,
                                       const ff::verify::Report& report,
                                       const Answers& answers);

/// Empty when the report's witness strictly replays: every choice is
/// enabled where it is taken, and the end state shows the reported
/// violation (a terminal state that breaks agreement, validity or
/// responsiveness, or a revisited state for nontermination).  A report
/// with violations but no witness fails.
[[nodiscard]] std::string check_witness(const JobDesc& job,
                                        const ff::verify::Report& report);

}  // namespace perfbench
