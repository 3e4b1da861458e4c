// The three workloads and the traced per-layer run.
//
// Every workload is a closed loop from one client thread: one job at a
// time, the next submitted when the previous verdict is back.  Timings
// come from many executions per run, visited round-robin after one
// untimed warm-up round; a job's time is the fastest or the median of
// its repeats (workloads.cpp says which, and why).  Every verdict is checked against the known answers outside
// the timed region; a mismatch, a throw or a bad witness counts as
// failed and never stops the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;  ///< census-dfs | census-frontier | regrid
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string answers_path = "perfbench/known_answers.json";
  std::string out_dir = ".bench_build/perfbench-out";
  std::string rev = "unknown";  ///< source revision, recorded in results
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< first few failures, for stderr
  /// Threads the run used, the client included.
  std::uint32_t threads = 1;

  void fail(std::string why);
  [[nodiscard]] bool correct() const { return failed == 0 && attempted > 0; }
};

[[nodiscard]] bool known_workload(const std::string& name);

/// {"env": {...}}: workload, seed, nproc, threads used, build type,
/// compiler and source revision — recorded beside every result.
[[nodiscard]] std::string env_json(const Options& options,
                                   const Result& result);

/// Frontier worker threads on census-frontier; the client thread is
/// worker 0, so the run uses this many threads in all.
inline constexpr std::uint32_t kFrontierWorkers = 2;

/// End-to-end metrics, tracing off.
[[nodiscard]] Result run_workload(const Options& options);

/// Per-layer metrics: spans around every call into a layer, the layer
/// probe with its state-count cross-check, and the reduction and engine
/// ablations.  Writes <out_dir>/<workload>-seed<N>.trace.json (Chrome
/// trace events) and .layers.json (self time per span name).
[[nodiscard]] Result run_traced(const Options& options);

}  // namespace perfbench
