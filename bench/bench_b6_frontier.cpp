// B6 — throughput of the owner-computes frontier explorer.
//
// Three questions feed the BENCH trajectory:
//   * How fast is the frontier engine against the sequential DFS, the
//     best competing engine, on the reference instance (staged f=1 t=2,
//     three distinct inputs — symmetry-reduced, so the
//     canonical-fingerprint path is hot)?  Both engines run back-to-back
//     within each repetition and the PAIRED states/sec ratio is taken
//     per round, so machine noise hits both sides of each division; the
//     reported speedup_vs_dfs is the median of the per-round ratios.  It
//     is reported, not gated.
//   * Does the frontier census stay bit-equal to the DFS census?  Every
//     repetition cross-checks states, terminals, per-kind violation
//     counts and agreed values.
//   * Is the disk-spill path free of census drift?  A forced-spill run
//     (mem_limit_bytes = 1: every wave spills) must reproduce the
//     in-memory census exactly while actually writing runs.
//
// Both sides of every pair are verify::JobSpecs run through
// verify::instantiate()/execute(), with sleep-set POR off: the frontier
// engine — and JobSpec::validate() — rejects it, and it only slows the
// DFS down on this instance (it prunes transitions, never states).
//
// Modes:
//   (default)        google-benchmark suite (all BM_* below)
//   --json <path>    machine-readable BENCH_B6 report for
//                    scripts/bench_gate.py
//   --smoke          reduced repetition count for CI gating (check.sh).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "verify/run.hpp"

namespace {

using namespace ff;

constexpr std::uint32_t kThreads = 8;  // frontier; capped to the cores

/// The reference job: staged f=1 t=2 under overriding faults with three
/// DISTINCT inputs — big enough to spread over shards (~360k canonical
/// states), distinct inputs so validity tracking stays hot.
verify::JobSpec reference_spec(verify::Engine engine) {
  verify::JobSpec spec;
  spec.protocol = "staged";
  spec.params = {{"f", 1}, {"t", 2}};
  spec.t = 2;
  spec.processes = 3;
  spec.engine = engine;
  spec.threads = kThreads;
  spec.stop_at_first_violation = false;
  spec.sleep_sets = false;
  return spec;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double report_seconds(const verify::Report& report) {
  return static_cast<double>(report.engine_micros) * 1e-6;
}

// --- google-benchmark suite ------------------------------------------------

void run_reference(benchmark::State& state, const verify::JobSpec& spec) {
  const verify::Instance instance = verify::instantiate(spec);
  std::uint64_t states = 0;
  for (auto _ : state) {
    const verify::Report report = verify::execute(instance);
    states = report.states_visited;
    benchmark::DoNotOptimize(report);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(states * state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_DfsExploreStaged(benchmark::State& state) {
  run_reference(state, reference_spec(verify::Engine::kDfs));
}
BENCHMARK(BM_DfsExploreStaged)->Unit(benchmark::kMillisecond);

void BM_FrontierExploreStaged(benchmark::State& state) {
  run_reference(state, reference_spec(verify::Engine::kFrontier));
}
BENCHMARK(BM_FrontierExploreStaged)->Unit(benchmark::kMillisecond);

void BM_FrontierForcedSpill(benchmark::State& state) {
  // Same instance with a one-byte watermark: every wave spills, so this
  // measures the sort + run-write + merge-join overhead end to end.
  const auto dir =
      std::filesystem::temp_directory_path() / "ffb6_bm_spill";
  verify::JobSpec spec = reference_spec(verify::Engine::kFrontier);
  spec.spill_dir = dir.string();
  spec.mem_limit_bytes = 1;
  run_reference(state, spec);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}
BENCHMARK(BM_FrontierForcedSpill)->Unit(benchmark::kMillisecond);

// --- JSON report mode ------------------------------------------------------

/// Paired throughput rounds: DFS then frontier back-to-back, the
/// per-round states/sec ratio recorded, speedup = median of the ratios.
void emit_throughput(util::JsonWriter& w, std::uint64_t reps) {
  const verify::Instance dfs_instance =
      verify::instantiate(reference_spec(verify::Engine::kDfs));
  const verify::Instance frontier_instance =
      verify::instantiate(reference_spec(verify::Engine::kFrontier));

  std::vector<double> ratios;
  double dfs_secs = 0.0;
  double frontier_secs = 0.0;
  std::uint64_t states = 0;
  std::uint64_t dfs_peak = 0;
  std::uint64_t frontier_peak = 0;
  std::uint64_t waves = 0;
  std::uint64_t workers = 0;
  bool census_ok = true;
  bool complete = true;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    const verify::Report dr = verify::execute(dfs_instance);
    const double dsecs = report_seconds(dr);
    const verify::Report fr = verify::execute(frontier_instance);
    const double fsecs = report_seconds(fr);

    census_ok = census_ok && census_equal(fr, dr);
    complete = complete && dr.complete && fr.complete;
    if (dsecs > 0.0 && fsecs > 0.0 && dr.states_visited > 0) {
      ratios.push_back((static_cast<double>(fr.states_visited) / fsecs) /
                       (static_cast<double>(dr.states_visited) / dsecs));
    }
    dfs_secs += dsecs;
    frontier_secs += fsecs;
    states = fr.states_visited;
    dfs_peak = dr.peak_bytes;
    frontier_peak = fr.peak_bytes;
    waves = fr.frontier->waves;
    workers = fr.frontier->workers;
  }

  w.key("throughput").begin_object();
  w.kv("protocol", "staged f=1 t=2 n=3 distinct");
  w.kv("threads_requested", std::uint64_t{kThreads});
  w.kv("workers", workers);
  w.kv("reps", reps);
  w.kv("states", states);
  w.kv("waves", waves);
  w.kv("dfs_mean_seconds",
       reps > 0 ? dfs_secs / static_cast<double>(reps) : 0.0);
  w.kv("frontier_mean_seconds",
       reps > 0 ? frontier_secs / static_cast<double>(reps) : 0.0);
  w.kv("dfs_peak_bytes", dfs_peak);
  w.kv("frontier_peak_bytes", frontier_peak);
  w.kv("census_match", census_ok);
  w.kv("complete", complete);
  w.kv("speedup_vs_dfs", median(std::move(ratios)));
  w.end_object();
}

/// Forced-spill parity: mem_limit_bytes = 1 spills every wave; the
/// census must be bit-equal to the in-memory frontier run AND runs must
/// actually have been written (else the spill path went untested).
void emit_spill_parity(util::JsonWriter& w) {
  const verify::Report in_memory = verify::execute(
      verify::instantiate(reference_spec(verify::Engine::kFrontier)));

  const auto dir = std::filesystem::temp_directory_path() / "ffb6_spill";
  verify::JobSpec spec = reference_spec(verify::Engine::kFrontier);
  spec.spill_dir = dir.string();
  spec.mem_limit_bytes = 1;
  const verify::Report spilled =
      verify::execute(verify::instantiate(spec));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  w.key("spill").begin_object();
  w.kv("seconds", report_seconds(spilled));
  w.kv("spill_runs", spilled.frontier->spill_runs);
  w.kv("spilled_records", spilled.frontier->spilled_records);
  w.kv("spill_bytes", spilled.frontier->spill_bytes);
  w.kv("peak_bytes", spilled.peak_bytes);
  w.kv("spill_parity", census_equal(spilled, in_memory) &&
                           spilled.frontier->spill_runs > 0);
  w.end_object();
}

int write_report(const std::string& path, bool smoke) {
  const std::uint64_t reps = smoke ? 3 : 7;

  util::JsonWriter w;
  w.begin_object();
  w.kv("bench", "B6");
  w.kv("smoke", smoke);
  emit_throughput(w, reps);
  emit_spill_parity(w);
  w.end_object();

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  out << w.str() << "\n";
  std::cout << "B6 report -> " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) return write_report(json_path, smoke);
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
