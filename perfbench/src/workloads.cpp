#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <thread>

#include "jobs.hpp"
#include "known.hpp"
#include "probe.hpp"
#include "proto/fingerprint.hpp"
#include "proto/registry.hpp"
#include "sched/frontier_explorer.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "verify/run.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using ff::verify::Engine;
using ff::verify::JobSpec;
using ff::verify::Report;

namespace {

/// Hits per p50 window.
constexpr std::size_t kP50Hits = 100;
/// Census workloads: passes of cache hits over the jobs after each round
/// of cold runs (the first pass follows cold runs that evicted the cache).
constexpr std::size_t kHitPasses = 4;
/// Fewest timed rounds (census) or epochs (regrid) in a run.
constexpr std::size_t kMinRounds = 3;
/// Runs of each side of an ablation on each census job.
constexpr int kAblationRepeats = 15;
/// Traced and untraced passes, alternated, behind trace.overhead_share.
constexpr int kOverheadPasses = 21;
/// Regrid jobs under this many states measure the per-job fixed cost.
constexpr std::uint64_t kSmallJobStates = 100;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Smallest (`lowest`) or largest element; 0 when empty.
double best(const std::vector<double>& v, bool lowest) {
  if (v.empty()) return 0;
  return lowest ? *std::min_element(v.begin(), v.end())
                : *std::max_element(v.begin(), v.end());
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double gmean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Engine engine_of(const std::string& workload) {
  return workload == "census-frontier" ? Engine::kFrontier : Engine::kDfs;
}

/// Runs `f`; a throw counts as an attempted, failed job.
void guarded(Result& r, const std::string& what,
             const std::function<void()>& f) {
  try {
    f();
  } catch (const std::exception& e) {
    ++r.attempted;
    r.fail(what + " threw: " + e.what());
  }
}

/// Checks one verdict against its known answer and replays its witness.
void check(Result& r, const JobDesc& job, const Report& report,
           const Answers& answers) {
  ++r.attempted;
  std::string error = check_report(job, report, answers);
  if (error.empty()) error = check_witness(job, report);
  if (!error.empty()) r.fail(error);
}

std::uint64_t witness_steps(const Report& report) {
  return report.violation ? report.violation->schedule.size() : 0;
}

fs::path cache_dir_for(const Options& o, const std::string& tag) {
  return fs::path(o.out_dir) /
         ("cache-" + tag + "-" + std::to_string(::getpid()));
}

/// A fresh, empty cache directory.
ff::verify::Cache fresh_cache(const fs::path& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  return ff::verify::Cache(dir.string());
}

/// Everything before the first timed job: load the known answers,
/// resolve every job, create the empty cache directory.  The set-up is
/// repeated after every window of the run (into a scratch directory), so
/// it is sampled across the run like the timings; setup_s is the fastest
/// repeat, for the reason given at the workloads below.
class SetUp {
 public:
  SetUp(const Options& o, std::vector<JobSpec> specs)
      : answers_path_(o.answers_path), specs_(std::move(specs)) {}

  /// One set-up; `cache_dir` is removed first (untimed).
  Answers once(const fs::path& cache_dir) {
    std::error_code ec;
    fs::remove_all(cache_dir, ec);
    const auto t0 = Clock::now();
    Answers answers = load_answers(answers_path_);
    for (const JobSpec& spec : specs_) (void)ff::verify::instantiate(spec);
    const ff::verify::Cache cache(cache_dir.string());
    samples_.push_back(seconds_since(t0));
    return answers;
  }

  [[nodiscard]] double seconds() const {
    return samples_.empty() ? 0 : best(samples_, true);
  }
  [[nodiscard]] std::size_t repeats() const { return samples_.size(); }

 private:
  std::string answers_path_;
  std::vector<JobSpec> specs_;
  std::vector<double> samples_;
};

void add(Result& r, std::string name, double value, std::string unit) {
  r.metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

// ---------------------------------------------------------------------------
// End-to-end workloads.
//
// On a shared VM a thread's speed switches between a fast and a
// slow mode (~1.9x apart on the same job, ALU-only work ~1.15x), often
// from one execution to the next, sometimes for tens of seconds at a
// time.  A median over a run reports the share of slow executions in it,
// so for single-threaded work a job's time is its fastest repeat and the
// throughput and hit p50 are those of the best window.  The frontier, on
// two threads, is steadier by median than by fastest repeat (over three
// processes the gmean of per-job medians ranged 6.4-6.9 ms, of fastest
// repeats 4.8-5.4 ms), so on census-frontier a job's time is the median
// of its repeats and throughput is the median round.  The hit p99 is
// the p99 of every timed hit of the run.
// ---------------------------------------------------------------------------

struct Timings {
  std::vector<std::vector<double>> cold_s;  ///< per job, every repeat
  std::vector<Report> last;                 ///< per job, last verdict
  std::vector<double> jobs_per_s;           ///< per round or epoch
  std::vector<double> hits_us;              ///< every timed hit, in order

  explicit Timings(std::size_t jobs) : cold_s(jobs), last(jobs) {}
};

/// `fastest`: per-job fastest repeat and best window; otherwise per-job
/// median and median window.
void add_end_to_end(Result& r, const SetUp& setup, const Timings& t,
                    bool fastest) {
  std::vector<double> job_ms;
  double states = 0;
  double peak_bytes = 0;
  double sum_s = 0;
  double witness_sum = 0;
  double violating = 0;
  std::string per_job;
  for (std::size_t i = 0; i < t.cold_s.size(); ++i) {
    if (t.cold_s[i].empty()) continue;
    const double s = fastest ? best(t.cold_s[i], true) : median(t.cold_s[i]);
    job_ms.push_back(s * 1e3);
    sum_s += s;
    states += static_cast<double>(t.last[i].states_visited);
    peak_bytes += static_cast<double>(t.last[i].peak_bytes);
    if (t.last[i].violation) {
      witness_sum += static_cast<double>(witness_steps(t.last[i]));
      ++violating;
    }
    per_job += ' ' + std::to_string(best(t.cold_s[i], true) * 1e3) + '/' +
               std::to_string(median(t.cold_s[i]) * 1e3);
  }
  std::vector<double> p50s;
  for (std::size_t i = 0; i + kP50Hits <= t.hits_us.size(); i += kP50Hits) {
    p50s.push_back(quantile(
        std::vector<double>(t.hits_us.begin() + static_cast<long>(i),
                            t.hits_us.begin() + static_cast<long>(i + kP50Hits)),
        0.50));
  }
  add(r, "setup_s", setup.seconds(), "s");
  add(r, "verdict_ms_gmean", gmean(job_ms), "ms");
  add(r, "states_per_s", ratio(states, sum_s), "states/s");
  add(r, "bytes_per_state", ratio(peak_bytes, states), "B/state");
  add(r, "peak_rss_mib", peak_rss_mib(), "MiB");
  add(r, "jobs_per_s",
      fastest ? best(t.jobs_per_s, false) : median(t.jobs_per_s), "jobs/s");
  add(r, "hit_us_p50", best(p50s, true), "us");
  add(r, "hit_us_p99", quantile(t.hits_us, 0.99), "us");
  add(r, "witness_steps_mean", ratio(witness_sum, violating), "steps");
  std::cerr << "perfbench: " << setup.repeats() << " set-ups, "
            << t.jobs_per_s.size() << " throughput windows, "
            << t.hits_us.size() << " timed hits, hit p50 " << median(p50s)
            << " us by median window\nperfbench: per-job fastest/median ms:"
            << per_job << '\n';
}

Result census_workload(const Options& o) {
  Result r;
  const Engine engine = engine_of(o.workload);
  // frontier_explore runs worker 0 on the calling thread.
  r.threads = engine == Engine::kFrontier ? kFrontierWorkers : 1;
  const std::vector<JobDesc> jobs = draw_census(o.seed);
  const std::size_t n = jobs.size();
  std::vector<JobSpec> specs;
  for (const JobDesc& j : jobs) specs.push_back(j.spec(engine, kFrontierWorkers));

  const fs::path cache_dir = cache_dir_for(o, o.workload);
  const fs::path scratch_dir = cache_dir_for(o, o.workload + "-setup");
  SetUp setup(o, specs);
  const Answers answers = setup.once(cache_dir);
  ff::verify::Cache cache(cache_dir.string());

  // Untimed warm-up round.  It goes through the cache, so the entries
  // the timed hits are served from are stored here.
  for (std::size_t i = 0; i < n; ++i) {
    guarded(r, jobs[i].key(), [&] {
      check(r, jobs[i], ff::verify::run(specs[i], &cache).report, answers);
    });
  }

  // Each round runs every job cold, then asks for every job kHitPasses
  // times through the cache (hits); a round is one throughput window.
  Timings t(n);
  const auto start = Clock::now();
  std::size_t rounds = 0;
  while (rounds < kMinRounds || seconds_since(start) < o.seconds) {
    double round_s = 0;
    for (std::size_t i = 0; i < n; ++i) {
      guarded(r, jobs[i].key(), [&] {
        const auto t0 = Clock::now();
        auto out = ff::verify::run(specs[i]);
        const double dt = seconds_since(t0);
        t.cold_s[i].push_back(dt);
        round_s += dt;
        check(r, jobs[i], out.report, answers);
        t.last[i] = std::move(out.report);
      });
    }
    for (std::size_t h = 0; h < kHitPasses * n; ++h) {
      const std::size_t i = h % n;
      guarded(r, jobs[i].key(), [&] {
        const auto t0 = Clock::now();
        const auto out = ff::verify::run(specs[i], &cache);
        const double dt = seconds_since(t0);
        t.hits_us.push_back(dt * 1e6);
        round_s += dt;
        if (!out.cache_hit) r.fail(jobs[i].key() + ": stored entry missed");
        check(r, jobs[i], out.report, answers);
      });
    }
    if (round_s > 0) {
      t.jobs_per_s.push_back(static_cast<double>((1 + kHitPasses) * n) /
                             round_s);
    }
    ++rounds;
    (void)setup.once(scratch_dir);
  }
  std::error_code ec;
  fs::remove_all(cache_dir, ec);
  fs::remove_all(scratch_dir, ec);
  add_end_to_end(r, setup, t, engine != Engine::kFrontier);
  return r;
}

Result regrid_workload(const Options& o) {
  Result r;
  const auto& grid = regrid_grid();
  const std::vector<std::size_t> stream = draw_regrid_stream(o.seed);
  std::vector<JobSpec> specs;
  for (const JobDesc& j : grid) specs.push_back(j.spec());
  std::vector<JobSpec> setup_specs;
  {
    std::vector<bool> seen(grid.size(), false);
    for (const std::size_t g : stream) {
      if (!seen[g]) setup_specs.push_back(specs[g]);
      seen[g] = true;
    }
  }

  const fs::path cache_dir = cache_dir_for(o, o.workload);
  const fs::path scratch_dir = cache_dir_for(o, o.workload + "-setup");
  SetUp setup(o, setup_specs);
  const Answers answers = setup.once(cache_dir);

  Timings t(grid.size());
  // One epoch replays the seeded stream against a fresh, empty cache:
  // a job's first sighting is a miss that stores, repeats are hits.
  auto epoch = [&](bool timed) {
    ff::verify::Cache cache = fresh_cache(cache_dir);
    std::vector<bool> seen(grid.size(), false);
    double epoch_s = 0;
    for (const std::size_t g : stream) {
      const bool expect_hit = seen[g];
      seen[g] = true;
      guarded(r, grid[g].key(), [&] {
        const auto t0 = Clock::now();
        auto out = ff::verify::run(specs[g], &cache);
        const double dt = seconds_since(t0);
        if (timed) {
          if (out.cache_hit) {
            t.hits_us.push_back(dt * 1e6);
          } else {
            t.cold_s[g].push_back(dt);
          }
          epoch_s += dt;
        }
        if (out.cache_hit != expect_hit) {
          r.fail(grid[g].key() + (expect_hit ? ": expected a cache hit"
                                             : ": unexpected cache hit"));
        }
        check(r, grid[g], out.report, answers);
        if (!out.cache_hit) t.last[g] = std::move(out.report);
      });
    }
    if (!timed || epoch_s == 0) return;
    // Windows close on whole epochs, so each holds the stream's own mix.
    (void)setup.once(scratch_dir);
    t.jobs_per_s.push_back(static_cast<double>(stream.size()) / epoch_s);
  };

  epoch(false);
  const auto start = Clock::now();
  std::size_t epochs = 0;
  while (epochs < kMinRounds || seconds_since(start) < o.seconds) {
    epoch(true);
    ++epochs;
  }
  std::error_code ec;
  fs::remove_all(cache_dir, ec);
  fs::remove_all(scratch_dir, ec);
  add_end_to_end(r, setup, t, true);
  return r;
}

// ---------------------------------------------------------------------------
// Traced run.
// ---------------------------------------------------------------------------

struct TracedOutcome {
  Report report;
  bool cache_hit = false;
};

/// verify::run's steps, each under its own span: the same work, split at
/// the layer boundaries the library exposes publicly.
TracedOutcome traced_run(Tracer& tracer, const JobSpec& spec,
                         ff::verify::Cache* cache, std::uint64_t job) {
  TracedOutcome out;
  const Tracer::Scope run_span(tracer, "verify.run", job);
  std::optional<ff::verify::Instance> instance;
  {
    const Tracer::Scope s(tracer, "verify.instantiate", job);
    instance.emplace(ff::verify::instantiate(spec));
  }
  ff::verify::JobFingerprint fp;
  {
    const Tracer::Scope s(tracer, "verify.job_fingerprint", job);
    fp = ff::verify::job_fingerprint(instance->spec);
  }
  const bool use_cache = cache != nullptr && instance->spec.cacheable();
  if (use_cache) {
    std::optional<ff::verify::Cache::Entry> entry;
    {
      const Tracer::Scope s(tracer, "verify.cache.load", job);
      entry = cache->load(fp);
    }
    if (entry && entry->program_fingerprint == instance->program_fingerprint) {
      out.report = std::move(entry->report);
      out.cache_hit = true;
      return out;
    }
  }
  {
    // execute() is the engine call plus Report assembly, so the engine
    // span shares its extent.
    const Tracer::Scope s(tracer, "verify.execute", job);
    const Tracer::Scope e(tracer,
                          instance->spec.engine == Engine::kFrontier
                              ? "sched.frontier_explore"
                              : "sched.explore",
                          job);
    out.report = ff::verify::execute(*instance);
  }
  if (use_cache) {
    const Tracer::Scope s(tracer, "verify.cache.store", job);
    cache->store(fp, instance->spec, instance->program_fingerprint,
                 out.report);
  }
  return out;
}

/// Median wall time of `f` over `repeats` calls, in microseconds.
double median_us(int repeats, const std::function<void()>& f) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    f();
    samples.push_back(seconds_since(t0) * 1e6);
  }
  return median(samples);
}

/// Per census job (a job that threw keeps an empty Report).
struct CensusPass {
  std::vector<Report> reports;
  double wall_s = 0;
};

struct RegridPass {
  std::vector<double> load_us;
  std::vector<double> store_us;
  std::vector<double> small_engine_us;
  std::uint64_t hits = 0;
  std::uint64_t calls = 0;
  std::uint64_t entry_bytes = 0;
  std::uint64_t entries = 0;
  double wall_s = 0;
};

}  // namespace

void Result::fail(std::string why) {
  ++failed;
  if (errors.size() < 10) errors.push_back(std::move(why));
}

bool known_workload(const std::string& name) {
  return name == "census-dfs" || name == "census-frontier" ||
         name == "regrid";
}

std::string env_json(const Options& o, const Result& r) {
  ff::util::JsonWriter w;
  w.begin_object().key("env").begin_object();
  w.kv("workload", std::string_view(o.workload)).kv("seed", o.seed);
  w.kv("seconds", o.seconds).kv("trace", o.trace);
  w.kv("nproc", std::uint64_t{std::thread::hardware_concurrency()});
  w.kv("threads", std::uint64_t{r.threads});
  w.kv("build_type", PERFBENCH_BUILD_TYPE).kv("compiler", PERFBENCH_COMPILER);
  w.kv("rev", std::string_view(o.rev)).end_object().end_object();
  return w.str();
}

Result run_workload(const Options& options) {
  return options.workload == "regrid" ? regrid_workload(options)
                                      : census_workload(options);
}

Result run_traced(const Options& o) {
  Result r;
  r.threads = kFrontierWorkers;
  Tracer tracer;
  std::uint64_t job_id = 0;
  const std::vector<JobDesc> census = draw_census(o.seed);
  const auto& grid = regrid_grid();
  const std::vector<std::size_t> stream = draw_regrid_stream(o.seed);
  const Answers answers = load_answers(o.answers_path);
  const fs::path cache_dir = cache_dir_for(o, "traced");

  // --- set-up layers: proto and the verify resolvers -----------------------
  std::vector<double> inst_us, build_us, pfp_us, factory_us, jfp_us;
  {
    const Tracer::Scope phase(tracer, "phase.setup", 0);
    std::vector<JobSpec> specs;
    for (const JobDesc& j : census) specs.push_back(j.spec());
    for (const JobDesc& j : grid) specs.push_back(j.spec());
    for (const JobSpec& spec : specs) {
      const std::uint64_t id = ++job_id;
      const JobSpec canonical = spec.canonicalized();
      ff::proto::Params params;
      for (const auto& [k, v] : canonical.params) params.set(k, v);
      std::shared_ptr<const ff::proto::Program> program;
      constexpr int kRepeats = 5;
      inst_us.push_back(median_us(kRepeats, [&] {
        const Tracer::Scope s(tracer, "verify.instantiate", id);
        (void)ff::verify::instantiate(spec);
      }));
      build_us.push_back(median_us(kRepeats, [&] {
        const Tracer::Scope s(tracer, "proto.build_program", id);
        program = ff::proto::build_program(canonical.protocol, params);
      }));
      pfp_us.push_back(median_us(kRepeats, [&] {
        const Tracer::Scope s(tracer, "proto.program_fingerprint", id);
        (void)ff::proto::program_fingerprint(*program);
      }));
      factory_us.push_back(median_us(kRepeats, [&] {
        const Tracer::Scope s(tracer, "proto.machine_factory", id);
        (void)ff::proto::machine_factory(canonical.protocol, params);
      }));
      jfp_us.push_back(median_us(kRepeats, [&] {
        const Tracer::Scope s(tracer, "verify.job_fingerprint", id);
        (void)ff::verify::job_fingerprint(canonical);
      }));
    }
  }

  // --- passes: census on either engine, one regrid epoch -------------------
  auto census_pass = [&](Engine engine, bool traced) {
    CensusPass p;
    p.reports.resize(census.size());
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < census.size(); ++i) {
      const JobDesc& job = census[i];
      const JobSpec spec = job.spec(engine, kFrontierWorkers);
      guarded(r, job.key(), [&] {
        TracedOutcome out;
        if (traced) {
          out = traced_run(tracer, spec, nullptr, ++job_id);
        } else {
          out.report = ff::verify::run(spec).report;
        }
        {
          const Tracer::Scope span(tracer, "perfbench.check", job_id);
          check(r, job, out.report, answers);
        }
        p.reports[i] = std::move(out.report);
      });
    }
    p.wall_s = seconds_since(t0);
    return p;
  };
  auto regrid_pass = [&](bool traced) {
    RegridPass p;
    ff::verify::Cache cache = fresh_cache(cache_dir);
    const auto t0 = Clock::now();
    for (const std::size_t g : stream) {
      guarded(r, grid[g].key(), [&] {
        const std::size_t first_span = tracer.spans().size();
        TracedOutcome out;
        if (traced) {
          out = traced_run(tracer, grid[g].spec(), &cache, ++job_id);
        } else {
          auto run = ff::verify::run(grid[g].spec(), &cache);
          out.report = std::move(run.report);
          out.cache_hit = run.cache_hit;
        }
        ++p.calls;
        p.hits += out.cache_hit ? 1 : 0;
        {
          const Tracer::Scope span(tracer, "perfbench.check", job_id);
          check(r, grid[g], out.report, answers);
        }
        for (std::size_t i = first_span; i < tracer.spans().size(); ++i) {
          const Tracer::Span& s = tracer.spans()[i];
          const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
          if (s.name == "verify.cache.load" && out.cache_hit) {
            p.load_us.push_back(us);
          } else if (s.name == "verify.cache.store") {
            p.store_us.push_back(us);
          } else if (s.name == "sched.explore" &&
                     out.report.states_visited < kSmallJobStates) {
            p.small_engine_us.push_back(us);
          }
        }
      });
    }
    p.wall_s = seconds_since(t0);
    const auto stats = cache.stats();
    p.entry_bytes = stats.bytes;
    p.entries = stats.entries;
    return p;
  };

  CensusPass dfs;
  CensusPass frontier;
  RegridPass regrid;
  {
    const Tracer::Scope phase(tracer, "phase.census-dfs", 0);
    dfs = census_pass(Engine::kDfs, true);
  }
  {
    const Tracer::Scope phase(tracer, "phase.census-frontier", 0);
    frontier = census_pass(Engine::kFrontier, true);
  }
  {
    const Tracer::Scope phase(tracer, "phase.regrid", 0);
    regrid = regrid_pass(true);
  }

  // --- tracing overhead on this run's workload: traced vs untraced ---------
  std::vector<double> traced_s, untraced_s;
  {
    const Tracer::Scope phase(tracer, "phase.overhead", 0);
    const Engine engine = engine_of(o.workload);
    auto pass_s = [&](bool traced) {
      return o.workload == "regrid" ? regrid_pass(traced).wall_s
                                    : census_pass(engine, traced).wall_s;
    };
    // Pairs alternate which side runs first.
    for (int k = 0; k < kOverheadPasses; ++k) {
      const bool traced_first = k % 2 == 0;
      (traced_first ? traced_s : untraced_s).push_back(pass_s(traced_first));
      (traced_first ? untraced_s : traced_s).push_back(pass_s(!traced_first));
    }
  }

  // --- ablations on the census jobs (resolved once, executed directly) -----
  double sleep_on_s = 0, sleep_off_s = 0, fr1_s = 0, fr2_s = 0;
  double sym_on_states = 0, sym_off_states = 0;
  double probe_ns = 0, probe_engine_s = 0, probed = 0;
  ProbeResult probes;
  {
    const Tracer::Scope phase(tracer, "phase.ablations", 0);
    for (std::size_t i = 0; i < census.size(); ++i) {
      const JobDesc& job = census[i];
      const Report& ref = dfs.reports[i];
      if (ref.states_visited == 0) continue;  // its traced pass threw
      guarded(r, job.key(), [&] {
        const ff::verify::Instance on = ff::verify::instantiate(job.spec());
        JobSpec off_spec = job.spec();
        off_spec.sleep_sets = false;
        const ff::verify::Instance off = ff::verify::instantiate(off_spec);
        // Alternate the two sides of each ablation and keep each side's
        // fastest run.
        const std::uint64_t id = ++job_id;
        auto timed = [&](const char* name, const ff::verify::Instance& inst) {
          const Tracer::Scope span(tracer, name, id);
          const auto t0 = Clock::now();
          Report x = ff::verify::execute(inst);
          return std::make_pair(seconds_since(t0), std::move(x));
        };
        const ff::verify::Instance fr1 =
            ff::verify::instantiate(job.spec(Engine::kFrontier, 1));
        const ff::verify::Instance fr2 = ff::verify::instantiate(
            job.spec(Engine::kFrontier, kFrontierWorkers));
        double best_on = 1e30, best_off = 1e30, best_fr1 = 1e30, best_fr2 = 1e30;
        for (int k = 0; k < kAblationRepeats; ++k) {
          best_on = std::min(best_on, timed("ablation.sleep_on", on).first);
          best_off = std::min(best_off, timed("ablation.sleep_off", off).first);
          best_fr1 = std::min(
              best_fr1, timed("ablation.frontier_1_worker", fr1).first);
          best_fr2 = std::min(
              best_fr2, timed("ablation.frontier_2_workers", fr2).first);
        }
        sleep_on_s += best_on;
        sleep_off_s += best_off;
        fr1_s += best_fr1;
        fr2_s += best_fr2;

        JobSpec nosym = job.spec();
        nosym.symmetry_reduction = false;
        const Report x =
            timed("ablation.no_symmetry", ff::verify::instantiate(nosym)).second;
        if (x.complete) {
          sym_on_states += static_cast<double>(ref.states_visited);
          sym_off_states += static_cast<double>(x.states_visited);
        }

        ++r.attempted;
        ProbeResult p;
        {
          const Tracer::Scope span(tracer, "probe.walk", id);
          p = probe(on);
        }
        const std::string mismatch =
            probe_cross_check(p, ref.states_visited, ref.terminal_states);
        if (!mismatch.empty()) r.fail(job.key() + ": " + mismatch);
        probe_ns += p.layer_ns();
        probe_engine_s += best_on;
        ++probed;
        probes.states += p.states;
        probes.terminals += p.terminals;
        probes.expansions += p.expansions;
        probes.transitions += p.transitions;
        probes.enabled_ns += p.enabled_ns;
        probes.step_ns += p.step_ns;
        probes.patch_ns += p.patch_ns;
        probes.fingerprint_ns += p.fingerprint_ns;
        probes.table_ns += p.table_ns;
        probes.footprint_ns += p.footprint_ns;
      });
    }
  }

  // --- regrid-side numbers ---------------------------------------------------
  std::vector<double> parse_us;
  double small_peak = 0, small_jobs = 0, to_violation = 0, violating = 0;
  {
    std::vector<bool> seen(grid.size(), false);
    for (const std::size_t g : stream) {
      if (seen[g]) continue;
      seen[g] = true;
      guarded(r, grid[g].key(), [&] {
        const Report rep = ff::verify::run(grid[g].spec()).report;
        const std::string text = rep.to_json();
        parse_us.push_back(median_us(21, [&] { (void)Report::parse(text); }));
        if (rep.states_visited < kSmallJobStates) {
          small_peak += static_cast<double>(rep.peak_bytes);
          ++small_jobs;
        }
        if (rep.violation) {
          to_violation += static_cast<double>(rep.states_visited);
          ++violating;
        }
      });
    }
  }
  std::error_code ec;
  fs::remove_all(cache_dir, ec);

  double grows = 0;
  double checks = 0, skips = 0, waves = 0;
  ff::sched::FrontierStats fs_sum;
  for (const Report& rep : dfs.reports) {
    grows += static_cast<double>(rep.table_grows);
    checks += static_cast<double>(rep.immunity_checks);
    skips += static_cast<double>(rep.immunity_skips);
  }
  double fr_states = 0;
  for (const Report& rep : frontier.reports) {
    fr_states += static_cast<double>(rep.states_visited);
    if (!rep.frontier) continue;
    fs_sum.forwarded += rep.frontier->forwarded;
    fs_sum.memo_hits += rep.frontier->memo_hits;
    fs_sum.batched_lanes += rep.frontier->batched_lanes;
    fs_sum.arena_lanes += rep.frontier->arena_lanes;
    waves += static_cast<double>(rep.frontier->waves);
  }
  const double resolutions =
      static_cast<double>(fs_sum.memo_hits + fs_sum.batched_lanes);
  const auto tr = static_cast<double>(probes.transitions);

  add(r, "verify.instantiate_us", median(inst_us), "us");
  add(r, "proto.build_program_us", median(build_us), "us");
  add(r, "proto.program_fingerprint_us", median(pfp_us), "us");
  add(r, "proto.machine_factory_us", median(factory_us), "us");
  add(r, "verify.job_fingerprint_us", median(jfp_us), "us");
  add(r, "verify.cache.load_us", median(regrid.load_us), "us");
  add(r, "verify.report.parse_us", median(parse_us), "us");
  add(r, "verify.cache.entry_bytes",
      ratio(static_cast<double>(regrid.entry_bytes),
            static_cast<double>(regrid.entries)),
      "B");
  add(r, "verify.cache.store_us", median(regrid.store_us), "us");
  add(r, "verify.cache.hit_share",
      ratio(static_cast<double>(regrid.hits), static_cast<double>(regrid.calls)),
      "share");
  add(r, "sched.explore.fixed_us", median(regrid.small_engine_us), "us");
  add(r, "sched.explore.small_job_peak_bytes", ratio(small_peak, small_jobs),
      "B");
  add(r, "sched.explore.states_to_violation", ratio(to_violation, violating),
      "states");
  add(r, "sched.sim_world.enabled_ns",
      ratio(probes.enabled_ns, static_cast<double>(probes.expansions)), "ns");
  add(r, "sched.sim_world.step_ns", ratio(probes.step_ns, tr), "ns");
  add(r, "sched.reduce.patch_ns", ratio(probes.patch_ns, tr), "ns");
  add(r, "sched.reduce.fingerprint_ns", ratio(probes.fingerprint_ns, tr),
      "ns");
  add(r, "sched.explore.table_ns", ratio(probes.table_ns, tr), "ns");
  add(r, "sched.explore.new_per_probe",
      ratio(static_cast<double>(probes.states) - probed, tr),
      "ratio");
  add(r, "sched.explore.table_grows", grows, "count");
  add(r, "sched.reduce.footprint_ns", ratio(probes.footprint_ns, tr), "ns");
  add(r, "sched.reduce.sleep_speedup", ratio(sleep_off_s, sleep_on_s), "x");
  add(r, "sched.reduce.symmetry_factor", ratio(sym_off_states, sym_on_states),
      "x");
  add(r, "sched.sim_world.immunity_prune_factor",
      ratio(checks + skips, checks), "x");
  add(r, "sched.frontier.forwarded_per_state",
      ratio(static_cast<double>(fs_sum.forwarded), fr_states), "ratio");
  add(r, "sched.frontier.memo_hit_share",
      ratio(static_cast<double>(fs_sum.memo_hits), resolutions), "share");
  add(r, "sched.frontier.batched_lane_share",
      ratio(static_cast<double>(fs_sum.batched_lanes), resolutions), "share");
  add(r, "sched.frontier.waves",
      ratio(waves, static_cast<double>(frontier.reports.size())), "count");
  add(r, "sched.frontier.arena_lanes_per_state",
      ratio(static_cast<double>(fs_sum.arena_lanes), fr_states), "ratio");
  add(r, "sched.frontier.scaling_2v1", ratio(fr1_s, fr2_s), "x");
  add(r, "sched.frontier.vs_dfs", ratio(sleep_on_s, fr2_s), "x");
  add(r, "sched.probe.coverage", ratio(probe_ns / 1e9, probe_engine_s),
      "share");
  add(r, "trace.overhead_share", ratio(median(traced_s), median(untraced_s)) - 1,
      "share");

  // --- trace files -------------------------------------------------------------
  fs::create_directories(o.out_dir);
  const std::string stem = (fs::path(o.out_dir) /
                            (o.workload + "-seed" + std::to_string(o.seed)))
                               .string();
  {
    std::ofstream out(stem + ".trace.json", std::ios::binary | std::ios::trunc);
    out << tracer.chrome_json();
  }
  {
    ff::util::JsonWriter w;
    w.begin_object().key("env").value(std::string_view(""));
    w.key("self_time_ms").begin_object();
    for (const auto& [phase, names] : tracer.self_times()) {
      w.key(phase).begin_object();
      for (const auto& [name, st] : names) {
        w.key(name).begin_object().kv("count", st.count);
        w.kv("total_ms", st.total_ms).kv("self_ms", st.self_ms).end_object();
      }
      w.end_object();
    }
    w.end_object().key("metrics").begin_object();
    for (const Metric& m : r.metrics) w.kv(m.name, m.value);
    w.end_object().end_object();
    // The env object is spliced in whole: {"env": "", ...} -> {"env": {...}, ...}
    std::string doc = w.str();
    const std::string env = env_json(o, r);
    doc.replace(doc.find("\"\""), 2, env.substr(7, env.size() - 8));
    std::ofstream out(stem + ".layers.json", std::ios::binary | std::ios::trunc);
    out << doc << '\n';
  }
  return r;
}

}  // namespace perfbench
