// The benchmark's own tests.  Run:
//   perfbench_selftest [answers-file [scratch-dir]]
// (defaults perfbench/known_answers.json and .bench_build/perfbench-out);
// exit status 0 = all passed.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "jobs.hpp"
#include "known.hpp"
#include "probe.hpp"
#include "verify/run.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << '\n';
  if (!ok) ++failures;
}

perfbench::JobDesc small_census_job() {
  return perfbench::census_strata().front().front();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "perfbench/known_answers.json";
  const std::string scratch =
      argc > 2 ? argv[2] : ".bench_build/perfbench-out";
  const perfbench::Answers answers = perfbench::load_answers(path);

  // Every job any seed can draw has a known answer.
  bool covered = true;
  for (const auto& job : perfbench::all_jobs()) {
    covered = covered && answers.count(job.key()) == 1;
  }
  expect(covered, "known answers cover both pools");

  // A corrupted known answer is counted as failed.
  {
    const perfbench::JobDesc job = small_census_job();
    const auto report = ff::verify::run(job.spec()).report;
    expect(perfbench::check_report(job, report, answers).empty(),
           "a timed job matches its known answer");
    perfbench::Answers corrupted = answers;
    ++corrupted[job.key()].states;
    expect(!perfbench::check_report(job, report, corrupted).empty(),
           "a corrupted state count is a mismatch");
    corrupted = answers;
    corrupted[job.key()].agreed.insert(99);
    expect(!perfbench::check_report(job, report, corrupted).empty(),
           "corrupted agreed values are a mismatch");
  }

  // In a run, a corrupted answer counts as failed against attempted, and
  // the run goes on to report its metrics.
  {
    perfbench::Answers corrupted = answers;
    ++corrupted[perfbench::regrid_grid().front().key()].states;
    std::filesystem::create_directories(scratch);
    perfbench::Options o;
    o.workload = "regrid";
    o.seconds = 1;
    o.out_dir = scratch;
    o.answers_path = scratch + "/corrupted_answers.json";
    std::ofstream(o.answers_path) << perfbench::answers_json(corrupted);
    const perfbench::Result r = perfbench::run_workload(o);
    std::filesystem::remove(o.answers_path);
    expect(r.failed > 0 && r.attempted > r.failed && !r.correct() &&
               r.metrics.size() == 9,
           "a run counts a corrupted answer as failed and still reports");
  }

  // A witness that does not replay is caught.
  {
    const perfbench::JobDesc job = perfbench::regrid_grid().front();
    auto report = ff::verify::run(job.spec()).report;
    expect(report.violation.has_value() &&
               perfbench::check_witness(job, report).empty(),
           "a violating job's witness replays");
    report.violation->schedule.pop_back();
    expect(!perfbench::check_witness(job, report).empty(),
           "a truncated witness is rejected");
  }

  // A second seed changes the draw, and its jobs still pass the check.
  {
    std::vector<std::string> a, b;
    for (const auto& j : perfbench::draw_census(1)) a.push_back(j.key());
    for (const auto& j : perfbench::draw_census(2)) b.push_back(j.key());
    expect(a != b, "seeds 1 and 2 draw different census jobs");
    expect(perfbench::draw_regrid_stream(1) != perfbench::draw_regrid_stream(2),
           "seeds 1 and 2 draw different regrid streams");
    bool all_match = true;
    for (const auto& job : perfbench::draw_census(2)) {
      const auto report = ff::verify::run(job.spec()).report;
      const std::string error = perfbench::check_report(job, report, answers);
      if (!error.empty()) std::cout << "     " << error << '\n';
      all_match = all_match && error.empty();
    }
    expect(all_match, "seed 2's census jobs match their known answers");
  }

  // The probe agrees with the engine, and a disagreement is detected.
  {
    const perfbench::JobDesc job = small_census_job();
    const auto instance = ff::verify::instantiate(job.spec());
    const auto report = ff::verify::execute(instance);
    const auto p = perfbench::probe(instance);
    expect(perfbench::probe_cross_check(p, report.states_visited,
                                        report.terminal_states)
               .empty(),
           "probe state count equals states_visited");
    expect(!perfbench::probe_cross_check(p, report.states_visited + 1,
                                         report.terminal_states)
                .empty(),
           "a probe/engine state-count mismatch is detected");
    auto unreduced = job.spec();
    unreduced.symmetry_reduction = false;
    const auto q = perfbench::probe(ff::verify::instantiate(unreduced));
    expect(!perfbench::probe_cross_check(q, report.states_visited,
                                         report.terminal_states)
                .empty(),
           "a probe over a different graph (no symmetry) is detected");
  }

  std::cout << (failures == 0 ? "all passed" : "FAILED") << '\n';
  return failures == 0 ? 0 : 1;
}
