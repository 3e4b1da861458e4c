#include "jobs.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace perfbench {

namespace {

using Params = std::map<std::string, std::uint64_t>;

JobDesc job(std::string protocol, Params params, std::string kind,
            std::uint32_t t, std::uint32_t n, bool equal,
            std::uint32_t crash = 0, bool stop = true) {
  JobDesc d;
  d.protocol = std::move(protocol);
  d.params = std::move(params);
  d.kind = std::move(kind);
  d.t = t;
  d.processes = n;
  d.equal_inputs = equal;
  d.crash_budget = crash;
  d.stop_at_first_violation = stop;
  return d;
}

/// staged and recoverable-staged on one configuration: without crashes
/// both explore the same census at near-equal cost per state.
std::vector<JobDesc> staged_pair(std::uint64_t f, std::uint64_t pt,
                                 const char* kind, std::uint32_t t,
                                 std::uint32_t n, bool equal = true,
                                 bool stop = true) {
  std::vector<JobDesc> out;
  for (const char* protocol : {"staged", "recoverable-staged"}) {
    out.push_back(
        job(protocol, {{"f", f}, {"t", pt}}, kind, t, n, equal, 0, stop));
  }
  return out;
}

/// Two alternatives of near-equal cost drawn as one stratum.
std::vector<JobDesc> either(std::vector<JobDesc> a,
                            const std::vector<JobDesc>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

std::uint64_t below(ff::util::Xoshiro256& rng, std::uint64_t bound) {
  return rng() % bound;
}

}  // namespace

std::string JobDesc::key() const {
  std::string k = protocol + "(";
  bool first = true;
  for (const auto& [name, value] : params) {
    if (!first) k += ',';
    first = false;
    k += name + "=" + std::to_string(value);
  }
  k += ") " + kind + " t=" + std::to_string(t) +
       " n=" + std::to_string(processes) +
       (equal_inputs ? " equal" : " distinct") +
       " crash=" + std::to_string(crash_budget) +
       (stop_at_first_violation ? " first" : " all");
  return k;
}

ff::verify::JobSpec JobDesc::spec(ff::verify::Engine engine,
                                  std::uint32_t threads) const {
  ff::verify::JobSpec s;
  s.protocol = protocol;
  s.params = params;
  s.kind = ff::verify::fault_kind_from_string(kind);
  s.t = t;
  s.processes = processes;
  s.crash_budget = crash_budget;
  s.equal_inputs = equal_inputs;
  s.stop_at_first_violation = stop_at_first_violation;
  s.engine = engine;
  if (engine == ff::verify::Engine::kFrontier) {
    s.sleep_sets = false;
    s.threads = threads;
  }
  return s;
}

const std::vector<std::vector<JobDesc>>& census_strata() {
  static const std::vector<std::vector<JobDesc>> kStrata = [] {
    std::vector<std::vector<JobDesc>> s;
    // Equal inputs (symmetry folds orbits), ~1k to ~17k states.
    s.push_back(staged_pair(1, 2, "overriding", 2, 2));
    s.push_back(staged_pair(1, 1, "overriding", 2, 3));
    s.push_back(either(staged_pair(1, 1, "arbitrary", 1, 3),
                       staged_pair(1, 1, "data", 1, 3)));
    s.push_back(staged_pair(1, 1, "overriding", 1, 4));
    s.push_back(staged_pair(1, 1, "silent", 2, 4));
    s.push_back(staged_pair(1, 1, "arbitrary", 2, 3));
    // recoverable-staged with crash budget 1 (~7.5k states).
    s.push_back({job("recoverable-staged", {{"f", 1}, {"t", 1}}, "arbitrary",
                     2, 2, true, 1),
                 job("recoverable-staged", {{"f", 1}, {"t", 1}}, "silent", 1,
                     3, true, 1)});
    // Distinct inputs, n <= f+1: a correct census (~12k states).
    s.push_back(staged_pair(2, 1, "overriding", 1, 2, false));
    // A violating configuration counted to completion: n > f+1 (~12k
    // states, 168 violating terminal states).
    s.push_back(staged_pair(1, 1, "overriding", 1, 3, false, false));
    return s;
  }();
  return kStrata;
}

const std::vector<JobDesc>& regrid_grid() {
  static const std::vector<JobDesc> kGrid = [] {
    std::vector<JobDesc> g;
    const Params f1t1{{"f", 1}, {"t", 1}};
    // Violating: fault budget exceeded (t=2 against a t=1 protocol).
    g.push_back(job("staged", f1t1, "arbitrary", 2, 2, false));
    g.push_back(job("staged", f1t1, "data", 2, 2, false));
    g.push_back(job("recoverable-staged", f1t1, "arbitrary", 2, 2, false));
    // Violating: n > f+1 for staged.
    g.push_back(job("staged", f1t1, "overriding", 1, 3, false));
    // Violating: naive test&set beyond two processes.
    g.push_back(job("tas", {{"n", 3}}, "overriding", 1, 3, false));
    g.push_back(job("tas", {{"n", 4}}, "overriding", 1, 4, false));
    // Violating: f-plus-one with k = f (every object may fault).
    g.push_back(job("f-plus-one", {{"k", 1}}, "overriding", 1, 3, false));
    for (const char* kind : {"silent", "arbitrary", "data"}) {
      g.push_back(job("f-plus-one", {{"k", 1}}, kind, 1, 2, false));
    }
    g.push_back(job("f-plus-one", {{"k", 2}}, "arbitrary", 1, 3, false));
    // Violating: recoverable-cas under crash x overriding.
    g.push_back(job("recoverable-cas", {}, "overriding", 1, 2, false, 1));
    g.push_back(job("recoverable-cas", {}, "overriding", 1, 3, false, 1));
    // Small configurations whose census completes.
    for (const char* kind : {"overriding", "silent", "nonresponsive",
                             "arbitrary", "data"}) {
      g.push_back(job("single-cas", {}, kind, 1, 3, true));
    }
    g.push_back(job("single-cas", {}, "nonresponsive", 1, 4, false));
    g.push_back(job("f-plus-one", {{"k", 2}}, "overriding", 1, 2, false));
    // Violating too: k = 3 objects, every one of them may fault.
    g.push_back(job("f-plus-one", {{"k", 3}}, "overriding", 1, 3, false));
    g.push_back(job("tas", {{"n", 2}}, "overriding", 1, 2, false));
    g.push_back(job("retry-silent", {}, "silent", 1, 2, false));
    g.push_back(job("recoverable-cas", {}, "overriding", 1, 2, false));
    g.push_back(job("staged", f1t1, "overriding", 1, 2, false));
    g.push_back(job("staged", f1t1, "overriding", 2, 2, false));
    g.push_back(job("staged", f1t1, "silent", 1, 2, false));
    g.push_back(job("staged", f1t1, "silent", 1, 3, false));
    g.push_back(job("recoverable-staged", f1t1, "overriding", 1, 2, false));
    g.push_back(job("staged", {{"f", 1}, {"t", 2}}, "silent", 2, 3, true));
    return g;
  }();
  return kGrid;
}

std::vector<JobDesc> all_jobs() {
  std::vector<JobDesc> out;
  for (const auto& stratum : census_strata()) {
    out.insert(out.end(), stratum.begin(), stratum.end());
  }
  out.insert(out.end(), regrid_grid().begin(), regrid_grid().end());
  return out;
}

std::vector<JobDesc> draw_census(std::uint64_t seed) {
  ff::util::Xoshiro256 rng(seed ^ 0xc3a5c85c97cb3127ULL);
  std::vector<JobDesc> out;
  for (const auto& stratum : census_strata()) {
    out.push_back(stratum[below(rng, stratum.size())]);
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[below(rng, i)]);
  }
  return out;
}

std::vector<std::size_t> draw_regrid_stream(std::uint64_t seed) {
  ff::util::Xoshiro256 rng(seed ^ 0x9ae16a3b2f90404fULL);
  std::vector<std::size_t> stream(kRegridStreamLength);
  for (std::size_t& i : stream) i = below(rng, regrid_grid().size());
  return stream;
}

}  // namespace perfbench
