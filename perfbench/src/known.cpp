#include "known.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sched/explorer.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "verify/run.hpp"

namespace perfbench {

namespace {

using ff::sched::ViolationKind;

constexpr std::string_view kNontermination =
    ff::sched::to_string(ViolationKind::kNontermination);

std::string describe(const Answer& a) {
  std::ostringstream out;
  out << "complete=" << a.complete << " states=" << a.states
      << " terminals=" << a.terminals << " agreed={";
  for (const auto v : a.agreed) out << ' ' << v;
  out << " } violations={";
  for (const auto& [kind, count] : a.violations) {
    out << ' ' << kind << ':' << count;
  }
  out << " }";
  return out.str();
}

/// Nontermination counts back-edges, which depend on visiting order, so
/// only its presence is part of the census (as in verify::census_equal's
/// cross-engine use); every terminal-state kind is compared exactly.
bool same_violations(const std::map<std::string, std::uint64_t>& a,
                     const std::map<std::string, std::uint64_t>& b) {
  auto strip = [](std::map<std::string, std::uint64_t> m) {
    if (const auto it = m.find(std::string(kNontermination)); it != m.end()) {
      it->second = 1;
    }
    return m;
  };
  return strip(a) == strip(b);
}

}  // namespace

Answer answer_of(const ff::verify::Report& report) {
  Answer a;
  a.complete = report.complete;
  a.states = report.states_visited;
  a.terminals = report.terminal_states;
  a.agreed = report.agreed_values;
  for (const auto& [kind, count] : report.violations_by_kind) {
    a.violations[std::string(ff::sched::to_string(kind))] = count;
  }
  return a;
}

Answers load_answers(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read known answers: " + path);
  std::stringstream text;
  text << in.rdbuf();
  const ff::util::JsonValue doc = ff::util::JsonValue::parse(text.str());
  Answers answers;
  for (const auto& entry : doc.at("answers").as_array()) {
    Answer a;
    a.complete = entry.at("complete").as_bool();
    a.states = entry.at("states").as_u64();
    a.terminals = entry.at("terminals").as_u64();
    for (const auto& v : entry.at("agreed").as_array()) {
      a.agreed.insert(v.as_u64());
    }
    for (const auto& [kind, count] : entry.at("violations").members()) {
      a.violations[kind] = count.as_u64();
    }
    answers[entry.at("job").as_string()] = a;
  }
  if (answers.empty()) throw std::runtime_error("no known answers in " + path);
  return answers;
}

std::string answers_json(const Answers& answers) {
  std::string out = "{\"answers\": [\n";
  bool first = true;
  for (const auto& [key, a] : answers) {
    ff::util::JsonWriter w;
    w.begin_object().kv("job", std::string_view(key)).kv("complete", a.complete);
    w.kv("states", a.states).kv("terminals", a.terminals);
    w.key("agreed").begin_array();
    for (const auto v : a.agreed) w.value(v);
    w.end_array().key("violations").begin_object();
    for (const auto& [kind, count] : a.violations) {
      w.kv(kind, count);
    }
    w.end_object().end_object();
    out += (first ? "  " : ",\n  ") + w.str();
    first = false;
  }
  return out + "\n]}\n";
}

Answers generate_answers() {
  Answers answers;
  for (const JobDesc& job : all_jobs()) {
    ff::verify::JobSpec spec = job.spec();
    spec.interpreted = true;
    answers[job.key()] = answer_of(ff::verify::run(spec).report);
  }
  return answers;
}

std::string check_report(const JobDesc& job, const ff::verify::Report& report,
                         const Answers& answers) {
  const auto it = answers.find(job.key());
  if (it == answers.end()) return "no known answer for " + job.key();
  const Answer got = answer_of(report);
  const Answer& want = it->second;
  if (got.complete == want.complete && got.states == want.states &&
      got.terminals == want.terminals && got.agreed == want.agreed &&
      same_violations(got.violations, want.violations)) {
    return {};
  }
  return job.key() + ": got " + describe(got) + ", known " + describe(want);
}

std::string check_witness(const JobDesc& job,
                          const ff::verify::Report& report) {
  if (report.violations_found == 0) return {};
  if (!report.violation) return job.key() + ": violations but no witness";
  const ff::sched::Violation& v = *report.violation;
  const ff::verify::Instance instance = ff::verify::instantiate(job.spec());
  ff::sched::SimWorld world = instance.world();
  std::vector<std::vector<std::uint64_t>> seen{world.encode()};
  for (std::size_t i = 0; i < v.schedule.size(); ++i) {
    const auto enabled = world.enabled();
    if (std::find(enabled.begin(), enabled.end(), v.schedule[i]) ==
        enabled.end()) {
      return job.key() + ": witness step " + std::to_string(i) + " (" +
             v.schedule[i].to_string() + ") is not enabled";
    }
    world.apply(v.schedule[i]);
    if (v.kind == ViolationKind::kNontermination) {
      seen.push_back(world.encode());
    }
  }
  const std::string where = job.key() + ": witness of " +
                            std::string(ff::sched::to_string(v.kind));
  if (v.kind == ViolationKind::kNontermination) {
    const auto& last = seen.back();
    if (std::find(seen.begin(), seen.end() - 1, last) == seen.end() - 1) {
      return where + " does not revisit a state";
    }
    return {};
  }
  if (!world.terminal()) return where + " does not end in a terminal state";
  std::optional<std::uint64_t> first;
  bool disagree = false;
  bool invalid = false;
  for (const auto& d : world.decisions()) {
    if (!d) continue;
    if (std::find(world.inputs().begin(), world.inputs().end(), *d) ==
        world.inputs().end()) {
      invalid = true;
    }
    if (first && *first != *d) disagree = true;
    if (!first) first = d;
  }
  const bool shown = (v.kind == ViolationKind::kInconsistent && disagree) ||
                     (v.kind == ViolationKind::kInvalid && invalid) ||
                     (v.kind == ViolationKind::kStalled && world.any_killed());
  return shown ? std::string{} : where + " ends in a state that satisfies it";
}

}  // namespace perfbench
