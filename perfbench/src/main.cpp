// perfbench — the repository benchmark program (see ../README.md).
//
//   perfbench --workload census-dfs|census-frontier|regrid --seed N
//             --seconds S --trace 0|1 [--answers FILE] [--out-dir DIR]
//             [--rev REV]
//   perfbench --gen-answers FILE     regenerate the known answers
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by an {"env": ...} line recording the machine and build.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "known.hpp"
#include "workloads.hpp"

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(text, &used);
  if (used != text.size()) {
    throw std::invalid_argument(flag + ": not a whole number: " + text);
  }
  return v;
}

int usage() {
  std::cerr << "usage: perfbench --workload census-dfs|census-frontier|regrid"
               " --seed N --seconds S --trace 0|1 [--answers FILE]"
               " [--out-dir DIR] [--rev REV]\n"
               "       perfbench --gen-answers FILE\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string gen_answers;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = parse_u64(flag, value);
      } else if (flag == "--seconds") {
        o.seconds = static_cast<double>(parse_u64(flag, value));
      } else if (flag == "--trace") {
        const std::uint64_t t = parse_u64(flag, value);
        if (t > 1) return usage();
        o.trace = t == 1;
      } else if (flag == "--answers") {
        o.answers_path = value;
      } else if (flag == "--out-dir") {
        o.out_dir = value;
      } else if (flag == "--rev") {
        o.rev = value;
      } else if (flag == "--gen-answers") {
        gen_answers = value;
      } else {
        return usage();
      }
    }

    if (!gen_answers.empty()) {
      std::ofstream out(gen_answers, std::ios::binary | std::ios::trunc);
      out << perfbench::answers_json(perfbench::generate_answers());
      return out ? 0 : 1;
    }
    if (!perfbench::known_workload(o.workload)) return usage();

    const perfbench::Result r = o.trace ? perfbench::run_traced(o)
                                        : perfbench::run_workload(o);
    for (const std::string& e : r.errors) std::cerr << "FAILED: " << e << '\n';

    std::cout << perfbench::env_json(o, r) << '\n';

    std::string line = "{\"correct\": ";
    line += r.correct() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(r.attempted);
    line += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      const auto& m = r.metrics[i];
      line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
              number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    std::cout << line << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
