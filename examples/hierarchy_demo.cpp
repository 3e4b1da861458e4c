// hierarchy_demo — walks the Herlihy consensus hierarchy levels realized
// by faulty CAS ensembles (Section 5.2).
//
// For each f it probes process counts until the first violation and
// prints the resulting consensus number, with the kind of evidence
// backing each cell (exhaustive proof / stress / counterexample).
//
//   $ ./hierarchy_demo [--max-f 3] [--t 1]
#include <iostream>

#include "hierarchy/consensus_number.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const ff::util::Cli cli(argc, argv);
  const auto max_f = cli.get_u32("max-f", 3);
  const auto t = cli.get_u32("t", 1);

  std::cout << "The consensus hierarchy, populated by faulty CAS "
               "ensembles\n"
            << "(f overriding-faulty CAS objects, at most " << t
            << " fault(s) each):\n\n";

  ff::hierarchy::ProbeOptions options;
  options.explorer_max_states = cli.get_uint("state-cap", 1'000'000);
  options.walks = 150;

  for (std::uint32_t f = 1; f <= max_f; ++f) {
    const auto estimate =
        ff::hierarchy::estimate_staged_consensus_number(f, t, f + 3,
                                                        options);
    std::cout << "f = " << f << "  ->  consensus number "
              << estimate.consensus_number << " (theory: " << f + 1
              << ")\n";
    for (const auto& cell : estimate.cells) {
      std::cout << "    n = " << cell.n << ": "
                << ff::hierarchy::to_string(cell.evidence) << " ["
                << cell.method << ", effort " << cell.effort << "]";
      if (!cell.detail.empty()) std::cout << " — " << cell.detail;
      std::cout << '\n';
    }
    std::cout << '\n';
  }
  std::cout << "A correct CAS object sits at level infinity; one overriding "
               "fault per object drags an\nf-object ensemble down to level "
               "f+1 — every hierarchy level is realized by some fault "
               "budget.\n";
  return 0;
}
