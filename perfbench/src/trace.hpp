// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around each call into a layer's
// public functions (the library itself is not instrumented).  Each span
// has a name, start and end, its own id, the id of the span that was
// open when it began (its parent) and the id of the job it belongs to.
// Nothing is written until the run ends: chrome_json() renders Chrome
// trace-event JSON (opens offline in Perfetto or chrome://tracing) and
// self_times() subtracts child spans to give each name's self time,
// grouped by the root span (the phase of the run) it ran under.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t job = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Closes its span when destroyed.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint64_t job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  struct SelfTime {
    std::uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::string chrome_json() const;
  /// Root span name (a phase of the run) -> span name -> self time.
  [[nodiscard]] std::map<std::string, std::map<std::string, SelfTime>>
  self_times() const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices of the open spans
};

}  // namespace perfbench
