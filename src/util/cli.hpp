// Tiny command-line flag parser for the bench/example binaries.
//
// Supports --name=value, --name value, and bare --flag booleans.  Unknown
// flags are collected so callers can decide whether to reject them
// (google-benchmark binaries pass their own flags through).  The numeric
// getters are strict: a value that is not entirely a number of the
// requested type throws std::invalid_argument naming the flag.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ff::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& name,
                                       std::uint64_t fallback) const;
  /// get_uint for 32-bit fields: a value above 2^32 - 1 throws instead
  /// of wrapping.
  [[nodiscard]] std::uint32_t get_u32(const std::string& name,
                                      std::uint32_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non --flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace ff::util
