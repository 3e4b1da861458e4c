#include "util/cli.hpp"

#include <charconv>
#include <stdexcept>

namespace ff::util {

namespace {

/// Parses the whole of `text` as a T; anything else — non-numeric text,
/// trailing characters, a sign the type cannot hold, overflow — throws
/// std::invalid_argument naming the flag.
template <typename T>
T parse_number(const std::string& name, const std::string& text,
               const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument("--" + name + "=" + text + ": out of range");
  }
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("--" + name + "=" + text + ": expected " +
                                expected);
  }
  return value;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--name value" form, unless the next token is itself a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "";  // bare boolean flag
    }
  }
}

bool Cli::has(const std::string& name) const {
  return flags_.contains(name);
}

std::optional<std::string> Cli::get(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  return get(name).value_or(fallback);
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const auto v = get(name);
  if (!v || v->empty()) return fallback;
  return parse_number<std::int64_t>(name, *v, "a whole number");
}

std::uint64_t Cli::get_uint(const std::string& name,
                            std::uint64_t fallback) const {
  const auto v = get(name);
  if (!v || v->empty()) return fallback;
  return parse_number<std::uint64_t>(name, *v, "a non-negative whole number");
}

std::uint32_t Cli::get_u32(const std::string& name,
                           std::uint32_t fallback) const {
  const auto v = get(name);
  if (!v || v->empty()) return fallback;
  return parse_number<std::uint32_t>(name, *v, "a non-negative whole number");
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v || v->empty()) return fallback;
  return parse_number<double>(name, *v, "a number");
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  if (v->empty() || *v == "1" || *v == "true" || *v == "yes") return true;
  if (*v == "0" || *v == "false" || *v == "no") return false;
  throw std::invalid_argument("invalid boolean flag --" + name + "=" + *v);
}

}  // namespace ff::util
