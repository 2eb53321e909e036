#include "options.hpp"

#include <charconv>
#include <cmath>
#include <functional>
#include <map>

namespace perfbench {
namespace {

std::string quoted(std::string_view value) {
  std::string out(1, '\'');
  out.append(value);
  out.push_back('\'');
  return out;
}

std::optional<std::uint64_t> parse_uint(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> parse_positive(std::string_view text, double max) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  if (!std::isfinite(value) || value <= 0.0 || value > max) return std::nullopt;
  return value;
}

}  // namespace

ParsedOptions parse_options(std::span<const std::string_view> args) {
  Options opts;
  bool have_workload = false;
  std::string error;
  const auto fail = [&error](std::string_view flag, std::string message) {
    error = "--" + std::string(flag) + ": " + std::move(message);
  };

  using Setter = std::function<void(std::string_view)>;
  const std::map<std::string_view, Setter> setters = {
      {"workload",
       [&](std::string_view v) {
         if (const auto kind = parse_workload(v)) {
           opts.workload = *kind;
           have_workload = true;
         } else {
           std::string message = "unknown workload ";
           message += quoted(v);
           message += "; expected one of:";
           for (const std::string_view n : kWorkloadNames) (message += ' ') += n;
           fail("workload", std::move(message));
         }
       }},
      {"seed",
       [&](std::string_view v) {
         if (const auto seed = parse_uint(v)) {
           opts.seed = *seed;
         } else {
           fail("seed", quoted(v) + " is not a non-negative integer");
         }
       }},
      {"seconds",
       [&](std::string_view v) {
         if (const auto s = parse_positive(v, 3600.0)) {
           opts.seconds = *s;
         } else {
           fail("seconds", quoted(v) + " is not a positive number of seconds (at most 3600)");
         }
       }},
      {"trace",
       [&](std::string_view v) {
         if (v == "0" || v == "1") {
           opts.trace = v == "1";
         } else {
           fail("trace", quoted(v) + " is not 0 or 1");
         }
       }},
      {"trace-out", [&](std::string_view v) { opts.trace_out = std::string(v); }},
      {"rev", [&](std::string_view v) { opts.rev = std::string(v); }},
  };

  for (std::size_t i = 0; i < args.size() && error.empty(); ++i) {
    std::string_view arg = args[i];
    if (!arg.starts_with("--") || arg.size() == 2) {
      error = quoted(arg) + ": unexpected argument";
      break;
    }
    arg.remove_prefix(2);
    std::string_view name = arg;
    std::optional<std::string_view> value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    const auto it = setters.find(name);
    if (it == setters.end()) {
      error = "--" + std::string(name) + ": unknown flag";
      break;
    }
    if (!value) {
      if (i + 1 >= args.size()) {
        fail(name, "missing value");
        break;
      }
      value = args[++i];
    }
    it->second(*value);
  }
  if (error.empty() && !have_workload) {
    fail("workload", "required");
  }
  if (!error.empty()) return {std::nullopt, error};
  return {opts, {}};
}

}  // namespace perfbench
