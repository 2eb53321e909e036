// Minimal command-line flag parsing for bench/example binaries:
// --name=value, --name value, and boolean --name. Every accessor records
// the flag name it was asked for, so after a binary has read all its flags
// it calls reject_unknown(), which exits 2 on any flag it never read
// (--seeed=3 used to be silently ignored) and on any argument that is
// neither a flag nor a flag's value (the 7 in --seconds 1 7). Numeric
// accessors accept only a value that parses completely: --flows=4x,
// --seeds=abc or a bare --flows print an error naming the flag and exit
// with status 2, as do a seed that is negative or fractional (--seeds=1.5),
// a count, size or duration of 0 (--flows=0), a real value that is not
// positive (--loads=0; every real flag is a load, rate, weight, count or
// duration), a text flag that is bare or empty (--csv, --json=) and a
// boolean flag given any value but true, false, 1 or 0 (--full=off).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace dynaq::harness {

class Cli {
 public:
  Cli(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (!arg.starts_with("--")) {
        stray_.emplace_back(arg);
        continue;
      }
      arg.remove_prefix(2);
      if (const auto eq = arg.find('='); eq != std::string_view::npos) {
        values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      } else if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
        values_[std::string(arg)] = argv[++i];
      } else {
        values_[std::string(arg)] = "true";
        bare_.insert(std::string(arg));
      }
    }
  }

  bool has(const std::string& name) const {
    queried_.insert(name);
    return values_.contains(name);
  }

  // A boolean: bare (--full) or true, false, 1 or 0. Any other value exits
  // 2, so --full=off cannot read as true and --full 7 cannot swallow the 7.
  bool flag(const std::string& name, bool fallback = false) const {
    queried_.insert(name);
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    const std::string& v = it->second;
    if (v == "true" || v == "1") return true;
    if (v != "false" && v != "0") reject(name, v, "a boolean (true, false, 1 or 0)");
    return false;
  }

  std::int64_t integer(const std::string& name, std::int64_t fallback) const {
    queried_.insert(name);
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : parse_integer(name, it->second);
  }

  // A positive real number, e.g. --load=0.5.
  double real(const std::string& name, double fallback) const {
    queried_.insert(name);
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : parse_real(name, it->second);
  }

  // A non-negative integer, e.g. --seed.
  std::int64_t natural(const std::string& name, std::int64_t fallback) const {
    const std::int64_t out = integer(name, fallback);
    if (out < 0) reject(name, std::to_string(out), "a non-negative integer");
    return out;
  }

  // A positive integer: a count, size or duration, e.g. --flows. Zero would
  // run an empty experiment and report its metrics as 0.
  std::int64_t positive(const std::string& name, std::int64_t fallback) const {
    const std::int64_t out = natural(name, fallback);
    if (out == 0) reject(name, "0", "a positive integer");
    return out;
  }

  std::string text(const std::string& name, std::string fallback) const {
    queried_.insert(name);
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    // A bare --csv would name a directory "true", and an empty --json=
    // would read as not given: the run would write no artifact and exit 0.
    if (bare_.contains(name) || it->second.empty()) {
      std::fprintf(stderr, "error: --%s needs a value\n", name.c_str());
      std::exit(2);
    }
    return it->second;
  }

  // Comma-separated list of positive reals, e.g. --loads=0.3,0.5,0.8.
  std::vector<double> reals(const std::string& name, std::vector<double> fallback) const {
    queried_.insert(name);
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    std::vector<double> out;
    std::size_t pos = 0;
    const std::string& s = it->second;
    while (pos < s.size()) {
      std::size_t next = s.find(',', pos);
      if (next == std::string::npos) next = s.size();
      out.push_back(parse_real(name, std::string_view(s).substr(pos, next - pos)));
      pos = next + 1;
    }
    return out;
  }

  // Comma-separated list of non-negative integers as doubles, the form of a
  // numeric sweep axis, e.g. --seeds=1,2,3.
  std::vector<double> naturals(const std::string& name, std::vector<double> fallback) const {
    if (!has(name)) return fallback;
    std::vector<double> out;
    for (const std::string& s : list(name, {})) {
      const std::int64_t v = parse_integer(name, s);
      if (v < 0) reject(name, s, "a non-negative integer");
      out.push_back(static_cast<double>(v));
    }
    return out;
  }

  // Comma-separated list of strings, e.g. --schemes=DynaQ,PQL.
  std::vector<std::string> list(const std::string& name,
                                std::vector<std::string> fallback) const {
    queried_.insert(name);
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    std::vector<std::string> out;
    std::size_t pos = 0;
    const std::string& s = it->second;
    while (pos < s.size()) {
      std::size_t next = s.find(',', pos);
      if (next == std::string::npos) next = s.size();
      out.push_back(s.substr(pos, next - pos));
      pos = next + 1;
    }
    return out;
  }

  // Flags that were given on the command line but never looked up by any
  // accessor. Only meaningful after the binary has read all its flags.
  std::vector<std::string> unknown() const {
    std::vector<std::string> out;
    for (const auto& [name, value] : values_) {
      if (!queried_.contains(name)) out.push_back(name);
    }
    return out;
  }

  // Call after the binary's last flag read and before it runs anything: a
  // flag no accessor asked for, --help included, or a stray argument exits
  // 2 naming it and listing the flags this binary reads.
  void reject_unknown() const {
    const auto bad = unknown();
    if (bad.empty() && stray_.empty()) return;
    for (const auto& arg : stray_) {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", arg.c_str());
    }
    for (const auto& name : bad) {
      std::fprintf(stderr, "error: unrecognized flag --%s\n", name.c_str());
    }
    std::fputs("known flags:", stderr);
    for (const auto& name : queried_) std::fprintf(stderr, " --%s", name.c_str());
    std::fputs(queried_.empty() ? " none\n" : "\n", stderr);
    std::exit(2);
  }

 private:
  [[noreturn]] static void reject(const std::string& name, std::string_view value,
                                  const char* expected) {
    std::fprintf(stderr, "error: --%s: '%.*s' is not %s\n", name.c_str(),
                 static_cast<int>(value.size()), value.data(), expected);
    std::exit(2);
  }

  static std::int64_t parse_integer(const std::string& name, std::string_view value) {
    std::int64_t out = 0;
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, out);
    if (value.empty() || ec != std::errc() || ptr != end) reject(name, value, "an integer");
    return out;
  }

  static double parse_real(const std::string& name, std::string_view value) {
    double out = 0.0;
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, out);
    if (value.empty() || ec != std::errc() || ptr != end || !std::isfinite(out)) {
      reject(name, value, "a finite number");
    }
    if (out <= 0.0) reject(name, value, "a positive number");
    return out;
  }

  std::map<std::string, std::string> values_;
  std::set<std::string> bare_;  // given without a value
  std::vector<std::string> stray_;  // neither a flag nor a flag's value
  mutable std::set<std::string> queried_;
};

}  // namespace dynaq::harness
