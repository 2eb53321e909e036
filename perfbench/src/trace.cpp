#include "trace.hpp"

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {
namespace {

// The processor brand string from CPUID (no file outside the checkout is
// read for it).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // drop the NUL padding
    const auto first = brand.find_first_not_of(' ');
    if (first != std::string::npos) return brand.substr(first);
  }
#endif
  return "unknown";
}

std::string sanitizers() {
  std::string list = PERFBENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__)
  if (list.empty()) list = "address";
#endif
#if defined(__SANITIZE_THREAD__)
  if (list.empty()) list = "thread";
#endif
  return list;
}

}  // namespace

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int TraceLog::begin(std::string name, int parent) {
  if (!record_) return -1;
  spans_.push_back({std::move(name), seconds_since(epoch_), -1.0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void TraceLog::end(int span) {
  if (!record_) return;
  spans_.at(static_cast<std::size_t>(span)).end_s = seconds_since(epoch_);
}

bool usable_build(std::string_view build_type, std::string_view sanitize) {
  const bool optimised =
      build_type == "Release" || build_type == "RelWithDebInfo" || build_type == "MinSizeRel";
  return optimised && sanitize.empty();
}

Fingerprint host_fingerprint(std::string rev) {
  Fingerprint f;
  f.cpu_model = cpu_model();
  f.nproc = sysconf(_SC_NPROCESSORS_ONLN);
#if defined(__clang__)
  f.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  f.compiler = "gcc " __VERSION__;
#else
  f.compiler = "unknown";
#endif
  f.build_type = PERFBENCH_BUILD_TYPE;
  f.sanitize = sanitizers();
  f.cxx_flags = PERFBENCH_CXX_FLAGS;
  f.rev = std::move(rev);
  f.usable = usable_build(f.build_type, f.sanitize);
  return f;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : "null";
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", static_cast<unsigned>(c));
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string to_json(const Fingerprint& f) {
  return "{\"cpu_model\": " + json_string(f.cpu_model) +
         ", \"nproc\": " + std::to_string(f.nproc) + ", \"compiler\": " + json_string(f.compiler) +
         ", \"build_type\": " + json_string(f.build_type) +
         ", \"sanitize\": " + json_string(f.sanitize) +
         ", \"cxx_flags\": " + json_string(f.cxx_flags) + ", \"rev\": " + json_string(f.rev) +
         ", \"usable\": " + (f.usable ? "true" : "false") + "}";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

bool write_trace(const std::string& path, const Fingerprint& fingerprint, const TraceLog& log,
                 const std::vector<Metric>& metrics) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"fingerprint\": " << to_json(fingerprint) << ",\n \"spans\": [";
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const Span& s = log.spans()[i];
    out << (i > 0 ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": " << json_string(s.name)
        << ", \"start_s\": " << json_number(s.start_s) << ", \"end_s\": " << json_number(s.end_s)
        << ", \"parent\": " << s.parent << "}";
  }
  out << "],\n \"counts\": {";
  bool first = true;
  for (const auto& [name, value] : log.counts()) {
    out << (first ? "\n  " : ",\n  ") << json_string(name) << ": " << json_number(value);
    first = false;
  }
  out << "},\n \"metrics\": " << metrics_json(metrics) << "}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
