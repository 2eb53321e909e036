// --scheme / --schemes values for the bench and example binaries: a name
// outside the scheme catalogue exits 2 naming the flag and listing the
// known names, like every other malformed flag value (harness/cli.hpp).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/scheme.hpp"

namespace dynaq::harness {

inline core::SchemeKind scheme_flag(const std::string& flag, const std::string& value) {
  try {
    return core::parse_scheme(value);
  } catch (const std::invalid_argument&) {
    std::fprintf(stderr, "error: --%s: '%s' is not a scheme; known:", flag.c_str(),
                 value.c_str());
    for (const core::SchemeKind kind : core::kAllSchemes) {
      const std::string_view name = core::scheme_name(kind);
      std::fprintf(stderr, " %.*s", static_cast<int>(name.size()), name.data());
    }
    std::fputc('\n', stderr);
    std::exit(2);
  }
}

}  // namespace dynaq::harness
