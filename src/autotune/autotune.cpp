#include "autotune/autotune.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "runtime/env.hpp"

namespace mca2a::autotune {

namespace {

struct GlobalState {
  Mode mode = Mode::kOff;
  std::string path;
  std::unique_ptr<OnlineSelector> selector;
};

GlobalState& global_state() {
  static GlobalState st = [] {
    GlobalState s;
    s.mode = mode_from_env();
    obs::metrics().gauge("autotune.mode").set(static_cast<int>(s.mode));
    if (s.mode == Mode::kOff) {
      return s;
    }
    s.selector = std::make_unique<OnlineSelector>(s.mode);
    if (const auto p = rt::env::get_string("A2A_PROFILE")) {
      s.path = *p;
      std::ifstream is(s.path);
      if (is) {
        try {
          load_profile_stream(is, s.selector->profiler());
        } catch (const std::exception& e) {
          std::fprintf(stderr,
                       "mca2a: A2A_PROFILE=%s unreadable (%s); starting with "
                       "an empty profile\n",
                       s.path.c_str(), e.what());
        }
      }
    }
    return s;
  }();
  // The save hook must be registered *after* `st` finishes constructing:
  // exit handlers run in reverse registration order, and only this order
  // puts the save before the selector's destruction. A second static does
  // exactly that (its initializer runs after st's completes).
  static const bool save_hooked = [] {
    if (st.selector != nullptr && !st.path.empty()) {
      std::atexit([] { save_global_profile(); });
    }
    return true;
  }();
  (void)save_hooked;
  return st;
}

}  // namespace

Mode mode_from_env() {
  const auto v = rt::env::get_string("A2A_AUTOTUNE");
  if (!v) {
    return Mode::kOff;
  }
  if (const auto m = mode_from_string(*v)) {
    return *m;
  }
  throw rt::env::EnvError("env knob A2A_AUTOTUNE='" + *v +
                          "': expected off, observe or adapt");
}

OnlineSelector* global_selector() { return global_state().selector.get(); }

const std::string& global_profile_path() { return global_state().path; }

bool save_global_profile() {
  GlobalState& st = global_state();
  if (!st.selector || st.path.empty()) {
    return false;
  }
  std::ofstream os(st.path);
  if (!os) {
    std::fprintf(stderr, "mca2a: cannot write A2A_PROFILE=%s\n",
                 st.path.c_str());
    return false;
  }
  // A valid (entry-less) TuningTable v3 file: plan::TuningTable::load
  // reads it back, and so does load_profile_stream.
  os << kTableHeader << "\n";
  write_profile_section(os, st.selector->profiler());
  return static_cast<bool>(os);
}

void load_profile_stream(std::istream& is, ExecutionProfiler& out) {
  std::string line;
  if (!std::getline(is, line) || line != kTableHeader) {
    throw std::runtime_error(
        "autotune: not a v3 tuning-table stream (bad header: '" + line +
        "')");
  }
  while (std::getline(is, line)) {
    if (line.rfind("prof ", 0) != 0) {
      continue;  // decision entries, comments, blank lines
    }
    auto [key, stats] = parse_profile_line(line);
    out.merge_entry(key, stats);
  }
}

}  // namespace mca2a::autotune
