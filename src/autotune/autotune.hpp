#pragma once
/// \file autotune.hpp
/// Process-wide entry point of the online autotuning subsystem.
///
/// Two environment knobs configure a process-global OnlineSelector that
/// plan::make_plan consults whenever PlanOptions carries no explicit one:
///
///   A2A_AUTOTUNE=off|observe|adapt
///     off (or unset)  — no global selector; selection stays pure
///                       closed-form model, bit-for-bit (pinned by tests).
///     observe         — record every completed plan execution into the
///                       global profiler; selection unchanged.
///     adapt           — measurement-driven selection: bounded exploration
///                       of the model-plausible candidates, then
///                       exploitation of the measured winner
///                       (autotune/selector.hpp).
///
///   A2A_PROFILE=path
///     Persist the global profiler across runs: loaded (leniently — a
///     missing or unreadable file starts empty with a warning) before the
///     first decision, saved at process exit as a plan::TuningTable v3
///     file holding the measured-profile section. Only meaningful
///     together with A2A_AUTOTUNE=observe|adapt.
///
/// Library code never needs this header: pass an explicit selector via
/// PlanOptions::autotune instead. The global is for closing the loop in
/// deployed binaries without touching call sites.

#include <string>

#include "autotune/selector.hpp"

namespace mca2a::autotune {

/// A2A_AUTOTUNE parsed; kOff when unset, empty, or (with one stderr
/// warning) unrecognized.
Mode mode_from_env();

/// The env-configured process-global selector, or nullptr when the mode is
/// off. Constructed (and A2A_PROFILE loaded) on first call, thread-safely;
/// the environment is read once — tests wanting different modes construct
/// their own OnlineSelector instead of mutating the environment.
OnlineSelector* global_selector();

/// A2A_PROFILE, or "" when unset (resolved once, with the selector).
const std::string& global_profile_path();

/// Write the global profiler to A2A_PROFILE now (also registered atexit).
/// Returns false when there is nothing to save (no global selector or no
/// path) or the file could not be written.
bool save_global_profile();

/// Parse a TuningTable v3 stream's profile section into `out`, ignoring
/// decision entries. Throws std::runtime_error on a stream whose header is
/// not kTableHeader (earlier table versions included) or on a malformed
/// profile line. (plan::TuningTable::load is the full parser;
/// this lenient reader keeps the autotune layer below plan/.)
void load_profile_stream(std::istream& is, ExecutionProfiler& out);

}  // namespace mca2a::autotune
