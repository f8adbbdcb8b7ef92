#pragma once
/// \file figure.hpp
/// Collects (series, x, time) points and renders them the way the paper's
/// figures tabulate them: one row per x value (message size or node count),
/// one column per algorithm series. Also writes CSV for external plotting.

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace mca2a::bench {

class Figure {
 public:
  /// `id` like "fig10", `title` the paper caption, `xlabel` the x axis.
  Figure(std::string id, std::string title, std::string xlabel);

  /// Add a measurement. Series appear in first-add order; x values are
  /// sorted ascending.
  void add(const std::string& series, double x, double seconds);

  /// Aligned text table (times in engineering notation).
  void print(std::ostream& os) const;

  /// CSV: header "x,series1,series2,...".
  void write_csv(std::ostream& os) const;

  /// If the environment variable A2A_BENCH_CSV names a directory, write
  /// <dir>/<id>.csv; otherwise do nothing. Returns the path written.
  std::string write_csv_env() const;

  /// Machine-readable JSON: {"id", "title", "xlabel", "series": [...],
  /// "points": [{"series", "x", "seconds"}, ...]} — the format the perf
  /// trajectory tooling ingests (BENCH_*.json files) — followed by the
  /// members added with add_json_member.
  void write_json(std::ostream& os) const;

  /// Add a top-level JSON member `"key": json` written after "points",
  /// for records a bench keeps beside its times; `json` must already be a
  /// valid JSON value.
  void add_json_member(const std::string& key, std::string json);

  /// Write JSON to `path` (e.g. "BENCH_overlap.json"); if the environment
  /// variable A2A_BENCH_JSON names a directory the file goes there
  /// instead, keeping the same basename. Returns the path written, empty
  /// on failure.
  std::string write_json_file(const std::string& path) const;

  const std::string& id() const { return id_; }

 private:
  struct Point {
    int series = 0;
    double x = 0.0;
    double seconds = 0.0;
  };
  int series_index(const std::string& name);

  std::string id_;
  std::string title_;
  std::string xlabel_;
  std::vector<std::string> series_;
  std::vector<Point> points_;
  std::vector<std::pair<std::string, std::string>> members_;
};

/// Format seconds with 4 significant digits and an SI suffix (ns/us/ms/s).
std::string format_time(double seconds);

}  // namespace mca2a::bench
