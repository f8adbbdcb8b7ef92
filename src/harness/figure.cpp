#include "harness/figure.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

#include "harness/table.hpp"
#include "runtime/env.hpp"

namespace mca2a::bench {

std::string format_time(double seconds) {
  const char* unit = "s";
  double v = seconds;
  if (seconds < 1e-6) {
    v = seconds * 1e9;
    unit = "ns";
  } else if (seconds < 1e-3) {
    v = seconds * 1e6;
    unit = "us";
  } else if (seconds < 1.0) {
    v = seconds * 1e3;
    unit = "ms";
  }
  std::ostringstream os;
  os << std::setprecision(4) << v << ' ' << unit;
  return os.str();
}

Figure::Figure(std::string id, std::string title, std::string xlabel)
    : id_(std::move(id)), title_(std::move(title)), xlabel_(std::move(xlabel)) {}

int Figure::series_index(const std::string& name) {
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (series_[i] == name) {
      return static_cast<int>(i);
    }
  }
  series_.push_back(name);
  return static_cast<int>(series_.size() - 1);
}

void Figure::add(const std::string& series, double x, double seconds) {
  const int si = series_index(series);
  for (Point& p : points_) {
    if (p.series == si && p.x == x) {
      p.seconds = seconds;  // re-measurement overwrites
      return;
    }
  }
  points_.push_back(Point{si, x, seconds});
}

void Figure::print(std::ostream& os) const {
  os << "\n== " << title_ << " ==\n";
  std::map<double, std::vector<double>> rows;  // x -> per-series seconds
  for (const Point& p : points_) {
    auto& row = rows[p.x];
    row.resize(series_.size(), -1.0);
    row[p.series] = p.seconds;
  }
  for (auto& [x, row] : rows) {
    row.resize(series_.size(), -1.0);
  }

  std::vector<std::string> headers;
  headers.push_back(xlabel_);
  for (const std::string& s : series_) {
    headers.push_back(s);
  }
  std::vector<std::vector<std::string>> cells;
  for (const auto& [x, row] : rows) {
    std::vector<std::string> line;
    std::ostringstream xs;
    xs << x;
    line.push_back(xs.str());
    for (double v : row) {
      line.push_back(v < 0 ? "-" : format_time(v));
    }
    cells.push_back(std::move(line));
  }
  print_table(os, headers, cells);
}

void Figure::write_csv(std::ostream& os) const {
  os << "x";
  for (const std::string& s : series_) {
    os << ',' << s;
  }
  os << '\n';
  std::map<double, std::vector<double>> rows;
  for (const Point& p : points_) {
    auto& row = rows[p.x];
    row.resize(series_.size(), -1.0);
    row[p.series] = p.seconds;
  }
  os << std::setprecision(9);
  for (const auto& [x, row] : rows) {
    os << x;
    for (std::size_t i = 0; i < series_.size(); ++i) {
      os << ',';
      if (i < row.size() && row[i] >= 0) {
        os << row[i];
      }
    }
    os << '\n';
  }
}

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void Figure::write_json(std::ostream& os) const {
  os << std::setprecision(12);
  os << "{\n";
  os << "  \"id\": \"" << json_escape(id_) << "\",\n";
  os << "  \"title\": \"" << json_escape(title_) << "\",\n";
  os << "  \"xlabel\": \"" << json_escape(xlabel_) << "\",\n";
  os << "  \"series\": [";
  for (std::size_t i = 0; i < series_.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(series_[i]) << '"';
  }
  os << "],\n";
  os << "  \"points\": [\n";
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const Point& p = points_[i];
    os << "    {\"series\": \"" << json_escape(series_[p.series])
       << "\", \"x\": " << p.x << ", \"seconds\": " << p.seconds << '}'
       << (i + 1 < points_.size() ? "," : "") << '\n';
  }
  os << "  ]";
  for (const auto& [key, json] : members_) {
    os << ",\n  \"" << json_escape(key) << "\": " << json;
  }
  os << "\n}\n";
}

void Figure::add_json_member(const std::string& key, std::string json) {
  members_.emplace_back(key, std::move(json));
}

std::string Figure::write_json_file(const std::string& path) const {
  std::string out = path;
  if (const auto dir = rt::env::get_string("A2A_BENCH_JSON")) {
    const std::size_t slash = path.find_last_of('/');
    out = *dir + "/" +
          (slash == std::string::npos ? path : path.substr(slash + 1));
  }
  std::ofstream f(out);
  if (!f) {
    return {};
  }
  write_json(f);
  return out;
}

std::string Figure::write_csv_env() const {
  const auto dir = rt::env::get_string("A2A_BENCH_CSV");
  if (!dir) {
    return {};
  }
  const std::string path = *dir + "/" + id_ + ".csv";
  std::ofstream f(path);
  if (f) {
    write_csv(f);
  }
  return path;
}

}  // namespace mca2a::bench
