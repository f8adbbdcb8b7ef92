#include "autotune/profiler.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "obs/metrics.hpp"

namespace mca2a::autotune {

std::size_t ProfileKeyHash::operator()(const ProfileKey& k) const noexcept {
  std::size_t h = std::hash<std::string>{}(k.machine);
  const auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::size_t>(k.nodes));
  mix(static_cast<std::size_t>(k.ppn));
  mix(static_cast<std::size_t>(static_cast<int>(k.op)) + 1);
  mix(k.size_key);
  mix(static_cast<std::size_t>(k.algo) + 1);
  mix(static_cast<std::size_t>(k.group_size));
  mix(std::hash<std::string>{}(k.backend));
  return h;
}

namespace {

void check_token(std::string_view what, std::string_view s) {
  if (s.empty() || s.find_first_of(" \t\n\r") != std::string_view::npos) {
    throw std::invalid_argument(
        "autotune: " + std::string(what) +
        " must be non-empty and contain no whitespace: '" + std::string(s) +
        "'");
  }
}

/// Total order over key fields (snapshot determinism).
bool key_less(const ProfileKey& a, const ProfileKey& b) {
  return std::tie(a.machine, a.nodes, a.ppn, a.op, a.size_key, a.algo,
                  a.group_size, a.backend) <
         std::tie(b.machine, b.nodes, b.ppn, b.op, b.size_key, b.algo,
                  b.group_size, b.backend);
}

}  // namespace

ProfileKey make_profile_key(const topo::Machine& machine, coll::OpKind op,
                            std::size_t size_key, int algo, int group_size,
                            std::string_view backend) {
  check_token("machine name", machine.name());
  check_token("backend name", backend);
  ProfileKey k;
  k.machine = machine.name();
  k.nodes = machine.nodes();
  k.ppn = machine.ppn();
  k.op = op;
  k.size_key = size_key;
  k.algo = algo;
  k.group_size = group_size;
  k.backend = std::string(backend);
  return k;
}

void SampleStats::add(double x) {
  min = n == 0 ? x : std::min(min, x);
  ++n;
  const double delta = x - mean;
  mean += delta / static_cast<double>(n);
  m2 += delta * (x - mean);
}

void SampleStats::merge(const SampleStats& other) {
  if (other.n == 0) {
    return;
  }
  if (n == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n);
  const double nb = static_cast<double>(other.n);
  const double delta = other.mean - mean;
  const double total = na + nb;
  mean += delta * nb / total;
  m2 += other.m2 + delta * delta * na * nb / total;
  min = std::min(min, other.min);
  n += other.n;
}

ExecutionProfiler::ExecutionProfiler(const ExecutionProfiler& other) {
  std::lock_guard<std::mutex> lk(other.mu_);
  map_ = other.map_;
  revision_ = other.revision_;
}

ExecutionProfiler& ExecutionProfiler::operator=(
    const ExecutionProfiler& other) {
  if (this != &other) {
    ExecutionProfiler copy(other);
    std::lock_guard<std::mutex> lk(mu_);
    map_.swap(copy.map_);
    revision_ = copy.revision_;
  }
  return *this;
}

void ExecutionProfiler::record(const ProfileKey& key, double seconds) {
  if (!std::isfinite(seconds) || seconds < 0.0) {
    return;
  }
  static obs::Counter& samples = obs::metrics().counter("autotune.samples");
  samples.add();
  std::lock_guard<std::mutex> lk(mu_);
  map_[key].add(seconds);
  ++revision_;
}

void ExecutionProfiler::merge_entry(const ProfileKey& key,
                                    const SampleStats& stats) {
  if (stats.n == 0) {
    return;
  }
  std::lock_guard<std::mutex> lk(mu_);
  map_[key].merge(stats);
  ++revision_;
}

void ExecutionProfiler::merge(const ExecutionProfiler& other) {
  // Snapshot first: self-merge and lock-order concerns disappear.
  for (const auto& [key, stats] : other.snapshot()) {
    merge_entry(key, stats);
  }
}

std::optional<SampleStats> ExecutionProfiler::lookup(
    const ProfileKey& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::uint64_t ExecutionProfiler::samples(const ProfileKey& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = map_.find(key);
  return it == map_.end() ? 0 : it->second.n;
}

std::size_t ExecutionProfiler::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return map_.size();
}

std::uint64_t ExecutionProfiler::total_samples() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t total = 0;
  for (const auto& [key, stats] : map_) {
    total += stats.n;
  }
  return total;
}

std::uint64_t ExecutionProfiler::revision() const {
  std::lock_guard<std::mutex> lk(mu_);
  return revision_;
}

std::vector<std::pair<ProfileKey, SampleStats>> ExecutionProfiler::snapshot()
    const {
  std::vector<std::pair<ProfileKey, SampleStats>> out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    out.assign(map_.begin(), map_.end());
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return key_less(a.first, b.first);
  });
  return out;
}

void write_profile_section(std::ostream& os, const ExecutionProfiler& p) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const auto& [key, stats] : p.snapshot()) {
    os << "prof " << key.machine << ' ' << key.nodes << ' ' << key.ppn << ' '
       << coll::op_kind_tag(key.op) << ' ' << key.size_key << ' ' << key.algo
       << ' ' << key.group_size << ' ' << key.backend << ' ' << stats.n << ' '
       << stats.mean << ' ' << stats.m2 << ' ' << stats.min << "\n";
  }
}

std::pair<ProfileKey, SampleStats> parse_profile_line(
    const std::string& line) {
  std::istringstream ls(line);
  std::string head;
  std::string tag;
  ProfileKey key;
  SampleStats stats;
  if (!(ls >> head >> key.machine >> key.nodes >> key.ppn >> tag >>
        key.size_key >> key.algo >> key.group_size >> key.backend >> stats.n >>
        stats.mean >> stats.m2 >> stats.min) ||
      head != "prof") {
    throw std::runtime_error("autotune: malformed profile line: '" + line +
                             "'");
  }
  const auto op = coll::op_kind_from_tag(tag);
  if (!op) {
    throw std::runtime_error("autotune: unknown op tag '" + tag +
                             "' in profile line");
  }
  key.op = *op;
  if (key.algo < 0 || key.algo >= coll::num_algos(key.op)) {
    throw std::runtime_error(
        "autotune: algorithm index " + std::to_string(key.algo) +
        " out of range for " + std::string(coll::op_kind_name(key.op)));
  }
  if (stats.n == 0) {
    throw std::runtime_error(
        "autotune: profile line with zero samples: '" + line + "'");
  }
  return {std::move(key), stats};
}

}  // namespace mca2a::autotune
