#include "plan/tuning_table.hpp"

#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "coll_ext/ext_tuner.hpp"
#include "obs/metrics.hpp"

namespace mca2a::plan {

std::size_t TuningKeyHash::operator()(const TuningKey& k) const noexcept {
  std::size_t h = std::hash<std::string>{}(k.machine);
  const auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::size_t>(k.nodes));
  mix(static_cast<std::size_t>(k.ppn));
  mix(static_cast<std::size_t>(static_cast<int>(k.op)) + 1);
  mix(k.size_class);
  return h;
}

namespace {

/// Why no plan could use this entry, or "" when one can. The one rule
/// load() and insert() both enforce, so save() never writes a line load()
/// rejects.
std::string unusable(const TuningKey& key, const coll::Choice& c) {
  if (key.nodes < 1 || key.ppn < 1) {
    return "nodes and ppn must be >= 1";
  }
  if (c.algo < 0 || c.algo >= coll::num_algos(key.op)) {
    return "algorithm index " + std::to_string(c.algo) +
           " out of range for " + std::string(coll::op_kind_name(key.op));
  }
  if (c.group_size < 1 || key.ppn % c.group_size != 0) {
    return "group size " + std::to_string(c.group_size) +
           " must be >= 1 and divide ppn " + std::to_string(key.ppn);
  }
  if (!(c.predicted_seconds >= 0.0)) {
    return "predicted time must be >= 0";
  }
  return {};
}

}  // namespace

TuningKey TuningTable::key_of(const topo::Machine& machine, coll::OpKind op,
                              std::size_t size_class) {
  // Enforced here (every entry path) so save() can never emit a line that
  // load() would reject: names are whitespace-delimited in the file format.
  if (machine.name().find_first_of(" \t\n\r") != std::string::npos ||
      machine.name().empty()) {
    throw std::invalid_argument(
        "TuningTable: machine name must be non-empty and contain no "
        "whitespace: '" +
        machine.name() + "'");
  }
  return TuningKey{machine.name(), machine.nodes(), machine.ppn(), op,
                   size_class};
}

std::optional<coll::Choice> TuningTable::lookup(const topo::Machine& machine,
                                                coll::OpKind kind,
                                                std::size_t size_class) const {
  // Per-instance totals stay in lookups_/hits_; the registry aggregates
  // across every table in the process.
  static obs::Counter& g_lookups = obs::metrics().counter("tuning.lookups");
  static obs::Counter& g_hits = obs::metrics().counter("tuning.hits");
  ++lookups_;
  g_lookups.add();
  const auto it = entries_.find(key_of(machine, kind, size_class));
  if (it == entries_.end()) {
    return std::nullopt;
  }
  ++hits_;
  g_hits.add();
  return it->second;
}

void TuningTable::insert(const topo::Machine& machine, coll::OpKind kind,
                         std::size_t size_class, const coll::Choice& choice) {
  TuningKey key = key_of(machine, kind, size_class);
  if (const std::string why = unusable(key, choice); !why.empty()) {
    throw std::invalid_argument("TuningTable::insert: " + why);
  }
  entries_[std::move(key)] = choice;
}

coll::Choice TuningTable::choose(const topo::Machine& machine,
                                 const model::NetParams& net,
                                 const coll::OpDesc& desc) {
  if (desc.kind() == coll::OpKind::kAllreduce &&
      desc.allreduce().count <
          static_cast<std::size_t>(machine.total_ranks())) {
    // Restricted shape (see the header): never served or stored.
    ++lookups_;
    obs::metrics().counter("tuning.lookups").add();
    return coll::select_algorithm(machine, net, desc);
  }
  const std::size_t size_class = coll::size_class(desc, machine);
  if (const auto hit = lookup(machine, desc.kind(), size_class)) {
    return *hit;
  }
  const coll::Choice choice = coll::select_algorithm(machine, net, desc);
  insert(machine, desc.kind(), size_class, choice);
  return choice;
}

// --- serialization -----------------------------------------------------------

void TuningTable::save(std::ostream& os) const {
  os << autotune::kTableHeader << "\n";
  // max_digits10 so predicted times survive the text round-trip exactly.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  const std::map<TuningKey, coll::Choice> sorted(entries_.begin(),
                                                 entries_.end());
  for (const auto& [key, e] : sorted) {
    os << key.machine << ' ' << key.nodes << ' ' << key.ppn << ' '
       << coll::op_kind_tag(key.op) << ' ' << key.size_class << ' ' << e.algo
       << ' ' << e.group_size << ' ' << e.predicted_seconds << "\n";
  }
  autotune::write_profile_section(os, profile_);
}

TuningTable TuningTable::load(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error("TuningTable::load: empty input");
  }
  if (line != autotune::kTableHeader) {
    throw std::runtime_error("TuningTable::load: bad header: '" + line + "'");
  }
  TuningTable table;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    if (line.rfind("prof ", 0) == 0) {
      auto [pkey, pstats] = autotune::parse_profile_line(line);
      table.profile_.merge_entry(pkey, pstats);
      continue;
    }
    std::istringstream ls(line);
    TuningKey key;
    std::string tag;
    coll::Choice e;
    if (!(ls >> key.machine >> key.nodes >> key.ppn >> tag >>
          key.size_class >> e.algo >> e.group_size >> e.predicted_seconds)) {
      throw std::runtime_error("TuningTable::load: malformed line: '" + line +
                               "'");
    }
    const auto op = coll::op_kind_from_tag(tag);
    if (!op) {
      throw std::runtime_error("TuningTable::load: unknown op tag '" + tag +
                               "'");
    }
    key.op = *op;
    if (const std::string why = unusable(key, e); !why.empty()) {
      throw std::runtime_error("TuningTable::load: " + why + " in line: '" +
                               line + "'");
    }
    table.entries_[key] = e;
  }
  return table;
}

bool TuningTable::save_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  save(os);
  return static_cast<bool>(os);
}

TuningTable TuningTable::load_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("TuningTable::load_file: cannot open " + path);
  }
  return load(is);
}

}  // namespace mca2a::plan
