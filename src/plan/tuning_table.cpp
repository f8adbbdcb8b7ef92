#include "plan/tuning_table.hpp"

#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

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
  mix(k.block);
  return h;
}

TuningKey TuningTable::key_of(const topo::Machine& machine, coll::OpKind op,
                              std::size_t block) {
  // Enforced here (every entry path) so save() can never emit a line that
  // load() would reject: names are whitespace-delimited in the file format.
  if (machine.name().find_first_of(" \t\n\r") != std::string::npos ||
      machine.name().empty()) {
    throw std::invalid_argument(
        "TuningTable: machine name must be non-empty and contain no "
        "whitespace: '" +
        machine.name() + "'");
  }
  return TuningKey{machine.name(), machine.nodes(), machine.ppn(), op, block};
}

std::optional<TuningTable::Entry> TuningTable::lookup_entry(
    const topo::Machine& machine, coll::OpKind op, std::size_t block) const {
  // Per-instance totals stay in lookups_/hits_; the registry aggregates
  // across every table in the process.
  static obs::Counter& g_lookups = obs::metrics().counter("tuning.lookups");
  static obs::Counter& g_hits = obs::metrics().counter("tuning.hits");
  ++lookups_;
  g_lookups.add();
  const auto it = entries_.find(key_of(machine, op, block));
  if (it == entries_.end()) {
    return std::nullopt;
  }
  ++hits_;
  g_hits.add();
  return it->second;
}

// --- alltoall ----------------------------------------------------------------

std::optional<coll::Choice> TuningTable::lookup(const topo::Machine& machine,
                                                std::size_t block) const {
  const auto e = lookup_entry(machine, coll::OpKind::kAlltoall, block);
  if (!e) {
    return std::nullopt;
  }
  return coll::Choice{static_cast<coll::Algo>(e->algo), e->group_size,
                      e->predicted_seconds};
}

void TuningTable::insert(const topo::Machine& machine, std::size_t block,
                         const coll::Choice& choice) {
  entries_[key_of(machine, coll::OpKind::kAlltoall, block)] =
      Entry{static_cast<int>(choice.algo), choice.group_size,
            choice.predicted_seconds};
}

coll::Choice TuningTable::choose(const topo::Machine& machine,
                                 const model::NetParams& net,
                                 std::size_t block) {
  if (const auto hit = lookup(machine, block)) {
    return *hit;
  }
  const coll::Choice choice = coll::select_algorithm(machine, net, block);
  insert(machine, block, choice);
  return choice;
}

// --- allgather ---------------------------------------------------------------

std::optional<coll::AllgatherChoice> TuningTable::lookup_allgather(
    const topo::Machine& machine, std::size_t block) const {
  const auto e = lookup_entry(machine, coll::OpKind::kAllgather, block);
  if (!e) {
    return std::nullopt;
  }
  return coll::AllgatherChoice{static_cast<coll::AllgatherAlgo>(e->algo),
                               e->group_size, e->predicted_seconds};
}

coll::AllgatherChoice TuningTable::choose_allgather(
    const topo::Machine& machine, const model::NetParams& net,
    std::size_t block) {
  if (const auto hit = lookup_allgather(machine, block)) {
    return *hit;
  }
  const coll::AllgatherChoice c =
      coll::select_allgather_algorithm(machine, net, block);
  entries_[key_of(machine, coll::OpKind::kAllgather, block)] =
      Entry{static_cast<int>(c.algo), c.group_size, c.predicted_seconds};
  return c;
}

// --- allreduce ---------------------------------------------------------------

std::optional<coll::AllreduceChoice> TuningTable::lookup_allreduce(
    const topo::Machine& machine, std::size_t bytes) const {
  const auto e = lookup_entry(machine, coll::OpKind::kAllreduce, bytes);
  if (!e) {
    return std::nullopt;
  }
  return coll::AllreduceChoice{static_cast<coll::AllreduceAlgo>(e->algo),
                               e->group_size, e->predicted_seconds};
}

coll::AllreduceChoice TuningTable::choose_allreduce(
    const topo::Machine& machine, const model::NetParams& net,
    std::size_t count, std::size_t elem_size) {
  const std::size_t bytes = count * elem_size;
  if (count < static_cast<std::size_t>(machine.total_ranks())) {
    // Rabenseifner eligibility depends on the element count, which the
    // byte-keyed table does not record. Restricted shapes (count < ranks —
    // rare: they alias an unrestricted shape only via jumbo elements) are
    // never served from or stored into the table, so memoized entries are
    // always unrestricted selections and query order cannot change results.
    // Still counted as a lookup (and never a hit) so lookups() keeps its
    // "total choose()/lookup() calls" meaning.
    ++lookups_;
    obs::metrics().counter("tuning.lookups").add();
    return coll::select_allreduce_algorithm(machine, net, count, elem_size);
  }
  if (const auto hit = lookup_allreduce(machine, bytes)) {
    return *hit;
  }
  const coll::AllreduceChoice c =
      coll::select_allreduce_algorithm(machine, net, count, elem_size);
  entries_[key_of(machine, coll::OpKind::kAllreduce, bytes)] =
      Entry{static_cast<int>(c.algo), c.group_size, c.predicted_seconds};
  return c;
}

// --- alltoallv ---------------------------------------------------------------

std::optional<coll::AlltoallvChoice> TuningTable::lookup_alltoallv(
    const topo::Machine& machine, const coll::AlltoallvSkew& skew) const {
  const auto e = lookup_entry(machine, coll::OpKind::kAlltoallv,
                              coll::alltoallv_size_class(machine, skew));
  if (!e) {
    return std::nullopt;
  }
  coll::AlltoallvChoice c;
  c.algo = static_cast<coll::AlltoallvAlgo>(e->algo);
  c.group_size = e->group_size;
  c.predicted_seconds = e->predicted_seconds;
  c.imbalance = skew.imbalance(machine.total_ranks());
  return c;
}

coll::AlltoallvChoice TuningTable::choose_alltoallv(
    const topo::Machine& machine, const model::NetParams& net,
    const coll::AlltoallvSkew& skew) {
  if (const auto hit = lookup_alltoallv(machine, skew)) {
    return *hit;
  }
  const coll::AlltoallvChoice c =
      coll::select_alltoallv_algorithm(machine, net, skew);
  entries_[key_of(machine, coll::OpKind::kAlltoallv,
                  coll::alltoallv_size_class(machine, skew))] =
      Entry{static_cast<int>(c.algo), c.group_size, c.predicted_seconds};
  return c;
}

// --- serialization -----------------------------------------------------------

void TuningTable::save(std::ostream& os) const {
  os << autotune::kTableHeader << "\n";
  // max_digits10 so predicted times survive the text round-trip exactly.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const auto& [key, e] : entries_) {
    os << key.machine << ' ' << key.nodes << ' ' << key.ppn << ' '
       << coll::op_kind_tag(key.op) << ' ' << key.block << ' ' << e.algo << ' '
       << e.group_size << ' ' << e.predicted_seconds << "\n";
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
    Entry e;
    if (!(ls >> key.machine >> key.nodes >> key.ppn >> tag >> key.block >>
          e.algo >> e.group_size >> e.predicted_seconds)) {
      throw std::runtime_error("TuningTable::load: malformed line: '" + line +
                               "'");
    }
    const auto op = coll::op_kind_from_tag(tag);
    if (!op) {
      throw std::runtime_error("TuningTable::load: unknown op tag '" + tag +
                               "'");
    }
    key.op = *op;
    if (e.algo < 0 || e.algo >= coll::num_algos(key.op)) {
      throw std::runtime_error("TuningTable::load: algorithm index " +
                               std::to_string(e.algo) + " out of range for " +
                               std::string(coll::op_kind_name(key.op)));
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
