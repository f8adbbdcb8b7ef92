#include "bench_common.hpp"
#include "runtime/env.hpp"

#include <algorithm>
#include <array>
#include <iostream>
#include <string_view>

namespace mca2a::benchx {

std::vector<std::size_t> default_sizes() {
  if (rt::env::get_flag("A2A_FAST")) {
    return {4, 64, 1024, 4096};
  }
  return {4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096};
}

std::vector<int> default_nodes() {
  if (rt::env::get_flag("A2A_FAST")) {
    return {2, 8, 32};
  }
  return {2, 4, 8, 16, 32};
}

namespace {

bench::RunSpec make_spec(const topo::MachineDesc& machine,
                         const model::NetParams& net, const Series& s,
                         std::size_t block) {
  bench::RunSpec spec;
  spec.machine = machine;
  spec.net = net;
  spec.algo = s.algo;
  spec.inner = s.inner;
  spec.group_size = s.group_size;
  spec.block = block;
  bench::apply_env(spec);
  return spec;
}

void register_point(bench::Figure& fig, const std::string& series_name,
                    double x, const bench::RunSpec& spec) {
  const std::string bname =
      fig.id() + "/" + series_name + "/" + std::to_string(static_cast<long>(x));
  benchmark::RegisterBenchmark(
      bname.c_str(),
      [&fig, series_name, x, spec](benchmark::State& state) {
        double seconds = 0.0;
        for (auto _ : state) {
          const bench::RunResult r = bench::run_sim(spec);
          seconds = r.seconds;
          state.SetIterationTime(r.seconds);
          // Simulator host cost next to the virtual result (stdout only;
          // the BENCH json stays virtual time).
          state.counters["host_s"] = r.sim_wall_seconds;
          state.counters["msgs_per_host_s"] =
              r.sim_wall_seconds > 0.0
                  ? static_cast<double>(r.messages) / r.sim_wall_seconds
                  : 0.0;
          // Repetition spread next to the headline minimum (nearest-rank
          // percentiles; only multi-rep runs produce rep_seconds).
          if (r.rep_seconds.size() >= 2) {
            state.counters["sim_p50_s"] = r.p50();
            state.counters["sim_p95_s"] = r.p95();
            state.counters["sim_p99_s"] = r.p99();
          }
        }
        state.counters["sim_s"] = seconds;
        fig.add(series_name, x, seconds);
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

void register_phase_point(bench::Figure& fig,
                          const std::vector<PhaseSeries>& phases, double x,
                          const bench::RunSpec& spec) {
  const std::string bname = fig.id() + "/breakdown/" +
                            std::to_string(static_cast<long>(x));
  benchmark::RegisterBenchmark(
      bname.c_str(),
      [&fig, phases, x, spec](benchmark::State& state) {
        bench::RunResult r;
        for (auto _ : state) {
          r = bench::run_sim(spec);
          state.SetIterationTime(r.seconds);
        }
        for (const PhaseSeries& ps : phases) {
          fig.add(ps.name, x, r.phase_seconds[static_cast<int>(ps.phase)]);
        }
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace

void register_size_sweep(bench::Figure& fig, const topo::Machine& machine,
                         const model::NetParams& net,
                         const std::vector<Series>& series,
                         const std::vector<std::size_t>& sizes) {
  for (const Series& s : series) {
    for (std::size_t block : sizes) {
      register_point(fig, s.name, static_cast<double>(block),
                     make_spec(machine.desc(), net, s, block));
    }
  }
}

void register_node_sweep(bench::Figure& fig, const std::string& machine_name,
                         const model::NetParams& net,
                         const std::vector<Series>& series,
                         const std::vector<int>& nodes, std::size_t block) {
  for (const Series& s : series) {
    for (int n : nodes) {
      const topo::Machine machine = topo::by_name(machine_name, n);
      register_point(fig, s.name, static_cast<double>(n),
                     make_spec(machine.desc(), net, s, block));
    }
  }
}

void register_breakdown_sweep(bench::Figure& fig, const topo::Machine& machine,
                              const model::NetParams& net, const Series& algo,
                              const std::vector<PhaseSeries>& phases,
                              const std::vector<std::size_t>& sizes) {
  for (std::size_t block : sizes) {
    register_phase_point(fig, phases, static_cast<double>(block),
                         make_spec(machine.desc(), net, algo, block));
  }
}

void register_breakdown_node_sweep(bench::Figure& fig,
                                   const std::string& machine_name,
                                   const model::NetParams& net,
                                   const Series& algo,
                                   const std::vector<PhaseSeries>& phases,
                                   const std::vector<int>& nodes,
                                   std::size_t block) {
  for (int n : nodes) {
    const topo::Machine machine = topo::by_name(machine_name, n);
    register_phase_point(fig, phases, static_cast<double>(n),
                         make_spec(machine.desc(), net, algo, block));
  }
}

void register_breakdown_point(bench::Figure& fig, const topo::Machine& machine,
                              const model::NetParams& net, const Series& algo,
                              const std::vector<PhaseSeries>& phases, double x,
                              std::size_t block) {
  register_phase_point(fig, phases, x,
                       make_spec(machine.desc(), net, algo, block));
}

double quantile(const std::vector<double>& v, double q) {
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string default_bench_out_dir() {
#ifdef MCA2A_BENCH_OUT_DIR
  return MCA2A_BENCH_OUT_DIR;
#else
  return ".";
#endif
}

std::string write_bench_json(const bench::Figure& fig) {
  // Figure::write_json_file redirects into $A2A_BENCH_JSON when set.
  return fig.write_json_file(default_bench_out_dir() + "/BENCH_" + fig.id() +
                             ".json");
}

namespace {

void print_usage(std::ostream& os, const bench::Figure& fig,
                 const char* prog) {
  os << prog << " — figure bench '" << fig.id() << "'\n\n"
     << "Flags:\n"
        "  --list        enumerate every registered (series, x) point\n"
        "                without running anything\n"
        "  --help, -h    this text\n"
        "  (anything else is passed to google-benchmark, e.g.\n"
        "   --benchmark_filter=<regex>)\n\n"
        "Environment knobs (docs/tuning.md has the full list):\n"
        "  A2A_FAST=1          subsample sweeps (quick smoke run)\n"
        "  A2A_BENCH_REPS=n    timed repetitions per point\n"
        "  A2A_NOISE=sigma     log-normal noise on latencies/overheads\n"
        "  A2A_BENCH_CSV=dir   also write <fig>.csv into dir\n"
        "  A2A_BENCH_JSON=dir  BENCH_<fig>.json destination (default: "
     << default_bench_out_dir()
     << ")\n"
        "  A2A_AUTOTUNE=mode   online autotuning: off|observe|adapt\n"
        "  A2A_PROFILE=path    persist the autotune profile across runs\n"
        "  A2A_TRACE=dir       flight recorder: one Chrome/Perfetto trace\n"
        "                      JSON per rank into dir at exit\n"
        "  A2A_METRICS=path    metrics snapshot at exit (text; .json too)\n"
        "  A2A_BACKEND=b       sim (default: simulator, virtual time),\n"
        "                      smp (one thread per rank, wall clock) or\n"
        "                      net (real TCP sockets; launch the bench\n"
        "                      under tools/a2arun with -n = nodes * ppn)\n"
        "  A2A_NET_RAILS=k     TCP connections per peer pair (default 2)\n"
        "  A2A_NET_EAGER=b     eager/rendezvous threshold, bytes (16384)\n"
        "  A2A_NET_STRIPE=b    multi-rail stripe threshold, bytes (262144)\n"
        "  A2A_NET_IFACE=ips   comma-separated local IPs, one rail per\n"
        "                      NIC (default: one interface, k streams)\n";
}

}  // namespace

int figure_main(int argc, char** argv, bench::Figure& fig) {
  // Our flags first: google-benchmark rejects argv it does not know.
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout, fig, argv[0]);
      return 0;
    }
    if (arg == "--list") {
      // Every registered (series, x) point is one google-benchmark entry;
      // delegate the enumeration to its list mode (no benchmark runs).
      std::string prog = argv[0];
      std::string flag = "--benchmark_list_tests=true";
      std::array<char*, 2> av = {prog.data(), flag.data()};
      int ac = static_cast<int>(av.size());
      benchmark::Initialize(&ac, av.data());
      benchmark::RunSpecifiedBenchmarks();
      benchmark::Shutdown();
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  fig.print(std::cout);
  const std::string csv = fig.write_csv_env();
  if (!csv.empty()) {
    std::cout << "(csv written to " << csv << ")\n";
  }
  // Machine-readable trajectory data, always: into $A2A_BENCH_JSON when
  // set, the build tree's bench/ directory otherwise (never the source
  // tree — bench artifacts are not for committing).
  const std::string json = write_bench_json(fig);
  if (!json.empty()) {
    std::cout << "(json written to " << json << ")\n";
  }
  return 0;
}

}  // namespace mca2a::benchx
