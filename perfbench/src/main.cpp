// ECO engine benchmark: runs one workload's instances through
// eco::EcoEngine from this process, checks every patch with checks.h, and
// prints one JSON object as the last line of standard output.
//
//   perfbench --workload table2|wide|tiled --write-instances DIR
//   perfbench --workload table2|wide|tiled --seed N --seconds S --trace 0
//             --instances DIR
//   perfbench --workload table2|wide|tiled --seed N --seconds S --trace 1
//             [--trace-dir DIR]
//
// --write-instances: writes every instance of the workload in the contest
// text format to DIR/<unit>/{F.v,G.v,weight.txt} and exits.
// --trace 0 (timed run): reads the instances written to DIR with
// io::loadInstance (set-up), then does whole rounds over the workload's
// instances until the next round would end after S seconds (at least one
// round); reports the end-to-end metrics as medians over rounds of
// per-round sums, leaving out the first round when there are more.
// --trace 1 (traced run): every instance once untraced and once inside an
// obs trace session, then timed replays of the sim, cnf and io layers;
// reports the per-layer ledger. README.md defines every metric.

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "checks.h"
#include "cnf/cnf.h"
#include "eco/engine.h"
#include "eco/relations.h"
#include "io/instance_io.h"
#include "ledger.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "sim/sim.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  ///< optional: Chrome trace of every traced run
  std::string instances;  ///< contest files to read (timed run)
  std::string write_instances;  ///< write the contest files here and exit
};

bool parseArgs(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (key == "--trace-dir") {
      a.trace_dir = val;
    } else if (key == "--instances") {
      a.instances = val;
    } else if (key == "--write-instances") {
      a.write_instances = val;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) return false;
      a.trace = val[0] == '1';
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// One instance as the engine solves it: generated in memory. The
/// contest-format copy that is read back only proves the text parses
/// (see README.md). The run seed only picks the patterns of the
/// benchmark's own simulator.
struct Prepared {
  UnitDef def;
  eco::EcoInstance inst;
  std::uint64_t sim_seed = 0;
};

Prepared prepare(const Workload& w, std::size_t i, std::uint64_t seed) {
  Prepared p;
  p.def = w.units[i];
  p.inst = buildInstance(p.def);
  p.sim_seed = seed * 1000003ULL + i;
  return p;
}

void checkRoundTrip(const Prepared& p, const eco::EcoInstance& reloaded) {
  if (reloaded.num_x != p.inst.num_x || reloaded.numTargets() != p.inst.numTargets() ||
      reloaded.faulty.numPos() != p.inst.faulty.numPos()) {
    throw std::runtime_error(p.def.name + ": contest-format round trip changed the interface");
  }
}

const char* const kFileNames[] = {"F.v", "G.v", "weight.txt"};

int writeInstances(const Workload& w, const std::string& dir) {
  for (const UnitDef& u : w.units) {
    const eco::io::InstanceFiles files = eco::io::saveInstance(buildInstance(u));
    const std::filesystem::path unit_dir = std::filesystem::path(dir) / u.name;
    std::filesystem::create_directories(unit_dir);
    const std::string* texts[] = {&files.faulty_v, &files.golden_v, &files.weights};
    for (int k = 0; k < 3; ++k) {
      const std::filesystem::path path = unit_dir / kFileNames[k];
      std::ofstream out(path, std::ios::binary);
      out << *texts[k];
      if (!out.flush()) throw std::runtime_error("cannot write " + path.string());
    }
  }
  return 0;
}

std::string readFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The timed run's set-up: reads every instance of `w` from the contest
/// files under `dir` with io::loadInstance.
std::vector<eco::EcoInstance> loadInstances(const Workload& w, const std::string& dir) {
  std::vector<eco::EcoInstance> out;
  for (const UnitDef& u : w.units) {
    const std::filesystem::path unit_dir = std::filesystem::path(dir) / u.name;
    out.push_back(eco::io::loadInstance(readFile(unit_dir / kFileNames[0]),
                                        readFile(unit_dir / kFileNames[1]),
                                        readFile(unit_dir / kFileNames[2]), u.name));
  }
  return out;
}

struct IoTotals {
  double write_s = 0;
  double parse_s = 0;
  std::uint64_t bytes = 0;
};

/// The traced run's instances, each saved and reloaded in memory with
/// timed io::saveInstance / io::loadInstance calls.
std::vector<Prepared> setup(const Workload& w, std::uint64_t seed, IoTotals& io) {
  std::vector<Prepared> out;
  for (std::size_t i = 0; i < w.units.size(); ++i) {
    Prepared p = prepare(w, i, seed);
    auto t0 = Clock::now();
    const eco::io::InstanceFiles files = eco::io::saveInstance(p.inst);
    io.write_s += secondsSince(t0);
    io.bytes += files.faulty_v.size() + files.golden_v.size() + files.weights.size();
    t0 = Clock::now();
    const eco::EcoInstance reloaded =
        eco::io::loadInstance(files.faulty_v, files.golden_v, files.weights, p.def.name);
    io.parse_s += secondsSince(t0);
    checkRoundTrip(p, reloaded);
    out.push_back(std::move(p));
  }
  return out;
}

struct EngineRun {
  eco::PatchResult result;
  double wall_s = 0;
  double cpu_s = 0;
};

EngineRun runEngine(const eco::EcoInstance& inst, const eco::EcoOptions& options) {
  EngineRun r;
  const double cpu0 = eco::obs::processCpuSeconds();
  const auto t0 = Clock::now();
  r.result = eco::EcoEngine(options).run(inst);
  r.wall_s = secondsSince(t0);
  r.cpu_s = eco::obs::processCpuSeconds() - cpu0;
  // Hand the run's freed heap back to the OS, so that every engine run
  // starts from the same heap state and peak RSS reflects the largest
  // single run, not fragmentation piled up by earlier ones.
  malloc_trim(0);
  return r;
}

Verdict judge(const std::vector<Prepared>& units, const std::vector<Outcomes>& outcomes) {
  Verdict v;
  for (std::size_t i = 0; i < units.size(); ++i) {
    judgeInstance(units[i].def.name, units[i].inst, units[i].sim_seed, outcomes[i], v);
  }
  return v;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Prints {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
class ResultLine {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    if (!metrics_.empty()) metrics_ += ", ";
    metrics_ += "\"" + name + "\": {\"value\": " + std::string(buf, res.ptr) +
                ", \"unit\": \"" + unit + "\"}";
  }
  void print(bool correct, const Verdict& v) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(v.attempted),
                static_cast<unsigned long long>(v.failed), metrics_.c_str());
  }

 private:
  std::string metrics_;
};

int timedRun(const Args& args, const Workload& w, Clock::time_point process_start) {
  double setup_s = 0;
  std::vector<Prepared> units;
  {
    const std::vector<eco::EcoInstance> loaded = loadInstances(w, args.instances);
    setup_s = secondsSince(process_start);
    for (std::size_t i = 0; i < w.units.size(); ++i) {
      units.push_back(prepare(w, i, args.seed));
      checkRoundTrip(units.back(), loaded[i]);
    }
  }
  const eco::EcoOptions options = engineOptions(w);

  std::vector<Outcomes> outcomes(units.size());
  std::vector<double> round_wall, round_cpu;
  double cost = 0;
  double size = 0;
  const auto start = Clock::now();
  double last_round = 0;
  std::vector<double> round_rss_mb;  // process peak RSS after each round
  do {
    const auto round_start = Clock::now();
    double wall = 0, cpu = 0;
    cost = size = 0;
    for (std::size_t i = 0; i < units.size(); ++i) {
      EngineRun r = runEngine(units[i].inst, options);
      wall += r.wall_s;
      cpu += r.cpu_s;
      // A failed run reports cost and size 0; it fails the run instead.
      if (r.result.success) {
        cost += r.result.cost;
        size += r.result.size;
      }
      outcomes[i].add(std::move(r.result));
    }
    round_wall.push_back(wall);
    round_cpu.push_back(cpu);
    round_rss_mb.push_back(static_cast<double>(eco::obs::peakRssBytes()) / (1024.0 * 1024.0));
    last_round = secondsSince(round_start);
  } while (secondsSince(start) + last_round <= args.seconds);

  const Verdict v = judge(units, outcomes);
  std::printf("workload %s: %zu instances, %zu rounds, %u workers, seed %llu\n",
              w.name.c_str(), units.size(), round_wall.size(), options.num_threads,
              static_cast<unsigned long long>(args.seed));
  std::printf("  round wall");
  for (const double t : round_wall) std::printf(" %.3fs", t);
  std::printf("\n  peak RSS after round");
  for (const double mb : round_rss_mb) std::printf(" %.1fMB", mb);
  std::printf("\n");
  for (std::size_t i = 0; i < units.size(); ++i) {
    const eco::PatchResult& r = outcomes[i].distinct.front().first;
    std::printf("  %-14s cost %-8g size %-5u engine %.3fs  (%s; sim seed %llu)\n",
                units[i].def.name.c_str(), r.cost, r.size, r.seconds,
                describeUnit(units[i].def).c_str(),
                static_cast<unsigned long long>(units[i].sim_seed));
  }
  // The first round pays for cold code pages and caches; when later rounds
  // exist, it is a warm-up and stays out of the medians.
  const std::size_t warm = round_wall.size() > 1 ? 1 : 0;
  ResultLine out;
  out.metric("engine_wall_s", median({round_wall.begin() + warm, round_wall.end()}), "s");
  out.metric("engine_cpu_s", median({round_cpu.begin() + warm, round_cpu.end()}), "s");
  out.metric("setup_s", setup_s, "s");
  // The process's peak RSS keeps growing over repeated engine runs, so the
  // metric is the figure after the first round (every instance run once);
  // a later one would depend on how many rounds fit into the run.
  out.metric("peak_rss_mb", round_rss_mb.front(), "MB");
  out.metric("patch_cost", cost, "weight");
  out.metric("patch_size", size, "ands");
  out.print(v.correct(), v);
  return 0;
}

int tracedRun(const Args& args, const Workload& w) {
  IoTotals io;
  const std::vector<Prepared> units = setup(w, args.seed, io);
  const eco::EcoOptions options = engineOptions(w);
  std::vector<Outcomes> outcomes(units.size());

  // Each instance runs once untraced (PatchResult stage figures, overhead
  // baseline) and once inside an obs trace session (ledger, counters);
  // which of the two goes first alternates along the round.
  double wall = 0, cpu = 0, traced_wall = 0;
  std::map<std::string, double> eco_sum;
  std::uint32_t workers = 0;
  Ledger ledger;
  Counters counters;
  const auto untraced = [&](std::size_t i) {
    EngineRun r = runEngine(units[i].inst, options);
    const eco::PatchResult& p = r.result;
    wall += r.wall_s;
    cpu += r.cpu_s;
    eco_sum["fraig_s"] += p.fraig_seconds;
    eco_sum["patchgen_s"] += p.patchgen_seconds;
    eco_sum["opt_s"] += p.opt_seconds;
    eco_sum["verify_s"] += p.verify_seconds;
    eco_sum["other_s"] += p.seconds - p.fraig_seconds - p.patchgen_seconds -
                          p.opt_seconds - p.verify_seconds;
    eco_sum["clusters"] += p.num_clusters;
    eco_sum["cut_size"] += p.cut_size;
    eco_sum["itp_failures"] += p.itp_failures;
    eco_sum["initial_cost"] += p.initial_cost;
    eco_sum["initial_size"] += p.initial_size;
    workers = std::max(workers, p.num_threads_used);
    outcomes[i].add(std::move(r.result));
  };
  const auto traced = [&](std::size_t i) {
    const Counters before = readCounters();
    eco::obs::startTrace();
    EngineRun r = runEngine(units[i].inst, options);
    const eco::obs::TraceDump dump = eco::obs::stopTrace();
    accumulate(counters, counterDelta(before, readCounters()));
    ledger.add(dump);
    traced_wall += r.wall_s;
    outcomes[i].add(std::move(r.result));
    if (!args.trace_dir.empty()) {
      std::filesystem::create_directories(args.trace_dir);
      const std::string path = args.trace_dir + "/" + w.name + "-" + units[i].def.name + ".json";
      std::string error;
      if (!eco::obs::writeChromeTrace(path, dump, &error)) throw std::runtime_error(error);
    }
  };
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (i % 2 == 0) {
      untraced(i);
      traced(i);
    } else {
      traced(i);
      untraced(i);
    }
  }

  // Layer replays on each instance's workspace.
  constexpr std::uint32_t kSimWords = 128;  // 8192 patterns
  double sim_s = 0, encode_s = 0, cnf_vars = 0;
  for (const Prepared& p : units) {
    eco::Workspace ws = eco::buildWorkspace(p.inst);
    eco::sim::PatternSet pats(ws.w.numPis(), kSimWords);
    eco::Rng rng(p.sim_seed);
    pats.randomize(rng);
    auto t0 = Clock::now();
    const eco::sim::PatternSet vals = eco::sim::simulateAll(ws.w, pats);
    sim_s += secondsSince(t0);
    (void)vals;

    eco::sat::Solver solver;
    eco::cnf::SolverSink sink(solver);
    eco::cnf::CnfMap map;
    t0 = Clock::now();
    for (std::uint32_t i = 0; i < ws.w.numPis(); ++i) {
      map[ws.w.piVar(i)] = eco::sat::SLit::make(solver.newVar(), false);
    }
    for (const eco::Lit root : ws.f_roots) eco::cnf::encodeCone(ws.w, root, map, sink);
    for (const eco::Lit root : ws.g_roots) eco::cnf::encodeCone(ws.w, root, map, sink);
    encode_s += secondsSince(t0);
    cnf_vars += solver.numVars();
  }

  const Verdict v = judge(units, outcomes);
  const std::uint64_t dropped = ledger.droppedEvents();
  if (dropped != 0) {
    std::fprintf(stderr, "trace dropped %llu events\n", static_cast<unsigned long long>(dropped));
  }
  std::printf("workload %s (traced): %zu instances, %u workers, seed %llu, "
              "untraced %.3fs, traced %.3fs\n",
              w.name.c_str(), units.size(), options.num_threads,
              static_cast<unsigned long long>(args.seed), wall, traced_wall);

  ResultLine out;
  for (const char* k : {"fraig_s", "patchgen_s", "opt_s", "verify_s", "other_s"}) {
    out.metric(std::string("eco.") + k, eco_sum[k], "s");
  }
  out.metric("eco.clusters", eco_sum["clusters"], "count");
  out.metric("eco.cut_size", eco_sum["cut_size"], "signals");
  out.metric("eco.itp_failures", eco_sum["itp_failures"], "count");
  out.metric("eco.initial_cost", eco_sum["initial_cost"], "weight");
  out.metric("eco.initial_size", eco_sum["initial_size"], "ands");
  const auto c = [&](const char* name) { return static_cast<double>(counters.at(name)); };
  for (const char* k : {"solve_calls", "propagations", "decisions", "conflicts", "result_undef"}) {
    out.metric(std::string("sat.") + k, c((std::string("sat.") + k).c_str()), "count");
  }
  out.metric("sat.props_per_solve",
             c("sat.solve_calls") > 0 ? c("sat.propagations") / c("sat.solve_calls") : 0,
             "count");
  for (const std::string& stage : kStages) {
    const SpanStats s = ledger.get("sat.solve", stage);
    out.metric("sat.solve_s." + stage, s.self_s, "s");
    out.metric("sat.solve_calls." + stage, static_cast<double>(s.count), "count");
  }
  out.metric("sat.preprocess_s", ledger.get("sat.preprocess").self_s, "s");
  for (const char* k : {"sat_queries", "rounds", "counterexamples", "compress_calls"}) {
    out.metric(std::string("fraig.") + k, c((std::string("fraig.") + k).c_str()), "count");
  }
  out.metric("fraig.sweep_s", ledger.get("fraig.compute_classes").total_s, "s");
  out.metric("fraig.pair_chunk_s", ledger.get("fraig.pair_chunk").self_s, "s");
  out.metric("fraig.compress_s", ledger.get("fraig.compress").total_s, "s");
  out.metric("itp.solve_calls", c("itp.solve_calls"), "count");
  out.metric("itp.interpolants", c("itp.interpolants"), "count");
  out.metric("itp.s",
             ledger.get("itp.solve").total_s + ledger.get("itp.build_interpolant").total_s, "s");
  out.metric("minimize.s", ledger.get("eco.minimize_patch").total_s, "s");
  out.metric("sim.simulate_s", sim_s, "s");
  out.metric("cnf.encode_s", encode_s, "s");
  out.metric("cnf.vars", cnf_vars, "count");
  out.metric("io.parse_s", io.parse_s, "s");
  out.metric("io.write_s", io.write_s, "s");
  out.metric("io.bytes", static_cast<double>(io.bytes), "bytes");
  out.metric("pool.workers", workers, "count");
  out.metric("pool.cpu_per_wall", wall > 0 ? cpu / wall : 0, "ratio");
  out.metric("trace.dropped_events", static_cast<double>(dropped), "count");
  out.metric("trace.overhead", wall > 0 ? traced_wall / wall : 0, "ratio");
  out.print(v.correct() && dropped == 0, v);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  perfbench::Args args;
  if (!perfbench::parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --write-instances DIR\n"
                 "       perfbench --workload NAME --seed N --seconds S --trace 0 "
                 "--instances DIR\n"
                 "       perfbench --workload NAME --seed N --seconds S --trace 1 "
                 "[--trace-dir DIR]\n");
    return 2;
  }
  try {
    const perfbench::Workload w = perfbench::makeWorkload(args.workload);
    if (!args.write_instances.empty()) return perfbench::writeInstances(w, args.write_instances);
    if (args.trace) return perfbench::tracedRun(args, w);
    if (args.instances.empty()) throw std::invalid_argument("the timed run needs --instances DIR");
    return perfbench::timedRun(args, w, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
