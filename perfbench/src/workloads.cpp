#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "aig/aig_ops.h"

namespace perfbench {
namespace {

using eco::benchgen::Family;
using eco::benchgen::UnitSpec;

const char* familyName(Family f) {
  switch (f) {
    case Family::Adder: return "Adder";
    case Family::Comparator: return "Comparator";
    case Family::MuxTree: return "MuxTree";
    case Family::Alu: return "Alu";
    case Family::Parity: return "Parity";
    case Family::Random: return "Random";
    case Family::Multiplier: return "Multiplier";
    case Family::PriorityEnc: return "PriorityEnc";
  }
  return "?";
}

/// CPUs this process may run on (what `nproc` prints).
std::uint32_t availableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::uint32_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Splices independent units into one instance: all X inputs first, then
/// all target pseudo-PIs; cones, output names, named signals and weights
/// are copied under a "uN_" prefix, so each tile keeps its own clusters.
eco::EcoInstance tile(const std::vector<UnitSpec>& specs, const std::string& name) {
  using eco::Lit;
  using eco::VarMap;
  std::vector<eco::EcoInstance> parts;
  for (const UnitSpec& s : specs) parts.push_back(eco::benchgen::generateUnit(s));

  eco::EcoInstance out;
  out.name = name;
  std::vector<VarMap> fmap(parts.size());
  std::vector<VarMap> gmap(parts.size());
  const auto prefix = [](std::size_t i) {
    std::string p = "u";
    p += std::to_string(i);
    p += '_';
    return p;
  };
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const eco::EcoInstance& p = parts[i];
    for (std::uint32_t x = 0; x < p.num_x; ++x) {
      const std::string nm = prefix(i) + p.faulty.piName(x);
      fmap[i][p.faulty.piVar(x)] = out.faulty.addPi(nm);
      gmap[i][p.golden.piVar(x)] = out.golden.addPi(nm);
    }
    out.num_x += p.num_x;
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const eco::EcoInstance& p = parts[i];
    for (std::uint32_t k = p.num_x; k < p.faulty.numPis(); ++k) {
      fmap[i][p.faulty.piVar(k)] = out.faulty.addPi(prefix(i) + p.faulty.piName(k));
    }
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const eco::EcoInstance& p = parts[i];
    std::vector<Lit> fr, gr;
    for (std::uint32_t j = 0; j < p.faulty.numPos(); ++j) fr.push_back(p.faulty.poDriver(j));
    for (std::uint32_t j = 0; j < p.golden.numPos(); ++j) gr.push_back(p.golden.poDriver(j));
    const std::vector<Lit> fo = eco::copyCones(p.faulty, fr, fmap[i], out.faulty);
    const std::vector<Lit> go = eco::copyCones(p.golden, gr, gmap[i], out.golden);
    for (std::uint32_t j = 0; j < fo.size(); ++j) {
      out.faulty.addPo(fo[j], prefix(i) + p.faulty.poName(j));
    }
    for (std::uint32_t j = 0; j < go.size(); ++j) {
      out.golden.addPo(go[j], prefix(i) + p.golden.poName(j));
    }
    for (const auto& [nm, lit] : p.faulty.namedSignals()) {
      const auto it = fmap[i].find(lit.var());
      if (it != fmap[i].end()) {
        out.faulty.setSignalName(it->second ^ lit.complemented(), prefix(i) + nm);
      }
    }
    for (const auto& [nm, w] : p.weights) out.weights[prefix(i) + nm] = w;
  }
  return out;
}

UnitDef single(UnitSpec spec) {
  UnitDef u;
  u.name = spec.name;
  u.tiles.push_back(std::move(spec));
  return u;
}

Workload table2() {
  Workload w{.name = "table2", .workers = 4, .units = {}};
  for (UnitSpec& s : eco::benchgen::contestSuite()) w.units.push_back(single(std::move(s)));
  return w;
}

// Wide datapath adders with one shallow target and 30% restructuring,
// chosen by measurement so that FRAIG sweeping plus verification take
// most of each unit's engine time (README.md lists the measurements).
Workload wide() {
  Workload w{.name = "wide", .workers = 4, .units = {}};
  w.units.push_back(single({.name = "adder512", .family = Family::Adder,
                            .size_param = 512, .num_targets = 1, .seed = 7,
                            .restructure_pct = 30}));
  w.units.push_back(single({.name = "adder320", .family = Family::Adder,
                            .size_param = 320, .num_targets = 1, .seed = 7,
                            .restructure_pct = 30}));
  w.units.push_back(single({.name = "adder256", .family = Family::Adder,
                            .size_param = 256, .num_targets = 1, .seed = 7,
                            .restructure_pct = 30}));
  return w;
}

// Six independent parity units (size 16, 5 targets each) in one instance,
// as bench/bench_parallel_scaling.cpp builds it: 30 targets, 7 clusters.
Workload tiled() {
  Workload w{.name = "tiled", .workers = 4, .units = {}};
  UnitDef u;
  u.name = "tiled_parity";
  for (std::uint64_t i = 0; i < 6; ++i) {
    std::string name = "p";
    name += std::to_string(i);
    u.tiles.push_back({.name = name, .family = Family::Parity, .size_param = 16,
                       .num_targets = 5, .seed = 900 + i});
  }
  w.units.push_back(std::move(u));
  return w;
}

}  // namespace

Workload makeWorkload(const std::string& name) {
  if (name == "table2") return table2();
  if (name == "wide") return wide();
  if (name == "tiled") return tiled();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

eco::EcoInstance buildInstance(const UnitDef& unit) {
  if (unit.tiles.size() == 1) {
    eco::EcoInstance inst = eco::benchgen::generateUnit(unit.tiles[0]);
    inst.name = unit.name;
    return inst;
  }
  return tile(unit.tiles, unit.name);
}

eco::EcoOptions engineOptions(const Workload& workload) {
  eco::EcoOptions options;
  options.num_threads = std::min(workload.workers, availableCpus());
  return options;
}

std::string describeUnit(const UnitDef& unit) {
  std::ostringstream os;
  if (unit.tiles.size() > 1) os << unit.tiles.size() << " tiles of ";
  const UnitSpec& s = unit.tiles[0];
  os << familyName(s.family) << " size=" << s.size_param
     << " targets=" << s.num_targets << " seed=" << s.seed;
  if (unit.tiles.size() > 1) os << ".." << unit.tiles.back().seed;
  os << " restructure=" << s.restructure_pct << "% depth=" << s.target_depth_frac;
  return os.str();
}

}  // namespace perfbench
