#pragma once
// The benchmark's workloads: which instances each one runs and with which
// engine options. Every instance is generated from a recorded benchgen
// spec, so a workload's inputs never change; the run seed only seeds the
// random patterns of the benchmark's own simulator (see README.md).

#include <cstdint>
#include <string>
#include <vector>

#include "benchgen/benchgen.h"
#include "eco/instance.h"

namespace perfbench {

/// One benchmark instance: a single benchgen unit, or several units tiled
/// side by side into one instance (independent clusters).
struct UnitDef {
  std::string name;
  std::vector<eco::benchgen::UnitSpec> tiles;  ///< one entry = plain unit
};

struct Workload {
  std::string name;
  std::uint32_t workers = 1;  ///< engine worker count (capped at nproc)
  std::vector<UnitDef> units;
};

/// The workload called `name`; throws std::invalid_argument if unknown.
Workload makeWorkload(const std::string& name);

/// Generates the in-memory instance of a unit (deterministic).
eco::EcoInstance buildInstance(const UnitDef& unit);

/// Engine options of a workload: defaults apart from the worker count,
/// which is min(workload.workers, hardware threads).
eco::EcoOptions engineOptions(const Workload& workload);

/// One-line make-up of a unit ("Adder size=512 targets=1 seed=7 ...").
std::string describeUnit(const UnitDef& unit);

}  // namespace perfbench
