// Self-test of the benchmark (run: python3 perfbench/run.py --selftest).
//
//   1. The output checks accept the engine's patch and reject planted bad
//      ones: one patch output complemented, one base signal swapped for
//      another, a misreported cost. Each of them, and a failed engine
//      run, fails its instance and turns the run's `correct` flag false.
//   2. Determinism contract (DESIGN.md): a small instance run with 1 worker
//      and with its workload's worker count gives the same cost and size.
//   3. The deterministic counts (sat.solve_calls, sat.propagations,
//      fraig.sat_queries) repeat exactly across two runs.
//
// Prints one line per check and exits 0 only if all of them pass.

#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "checks.h"
#include "eco/engine.h"
#include "ledger.h"
#include "qa/oracle.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

UnitDef unitOf(const std::string& workload, const std::string& name) {
  for (const UnitDef& u : makeWorkload(workload).units) {
    if (u.name == name) return u;
  }
  throw std::runtime_error("no unit " + name + " in " + workload);
}

eco::PatchResult run(const eco::EcoInstance& inst, std::uint32_t workers) {
  eco::EcoOptions o;
  o.num_threads = workers;
  return eco::EcoEngine(o).run(inst);
}

void plantedPatches() {
  const eco::EcoInstance inst = buildInstance(unitOf("table2", "unit05"));
  const eco::PatchResult good = run(inst, 1);
  expect(good.success, "engine patches unit05");
  const CheckReport ok = checkOutputs(inst, good, 1);
  expect(ok.ok(), "checks accept the engine's patch" + (ok.ok() ? "" : ": " + ok.summary()));

  eco::PatchResult flipped = good;
  flipped.patch.setPoDriver(0, !flipped.patch.poDriver(0));
  expect(!simulatePatched(inst, flipped, 1).empty(), "simulator rejects a complemented output");
  expect(!eco::qa::checkPatch(inst, flipped).ok, "SAT miter rejects a complemented output");

  // Swap base 0 for the first X input the patch does not use.
  eco::PatchResult swapped = good;
  std::set<std::string> used;
  for (const eco::BaseRef& b : good.base) used.insert(b.name);
  for (std::uint32_t i = 0; i < inst.num_x; ++i) {
    const std::string& name = inst.faulty.piName(i);
    if (used.count(name) != 0) continue;
    swapped.base[0].name = name;
    swapped.base[0].lit = inst.faulty.piLit(i);
    swapped.base[0].weight = inst.weightOf(name);
    break;
  }
  expect(swapped.base[0].name != good.base[0].name, "found a signal to swap in");
  expect(!simulatePatched(inst, swapped, 1).empty(), "simulator rejects a swapped base signal");
  expect(!eco::qa::checkPatch(inst, swapped).ok, "SAT miter rejects a swapped base signal");

  eco::PatchResult misreported = good;
  misreported.cost += 1;
  expect(!checkProperties(inst, misreported).empty(), "properties reject a misreported cost");

  // A rejected patch or a failed engine run fails the instance, and the
  // run's `correct` flag turns false.
  eco::PatchResult unsolved;
  for (const auto& [what, result] :
       {std::pair<std::string, const eco::PatchResult*>{"the engine's patch", &good},
        {"a complemented output", &flipped},
        {"a swapped base signal", &swapped},
        {"a misreported cost", &misreported},
        {"a failed engine run", &unsolved}}) {
    Outcomes outcomes;
    outcomes.add(*result);
    outcomes.add(*result);
    Verdict v;
    judgeInstance("unit05", inst, 1, outcomes, v);
    const bool accept = result == &good;
    expect(v.attempted == 2 && v.failed == (accept ? 0 : 2) && v.correct() == accept,
           std::string("verdict on ") + what + ": " + std::to_string(v.failed) + " of " +
               std::to_string(v.attempted) + " failed, correct " +
               (v.correct() ? "true" : "false"));
  }
}

void workerCountDeterminism() {
  for (const auto& [workload, unit] :
       {std::pair<std::string, std::string>{"table2", "unit20"}, {"wide", "adder256"}}) {
    const eco::EcoInstance inst = buildInstance(unitOf(workload, unit));
    const std::uint32_t workers = engineOptions(makeWorkload(workload)).num_threads;
    const eco::PatchResult a = run(inst, 1);
    const eco::PatchResult b = run(inst, workers);
    expect(a.success && b.success && a.cost == b.cost && a.size == b.size,
           unit + ": 1 worker and " + std::to_string(workers) + " workers give cost " +
               std::to_string(a.cost) + "/" + std::to_string(b.cost) + ", size " +
               std::to_string(a.size) + "/" + std::to_string(b.size));
  }
}

void countsRepeat() {
  const Workload w = makeWorkload("table2");
  const eco::EcoInstance inst = buildInstance(unitOf("table2", "unit10"));
  Counters first;
  for (int rep = 0; rep < 2; ++rep) {
    const Counters before = readCounters();
    run(inst, engineOptions(w).num_threads);
    const Counters d = counterDelta(before, readCounters());
    if (rep == 0) {
      first = d;
      continue;
    }
    for (const char* name : {"sat.solve_calls", "sat.propagations", "fraig.sat_queries"}) {
      expect(d.at(name) == first.at(name) && d.at(name) > 0,
             std::string("unit10 ") + name + " repeats: " + std::to_string(first.at(name)) +
                 " / " + std::to_string(d.at(name)));
    }
  }
}

}  // namespace

int main() {
  try {
    plantedPatches();
    workerCountDeterminism();
    countsRepeat();
  } catch (const std::exception& e) {
    std::printf("FAIL  exception: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", g_failures == 0 ? "selftest passed" : "selftest FAILED");
  return g_failures == 0 ? 0 : 1;
}
