#pragma once
// Output checks that do not come from the engine. They run outside the
// timed window on every distinct patch a run produces:
//
//   - qa::checkPatch: a freshly encoded SAT miter (shares no code with
//     eco::verifyPatches);
//   - the benchmark's own simulator of patched F against G, written only
//     against the public Aig accessors: exhaustive up to kExhaustiveX X
//     inputs, otherwise kRandomPatterns random patterns from `sim_seed`;
//   - method properties recomputed here: no base in any target's
//     transitive fanout, cost = sum of weightOf over distinct base names,
//     size = AND nodes reachable from the patch outputs, and
//     cost <= initial_cost.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "eco/instance.h"

namespace perfbench {

inline constexpr std::uint32_t kExhaustiveX = 20;
inline constexpr std::uint32_t kRandomPatterns = 1u << 16;

/// Violations found by each check; empty means the patch passed.
struct CheckReport {
  std::vector<std::string> sat_miter;
  std::vector<std::string> simulation;
  std::vector<std::string> properties;

  bool ok() const { return sat_miter.empty() && simulation.empty() && properties.empty(); }
  std::string summary() const;
};

/// Runs every check on a result the engine reported as a success.
CheckReport checkOutputs(const eco::EcoInstance& instance, const eco::PatchResult& result,
                         std::uint64_t sim_seed);

/// The benchmark's own simulator: returns the first mismatch found between
/// patched F and G ("" when none).
std::string simulatePatched(const eco::EcoInstance& instance,
                            const eco::PatchResult& result, std::uint64_t sim_seed);

/// The method-property checks alone.
std::vector<std::string> checkProperties(const eco::EcoInstance& instance,
                                         const eco::PatchResult& result);

/// True when two results carry the same patch: same base, cost, size and
/// patch network node for node.
bool samePatch(const eco::PatchResult& a, const eco::PatchResult& b);

/// Every distinct patch an instance produced, with how many runs gave it.
/// Identical patches share one verdict, so each is checked once.
struct Outcomes {
  std::vector<std::pair<eco::PatchResult, std::uint64_t>> distinct;

  void add(eco::PatchResult r);
};

/// Instances attempted and failed over a run. An instance run fails when
/// the engine reports no verified success or any check rejects its patch.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool deterministic = true;  ///< every instance gave one patch in all runs

  /// The run's `correct` flag: deterministic and no failed instance.
  bool correct() const { return deterministic && failed == 0; }
};

/// Checks every distinct patch of one instance and adds its runs to `v`;
/// reasons for failures go to standard error.
void judgeInstance(const std::string& name, const eco::EcoInstance& instance,
                   std::uint64_t sim_seed, const Outcomes& outcomes, Verdict& v);

}  // namespace perfbench
