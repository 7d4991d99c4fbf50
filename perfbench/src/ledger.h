#pragma once
// The layer-by-layer work ledger of a traced run, measured from outside the
// engine: span aggregation over obs::stopTrace dumps, and deltas of the
// process-wide obs counters around engine runs.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Engine stages a span can be assigned to; "other" covers everything
/// outside the four main-thread stage windows (setup, clustering, ...).
inline const std::vector<std::string> kStages = {"fraig", "patchgen", "opt", "verify"};

struct SpanStats {
  std::uint64_t count = 0;
  double self_s = 0;   ///< duration minus same-thread child spans
  double total_s = 0;  ///< duration of spans with no same-named ancestor
};

class Ledger {
 public:
  /// Adds the spans of one engine run. Each span goes to the stage whose
  /// main-thread window (eco.fraig, eco.patchgen, eco.opt, eco.verify_*)
  /// contains its start, so spans on pool workers are assigned too.
  void add(const eco::obs::TraceDump& dump);

  /// Totals of span `name` in `stage` ("" = every stage).
  SpanStats get(const std::string& name, const std::string& stage = "") const;

  std::uint64_t droppedEvents() const { return dropped_; }

 private:
  std::map<std::pair<std::string, std::string>, SpanStats> stats_;
  std::uint64_t dropped_ = 0;
};

/// The obs counters the ledger reads, by name.
using Counters = std::map<std::string, std::uint64_t>;

/// Current values of every ledger counter (sat.*, fraig.*, itp.*).
Counters readCounters();

/// after - before, per counter.
Counters counterDelta(const Counters& before, const Counters& after);

/// Adds `delta` into `sum`.
void accumulate(Counters& sum, const Counters& delta);

}  // namespace perfbench
