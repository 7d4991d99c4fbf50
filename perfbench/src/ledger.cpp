#include "ledger.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"

namespace perfbench {
namespace {

struct Window {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  const std::string* stage = nullptr;
};

/// Stage whose window a main-thread span opens, or null.
const std::string* stageOfSpan(const char* name) {
  if (std::strcmp(name, "eco.fraig") == 0) return &kStages[0];
  if (std::strcmp(name, "eco.patchgen") == 0) return &kStages[1];
  if (std::strcmp(name, "eco.opt") == 0) return &kStages[2];
  if (std::strncmp(name, "eco.verify_", 11) == 0) return &kStages[3];
  return nullptr;
}

}  // namespace

void Ledger::add(const eco::obs::TraceDump& dump) {
  static const std::string kOther = "other";
  dropped_ += dump.dropped_events;

  std::uint32_t main_tid = 0;
  bool have_main = false;
  for (const eco::obs::TraceEvent& e : dump.events) {
    if (std::strcmp(e.name, "eco.run") == 0) {
      main_tid = e.tid;
      have_main = true;
      break;
    }
  }
  std::vector<Window> windows;
  for (const eco::obs::TraceEvent& e : dump.events) {
    if (!have_main || e.tid != main_tid) continue;
    if (const std::string* stage = stageOfSpan(e.name)) {
      windows.push_back({e.ts_ns, e.ts_ns + e.dur_ns, stage});
    }
  }
  std::sort(windows.begin(), windows.end(),
            [](const Window& a, const Window& b) { return a.begin < b.begin; });
  const auto stageAt = [&](std::uint64_t ts) -> const std::string& {
    auto it = std::upper_bound(windows.begin(), windows.end(), ts,
                               [](std::uint64_t t, const Window& w) { return t < w.begin; });
    if (it == windows.begin()) return kOther;
    --it;
    return ts < it->end ? *it->stage : kOther;
  };

  // Events arrive sorted by (tid, ts, -dur): a per-thread stack of open
  // spans gives each span its parent, hence self time and nesting.
  struct Open {
    const eco::obs::TraceEvent* e;
    std::uint64_t child_ns;
  };
  std::vector<Open> stack;
  const auto close = [&](const Open& o) {
    const eco::obs::TraceEvent& e = *o.e;
    bool nested_in_same = false;
    for (const Open& a : stack) nested_in_same |= std::strcmp(a.e->name, e.name) == 0;
    SpanStats& s = stats_[{e.name, stageAt(e.ts_ns)}];
    ++s.count;
    s.self_s += static_cast<double>(e.dur_ns - std::min(e.dur_ns, o.child_ns)) * 1e-9;
    if (!nested_in_same) s.total_s += static_cast<double>(e.dur_ns) * 1e-9;
  };
  for (std::size_t i = 0; i < dump.events.size(); ++i) {
    const eco::obs::TraceEvent& e = dump.events[i];
    while (!stack.empty() &&
           (stack.back().e->tid != e.tid ||
            e.ts_ns >= stack.back().e->ts_ns + stack.back().e->dur_ns)) {
      const Open top = stack.back();
      stack.pop_back();
      close(top);
    }
    if (!stack.empty()) stack.back().child_ns += e.dur_ns;
    stack.push_back({&e, 0});
  }
  while (!stack.empty()) {
    const Open top = stack.back();
    stack.pop_back();
    close(top);
  }
}

SpanStats Ledger::get(const std::string& name, const std::string& stage) const {
  SpanStats out;
  for (const auto& [key, s] : stats_) {
    if (key.first != name || (!stage.empty() && key.second != stage)) continue;
    out.count += s.count;
    out.self_s += s.self_s;
    out.total_s += s.total_s;
  }
  return out;
}

Counters readCounters() {
  static const char* const kNames[] = {
      "sat.solve_calls",   "sat.propagations",      "sat.decisions",
      "sat.conflicts",     "sat.result_undef",      "fraig.sat_queries",
      "fraig.rounds",      "fraig.counterexamples", "fraig.compress_calls",
      "itp.solve_calls",   "itp.interpolants",
  };
  Counters c;
  for (const char* n : kNames) c[n] = eco::obs::counterValue(n);
  return c;
}

Counters counterDelta(const Counters& before, const Counters& after) {
  Counters d;
  for (const auto& [name, v] : after) d[name] = v - before.at(name);
  return d;
}

void accumulate(Counters& sum, const Counters& delta) {
  for (const auto& [name, v] : delta) sum[name] += v;
}

}  // namespace perfbench
