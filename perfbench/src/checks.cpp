#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>

#include "qa/oracle.h"

namespace perfbench {
namespace {

using eco::Aig;
using eco::Lit;

constexpr std::uint32_t kBlockWords = 64;  // 4096 patterns per block

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Node values of `aig` for one block: vals[var * kBlockWords + w]. PI
/// values come from `pi_vals` (row per PI ordinal). Relies only on the
/// AIG's documented topological node order.
void simulate(const Aig& aig, const std::vector<std::uint64_t>& pi_vals,
              std::vector<std::uint64_t>& vals) {
  constexpr std::uint32_t W = kBlockWords;
  vals.assign(static_cast<std::size_t>(aig.numNodes()) * W, 0);
  for (std::uint32_t v = 1; v < aig.numNodes(); ++v) {
    std::uint64_t* out = &vals[static_cast<std::size_t>(v) * W];
    if (aig.isPi(v)) {
      const std::uint64_t* in = &pi_vals[static_cast<std::size_t>(aig.piIndex(v)) * W];
      for (std::uint32_t w = 0; w < W; ++w) out[w] = in[w];
      continue;
    }
    const Lit a = aig.fanin0(v);
    const Lit b = aig.fanin1(v);
    const std::uint64_t* va = &vals[static_cast<std::size_t>(a.var()) * W];
    const std::uint64_t* vb = &vals[static_cast<std::size_t>(b.var()) * W];
    const std::uint64_t ma = a.complemented() ? ~0ULL : 0;
    const std::uint64_t mb = b.complemented() ? ~0ULL : 0;
    for (std::uint32_t w = 0; w < W; ++w) out[w] = (va[w] ^ ma) & (vb[w] ^ mb);
  }
}

std::uint64_t litWord(const std::vector<std::uint64_t>& vals, Lit l, std::uint32_t w) {
  const std::uint64_t v = vals[static_cast<std::size_t>(l.var()) * kBlockWords + w];
  return l.complemented() ? ~v : v;
}

/// Target pseudo-PIs and every node in their transitive fanout.
std::vector<bool> targetFanout(const eco::EcoInstance& inst) {
  const Aig& f = inst.faulty;
  std::vector<bool> tfo(f.numNodes(), false);
  for (std::uint32_t v = 1; v < f.numNodes(); ++v) {
    if (f.isPi(v)) {
      tfo[v] = f.piIndex(v) >= inst.num_x;
    } else {
      tfo[v] = tfo[f.fanin0(v).var()] || tfo[f.fanin1(v).var()];
    }
  }
  return tfo;
}

std::optional<Lit> resolveName(const Aig& f, const std::string& name) {
  if (const auto var = f.findPi(name)) return Lit::fromVar(*var, false);  // findPi gives the var
  return f.findSignal(name);
}

std::uint32_t reachableAnds(const Aig& patch) {
  std::vector<bool> live(patch.numNodes(), false);
  for (std::uint32_t k = 0; k < patch.numPos(); ++k) live[patch.poDriver(k).var()] = true;
  std::uint32_t ands = 0;
  for (std::uint32_t v = patch.numNodes(); v-- > 1;) {
    if (!live[v] || !patch.isAnd(v)) continue;
    ++ands;
    live[patch.fanin0(v).var()] = true;
    live[patch.fanin1(v).var()] = true;
  }
  return ands;
}

}  // namespace

std::string CheckReport::summary() const {
  std::string s;
  const auto add = [&](const char* what, const std::vector<std::string>& v) {
    for (const std::string& m : v) s += std::string(s.empty() ? "" : "; ") + what + ": " + m;
  };
  add("sat-miter", sat_miter);
  add("simulation", simulation);
  add("properties", properties);
  return s;
}

std::string simulatePatched(const eco::EcoInstance& inst, const eco::PatchResult& r,
                            std::uint64_t sim_seed) {
  constexpr std::uint32_t W = kBlockWords;
  const Aig& f = inst.faulty;
  const Aig& g = inst.golden;
  const std::uint32_t nx = inst.num_x;
  const std::uint32_t nt = inst.numTargets();
  if (g.numPis() != nx || f.numPos() != g.numPos()) return "F and G interfaces differ";
  if (r.patch.numPos() != nt) return "patch has the wrong number of outputs";
  if (r.patch.numPis() != r.base.size()) return "patch inputs do not match the base";
  for (const eco::BaseRef& b : r.base) {
    if (!b.lit.valid() || b.lit.var() >= f.numNodes()) return "base '" + b.name + "' is not in F";
  }

  const bool exhaustive = nx <= kExhaustiveX;
  const std::uint64_t total_words =
      exhaustive ? std::max<std::uint64_t>(1, (std::uint64_t{1} << nx) / 64)
                 : kRandomPatterns / 64;
  // Bit p of word w is pattern w * 64 + p; X input i < 6 cycles inside a
  // word, higher inputs follow the word index.
  static constexpr std::uint64_t kLowMasks[6] = {
      0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
      0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
  std::uint64_t rng = sim_seed;

  std::vector<std::uint64_t> f_pis(static_cast<std::size_t>(f.numPis()) * W);
  std::vector<std::uint64_t> g_pis(static_cast<std::size_t>(nx) * W);
  std::vector<std::uint64_t> p_pis(static_cast<std::size_t>(r.base.size()) * W);
  std::vector<std::uint64_t> f_vals, g_vals, p_vals;
  for (std::uint64_t w0 = 0; w0 < total_words; w0 += W) {
    for (std::uint32_t w = 0; w < W; ++w) {
      const std::uint64_t gw = w0 + w;
      for (std::uint32_t i = 0; i < nx; ++i) {
        std::uint64_t word = 0;
        if (!exhaustive) {
          word = splitmix64(rng);
        } else if (i < 6) {
          word = kLowMasks[i];
        } else {
          word = ((gw >> (i - 6)) & 1) != 0 ? ~0ULL : 0;
        }
        g_pis[static_cast<std::size_t>(i) * W + w] = word;
        f_pis[static_cast<std::size_t>(i) * W + w] = word;
      }
    }
    // Pass 1: base signal values (bases lie outside every target's fanout,
    // so the target values do not matter here).
    for (std::size_t i = static_cast<std::size_t>(nx) * W; i < f_pis.size(); ++i) f_pis[i] = 0;
    simulate(f, f_pis, f_vals);
    for (std::size_t i = 0; i < r.base.size(); ++i) {
      for (std::uint32_t w = 0; w < W; ++w) p_pis[i * W + w] = litWord(f_vals, r.base[i].lit, w);
    }
    simulate(r.patch, p_pis, p_vals);
    // Pass 2: F with every target driven by its patch output.
    for (std::uint32_t k = 0; k < nt; ++k) {
      for (std::uint32_t w = 0; w < W; ++w) {
        f_pis[static_cast<std::size_t>(nx + k) * W + w] = litWord(p_vals, r.patch.poDriver(k), w);
      }
    }
    simulate(f, f_pis, f_vals);
    simulate(g, g_pis, g_vals);
    for (std::uint32_t j = 0; j < f.numPos(); ++j) {
      for (std::uint32_t w = 0; w < W && w0 + w < total_words; ++w) {
        if (litWord(f_vals, f.poDriver(j), w) != litWord(g_vals, g.poDriver(j), w)) {
          return "output " + std::to_string(j) + " (" + f.poName(j) +
                 ") differs from G in pattern word " + std::to_string(w0 + w);
        }
      }
    }
  }
  return {};
}

std::vector<std::string> checkProperties(const eco::EcoInstance& inst,
                                         const eco::PatchResult& r) {
  std::vector<std::string> bad;
  const std::vector<bool> tfo = targetFanout(inst);
  std::set<std::string> names;
  double cost = 0;
  for (const eco::BaseRef& b : r.base) {
    const std::optional<Lit> lit = resolveName(inst.faulty, b.name);
    if (!lit || !b.lit.valid() || lit->var() != b.lit.var()) {
      bad.push_back("base '" + b.name + "' does not name its literal in F");
      continue;
    }
    if (tfo[b.lit.var()]) bad.push_back("base '" + b.name + "' lies in a target's fanout");
    if (names.insert(b.name).second) cost += inst.weightOf(b.name);
  }
  if (std::abs(cost - r.cost) > 1e-6 * std::max(1.0, std::abs(cost))) {
    bad.push_back("cost " + std::to_string(r.cost) + " != sum of base weights " +
                  std::to_string(cost));
  }
  const std::uint32_t ands = reachableAnds(r.patch);
  if (ands != r.size) {
    bad.push_back("size " + std::to_string(r.size) + " != reachable AND nodes " +
                  std::to_string(ands));
  }
  if (r.cost > r.initial_cost + 1e-9) {
    bad.push_back("cost " + std::to_string(r.cost) + " > initial cost " +
                  std::to_string(r.initial_cost));
  }
  return bad;
}

CheckReport checkOutputs(const eco::EcoInstance& inst, const eco::PatchResult& r,
                         std::uint64_t sim_seed) {
  CheckReport rep;
  rep.sat_miter = eco::qa::checkPatch(inst, r).violations;
  if (std::string s = simulatePatched(inst, r, sim_seed); !s.empty()) {
    rep.simulation.push_back(std::move(s));
  }
  rep.properties = checkProperties(inst, r);
  return rep;
}

bool samePatch(const eco::PatchResult& a, const eco::PatchResult& b) {
  if (a.success != b.success || a.cost != b.cost || a.size != b.size ||
      a.base.size() != b.base.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.base.size(); ++i) {
    if (a.base[i].name != b.base[i].name || a.base[i].lit != b.base[i].lit) return false;
  }
  const Aig& p = a.patch;
  const Aig& q = b.patch;
  if (p.numNodes() != q.numNodes() || p.numPis() != q.numPis() || p.numPos() != q.numPos()) {
    return false;
  }
  for (std::uint32_t v = 1; v < p.numNodes(); ++v) {
    if (p.isAnd(v) != q.isAnd(v)) return false;
    if (p.isAnd(v) && (p.fanin0(v) != q.fanin0(v) || p.fanin1(v) != q.fanin1(v))) return false;
  }
  for (std::uint32_t k = 0; k < p.numPos(); ++k) {
    if (p.poDriver(k) != q.poDriver(k)) return false;
  }
  return true;
}

void Outcomes::add(eco::PatchResult r) {
  for (auto& [seen, n] : distinct) {
    if (samePatch(seen, r)) {
      ++n;
      return;
    }
  }
  distinct.emplace_back(std::move(r), 1);
}

void judgeInstance(const std::string& name, const eco::EcoInstance& inst,
                   std::uint64_t sim_seed, const Outcomes& outcomes, Verdict& v) {
  if (outcomes.distinct.size() > 1) {
    v.deterministic = false;
    std::fprintf(stderr, "%s: %zu different patches across runs\n", name.c_str(),
                 outcomes.distinct.size());
  }
  for (const auto& [r, n] : outcomes.distinct) {
    v.attempted += n;
    if (!r.success) {
      v.failed += n;
      std::fprintf(stderr, "%s: engine failed: %s\n", name.c_str(), r.message.c_str());
      continue;
    }
    const CheckReport rep = checkOutputs(inst, r, sim_seed);
    if (!rep.ok()) {
      v.failed += n;
      std::fprintf(stderr, "%s: output check rejected the patch: %s\n", name.c_str(),
                   rep.summary().c_str());
    }
  }
}

}  // namespace perfbench
