// Golden bits of the §4.2 critical-connection search.
//
// For every in-tree MaskableModel, find_critical_connections' outputs —
// the dense mask, the three Fig. 30 loss diagnostics and the ranked
// connection order — are pinned by 64-bit FNV-1a hashes of their exact
// IEEE-754 bytes. Any change to the mask-optimization engine (op fusion,
// a different parameterization, reordered accumulation) must reproduce
// these hashes bit for bit; a mismatch means the search now computes
// different numbers, not merely slower or faster ones.
//
// The hashes assume IEEE-754 doubles, no FMA contraction (the build's
// contract, see nn/gemm.h) and this platform's libm.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "metis/api/registry.h"
#include "metis/core/hypergraph_interpreter.h"

namespace {

using namespace metis;  // NOLINT

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void f64(double v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Golden {
  std::uint64_t mask;
  std::uint64_t divergence;
  std::uint64_t mask_l1;
  std::uint64_t entropy;
  std::uint64_t ranked;  // (edge, vertex, mask) in ranked order
};

Golden hash_result(const core::InterpretResult& r) {
  Golden g{};
  Fnv1a mask;
  mask.u64(r.mask.rows());
  mask.u64(r.mask.cols());
  for (double v : r.mask.data()) mask.f64(v);
  g.mask = mask.value();
  Fnv1a div, l1, ent;
  div.f64(r.divergence);
  l1.f64(r.mask_l1);
  ent.f64(r.entropy);
  g.divergence = div.value();
  g.mask_l1 = l1.value();
  g.entropy = ent.value();
  Fnv1a ranked;
  for (const auto& c : r.ranked) {
    ranked.u64(c.edge);
    ranked.u64(c.vertex);
    ranked.f64(c.mask);
  }
  g.ranked = ranked.value();
  return g;
}

// Runs the scenario's own §4.2 defaults (steps, λ1, λ2, seed) on its
// global system built at the end-to-end benchmark's teacher scale.
core::InterpretResult interpret_builtin(const std::string& key) {
  api::ScenarioRegistry reg;
  api::register_builtin_scenarios(reg);
  api::ScenarioOptions options;
  options.scale = 0.5;
  const api::GlobalSystem sys = reg.get(key).make_global(options);
  return core::find_critical_connections(*sys.model, sys.interpret_defaults);
}

void expect_golden(const std::string& key, const Golden& want) {
  const Golden got = hash_result(interpret_builtin(key));
  // Printed so a deliberate engine change can re-derive the table.
  std::printf("%s: {0x%016llxULL, 0x%016llxULL, 0x%016llxULL, "
              "0x%016llxULL, 0x%016llxULL}\n",
              key.c_str(), static_cast<unsigned long long>(got.mask),
              static_cast<unsigned long long>(got.divergence),
              static_cast<unsigned long long>(got.mask_l1),
              static_cast<unsigned long long>(got.entropy),
              static_cast<unsigned long long>(got.ranked));
  EXPECT_EQ(got.mask, want.mask) << key << ": mask";
  EXPECT_EQ(got.divergence, want.divergence) << key << ": divergence";
  EXPECT_EQ(got.mask_l1, want.mask_l1) << key << ": mask_l1";
  EXPECT_EQ(got.entropy, want.entropy) << key << ": entropy";
  EXPECT_EQ(got.ranked, want.ranked) << key << ": ranked order";
}

// RoutingMaskModel: RouteNet* on NSFNet, 250 steps.
TEST(InterpretGolden, Routing) {
  expect_golden("routing", {0xd062534cc96f66aeULL, 0x9e18222578008e3dULL,
                 0xf88a2f7c70b9d98dULL, 0x227c45acfbbeecceULL,
                 0xef9e72ca4a0b775cULL});
}

// NfvPlacementModel on the Figure-21 instance, 400 steps.
TEST(InterpretGolden, NfvFigure21) {
  expect_golden("nfv", {0x14931b068ff48129ULL, 0xa86331aa6512da5bULL,
                 0xfe77f1ee99d94cbdULL, 0x6bd16886217e31bdULL,
                 0x33999f45ce5df74dULL});
}

// ClusterSchedulingModel on the scenario's random DAG, 400 steps.
TEST(InterpretGolden, Cluster) {
  expect_golden("cluster", {0xd8c2333cf1db0465ULL, 0xde7a34c2820b9f76ULL,
                 0x3c0f95e2e0ad5adeULL, 0xc81efed9e77e1575ULL,
                 0x9b3eca352604ff96ULL});
}

// CellularModel on the scenario's random deployment, 400 steps.
TEST(InterpretGolden, Cellular) {
  expect_golden("cellular", {0x4268335225ce53a8ULL, 0x01dd9c3a5aad2e66ULL,
                 0x3406aae1b670a6d2ULL, 0x540952f5d6b6ff21ULL,
                 0x5d570d3fd3da5156ULL});
}

}  // namespace
