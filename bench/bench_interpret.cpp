// Interpretation-engine benchmark: single-job §4.2 mask-optimization
// latency with the arena node pool on and off, and the wall clock of N
// concurrent same-key interpret jobs through serve::Service (each job
// searches its own model clone).
//
// Emits BENCH_interpret.json.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "metis/api/registry.h"
#include "metis/core/hypergraph_interpreter.h"
#include "metis/nn/arena.h"
#include "metis/scenarios/cluster.h"
#include "metis/scenarios/nfv.h"
#include "metis/serve/service.h"
#include "metis/util/table.h"

#include "bench_common.h"

namespace {

using namespace metis;  // NOLINT

constexpr std::size_t kSteps = 400;
constexpr int kReps = 7;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Cheap-build scenario handing the service a fixed cluster DAG, so the
// concurrent measurements time the searches, not teacher training.
class BenchClusterScenario final : public api::Scenario {
 public:
  explicit BenchClusterScenario(scenarios::ClusterJob job)
      : job_(std::move(job)) {}
  std::string key() const override { return "bench-cluster"; }
  std::string description() const override { return "bench cluster DAG"; }
  bool has_local() const override { return false; }
  bool has_global() const override { return true; }
  api::GlobalSystem make_global(const api::ScenarioOptions&) const override {
    api::GlobalSystem sys;
    sys.model = std::make_shared<scenarios::ClusterSchedulingModel>(job_);
    sys.keepalive = sys.model;
    sys.interpret_defaults.steps = kSteps;
    return sys;
  }

 private:
  scenarios::ClusterJob job_;
};

struct SingleResult {
  double pool_off_ms = 0.0;
  double pool_on_ms = 0.0;
  bool identical_pool_on_off = true;
};

// Best-of-kReps latency of one search, node pool off then on.
SingleResult bench_single(const core::MaskableModel& model,
                          const core::InterpretConfig& cfg) {
  SingleResult r;
  nn::Tensor pool_on_mask, pool_off_mask;
  auto timed = [&](nn::Tensor& mask) {
    double best = 1e100;
    for (int rep = 0; rep < kReps; ++rep) {
      const double t0 = now_seconds();
      mask = core::find_critical_connections(model, cfg).mask;
      best = std::min(best, now_seconds() - t0);
    }
    return best * 1e3;
  };

  nn::arena::set_node_pool_enabled(false);
  r.pool_off_ms = timed(pool_off_mask);
  nn::arena::set_node_pool_enabled(true);
  r.pool_on_ms = timed(pool_on_mask);

  r.identical_pool_on_off =
      pool_on_mask.same_shape(pool_off_mask) &&
      std::memcmp(pool_on_mask.data().data(), pool_off_mask.data().data(),
                  pool_on_mask.size() * sizeof(double)) == 0;
  return r;
}

// Wall-clock for `jobs` same-key interpret jobs on a `jobs`-worker
// service (build pre-warmed), best of 3.
double concurrent_wall_seconds(const api::ScenarioRegistry& reg,
                               std::size_t jobs) {
  serve::ServiceConfig cfg;
  cfg.workers = jobs;
  cfg.registry = &reg;
  serve::Service svc(cfg);
  svc.submit_interpret("bench-cluster").wait();  // pay the build once

  double best = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_seconds();
    std::vector<serve::JobHandle> handles;
    handles.reserve(jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
      handles.push_back(svc.submit_interpret("bench-cluster"));
    }
    for (const auto& h : handles) h.wait();
    best = std::min(best, now_seconds() - t0);
    for (const auto& h : handles) {
      if (h.status() != serve::JobStatus::kDone) {
        std::cerr << "job failed: " << h.error() << "\n";
        std::exit(EXIT_FAILURE);
      }
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  benchx::print_header(
      "bench_interpret",
      "§4.2 mask-optimization latency (node pool off/on) and concurrent "
      "same-key interpret wall clock (per-job model clones)");

  // --threads N tops out the concurrent-job sweep (default: hardware
  // threads, min 8 so the queueing regime is visible even on one core).
  std::size_t max_jobs =
      std::max(8u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      max_jobs = std::max<std::size_t>(1, std::stoul(argv[++i]));
    }
  }

  // ---- single-job latency ---------------------------------------------------
  core::InterpretConfig cfg;
  cfg.steps = kSteps;
  scenarios::NfvPlacementModel fig21(scenarios::figure21_nfv());
  scenarios::NfvPlacementModel nfv16(scenarios::random_nfv(16, 16, 21));
  scenarios::ClusterSchedulingModel dag(scenarios::random_job(6, 5, 2026));
  // RouteNet* on NSFNet at the end-to-end benchmark's teacher scale, with
  // the scenario's own search settings (250 steps).
  api::ScenarioRegistry builtin;
  api::register_builtin_scenarios(builtin);
  api::ScenarioOptions routing_options;
  routing_options.scale = 0.5;
  const api::GlobalSystem routing =
      builtin.get("routing").make_global(routing_options);

  struct Row {
    std::string key, label;
    SingleResult r;
  };
  const std::vector<Row> rows = {
      {"fig21", "nfv fig21 (4x4)", bench_single(fig21, cfg)},
      {"nfv16", "nfv random (16x16)", bench_single(nfv16, cfg)},
      {"cluster", "cluster dag (6x5)", bench_single(dag, cfg)},
      {"routing", "routing nsfnet (250 steps)",
       bench_single(*routing.model, routing.interpret_defaults)},
  };

  metis::Table single({"model", "pool-off (ms)", "pool-on (ms)"});
  for (const Row& row : rows) {
    single.add_row({row.label, metis::Table::num(row.r.pool_off_ms),
                    metis::Table::num(row.r.pool_on_ms)});
    if (!row.r.identical_pool_on_off) {
      std::cerr << "ERROR: " << row.label
                << " masks differ with the node pool on vs off\n";
      return EXIT_FAILURE;
    }
  }
  single.print(std::cout);
  std::cout << "(masks bitwise identical, node pool on vs off; best of "
            << kReps << ")\n";

  // ---- concurrent wall clock ------------------------------------------------
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<BenchClusterScenario>(
      scenarios::random_job(6, 5, 2026)));

  std::vector<std::size_t> job_counts;
  for (std::size_t j = 1; j < max_jobs; j *= 2) job_counts.push_back(j);
  job_counts.push_back(max_jobs);
  std::vector<double> wall_ms;
  for (std::size_t jobs : job_counts) {
    wall_ms.push_back(concurrent_wall_seconds(reg, jobs) * 1e3);
  }

  const unsigned hw = std::thread::hardware_concurrency();
  metis::Table table({"jobs", "wall (ms)", "per job (ms)"});
  for (std::size_t i = 0; i < job_counts.size(); ++i) {
    table.add_row({std::to_string(job_counts[i]),
                   metis::Table::num(wall_ms[i]),
                   metis::Table::num(wall_ms[i] /
                                     static_cast<double>(job_counts[i]))});
  }
  table.print(std::cout);
  std::cout << "\n(" << hw << " hardware threads)\n";

  benchx::JsonReport json("interpret");
  json.set("steps", kSteps);
  json.set("hardware_threads", static_cast<std::size_t>(hw));
  for (const Row& row : rows) {
    json.set(row.key + "_pool_off_ms", row.r.pool_off_ms);
    json.set(row.key + "_pool_on_ms", row.r.pool_on_ms);
  }
  {
    std::vector<double> jobs_d;
    for (std::size_t j : job_counts) jobs_d.push_back(static_cast<double>(j));
    json.set("concurrent_jobs", jobs_d);
  }
  json.set("concurrent_wall_ms", wall_ms);
  json.set("max_concurrent_jobs", max_jobs);
  json.set("masks_identical_pool_on_off", std::string("true"));
  json.write();
  return 0;
}
