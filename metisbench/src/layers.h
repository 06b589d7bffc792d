// In-process side of the benchmark: the seeded inputs the workloads send,
// the replay of every job through the library's public functions (the
// correctness reference and, in the traced run, the layer split), and the
// micro-measurements of single layers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "metis/api/runs.h"
#include "metis/api/scenario.h"
#include "metis/net/wire.h"
#include "metis/tree/cart.h"

namespace metisbench {

// ---- inputs ---------------------------------------------------------------

// Rows of the ABR interpretable-feature shape (metis::abr::
// tree_feature_names()), drawn from the ranges the ABR environment
// produces: last bitrate, recent throughputs, buffer, download times,
// chunks left.
[[nodiscard]] std::vector<std::vector<double>> make_feature_pool(
    std::uint64_t seed, std::size_t rows);

// A seeded decision tree of the same feature shape, fitted to a synthetic
// bitrate rule and pruned to `leaves` — what a store full of previously
// distilled ABR trees looks like to the query plane.
[[nodiscard]] metis::tree::DecisionTree make_stream_tree(std::uint64_t seed,
                                                         std::size_t leaves);

// ---- replay ---------------------------------------------------------------

// The abr and routing systems built in-process with the Service's options.
struct Systems {
  metis::api::LocalSystem abr;
  metis::api::GlobalSystem routing;
};
[[nodiscard]] Systems build_systems(const metis::api::ScenarioOptions& options,
                                    Tracer* tracer);

// The distill job's tree as the library computes it in-process. Without a
// tracer, core::distill_policy computes it. With one, the pipeline is
// replayed step by step through its public functions (collect_traces per
// round, CART fit, prune), each step in its own span when the tracer is
// enabled — a disabled tracer runs the same steps with no spans, which is
// the baseline the tracing overhead is measured against.
[[nodiscard]] metis::tree::DecisionTree replay_distill(
    const Systems& systems, const metis::api::DistillOverrides& overrides,
    Tracer* tracer, std::uint64_t request);

// find_critical_connections with the job's config, as the wire reports it
// (edges, vertices, masks in ranked order).
[[nodiscard]] metis::net::InterpretResultReply replay_interpret(
    const Systems& systems, const metis::api::InterpretOverrides& overrides,
    Tracer* tracer, std::uint64_t request);

// ---- single layers --------------------------------------------------------

struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Measures the layers no workload isolates on its own: teacher batch
// inference, GEMM at the teacher's and RouteNet*'s layer shapes, FlatTree
// compile/predict, durable publish and recovery, the wire codec, and the
// kernel's Unix-socket round trip. `tree` is a distilled tree; `store_dir`
// a store to copy for recovery timings; `work_dir` a directory for
// temporary files.
// `place_echo` runs first on the echo thread, so it can be placed where the
// server's loop runs.
[[nodiscard]] std::vector<LayerMetric> measure_layers(
    const Systems& systems, const metis::tree::DecisionTree& tree,
    const std::vector<std::vector<double>>& features,
    const std::string& store_dir, const std::string& work_dir,
    std::size_t teacher_batch_rows, const std::function<void()>& place_echo);

}  // namespace metisbench
