#include "layers.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "metis/abr/env.h"
#include "metis/abr/scenario.h"
#include "metis/api/registry.h"
#include "metis/core/distill.h"
#include "metis/core/resampler.h"
#include "metis/nn/gemm.h"
#include "metis/routing/scenario.h"
#include "metis/store/snapshot_store.h"
#include "metis/tree/flat_tree.h"
#include "metis/tree/prune.h"
#include "metis/util/rng.h"

namespace metisbench {

namespace api = metis::api;
namespace core = metis::core;
namespace tree = metis::tree;
namespace fs = std::filesystem;

// ---- inputs ---------------------------------------------------------------

std::vector<std::vector<double>> make_feature_pool(std::uint64_t seed,
                                                   std::size_t rows) {
  static const double kBitratesMbps[] = {0.3, 0.75, 1.2, 1.85, 2.85, 4.3};
  metis::Rng rng(mix(seed ^ 0xfea7ULL));
  std::vector<std::vector<double>> pool;
  pool.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const double t0 = rng.uniform(0.1, 6.0);
    const double t1 = rng.uniform(0.1, 6.0);
    const double t2 = rng.uniform(0.1, 6.0);
    const double hm = 3.0 / (1.0 / t0 + 1.0 / t1 + 1.0 / t2);
    pool.push_back({kBitratesMbps[rng.uniform_int(6)], t0, t1, t2, hm,
                    rng.uniform(0.0, 60.0), rng.uniform(0.05, 10.0),
                    rng.uniform(0.05, 10.0),
                    static_cast<double>(rng.uniform_int(31))});
  }
  return pool;
}

tree::DecisionTree make_stream_tree(std::uint64_t seed, std::size_t leaves) {
  const auto rows = make_feature_pool(seed, 2000);
  metis::Rng rng(mix(seed ^ 0x7eeULL));
  const double w_buffer = rng.uniform(0.02, 0.08);
  const double w_dl = rng.uniform(0.1, 0.5);
  tree::Dataset data;
  data.feature_names = metis::abr::tree_feature_names();
  for (const auto& x : rows) {
    // A noisy rate-and-buffer rule over the six bitrate classes.
    const double score = 0.8 * x[4] + w_buffer * x[5] - w_dl * x[6] +
                         rng.normal(0.0, 0.4);
    const double cls = std::clamp(std::floor(score), 0.0, 5.0);
    data.add(x, cls);
  }
  tree::FitConfig fit;
  fit.min_samples_leaf = 2;
  tree::DecisionTree t = tree::DecisionTree::fit(data, fit);
  if (t.leaf_count() > leaves) tree::prune_to_leaf_count(t, leaves);
  return t;
}

// ---- replay ---------------------------------------------------------------

Systems build_systems(const api::ScenarioOptions& options, Tracer* tracer) {
  const auto& registry = api::ScenarioRegistry::global();
  Systems s;
  {
    ScopedSpan span(tracer, "api.build_abr", 0);
    s.abr = registry.get("abr").make_local(options);
  }
  {
    ScopedSpan span(tracer, "api.build_routing", 0);
    s.routing = registry.get("routing").make_global(options);
  }
  return s;
}

namespace {

tree::DecisionTree fit_and_prune(const tree::Dataset& data,
                                 const core::DistillConfig& cfg,
                                 Tracer* tracer, std::uint64_t request) {
  tree::DecisionTree t;
  {
    ScopedSpan span(tracer, "tree.fit", request);
    t = tree::DecisionTree::fit(data, cfg.fit);
  }
  if (t.leaf_count() > cfg.max_leaves) {
    ScopedSpan span(tracer, "tree.prune", request);
    tree::prune_to_leaf_count(t, cfg.max_leaves);
  }
  return t;
}

}  // namespace

tree::DecisionTree replay_distill(const Systems& systems,
                                  const api::DistillOverrides& overrides,
                                  Tracer* tracer, std::uint64_t request) {
  core::DistillConfig cfg = systems.abr.distill_defaults;
  api::apply_overrides(cfg, overrides);
  auto env = systems.abr.env->clone();
  if (env == nullptr) throw std::logic_error("abr env does not clone");
  if (tracer == nullptr) {
    return core::distill_policy(*systems.abr.teacher, *env, cfg).tree;
  }
  // The same steps core::distill_policy takes (Eq. 1 weights as CART
  // sample weights, no multinomial resampling), one span per layer call;
  // whatever no child span covers is the job span's self time.
  ScopedSpan job(tracer, "job.distill", request);
  core::CollectConfig collect = cfg.collect;
  collect.weight_by_advantage = cfg.resample;
  std::vector<core::CollectedSample> all;
  {
    ScopedSpan span(tracer, "core.collect_round", request);
    all = core::collect_traces(*systems.abr.teacher, *env, collect, nullptr, 0);
  }
  tracer->count("core.samples", static_cast<double>(all.size()));
  tree::DecisionTree student = fit_and_prune(
      core::to_dataset(all, cfg.feature_names), cfg, tracer, request);
  for (std::size_t iter = 1; iter < cfg.dagger_iterations; ++iter) {
    core::StudentPolicy policy = [&student](std::span<const double> x) {
      return static_cast<std::size_t>(student.predict(x));
    };
    std::vector<core::CollectedSample> round;
    {
      ScopedSpan span(tracer, "core.collect_round", request);
      round = core::collect_traces(*systems.abr.teacher, *env, collect,
                                   &policy, iter * cfg.collect.episodes);
    }
    tracer->count("core.samples", static_cast<double>(round.size()));
    all.insert(all.end(), round.begin(), round.end());
    student = fit_and_prune(core::to_dataset(all, cfg.feature_names), cfg,
                            tracer, request);
  }
  if (cfg.resample && cfg.resample_size > 0) {
    throw std::logic_error("replay covers weighted Eq. 1 only");
  }
  tree::DecisionTree final_tree = fit_and_prune(
      core::to_dataset(all, cfg.feature_names), cfg, tracer, request);
  // distill_policy ends by scoring the tree's fidelity on every collected
  // sample; the replay does it too, in the job span's own time, so the
  // residual is that of the pipeline the server runs.
  std::size_t hit = 0;
  for (const auto& sample : all) {
    if (static_cast<std::size_t>(final_tree.predict(sample.features)) ==
        sample.action) {
      ++hit;
    }
  }
  tracer->count("core.fidelity", static_cast<double>(hit) /
                                     static_cast<double>(all.size()));
  return final_tree;
}

metis::net::InterpretResultReply replay_interpret(
    const Systems& systems, const api::InterpretOverrides& overrides,
    Tracer* tracer, std::uint64_t request) {
  core::InterpretConfig cfg = systems.routing.interpret_defaults;
  api::apply_overrides(cfg, overrides);
  auto model = systems.routing.model->clone();
  if (model == nullptr) throw std::logic_error("routing model does not clone");
  core::InterpretResult result;
  {
    ScopedSpan job(tracer, "job.interpret", request);
    ScopedSpan span(tracer, "core.mask_search", request);
    result = core::find_critical_connections(*model, cfg);
  }
  metis::net::InterpretResultReply r;
  r.divergence = result.divergence;
  r.mask_l1 = result.mask_l1;
  r.entropy = result.entropy;
  for (const auto& c : result.ranked) {
    r.edges.push_back(static_cast<std::uint32_t>(c.edge));
    r.vertices.push_back(static_cast<std::uint32_t>(c.vertex));
    r.masks.push_back(c.mask);
  }
  return r;
}

// ---- single layers --------------------------------------------------------

namespace {

// Median over `reps` timings of `fn`, each timing `inner` calls, in ns per
// call.
template <typename Fn>
double median_ns(std::size_t reps, std::size_t inner, Fn&& fn) {
  Samples s;
  for (std::size_t r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < inner; ++i) fn(i);
    s.add(static_cast<double>(now_ns() - t0) / static_cast<double>(inner));
  }
  return *s.percentile(50);
}

// Sink that keeps the optimizer from discarding measured work.
volatile double g_sink = 0.0;

metis::nn::Tensor random_tensor(std::size_t rows, std::size_t cols,
                                metis::Rng& rng) {
  metis::nn::Tensor t(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) t(r, c) = rng.uniform(-1.0, 1.0);
  }
  return t;
}

void add_gemm_shapes(const std::vector<metis::nn::Var>& params, std::size_t m,
                     std::vector<LayerMetric>& out) {
  metis::Rng rng(7);
  // Parameters come as (weight, bias) pairs, layer by layer.
  for (std::size_t i = 0; i < params.size(); i += 2) {
    const auto& w = params[i]->value();
    const std::size_t k = w.rows(), n = w.cols();
    const std::string shape = std::to_string(m) + "x" + std::to_string(k) +
                              "x" + std::to_string(n);
    if (std::any_of(out.begin(), out.end(), [&](const LayerMetric& l) {
          return l.name == "nn.gemm_us." + shape;
        })) {
      continue;
    }
    const metis::nn::Tensor a = random_tensor(m, k, rng);
    const std::size_t inner =
        std::max<std::size_t>(1, 2'000'000 / std::max<std::size_t>(m * k * n, 1));
    const double ns = median_ns(15, inner, [&](std::size_t) {
      g_sink = g_sink + metis::nn::gemm::matmul(a, w)(0, 0);
    });
    const double flop = 2.0 * static_cast<double>(m * k * n);
    const double bytes = 8.0 * static_cast<double>(m * k + k * n + m * n);
    out.push_back({"nn.gemm_us." + shape, ns * 1e-3, "us"});
    out.push_back({"nn.gemm_flop." + shape, flop, "count"});
    out.push_back({"nn.gemm_bytes." + shape, bytes, "B"});
  }
}

// Round trip of a frame-sized message through a Unix stream socket pair
// whose far end echoes it back: the kernel floor under every query RTT.
double echo_rtt_us(std::size_t frame_bytes, std::size_t rounds,
                   const std::function<void()>& place_echo) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  auto read_full = [](int fd, std::uint8_t* p, std::size_t n) {
    while (n > 0) {
      const ssize_t r = ::read(fd, p, n);
      if (r <= 0) return false;
      p += r;
      n -= static_cast<std::size_t>(r);
    }
    return true;
  };
  std::thread echo([&] {
    place_echo();
    std::vector<std::uint8_t> buf(frame_bytes);
    while (read_full(sv[1], buf.data(), buf.size())) {
      if (::write(sv[1], buf.data(), buf.size()) !=
          static_cast<ssize_t>(buf.size())) {
        break;
      }
    }
  });
  std::vector<std::uint8_t> buf(frame_bytes, 0x5a);
  Samples rtt;
  for (std::size_t i = 0; i < rounds; ++i) {
    const std::int64_t t0 = now_ns();
    if (::write(sv[0], buf.data(), buf.size()) !=
            static_cast<ssize_t>(buf.size()) ||
        !read_full(sv[0], buf.data(), buf.size())) {
      break;
    }
    rtt.add(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  ::shutdown(sv[0], SHUT_WR);
  echo.join();
  ::close(sv[0]);
  ::close(sv[1]);
  return rtt.empty() ? 0.0 : *rtt.percentile(50);
}

}  // namespace

std::vector<LayerMetric> measure_layers(
    const Systems& systems, const tree::DecisionTree& distilled,
    const std::vector<std::vector<double>>& features,
    const std::string& store_dir, const std::string& work_dir,
    std::size_t teacher_batch_rows, const std::function<void()>& place_echo) {
  std::vector<LayerMetric> out;

  // nn: one collection-step batch through the teacher, then GEMM at every
  // weight shape of the teacher (batch = that step batch) and of RouteNet*'s
  // link-delay net (batch = one row per link).
  {
    auto env = systems.abr.env->clone();
    std::vector<std::vector<double>> states;
    for (std::size_t i = 0; i < teacher_batch_rows; ++i) {
      states.push_back(env->reset(i));
    }
    const double ns = median_ns(15, 50, [&](std::size_t) {
      g_sink = g_sink +
               static_cast<double>(systems.abr.teacher->act_batch(states)[0]);
    });
    out.push_back({"nn.teacher_batch_us", ns * 1e-3, "us"});
    const auto& net = metis::abr::abr_context(systems.abr)->agent.net();
    add_gemm_shapes(net.parameters(), teacher_batch_rows, out);
    const auto ctx = metis::routing::routing_context(systems.routing);
    add_gemm_shapes(ctx->model->delay_net().net().parameters(),
                    systems.routing.model->graph().vertex_count(), out);
  }

  // tree: compile the distilled artifact; predict over the query features.
  {
    const double compile_ns = median_ns(15, 20, [&](std::size_t) {
      g_sink = g_sink + static_cast<double>(
                            tree::FlatTree::compile(distilled).node_count());
    });
    out.push_back({"tree.compile_us", compile_ns * 1e-3, "us"});
    const tree::FlatTree flat = tree::FlatTree::compile(distilled);
    const double predict_ns = median_ns(15, 20000, [&](std::size_t i) {
      g_sink = g_sink + flat.predict(features[i % features.size()]);
    });
    out.push_back({"tree.predict_ns", predict_ns, "ns"});
  }

  // store: durable publish (fsync + rename + dir fsync) and boot recovery
  // of a copy of the workload's store.
  {
    const std::string pub_dir = work_dir + "/layer_publish";
    fs::remove_all(pub_dir);
    metis::store::SnapshotStore pub({pub_dir, 2});
    Samples publish_ms;
    for (int i = 0; i < 15; ++i) {
      const std::int64_t t0 = now_ns();
      (void)pub.publish_tree("abr", distilled);
      publish_ms.add(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    out.push_back({"store.publish_ms", *publish_ms.percentile(50), "ms"});
    Samples recover_ms;
    const std::string copy = work_dir + "/layer_recover";
    for (int i = 0; i < 9; ++i) {
      fs::remove_all(copy);
      fs::copy(store_dir, copy, fs::copy_options::recursive);
      const std::int64_t t0 = now_ns();
      metis::store::SnapshotStore recovered({copy, 2});
      recover_ms.add(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    out.push_back({"store.recover_ms", *recover_ms.percentile(50), "ms"});
    fs::remove_all(copy);
    fs::remove_all(pub_dir);
  }

  // net: the query codec both ways, and the kernel round trip of a
  // query-sized frame.
  {
    metis::net::QueryRequest q;
    q.session = 7;
    q.features = features[0];
    std::vector<std::uint8_t> buf;
    const double encode_ns = median_ns(15, 20000, [&](std::size_t i) {
      buf.clear();
      q.seq = i;
      metis::net::encode_frame(q.encode(), buf);
    });
    out.push_back({"net.encode_ns", encode_ns, "ns"});
    const std::vector<std::uint8_t> reply = metis::net::encode_frame(
        metis::net::DecisionReply{7, 1, 2.0}.encode());
    metis::net::FrameDecoder decoder;
    metis::net::Frame frame;
    const double decode_ns = median_ns(15, 20000, [&](std::size_t) {
      decoder.feed(reply.data(), reply.size());
      if (decoder.next(frame)) {
        g_sink = g_sink + metis::net::DecisionReply::decode(frame).decision;
      }
    });
    out.push_back({"net.decode_ns", decode_ns, "ns"});
    const std::size_t frame_bytes =
        metis::net::encode_frame(q.encode()).size();
    out.push_back({"net.echo_rtt_us", echo_rtt_us(frame_bytes, 20000, place_echo), "us"});
  }
  return out;
}

}  // namespace metisbench
