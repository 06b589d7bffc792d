#include "metis/core/hypergraph_interpreter.h"

#include <algorithm>

#include "metis/nn/arena.h"
#include "metis/nn/optim.h"
#include "metis/util/check.h"

namespace metis::core {

std::vector<double> InterpretResult::mask_values() const {
  std::vector<double> vs;
  vs.reserve(ranked.size());
  for (const auto& c : ranked) vs.push_back(c.mask);
  return vs;
}

double InterpretResult::vertex_mask_sum(std::size_t vertex) const {
  MET_CHECK(vertex < mask.cols());
  double s = 0.0;
  for (std::size_t e = 0; e < mask.rows(); ++e) s += mask(e, vertex);
  return s;
}

// metis-lint: begin-deterministic — the §4.2 mask optimization: masks
// must be bitwise identical across concurrent jobs, clones, and pool
// legs. The only randomness is the explicitly seeded Rng(cfg.seed)
// logits initialization below.
InterpretResult find_critical_connections(const MaskableModel& model,
                                          const InterpretConfig& cfg) {
  MET_CHECK(cfg.steps > 0);
  MET_CHECK(cfg.lambda1 >= 0.0 && cfg.lambda2 >= 0.0);

  const hypergraph::Hypergraph& graph = model.graph();
  graph.validate();
  const nn::Tensor incidence = graph.incidence_matrix();
  // The search's free parameters: one logit per connection, ordered
  // row-major over the incidence matrix (edge, then ascending vertex) —
  // the order the dense loops summed in, so every reduction below adds
  // the same terms in the same order.
  const nn::SparsePattern support = nn::SparsePattern::from_dense(incidence);

  // Reference decisions Y_I with the unmasked incidence matrix, frozen as a
  // constant target. For discrete systems the target's per-entry logs are
  // frozen too: they are re-read every step by the KL term, so paying
  // them once (instead of steps x |Y| log calls) is free accuracy-wise —
  // the cached node holds exactly log_op(y_target)'s values.
  nn::Var y_ref = model.decisions(nn::constant(incidence));
  nn::Var y_target = nn::constant(y_ref->value());
  const bool discrete = model.discrete_output();
  nn::Var log_target;
  if (discrete) log_target = nn::log_op(y_target);

  // Mask logits W' start at the entropy-neutral point sigmoid(0) = 0.5
  // (+ tiny noise for symmetry breaking): from there the divergence term
  // pulls critical connections towards 1 while λ1 pulls the rest towards 0,
  // and the entropy term then locks each side in (the Fig. 9a bimodality).
  // One normal is drawn per |E| x |V| entry, row-major, and the support's
  // are kept, so a seed picks the same logits at every connection as a
  // dense initialization would.
  metis::Rng rng(cfg.seed);
  nn::Tensor logits0(support.nnz(), 1);
  for (std::size_t e = 0, k = 0; e < incidence.rows(); ++e) {
    for (std::size_t v = 0; v < incidence.cols(); ++v) {
      const double z = rng.normal(0.0, 0.05);
      if (incidence(e, v) != 0.0) logits0(k++, 0) = z;
    }
  }
  nn::Var logits = nn::parameter(std::move(logits0));
  nn::Adam opt({logits}, cfg.lr);

  // Normalize both penalties by the connection count to keep λ1/λ2
  // comparable across hypergraph sizes.
  const double n_conn =
      std::max<double>(1.0, static_cast<double>(graph.connection_count()));
  double last_div = 0.0, last_l1 = 0.0, last_entropy = 0.0;
  // Every optimization step builds and tears down the same graph shapes;
  // the arena recycles those buffers — and the node pool the tape
  // metadata — across all cfg.steps iterations. The logits gradient
  // (allocated lazily on the first backward) stays live past the scope,
  // which is safe: arena blocks are ordinary operator-new blocks whatever
  // their release site.
  nn::arena::Scope arena;
  for (std::size_t step = 0; step < cfg.steps; ++step) {
    cfg.cancel.check();  // mask-step boundary
    // Gating (Eq. 9): W = I ∘ sigmoid(W'), computed on the connections
    // and scattered into the dense |E| x |V| mask the model consumes
    // (exactly 0 off the support, so 0 <= W_ev <= I_ev).
    nn::Var s = nn::sigmoid(logits);
    nn::Var y = model.decisions(nn::scatter(s, support));
    // D(Y_W, Y_I) (Eq. 6) + λ1·||W|| (Eq. 7; W >= 0 by construction, so
    // |W| = W) + λ2·H(W) (Eq. 8). Masked-out entries are exactly 0 and
    // contribute 0 to either penalty, so the regularizer runs on the
    // connections alone. It is one fused node; its raw Σ W and H(W) feed
    // the Fig. 30 diagnostics below without extra graph work. backward()
    // reaches it before the model, so each connection's gradient is the
    // regularizer's term plus the model's, added in that order — as
    // the dense W's gradient was.
    nn::Var divergence =
        discrete ? nn::kl_divergence_rows_cached(y_target, log_target, y)
                 : nn::mse_loss(y, y_target);
    double sum_w = 0.0, entropy_w = 0.0;
    nn::Var reg = nn::mask_regularizer(s, cfg.lambda1 / n_conn,
                                       cfg.lambda2 / n_conn, &sum_w,
                                       &entropy_w);
    nn::Var loss = nn::add(divergence, reg);
    opt.zero_grad();
    nn::backward(loss);
    opt.step();

    last_div = divergence->value()(0, 0);
    last_l1 = sum_w / n_conn;
    last_entropy = entropy_w / n_conn;
    if (cfg.on_step) cfg.on_step();
  }

  InterpretResult result;
  result.mask = nn::scatter(nn::sigmoid(logits), support)->value();
  result.divergence = last_div;
  result.mask_l1 = last_l1;
  result.entropy = last_entropy;
  for (const auto& c : graph.connections()) {
    result.ranked.push_back({c.edge, c.vertex, result.mask(c.edge, c.vertex)});
  }
  std::sort(result.ranked.begin(), result.ranked.end(),
            [](const ScoredConnection& a, const ScoredConnection& b) {
              return a.mask > b.mask;
            });
  return result;
}
// metis-lint: end-deterministic

}  // namespace metis::core
