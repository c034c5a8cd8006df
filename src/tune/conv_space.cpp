#include "tune/conv_space.hpp"

#include <cmath>

namespace pf15::tune {

namespace {

std::vector<double> backend_choices(const gemm::ConvProblem& p,
                                    const gemm::AutotuneOptions& opt,
                                    gemm::ConvPhase phase) {
  std::vector<double> choices;
  for (const gemm::ConvBackend* b :
       gemm::candidate_backends(p, opt, phase)) {
    choices.push_back(static_cast<double>(static_cast<int>(b->kind())));
  }
  return choices;
}

}  // namespace

Space conv_backend_space(const gemm::ConvProblem& p,
                         const gemm::AutotuneOptions& opt,
                         gemm::ConvPhase phase) {
  Space space;
  space.add(
      Dimension::discrete(kConvBackendDim, backend_choices(p, opt, phase)));
  return space;
}

Objective conv_backend_objective(const gemm::ConvProblem& p,
                                 const gemm::AutotuneOptions& opt,
                                 gemm::ConvPhase phase) {
  return [p, opt, phase](const Config& config) {
    const gemm::ConvBackendKind kind = decode_backend(config);
    return gemm::benchmark_backend(gemm::backend(kind), p, opt, phase);
  };
}

gemm::ConvBackendKind decode_backend(const Config& config) {
  const auto it = config.find(kConvBackendDim);
  PF15_CHECK_MSG(it != config.end(),
                 "config lacks a '" << kConvBackendDim << "' dimension");
  const int raw = static_cast<int>(std::lround(it->second));
  PF15_CHECK_MSG(
      raw >= 0 && raw <= static_cast<int>(gemm::ConvBackendKind::kDirect),
      "backend code " << raw << " out of range");
  return static_cast<gemm::ConvBackendKind>(raw);
}

gemm::ConvPlan tune_conv_backend(const gemm::ConvProblem& p,
                                 gemm::ConvPlanCache& cache,
                                 const gemm::AutotuneOptions& opt,
                                 gemm::ConvPhase phase) {
  const Space space = conv_backend_space(p, opt, phase);
  const SearchResult result =
      grid_search(space, conv_backend_objective(p, opt, phase),
                  /*per_dim=*/1);
  gemm::ConvPlan plan;
  plan.kind = decode_backend(result.best.config);
  plan.best_us = result.best.loss;
  plan.tuned = true;
  for (const TrialResult& trial : result.trials) {
    if (decode_backend(trial.config) == gemm::ConvBackendKind::kIm2col) {
      plan.im2col_us = trial.loss;
    }
  }
  cache.insert(p, phase, plan);
  return plan;
}

}  // namespace pf15::tune
