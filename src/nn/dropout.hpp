// Inverted dropout.
//
// Not used by the paper's two production networks (they are small and
// train on effectively unlimited simulated data); the graph compiler
// strips it from captured inference graphs. Inverted scaling (kept
// activations divided by keep-prob) makes inference a no-op.
#pragma once

#include <string>

#include "common/rng.hpp"
#include "nn/layer.hpp"

namespace pf15::nn {

class Dropout final : public Layer {
 public:
  /// `drop_prob` in [0, 1): probability an activation is zeroed.
  Dropout(std::string name, float drop_prob, std::uint64_t seed = 7);

  const std::string& name() const override { return name_; }
  std::string kind() const override { return "dropout"; }
  Shape output_shape(const Shape& in) const override { return in; }
  void forward(const Tensor& in, Tensor& out) override;
  void backward(const Tensor& in, const Tensor& dout, Tensor& din) override;
  std::uint64_t forward_flops(const Shape& in) const override {
    return in.numel();
  }
  std::uint64_t backward_flops(const Shape& in) const override {
    return in.numel();
  }

  void set_training(bool training) override { training_ = training; }
  bool training() const override { return training_; }

  /// When frozen, forward() reuses the current mask instead of drawing a
  /// fresh one — required for finite-difference gradient checks, which
  /// need a deterministic forward.
  void set_mask_frozen(bool frozen) { mask_frozen_ = frozen; }

  float drop_prob() const { return drop_prob_; }

 private:
  std::string name_;
  float drop_prob_;
  bool training_ = true;
  bool mask_frozen_ = false;
  Rng rng_;
  Tensor mask_;  // 0 or 1/keep per element, shaped like the last input
};

}  // namespace pf15::nn
