// 2-D convolution layer, the workhorse of both networks (§III-A, §III-B).
// Weight layout is OIHW; bias is per output channel.
//
// Forward *and* backward dispatch through the gemm::ConvBackend registry:
// im2col+GEMM, Winograd F(2x2/4x4,3x3), or direct loops. kAuto
// consults the process-wide gemm::ConvPlanCache, which micro-benchmarks
// applicable backends the first time a (problem, phase) is seen and
// remembers the winner — forward, backward-data and backward-filter tune
// independently (the cuDNN per-op-phase model), so training inherits the
// measured backend wins, not just inference. Every batch loop fans across
// the global task scheduler: forward and backward-data per image, the
// accumulating filter gradient per fixed image chunk with an ordered
// fold (reduce_filter_grad). Backends may fan out further beneath each
// image — nested waits are legal on the scheduler. Weight-only work
// (ConvBackend::prepare) is done once per call, before the batch loop.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "gemm/conv_backend.hpp"
#include "gemm/im2col.hpp"
#include "nn/layer.hpp"

namespace pf15::nn {

/// Algorithm selection. kIm2col/kWinograd/kDirect force one
/// gemm::ConvBackend (construction PF15_CHECKs applicability for
/// Winograd; direct applies everywhere); kAuto lets the autotune plan
/// cache pick per (geometry, phase). A forced backend that declines a
/// phase falls back to the im2col adjoint there — the
/// fallback is explicit via backward_backend(), never silent.
enum class ConvAlgo { kIm2col, kWinograd, kAuto, kDirect };

struct Conv2dConfig {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t pad = 0;
  bool bias = true;
  ConvAlgo algo = ConvAlgo::kIm2col;
};

/// The one algo-to-backend resolution policy, shared by every layer that
/// dispatches convolution phases (Conv2d, Deconv2d): a forced algo wins
/// when it supports the phase, falls back to the im2col adjoint when it
/// declines it, and kAuto asks the global plan cache —
/// tuning on first sight in the given batch bucket
/// (gemm::conv_batch_bucket of the layer's batch dimension).
gemm::ConvBackendKind resolve_conv_backend(ConvAlgo algo,
                                           const gemm::ConvProblem& p,
                                           gemm::ConvPhase phase,
                                           std::size_t batch = 1);

/// Like resolve_conv_backend but guaranteed never to tune: kAuto
/// consults the plan cache and assumes the im2col reference for shapes
/// not yet planned. FLOP accounting goes through this so it stays a pure
/// arithmetic query.
gemm::ConvBackendKind planned_conv_backend(ConvAlgo algo,
                                           const gemm::ConvProblem& p,
                                           gemm::ConvPhase phase,
                                           std::size_t batch = 1);

/// Batch split of the filter gradient. A batch whose filter-gradient
/// work (n_img * flops_per_image) is below gemm::kParallelMinFlops runs as
/// one chunk; otherwise it splits into min(kFilterGradChunks, n_img)
/// contiguous chunks, chunk c covering images [c*n/k, (c+1)*n/k). The
/// count never depends on the scheduler width, so neither do the bits.
inline constexpr std::size_t kFilterGradChunks = 4;
std::size_t filter_grad_chunks(std::size_t n_img,
                               std::uint64_t flops_per_image);

/// Accumulates (+=) a batch's filter gradient into dw (dw_size floats)
/// and db (db_size floats; 0 when the layer has no bias).
/// image_grad(img, dw, db) accumulates one image's gradient into the
/// buffers it is given. The chunks of filter_grad_chunks fan out on the
/// global task scheduler: chunk 0 accumulates straight into dw/db, image
/// by image, exactly like a serial loop; chunks 1..k-1 accumulate into
/// zeroed partials, which are then added into dw/db in chunk order. The
/// partials are freed before this returns.
void reduce_filter_grad(
    std::size_t n_img, std::uint64_t flops_per_image, float* dw,
    std::size_t dw_size, float* db, std::size_t db_size,
    const std::function<void(std::size_t img, float* dw, float* db)>&
        image_grad);

class Conv2d final : public Layer {
 public:
  Conv2d(std::string name, const Conv2dConfig& cfg, Rng& rng);

  const std::string& name() const override { return name_; }
  std::string kind() const override { return "conv"; }
  Shape output_shape(const Shape& in) const override;
  void forward(const Tensor& in, Tensor& out) override;
  void backward(const Tensor& in, const Tensor& dout, Tensor& din) override;
  std::vector<Param> params() override;
  std::uint64_t forward_flops(const Shape& in) const override;
  std::uint64_t backward_flops(const Shape& in) const override;

  const Conv2dConfig& config() const { return cfg_; }
  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

  /// The backend the forward pass will dispatch to for this input shape
  /// (resolving kAuto through the global plan cache, tuning on first
  /// sight).
  gemm::ConvBackendKind forward_backend(const Shape& in) const;
  /// The backend `phase` will dispatch to for this input shape: the
  /// forced algo when it supports the phase, the im2col adjoint when it
  /// declines it, or the plan-cache winner under kAuto.
  gemm::ConvBackendKind backward_backend(const Shape& in,
                                         gemm::ConvPhase phase) const;
  /// The backends the latest forward()/backward() actually dispatched to.
  gemm::ConvBackendKind last_forward_backend() const {
    return last_forward_backend_;
  }
  gemm::ConvBackendKind last_backward_data_backend() const {
    return last_backward_data_backend_;
  }
  gemm::ConvBackendKind last_backward_filter_backend() const {
    return last_backward_filter_backend_;
  }

 private:
  gemm::ConvGeom geom(const Shape& in) const;
  gemm::ConvProblem problem(const Shape& in) const;

  std::string name_;
  Conv2dConfig cfg_;
  Tensor weight_;       // (OC, IC, KH, KW)
  Tensor bias_;         // (OC)
  Tensor weight_grad_;  // same shapes as values
  Tensor bias_grad_;
  gemm::ConvBackendKind last_forward_backend_ =
      gemm::ConvBackendKind::kIm2col;
  gemm::ConvBackendKind last_backward_data_backend_ =
      gemm::ConvBackendKind::kIm2col;
  gemm::ConvBackendKind last_backward_filter_backend_ =
      gemm::ConvBackendKind::kIm2col;
};

}  // namespace pf15::nn
