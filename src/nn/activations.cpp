#include "nn/activations.hpp"

#include <cmath>

namespace pf15::nn {

void ReLU::forward(const Tensor& in, Tensor& out) {
  ensure_shape(out, in.shape());
  const float* src = in.data();
  float* dst = out.data();
  for_each_grain(in.numel(), kMemoryBoundGrain,
                 [src, dst](std::size_t lo, std::size_t hi) {
                   const float* __restrict__ s = src + lo;
                   float* __restrict__ d = dst + lo;
                   for (std::size_t i = 0; i < hi - lo; ++i) {
                     d[i] = s[i] > 0.0f ? s[i] : 0.0f;
                   }
                 });
}

void ReLU::backward(const Tensor& in, const Tensor& dout, Tensor& din) {
  PF15_CHECK(dout.shape() == in.shape());
  ensure_shape(din, in.shape());
  const float* x = in.data();
  const float* g = dout.data();
  float* dst = din.data();
  for_each_grain(in.numel(), kMemoryBoundGrain,
                 [x, g, dst](std::size_t lo, std::size_t hi) {
                   const float* __restrict__ xs = x + lo;
                   const float* __restrict__ gs = g + lo;
                   float* __restrict__ d = dst + lo;
                   // g is loaded unconditionally so the select
                   // vectorizes instead of branching on the sign of x.
                   for (std::size_t i = 0; i < hi - lo; ++i) {
                     const float gv = gs[i];
                     d[i] = xs[i] > 0.0f ? gv : 0.0f;
                   }
                 });
}

void Sigmoid::forward(const Tensor& in, Tensor& out) {
  ensure_shape(out, in.shape());
  ensure_shape(out_cache_, in.shape());
  const std::size_t n = in.numel();
  for (std::size_t i = 0; i < n; ++i) {
    const float y = 1.0f / (1.0f + std::exp(-in.data()[i]));
    out.data()[i] = y;
    out_cache_.data()[i] = y;
  }
}

void Sigmoid::backward(const Tensor& in, const Tensor& dout, Tensor& din) {
  PF15_CHECK(dout.shape() == in.shape());
  PF15_CHECK_MSG(out_cache_.defined() && out_cache_.shape() == in.shape(),
                 name_ << ": backward without matching forward");
  ensure_shape(din, in.shape());
  const std::size_t n = in.numel();
  for (std::size_t i = 0; i < n; ++i) {
    const float y = out_cache_.data()[i];
    din.data()[i] = dout.data()[i] * y * (1.0f - y);
  }
}

void Tanh::forward(const Tensor& in, Tensor& out) {
  ensure_shape(out, in.shape());
  ensure_shape(out_cache_, in.shape());
  const std::size_t n = in.numel();
  for (std::size_t i = 0; i < n; ++i) {
    const float y = std::tanh(in.data()[i]);
    out.data()[i] = y;
    out_cache_.data()[i] = y;
  }
}

void Tanh::backward(const Tensor& in, const Tensor& dout, Tensor& din) {
  PF15_CHECK(dout.shape() == in.shape());
  PF15_CHECK_MSG(out_cache_.defined() && out_cache_.shape() == in.shape(),
                 name_ << ": backward without matching forward");
  ensure_shape(din, in.shape());
  const std::size_t n = in.numel();
  for (std::size_t i = 0; i < n; ++i) {
    const float y = out_cache_.data()[i];
    din.data()[i] = dout.data()[i] * (1.0f - y * y);
  }
}

}  // namespace pf15::nn
