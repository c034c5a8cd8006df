#include "nn/pool.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace pf15::nn {

MaxPool2d::MaxPool2d(std::string name, std::size_t kernel,
                     std::size_t stride)
    : name_(std::move(name)), kernel_(kernel), stride_(stride) {
  PF15_CHECK(kernel_ > 0 && stride_ > 0);
}

Shape MaxPool2d::output_shape(const Shape& in) const {
  PF15_CHECK_MSG(in.rank() == 4 && in.h() >= kernel_ && in.w() >= kernel_,
                 name_ << ": bad input " << in);
  return Shape{in.n(), in.c(), (in.h() - kernel_) / stride_ + 1,
               (in.w() - kernel_) / stride_ + 1};
}

void MaxPool2d::forward(const Tensor& in, Tensor& out) {
  const Shape os = output_shape(in.shape());
  ensure_shape(out, os);
  const std::size_t ih = in.shape().h(), iw = in.shape().w();
  const std::size_t oh = os.h(), ow = os.w();
  const std::size_t in_plane = ih * iw, out_plane = oh * ow;
  PF15_CHECK_MSG(in_plane <= std::numeric_limits<std::uint32_t>::max(),
                 name_ << ": input plane too large " << in.shape());
  argmax_.resize(out.numel());
  // Planes are independent: fan groups of planes across the scheduler.
  for_each_grain(
      in.shape().n() * in.shape().c(),
      std::max<std::size_t>(1, kMemoryBoundGrain / in_plane),
      [&](std::size_t p0, std::size_t p1) {
        for (std::size_t p = p0; p < p1; ++p) {
          const float* src = in.data() + p * in_plane;
          float* dst = out.data() + p * out_plane;
          std::uint32_t* arg = argmax_.data() + p * out_plane;
          for (std::size_t y = 0; y < oh; ++y) {
            for (std::size_t x = 0; x < ow; ++x) {
              // Selects instead of a data-dependent branch. The strict >
              // keeps the first maximum on ties and skips NaNs.
              float best = -std::numeric_limits<float>::infinity();
              std::uint32_t best_idx = 0;
              for (std::size_t ky = 0; ky < kernel_; ++ky) {
                const std::size_t sy = y * stride_ + ky;
                for (std::size_t kx = 0; kx < kernel_; ++kx) {
                  const std::size_t sx = x * stride_ + kx;
                  const auto idx = static_cast<std::uint32_t>(sy * iw + sx);
                  const float v = src[idx];
                  const bool take = v > best;
                  best = take ? v : best;
                  best_idx = take ? idx : best_idx;
                }
              }
              dst[y * ow + x] = best;
              arg[y * ow + x] = best_idx;
            }
          }
        }
      });
}

void MaxPool2d::backward(const Tensor& in, const Tensor& dout, Tensor& din) {
  PF15_CHECK(dout.shape() == output_shape(in.shape()));
  PF15_CHECK_MSG(argmax_.size() == dout.numel(),
                 name_ << ": backward without matching forward");
  ensure_shape(din, in.shape());
  const std::size_t in_plane = in.shape().h() * in.shape().w();
  const std::size_t out_plane = dout.shape().h() * dout.shape().w();
  // Each input plane is written from its own output plane only, so the
  // plane groups write disjoint memory.
  for_each_grain(
      in.shape().n() * in.shape().c(),
      std::max<std::size_t>(1, kMemoryBoundGrain / in_plane),
      [&](std::size_t p0, std::size_t p1) {
        for (std::size_t p = p0; p < p1; ++p) {
          float* dst = din.data() + p * in_plane;
          const float* g = dout.data() + p * out_plane;
          const std::uint32_t* arg = argmax_.data() + p * out_plane;
          std::fill(dst, dst + in_plane, 0.0f);
          for (std::size_t i = 0; i < out_plane; ++i) dst[arg[i]] += g[i];
        }
      });
}

std::uint64_t MaxPool2d::forward_flops(const Shape& in) const {
  // One comparison per tap; comparisons counted as one FLOP each.
  const Shape os = output_shape(in);
  return os.numel() * kernel_ * kernel_;
}

std::uint64_t MaxPool2d::backward_flops(const Shape& in) const {
  return output_shape(in).numel();
}

Shape GlobalAvgPool::output_shape(const Shape& in) const {
  PF15_CHECK_MSG(in.rank() == 4, name_ << ": bad input " << in);
  return Shape{in.n(), in.c(), 1, 1};
}

void GlobalAvgPool::forward(const Tensor& in, Tensor& out) {
  ensure_shape(out, output_shape(in.shape()));
  const std::size_t plane = in.shape().h() * in.shape().w();
  const std::size_t planes = in.shape().n() * in.shape().c();
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::size_t p = 0; p < planes; ++p) {
    const float* src = in.data() + p * plane;
    double s = 0.0;
    for (std::size_t i = 0; i < plane; ++i) s += src[i];
    out.data()[p] = static_cast<float>(s) * inv;
  }
}

void GlobalAvgPool::backward(const Tensor& in, const Tensor& dout,
                             Tensor& din) {
  PF15_CHECK(dout.shape() == output_shape(in.shape()));
  ensure_shape(din, in.shape());
  const std::size_t plane = in.shape().h() * in.shape().w();
  const std::size_t planes = in.shape().n() * in.shape().c();
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::size_t p = 0; p < planes; ++p) {
    const float g = dout.data()[p] * inv;
    float* dst = din.data() + p * plane;
    for (std::size_t i = 0; i < plane; ++i) dst[i] = g;
  }
}

std::uint64_t GlobalAvgPool::forward_flops(const Shape& in) const {
  return in.numel();
}

std::uint64_t GlobalAvgPool::backward_flops(const Shape& in) const {
  return in.numel();
}

}  // namespace pf15::nn
