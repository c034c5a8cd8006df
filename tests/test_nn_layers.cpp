// Per-layer unit tests: shape inference, forward semantics on hand-built
// inputs, and central-difference gradient checks for every layer type.
#include <gtest/gtest.h>

#include "check_failure.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "common/task_scheduler.hpp"
#include "gemm/gemm.hpp"
#include "gradient_check.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/deconv2d.hpp"
#include "nn/dense.hpp"
#include "nn/pool.hpp"

namespace pf15::nn {
namespace {

using testing::check_layer_gradients;

Tensor random_input(const Shape& s, std::uint64_t seed = 77) {
  Rng rng(seed);
  Tensor t(s);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

// ---------------------------------------------------------------- Conv2d
TEST(Conv2d, OutputShapeSamePadding) {
  Rng rng(1);
  Conv2d conv("c", {3, 8, 3, 1, 1, true}, rng);
  EXPECT_EQ(conv.output_shape(Shape{2, 3, 16, 16}), (Shape{2, 8, 16, 16}));
}

TEST(Conv2d, OutputShapeStride2) {
  Rng rng(1);
  Conv2d conv("c", {16, 32, 5, 2, 2, true}, rng);
  EXPECT_EQ(conv.output_shape(Shape{1, 16, 64, 64}), (Shape{1, 32, 32, 32}));
}

TEST(Conv2d, RejectsWrongChannelCount) {
  Rng rng(1);
  Conv2d conv("c", {3, 8, 3, 1, 1, true}, rng);
  PF15_EXPECT_CHECK_FAIL(conv.output_shape(Shape{1, 4, 8, 8}), "bad input");
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  Rng rng(1);
  Conv2dConfig cfg{1, 1, 1, 1, 0, false};
  Conv2d conv("c", cfg, rng);
  conv.weight().fill(1.0f);
  Tensor in = random_input(Shape{1, 1, 4, 4});
  Tensor out;
  conv.forward(in, out);
  EXPECT_FLOAT_EQ(max_abs_diff(in, out), 0.0f);
}

TEST(Conv2d, BiasIsAdded) {
  Rng rng(1);
  Conv2dConfig cfg{1, 2, 1, 1, 0, true};
  Conv2d conv("c", cfg, rng);
  conv.weight().zero();
  conv.bias().at(0) = 1.5f;
  conv.bias().at(1) = -2.5f;
  Tensor in = random_input(Shape{1, 1, 3, 3});
  Tensor out;
  conv.forward(in, out);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(out.at(i), 1.5f);
    EXPECT_FLOAT_EQ(out.at(9 + i), -2.5f);
  }
}

TEST(Conv2d, GradientCheck) {
  Rng rng(2);
  Conv2d conv("c", {2, 3, 3, 1, 1, true}, rng);
  Tensor in = random_input(Shape{2, 2, 5, 5});
  check_layer_gradients(conv, in);
}

TEST(Conv2d, GradientCheckStridedNoBias) {
  Rng rng(2);
  Conv2d conv("c", {3, 4, 3, 2, 1, false}, rng);
  Tensor in = random_input(Shape{1, 3, 7, 7});
  check_layer_gradients(conv, in);
}

TEST(Conv2d, GradientsAccumulateAcrossCalls) {
  // Batch 8 clears the filter-gradient fan-out cutoff, so the second call
  // accumulates chunk 0 straight onto the first call's gradient and folds
  // the later chunks' partials on top.
  Rng rng(2);
  Conv2d conv("c", {8, 16, 3, 1, 1, true}, rng);
  Tensor in = random_input(Shape{8, 8, 24, 24});
  // im2col backward-filter: 2 * OC * (IC*K*K) * (OH*OW) FLOPs per image.
  ASSERT_GT(filter_grad_chunks(8, 2ull * 16 * (8 * 9) * (24 * 24)), 1u);
  Tensor out, dout(conv.output_shape(in.shape())), din;
  dout.fill(1.0f);
  conv.forward(in, out);
  conv.backward(in, dout, din);
  const Tensor g1 = conv.params()[0].grad->clone();
  const Tensor b1 = conv.params()[1].grad->clone();
  conv.backward(in, dout, din);
  const Tensor g2 = conv.params()[0].grad->clone();
  const Tensor b2 = conv.params()[1].grad->clone();
  for (std::size_t i = 0; i < g1.numel(); ++i) {
    EXPECT_NEAR(g2.at(i), 2.0f * g1.at(i),
                1e-4f + 1e-5f * std::abs(g1.at(i)));
  }
  for (std::size_t i = 0; i < b1.numel(); ++i) {
    EXPECT_NEAR(b2.at(i), 2.0f * b1.at(i),
                1e-4f + 1e-5f * std::abs(b1.at(i)));
  }
}

TEST(Conv2d, FlopCountMatchesInstrumentedGemm) {
  Rng rng(2);
  Conv2d conv("c", {4, 8, 3, 1, 1, false}, rng);
  Tensor in = random_input(Shape{2, 4, 10, 10});
  Tensor out;
  gemm::reset_executed_flops();
  conv.forward(in, out);
  // Analytic forward FLOPs (bias off => pure GEMM work).
  EXPECT_EQ(gemm::executed_flops(), conv.forward_flops(in.shape()));
}

// -------------------------------------------------------------- Deconv2d
TEST(Deconv2d, OutputShapeDoubles) {
  Rng rng(3);
  Deconv2d dc("d", {8, 4, 6, 2, 2, true}, rng);
  EXPECT_EQ(dc.output_shape(Shape{1, 8, 12, 12}), (Shape{1, 4, 24, 24}));
}

TEST(Deconv2d, InvertsConvGeometry) {
  // A stride-2 conv halves 32 -> 16; the mirror deconv must map 16 -> 32.
  Rng rng(3);
  Conv2d conv("c", {4, 8, 5, 2, 2, true}, rng);
  Deconv2d deconv("d", {8, 4, 6, 2, 2, true}, rng);
  const Shape conv_out = conv.output_shape(Shape{1, 4, 32, 32});
  EXPECT_EQ(deconv.output_shape(conv_out), (Shape{1, 4, 32, 32}));
}

TEST(Deconv2d, GradientCheck) {
  Rng rng(4);
  Deconv2d dc("d", {3, 2, 4, 2, 1, true}, rng);
  Tensor in = random_input(Shape{2, 3, 4, 4});
  check_layer_gradients(dc, in);
}

TEST(Deconv2d, GradientCheckStride1) {
  Rng rng(4);
  Deconv2d dc("d", {2, 3, 3, 1, 1, false}, rng);
  Tensor in = random_input(Shape{1, 2, 5, 5});
  check_layer_gradients(dc, in);
}

TEST(Deconv2d, MatchesConvTransposeByBruteForce) {
  // Deconv forward must equal the adjoint of conv forward with the same
  // (transposed) kernel: <conv(x), y> == <x, deconv(y)> when deconv's
  // weight (IC,OC,KH,KW) mirrors conv's (OC,IC,KH,KW).
  Rng rng(5);
  const std::size_t ic = 2, oc = 3, k = 3, s = 2, p = 1;
  Conv2d conv("c", {ic, oc, k, s, p, false}, rng);
  Deconv2d deconv("d", {oc, ic, k, s, p, false}, rng);
  // Copy conv weight (oc, ic, kh, kw) into deconv weight (oc, ic, kh, kw):
  // deconv stores (in=oc, out=ic, kh, kw) — identical layout here.
  for (std::size_t i = 0; i < conv.weight().numel(); ++i) {
    deconv.params()[0].value->data()[i] = conv.weight().data()[i];
  }
  Tensor x = random_input(Shape{1, ic, 9, 9}, 8);
  Tensor conv_out;
  conv.forward(x, conv_out);
  Tensor y = random_input(conv_out.shape(), 9);
  Tensor deconv_out;
  deconv.forward(y, deconv_out);
  ASSERT_EQ(deconv_out.shape(), x.shape());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < conv_out.numel(); ++i) {
    lhs += static_cast<double>(conv_out.at(i)) * y.at(i);
  }
  for (std::size_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x.at(i)) * deconv_out.at(i);
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::abs(lhs)));
}

// ------------------------------------------------------------------ Pool
TEST(MaxPool2d, SelectsMaxima) {
  MaxPool2d pool("p", 2, 2);
  Tensor in(Shape{1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) in.at(i) = static_cast<float>(i);
  Tensor out;
  pool.forward(in, out);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at(0), 5.0f);
  EXPECT_FLOAT_EQ(out.at(1), 7.0f);
  EXPECT_FLOAT_EQ(out.at(2), 13.0f);
  EXPECT_FLOAT_EQ(out.at(3), 15.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool("p", 2, 2);
  Tensor in(Shape{1, 1, 2, 2});
  in.at(3) = 5.0f;  // max at the last position
  Tensor out, din;
  pool.forward(in, out);
  Tensor dout(out.shape());
  dout.fill(2.0f);
  pool.backward(in, dout, din);
  EXPECT_FLOAT_EQ(din.at(0), 0.0f);
  EXPECT_FLOAT_EQ(din.at(3), 2.0f);
}

TEST(MaxPool2d, GradientCheck) {
  // Use distinct input values so argmax is stable under the probe eps.
  MaxPool2d pool("p", 2, 2);
  Tensor in(Shape{1, 2, 4, 4});
  Rng rng(10);
  for (std::size_t i = 0; i < in.numel(); ++i) {
    in.at(i) = static_cast<float>(i) * 0.37f +
               static_cast<float>(rng.uniform()) * 0.01f;
  }
  check_layer_gradients(pool, in);
}

// The batch-parallel MaxPool must match this serial loop bit for bit:
// first strict maximum in tap order, so ties keep the first and NaN never
// wins (a window with nothing above -inf keeps offset 0 of its plane),
// and a backward that scatters each output gradient onto its argmax in
// output order.
void serial_maxpool(const Tensor& in, std::size_t k, std::size_t stride,
                    const Tensor& dout, Tensor& out, Tensor& din) {
  const std::size_t planes = in.shape().n() * in.shape().c();
  const std::size_t ih = in.shape().h(), iw = in.shape().w();
  const std::size_t oh = (ih - k) / stride + 1, ow = (iw - k) / stride + 1;
  out = Tensor(Shape{in.shape().n(), in.shape().c(), oh, ow});
  din = Tensor(in.shape());
  for (std::size_t p = 0; p < planes; ++p) {
    const float* src = in.data() + p * ih * iw;
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t arg = 0;
        for (std::size_t ky = 0; ky < k; ++ky) {
          for (std::size_t kx = 0; kx < k; ++kx) {
            const std::size_t idx = (y * stride + ky) * iw + x * stride + kx;
            if (src[idx] > best) {
              best = src[idx];
              arg = idx;
            }
          }
        }
        const std::size_t o = (p * oh + y) * ow + x;
        out.at(o) = best;
        din.at(p * ih * iw + arg) += dout.at(o);
      }
    }
  }
}

// Bitwise, so -0.0 differs from 0.0 and a NaN matches the same NaN.
void expect_same_bits(const Tensor& want, const Tensor& got,
                      const char* what) {
  ASSERT_EQ(want.shape(), got.shape()) << what;
  for (std::size_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(want.at(i)),
              std::bit_cast<std::uint32_t>(got.at(i)))
        << what << " element " << i << ": " << want.at(i) << " vs "
        << got.at(i);
  }
}

// Values drawn from a small set, so that windows hold ties, signed zeros,
// NaNs and -inf. Plane 0 is all NaN, so its pooling windows keep the
// initial -inf and offset 0.
Tensor tricky_input(const Shape& s, std::uint64_t seed) {
  const float values[] = {-1.0f, -0.0f, 0.0f, 0.5f, 0.5f, 2.0f,
                          std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::infinity()};
  Rng rng(seed);
  Tensor t(s);
  const std::size_t plane = s.h() * s.w();
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.at(i) = i < plane ? values[6] : values[rng.uniform_int(8)];
  }
  return t;
}

// One shape above the fan-out grain (the HEP conv1 activation at batch
// 16) and one below it.
const Shape kMemoryBoundShapes[] = {Shape{16, 64, 64, 64},
                                    Shape{2, 8, 32, 32}};

TEST(MaxPool2d, BatchParallelMatchesSerialLoop) {
  // 2/2 is the HEP pool; 3/2 overlaps windows, so one input element can
  // collect several output gradients.
  for (const auto& [k, stride] : {std::pair<std::size_t, std::size_t>{2, 2},
                                  std::pair<std::size_t, std::size_t>{3, 2}}) {
    for (const Shape& shape : kMemoryBoundShapes) {
      SCOPED_TRACE(::testing::Message() << shape << " k" << k << " s"
                                        << stride);
      MaxPool2d pool("p", k, stride);
      for (const bool tricky : {false, true}) {
        const Tensor in =
            tricky ? tricky_input(shape, 9) : random_input(shape, 5);
        const Tensor dout = random_input(pool.output_shape(shape), 6);
        Tensor want_out, want_din;
        serial_maxpool(in, k, stride, dout, want_out, want_din);
        Tensor out, din;
        pool.forward(in, out);
        pool.backward(in, dout, din);
        expect_same_bits(want_out, out, tricky ? "tricky forward" : "forward");
        expect_same_bits(want_din, din,
                         tricky ? "tricky backward" : "backward");
      }
    }
  }
}

TEST(GlobalAvgPool, AveragesPlanes) {
  GlobalAvgPool gap("g");
  Tensor in(Shape{1, 2, 2, 2});
  for (std::size_t i = 0; i < 4; ++i) in.at(i) = 4.0f;  // channel 0
  for (std::size_t i = 4; i < 8; ++i) {
    in.at(i) = static_cast<float>(i - 4);  // channel 1: 0..3
  }
  Tensor out;
  gap.forward(in, out);
  EXPECT_EQ(out.shape(), (Shape{1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(out.at(0), 4.0f);
  EXPECT_FLOAT_EQ(out.at(1), 1.5f);
}

TEST(GlobalAvgPool, GradientCheck) {
  GlobalAvgPool gap("g");
  Tensor in = random_input(Shape{2, 3, 4, 4});
  check_layer_gradients(gap, in);
}

// ----------------------------------------------------------- Activations
TEST(ReLU, ClampsNegatives) {
  ReLU relu("r");
  Tensor in(Shape{4});
  in.at(0) = -1.0f;
  in.at(1) = 2.0f;
  in.at(2) = 0.0f;
  in.at(3) = -0.5f;
  Tensor out;
  relu.forward(in, out);
  EXPECT_FLOAT_EQ(out.at(0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(1), 2.0f);
  EXPECT_FLOAT_EQ(out.at(2), 0.0f);
  EXPECT_FLOAT_EQ(out.at(3), 0.0f);
}

TEST(ReLU, GradientCheck) {
  ReLU relu("r");
  // Keep values away from the kink at 0.
  Tensor in(Shape{3, 7});
  Rng rng(12);
  for (std::size_t i = 0; i < in.numel(); ++i) {
    float v = rng.uniform(0.2f, 1.0f);
    if (rng.bernoulli(0.5)) v = -v;
    in.at(i) = v;
  }
  check_layer_gradients(relu, in);
}

TEST(ReLU, BatchParallelMatchesSerialLoop) {
  for (const Shape& shape : kMemoryBoundShapes) {
    SCOPED_TRACE(::testing::Message() << shape);
    ReLU relu("r");
    for (const bool tricky : {false, true}) {
      const Tensor in =
          tricky ? tricky_input(shape, 11) : random_input(shape, 7);
      const Tensor dout =
          tricky ? tricky_input(shape, 12) : random_input(shape, 8);
      Tensor want_out(shape), want_din(shape);
      for (std::size_t i = 0; i < in.numel(); ++i) {
        want_out.at(i) = in.at(i) > 0.0f ? in.at(i) : 0.0f;
        want_din.at(i) = in.at(i) > 0.0f ? dout.at(i) : 0.0f;
      }
      Tensor out, din;
      relu.forward(in, out);
      relu.backward(in, dout, din);
      expect_same_bits(want_out, out, tricky ? "tricky forward" : "forward");
      expect_same_bits(want_din, din, tricky ? "tricky backward" : "backward");
    }
  }
}

TEST(MemoryBoundLayers, BelowOneGrainSpawnNoTasks) {
  // The tiny hybrid-training net's activations stay inline.
  const Shape shape{2, 8, 32, 32};
  ASSERT_LE(shape.numel(), kMemoryBoundGrain);
  const Tensor in = random_input(shape);
  Tensor out, din, pooled, pool_din;
  ReLU relu("r");
  MaxPool2d pool("p", 2, 2);
  const std::uint64_t before = TaskScheduler::global().stats().spawned;
  relu.forward(in, out);
  relu.backward(in, in, din);
  pool.forward(in, pooled);
  pool.backward(in, pooled, pool_din);
  EXPECT_EQ(TaskScheduler::global().stats().spawned, before);
}

TEST(Sigmoid, KnownValues) {
  Sigmoid s("s");
  Tensor in(Shape{2});
  in.at(0) = 0.0f;
  in.at(1) = 100.0f;
  Tensor out;
  s.forward(in, out);
  EXPECT_FLOAT_EQ(out.at(0), 0.5f);
  EXPECT_NEAR(out.at(1), 1.0f, 1e-6f);
}

TEST(Sigmoid, GradientCheck) {
  Sigmoid s("s");
  Tensor in = random_input(Shape{4, 5});
  check_layer_gradients(s, in);
}

TEST(Tanh, GradientCheck) {
  Tanh t("t");
  Tensor in = random_input(Shape{4, 5});
  check_layer_gradients(t, in);
}

// ----------------------------------------------------------------- Dense
TEST(Dense, OutputShapeFlattens4d) {
  Rng rng(13);
  Dense fc("f", 2 * 3 * 3, 5, rng);
  EXPECT_EQ(fc.output_shape(Shape{4, 2, 3, 3}), (Shape{4, 5}));
}

TEST(Dense, RejectsWrongFeatureCount) {
  Rng rng(13);
  Dense fc("f", 10, 5, rng);
  PF15_EXPECT_CHECK_FAIL(fc.output_shape(Shape{2, 11}), "not flattenable");
}

TEST(Dense, LinearityInInput) {
  Rng rng(13);
  Dense fc("f", 6, 4, rng);
  Tensor a = random_input(Shape{2, 6}, 1);
  Tensor a2 = a.clone();
  a2.scale(2.0f);
  Tensor out1, out2;
  fc.forward(a, out1);
  fc.forward(a2, out2);
  // out2 - bias = 2 * (out1 - bias)  =>  out2 = 2*out1 - bias.
  std::vector<float> bias(4);
  for (std::size_t j = 0; j < 4; ++j) {
    bias[j] = fc.params()[1].value->at(j);
  }
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(out2.at(b * 4 + j), 2.0f * out1.at(b * 4 + j) - bias[j],
                  1e-4f);
    }
  }
}

TEST(Dense, GradientCheck) {
  Rng rng(14);
  Dense fc("f", 8, 3, rng);
  Tensor in = random_input(Shape{4, 8});
  check_layer_gradients(fc, in);
}

TEST(Dense, GradientCheck4dInput) {
  Rng rng(14);
  Dense fc("f", 12, 2, rng);
  Tensor in = random_input(Shape{3, 3, 2, 2});
  check_layer_gradients(fc, in);
}

// ------------------------------------------------------------ FLOP counts
TEST(LayerFlops, ConvFormula) {
  Rng rng(15);
  Conv2d conv("c", {3, 128, 3, 1, 1, false}, rng);
  const Shape in{1, 3, 224, 224};
  // 2 * OC * OHOW * IC*KH*KW = 2 * 128 * 50176 * 27.
  EXPECT_EQ(conv.forward_flops(in), 2ull * 128 * 50176 * 27);
  // Backward: two GEMMs of the same volume.
  EXPECT_EQ(conv.backward_flops(in), 2ull * conv.forward_flops(in));
}

TEST(LayerFlops, DenseFormula) {
  Rng rng(15);
  Dense fc("f", 128, 2, rng);
  const Shape in{8, 128};
  EXPECT_EQ(fc.forward_flops(in), 2ull * 8 * 2 * 128 + 8 * 2);
}

TEST(LayerFlops, BatchScalesLinearly) {
  Rng rng(15);
  Conv2d conv("c", {4, 8, 3, 1, 1, true}, rng);
  const auto f1 = conv.forward_flops(Shape{1, 4, 16, 16});
  const auto f4 = conv.forward_flops(Shape{4, 4, 16, 16});
  EXPECT_EQ(f4, 4 * f1);
}

}  // namespace
}  // namespace pf15::nn
