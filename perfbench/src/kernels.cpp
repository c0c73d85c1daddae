// perfbench — isolated kernel timings for the traced run: the bitpack
// primitives the model workloads spend their time in, and one near-empty
// kernel launch on the device pool. They separate SIMD and input-repack
// changes from model-level noise.
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "bitpack/binary_ops.hpp"
#include "bitpack/pack.hpp"
#include "common/rng.hpp"
#include "datasets/synthetic.hpp"

namespace perfbench {

using namespace phonebit;

namespace {

/// Median wall ms of `reps` calls of fn, after one warm-up call.
double median_ms(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(ms_since(t0));
  }
  return median(t);
}

std::vector<std::uint64_t> random_words(Rng& rng, std::int64_t n) {
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  for (std::uint64_t& w : v) w = rng();
  return v;
}

}  // namespace

void kernel_suite(Report& report) {
  Rng rng(7);
  volatile std::int64_t sink = 0;

  const U8Tensor image = datasets::random_image(Shape{1, 416, 416, 3}, 7);
  report.metric("bitpack.split_bit_planes.host_ms", median_ms(20, [&] {
                  sink = sink + bitpack::split_bit_planes(image)[0].data()[0];
                }),
                "ms");

  // One tracked 3x3/c256 conv as a bit-GEMM: 26x26 im2col rows of
  // 9*256 bits against 256 filters, in 4-row x 8-filter register tiles.
  constexpr std::int64_t kRows = 26 * 26, kWords = 9 * 256 / 64,
                         kFilters = 256;
  const std::vector<std::uint64_t> a = random_words(rng, kRows * kWords);
  const std::vector<std::uint64_t> b = random_words(rng, kFilters * kWords);
  report.metric("bitpack.xor_popcount_gemm_x8.host_ms", median_ms(20, [&] {
                  std::int64_t out[bitpack::kGemmMr * 8];
                  std::int64_t total = 0;
                  for (std::int64_t f = 0; f < kFilters; f += 8) {
                    for (std::int64_t r = 0; r < kRows; r += bitpack::kGemmMr) {
                      const std::int64_t rows =
                          std::min<std::int64_t>(bitpack::kGemmMr, kRows - r);
                      bitpack::xor_popcount_gemm_x8(
                          a.data() + r * kWords, kWords, b.data() + f * kWords,
                          kWords, kWords, rows, out);
                      total += out[0];
                    }
                  }
                  sink = sink + total;
                }),
                "ms");

  FloatTensor activations(Shape{1, 26, 26, 256}, Layout::kNHWC);
  activations.fill_random(rng);
  report.metric("bitpack.pack_signs.host_ms", median_ms(20, [&] {
                  sink = sink + static_cast<std::int64_t>(
                                    bitpack::pack_signs(activations).data()[0]);
                }),
                "ms");

  // A 64-item kernel with an empty body: large enough to be split across
  // the pool, so the time is the dispatch itself.
  oclsim::Device device(oclsim::DeviceProfile::snapdragon855());
  oclsim::CommandQueue queue(device, oclsim::ExecUnit::kGpu);
  std::vector<double> launch_us;
  for (int i = 0; i < 2000; ++i) {
    if (i % 500 == 0) queue.reset_events();
    const Clock::time_point t0 = Clock::now();
    queue.enqueue_chunked("nop", oclsim::NDRange{64}, oclsim::KernelCost{},
                          [](std::int64_t, std::int64_t) {});
    launch_us.push_back(ms_since(t0) * 1000.0);
  }
  report.metric("oclsim.launch_us", median(launch_us), "us");
  (void)sink;
}

}  // namespace perfbench
