// lfsc_bench's own tests: the trace decorators must not change the run
// they observe, and the statistics behind every reported percentile.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "harness/checkpoint.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace lfsc::bench {
namespace {

/// Zeroes what measures wall time — timer metrics and their sampled
/// columns — so two captures of the same trajectory serialize alike.
void mask_timers(CheckpointState& state) {
  for (auto& metric : state.metrics) {
    if (metric.kind != telemetry::Kind::kTimer) continue;
    metric.value = metric.sum = metric.min = metric.max = 0.0;
    for (double& v : metric.stream_values) v = 0.0;
    auto& series = state.telemetry_series;
    for (std::size_t c = 0; c < series.names.size(); ++c) {
      if (series.names[c] != metric.name) continue;
      for (auto& row : series.rows) row[c] = 0.0;
    }
  }
}

/// Bytes of `state` as write_checkpoint_file stores it.
std::string serialized(CheckpointState state, const std::string& path) {
  mask_timers(state);
  write_checkpoint_file(path, state);
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class DecoratorIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(DecoratorIdentity, DecoratedRunCapturesTheSameBytes) {
  constexpr int kSlots = 200;
  Tracer tracer;
  auto bare = make_world(GetParam(), 7, nullptr);
  auto traced = make_world(GetParam(), 7, &tracer);
  for (int t = 0; t < kSlots; ++t) {
    bare->stepper->step();
    traced->stepper->step();
  }
  // The decorators really sat in the path.
  EXPECT_EQ(tracer.samples("sim.generate_us").size(), std::size_t{kSlots});
  EXPECT_EQ(tracer.samples("lfsc.select_us").size(), std::size_t{kSlots});
  EXPECT_EQ(tracer.samples("lfsc.observe_us").size(), std::size_t{kSlots});

  CheckpointState want;
  CheckpointState got;
  bare->stepper->capture(want);
  traced->stepper->capture(got);
  const std::string dir = "decorator_identity_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string want_bytes = serialized(want, dir + "/bare.ckpt");
  const std::string got_bytes = serialized(got, dir + "/traced.ckpt");
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(want_bytes.empty());
  EXPECT_TRUE(want_bytes == got_bytes)
      << GetParam() << ": decorated capture() differs from the bare one";
}

INSTANTIATE_TEST_SUITE_P(Workloads, DecoratorIdentity,
                         ::testing::Values("paper", "flash_churn"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

TEST(Percentile, NearestRank) {
  Samples s;
  for (int v = 100; v >= 1; --v) s.add(v);  // unsorted on purpose
  EXPECT_EQ(s.percentile(0.5), 50.0);
  EXPECT_EQ(s.percentile(0.9), 90.0);
  EXPECT_EQ(s.percentile(0.99), 99.0);
  EXPECT_EQ(s.percentile(1.0), 100.0);
  EXPECT_EQ(s.percentile(0.001), 1.0);
  s.add(1000.0);  // re-sorts after a late sample
  EXPECT_EQ(s.percentile(1.0), 1000.0);
  EXPECT_EQ(Samples{}.percentile(0.5), 0.0);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(99, 0.9), 9u);
  EXPECT_EQ(samples_beyond(35000, 0.999), 35u);
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(tail_quantile(27000, {0.99, 0.95, 0.90}), 0.99);
  EXPECT_EQ(tail_quantile(1000, {0.99, 0.95, 0.90}), 0.99);
  EXPECT_EQ(tail_quantile(999, {0.99, 0.95, 0.90}), 0.95);
  EXPECT_EQ(tail_quantile(500, {0.99, 0.95, 0.90}), 0.95);
  EXPECT_EQ(tail_quantile(100, {0.99, 0.95, 0.90}), 0.90);
  // Too few for any candidate: the lowest one, never a fabricated tail.
  EXPECT_EQ(tail_quantile(20, {0.99, 0.95, 0.90}), 0.90);
}

TEST(Throughput, MedianChunkRateIgnoresOneSlowChunk) {
  // Ten events per second, except that the host stalls one chunk to a
  // third of that rate: the median chunk still reads 10 events/s.
  std::vector<double> ends;
  double t = 0.0;
  for (int i = 0; i < 100; ++i) {
    t += (i >= 40 && i < 50) ? 0.3 : 0.1;
    ends.push_back(t);
  }
  EXPECT_NEAR(median_chunk_rate(0.0, ends, 10), 10.0, 1e-9);
  EXPECT_NEAR(median_chunk_rate(0.0, {0.5}, 10), 2.0, 1e-9);
  EXPECT_EQ(median_chunk_rate(0.0, {}, 10), 0.0);
}

TEST(Tracer, SelfTimeSubtractsChildren) {
  Tracer tracer;
  const auto root = tracer.add("slot", 0, 100, -1);
  const auto step = tracer.add("harness.step", 0, 90, root);
  tracer.add("sim.generate", 10, 40, step);
  tracer.add("lfsc.select", 40, 70, step);
  const auto self = tracer.self_ns();
  EXPECT_EQ(self[0], 10);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 30);
  const auto shares = tracer.layer_shares("slot");
  ASSERT_EQ(shares.size(), 4u);
  double total = 0.0;
  for (const auto& [layer, share] : shares) total += share;
  EXPECT_DOUBLE_EQ(total, 1.0);
  EXPECT_DOUBLE_EQ(shares.back().second, 0.1);  // the slot's own 10 ns
}

}  // namespace
}  // namespace lfsc::bench
