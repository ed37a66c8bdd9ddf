// The lfsc_bench workloads. paper, city and flash_churn drive the real
// SlotStepper in process; serve_wire drives tools/lfsc_serve over its
// Unix socket (wire.cpp). README.md says why each workload exists.
//
// A run measures a fixed number of slots (the workload's nominal rate
// times --seconds, so both sides of an A/B comparison do the same work),
// times set-up several times along the way, checks the outputs, and
// reports the end-to-end metrics BENCHMARK.json declares. A traced run steps a bare and a decorated world (trace.h)
// through the same slots in alternating chunks and reports the
// per-layer metrics.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "faults/fault_model.h"
#include "harness/step_runner.h"
#include "lfsc/lfsc_policy.h"
#include "serve/serve.h"
#include "sim/admission.h"
#include "trace.h"

namespace lfsc::bench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< slots stepped, or lines sent on the wire
  std::uint64_t failed = 0;     ///< exceptions, or err/missing replies
  std::vector<Metric> metrics;  ///< end-to-end, or per-layer when traced
  std::vector<std::string> report;  ///< human-readable context lines
  std::vector<std::string> errors;  ///< failed correctness checks

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

struct RunOptions {
  std::uint64_t seed = 1;  ///< world seed; everything else is pinned
  int seconds = 15;        ///< run length, via each workload's nominal rate
  bool smoke = false;      ///< tiny sizes, for the smoke test
  Tracer* tracer = nullptr;  ///< non-null: a traced run
  std::string workdir = ".bench_tmp";  ///< checkpoints and the socket
};

/// paper, city, flash_churn, serve_wire — BENCHMARK.json's order.
std::span<const std::string_view> workload_names();

/// Runs one workload. Throws std::invalid_argument on an unknown name.
Result run_workload(std::string_view name, const RunOptions& opt);

// --- building blocks, shared with wire.cpp and the tests ---

/// One in-process workload's objects, wired as the benchmark runs them;
/// with a tracer the stepper drives the trace.h decorators instead of
/// the bare source and policy.
struct World {
  std::unique_ptr<ThreadPool> pool;  ///< city only
  std::unique_ptr<SlotSource> source;
  std::unique_ptr<LfscPolicy> policy;
  std::unique_ptr<AdmissionControl> admission;  ///< flash_churn only
  std::unique_ptr<FaultModel> faults;           ///< flash_churn only
  std::unique_ptr<TracedSource> traced_source;
  std::unique_ptr<TracedPolicy> traced_policy;
  std::array<Policy*, 1> roster{};
  std::unique_ptr<SlotStepper> stepper;
  int checkpoint_every = 0;  ///< slots between checkpoint writes
};

/// Builds `workload`'s world (paper, city or flash_churn) for `seed`.
std::unique_ptr<World> make_world(std::string_view workload,
                                  std::uint64_t seed, Tracer* tracer);

/// A slot rendered as protocol lines — one `task` line per covered task
/// (%.17g fields, as lfsc_soak --serve sends them), then `tick` — in
/// one newline-terminated buffer.
struct RenderedSlot {
  std::string bytes;
  std::vector<std::uint32_t> line_end;  ///< offset one past each '\n'
  int tasks = 0;                        ///< task lines before the tick
};
void render_slot(const Slot& slot, RenderedSlot& out);

/// The service configuration that serves `workload`'s world; lfsc_serve
/// started with `--seed <seed>` and default flags matches serve_wire's.
serve::ServeConfig serve_config(std::string_view workload, std::uint64_t seed);

/// Feeds rendered slots through an in-process ServeController, checking
/// every reply into `result`; each slot also sends one `stats` and one
/// `telemetry` request. With a tracer every call is timed (serve.* spans
/// and samples, and lfsc.* ones built from the policy's phase timers when
/// `policy_spans`).
class Replay {
 public:
  Replay(const serve::ServeConfig& config, Tracer* tracer, bool policy_spans,
         Result& result);

  /// Replays slots [first, last) of `slots`; slot t is slots[t - 1].
  void run(const std::vector<RenderedSlot>& slots, std::size_t first,
           std::size_t last);

  /// The controller's stats line.
  std::string stats();

  /// Times `count` checkpoint commands (traced replays only; the config
  /// must carry `prefix` as its checkpoint_prefix).
  void checkpoints(const std::string& prefix, int count);

 private:
  std::string call(std::string_view line, const char* span);
  std::string task(std::string_view line);
  void fail(const std::string& what);

  serve::ServeController controller_;
  Tracer* tracer_;
  PhaseTimers phases_;
  bool policy_spans_;
  Samples* task_us_;
  Result& result_;
};

/// serve_wire: lfsc_serve over its socket, then the in-process replay.
Result run_serve_wire(const RunOptions& opt);  // wire.cpp

/// What every workload measures, whatever it drives.
struct Measured {
  Samples setup_s;           ///< one sample per timed start-up
  double slots_per_s = 0.0;  ///< median rate of kRateChunks chunks
  Samples slot_us;           ///< latency of each timed slot
  double peak_rss_mb = 0.0;
  double reward = 0.0;  ///< totals over every slot the learner ran
  double violation = 0.0;
  int slots = 0;  ///< every slot the learner ran
};

/// Chunks a timed pass is cut into; slots_per_s is their median rate.
inline constexpr std::size_t kRateChunks = 10;

/// Chunk pairs of a traced run's overhead A/B (ab_overhead_pct).
inline constexpr std::size_t kOverheadChunks = 20;

/// The end-to-end metrics BENCHMARK.json declares.
void add_end_to_end(Result& result, Measured& measured);

/// The per-layer metrics BENCHMARK.json declares, from a traced run's
/// samples and the untraced pass it repeated; every workload reports
/// the same list.
void add_layer_metrics(Result& result, Tracer& tracer, Measured& measured,
                       double overhead_pct, double imbalance);

/// Appends a line naming the slot count and the percentile slot_tail_us
/// reports, with its sample count beyond.
void describe_slots(Result& result, const std::string& what,
                    Measured& measured);

/// Appends each layer's self-time share of the `root` spans to the report.
void report_shares(Result& result, std::string_view root,
                   const std::vector<std::pair<std::string, double>>& shares);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// Wall seconds since an arbitrary epoch (steady clock).
double now_s();

/// `v` to six significant digits, for report lines.
std::string fmt_g(double v);

/// Tracing overhead as a matched-window A/B: `count` items are cut into
/// `chunks` runs, and each run goes once through the bare side and once
/// through the traced side, alternating which goes first, so host drift
/// cancels out. `run(traced, first, last)` handles items [first, last)
/// on one side. Returns the median traced/bare time ratio less one, in %.
template <typename Run>
double ab_overhead_pct(std::size_t count, std::size_t chunks, Run&& run) {
  Samples ratio;
  const std::size_t chunk = std::max<std::size_t>(1, count / chunks);
  for (std::size_t first = 0, k = 0; first < count; first += chunk, ++k) {
    const std::size_t last = std::min(count, first + chunk);
    double seconds[2] = {0.0, 0.0};
    for (std::size_t side = 0; side < 2; ++side) {
      const bool traced = (side + k) % 2 == 1;
      const double t0 = now_s();
      run(traced, first, last);
      seconds[traced ? 1 : 0] = now_s() - t0;
    }
    ratio.add(seconds[1] / seconds[0]);
  }
  return (ratio.median() - 1.0) * 100.0;
}

}  // namespace lfsc::bench
