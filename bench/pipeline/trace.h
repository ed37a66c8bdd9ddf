// Tracing for lfsc_bench's traced runs. Spans are recorded from the
// benchmark's side of each layer boundary: the decorators below wrap
// the SlotSource and the Policy a SlotStepper drives, forward every
// call unchanged, and time it. The Alg. 2/4/3 phases inside a policy
// call become child spans built from the per-call deltas of the
// policy's existing phase timers. Nothing under src/ changes, and a
// decorated run stays bit-identical to a bare one (test_pipeline_bench
// compares their capture()).
//
// Spans stay in memory and are written as JSONL when the run ends, one
// object per line: {"trace": t, "name", "start_ns", "end_ns", "parent"}.
// `parent` is the line index (0-based) of the enclosing span, -1 for a
// root. Self time of a span is its duration minus its children's.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/policy.h"
#include "sim/slot_source.h"
#include "stats.h"
#include "telemetry/telemetry.h"

namespace lfsc::bench {

struct Span {
  int trace = 0;              ///< the slot t the span belongs to
  const char* name = "";      ///< "<layer>.<what>", static storage
  std::int64_t start_ns = 0;  ///< steady clock, relative to the tracer epoch
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 = root
};

/// Span store plus the per-layer samples a traced run reports. Not
/// thread-safe: every layer call the benchmark times runs on the thread
/// that drives the stepper (a city slot's pool work stays inside the
/// policy call that dispatches it).
class Tracer {
 public:
  Tracer();

  std::int64_t now_ns() const;

  /// While off, decorators forward without recording (warm-up slots).
  void set_recording(bool on) noexcept { recording_ = on; }
  bool recording() const noexcept { return recording_; }

  /// Spans opened from now on belong to slot `t`.
  void set_trace(int t) noexcept { trace_ = t; }

  /// Opens a span as a child of the innermost open span.
  std::int32_t open(const char* name);
  /// Closes span `id` (the innermost open one); returns its length in us.
  double close(std::int32_t id);
  /// Records a finished span under an explicit parent.
  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Named per-layer samples ("lfsc.select_us", "sim.tasks_per_slot").
  Samples& samples(const std::string& name) { return samples_[name]; }

  /// Self time in ns of every span, aligned with spans().
  std::vector<std::int64_t> self_ns() const;

  /// Adds the self time (us) of every span called `span_name` to the
  /// samples `sample_name`.
  void sample_self_time(const char* span_name, const std::string& sample_name);

  /// Self time per layer (the name up to its first '.') summed over the
  /// spans under roots called `root`, as shares of those roots' total
  /// duration, largest first.
  std::vector<std::pair<std::string, double>> layer_shares(
      std::string_view root) const;

  void write_jsonl(std::ostream& out) const;

 private:
  std::int64_t epoch_ns_ = 0;
  bool recording_ = true;
  int trace_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::map<std::string, Samples> samples_;
};

/// The LfscPolicy phase timers (lfsc.select, lfsc.observe and the
/// Alg. 2/4/3 phases inside them). Their per-call deltas become spans,
/// laid end to end from the parent span's start, and samples
/// "<span name>_us".
class PhaseTimers {
 public:
  /// `registry` is LfscPolicy::telemetry(); null records nothing.
  explicit PhaseTimers(telemetry::Registry* registry);

  /// Running totals in seconds: select, observe, alg2, alg4, alg3.
  using Totals = std::array<double, 5>;
  Totals totals() const;

  /// Adds a span under `parent` for every Alg. 2/4/3 phase that advanced
  /// since `before`. With `with_calls` the select/observe calls get spans
  /// of their own and the phases nest under them — for callers that see
  /// the policy only through another layer (the serve controller).
  void add_spans(Tracer& tracer, std::int32_t parent, const Totals& before,
                 bool with_calls) const;

 private:
  std::array<const telemetry::Timer*, 5> timers_{};
};

/// Times SlotSource::generate_slot as span "sim.generate" and samples
/// the slot's task and edge counts.
class TracedSource final : public SlotSource {
 public:
  TracedSource(SlotSource& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  Slot generate_slot(int t) override { return inner_.generate_slot(t); }
  void generate_slot(int t, Slot& out) override;
  const NetworkConfig& network() const noexcept override {
    return inner_.network();
  }
  void save_state(std::string& out) const override { inner_.save_state(out); }
  bool replay_fast_forward() const noexcept override {
    return inner_.replay_fast_forward();
  }
  void load_state(std::string_view blob) override { inner_.load_state(blob); }

 private:
  SlotSource& inner_;
  Tracer& tracer_;
};

/// Times Policy::select / observe / observe_delayed as "lfsc.*" spans,
/// with the Alg. 2/4 and Alg. 3 phases as children.
class TracedPolicy final : public Policy {
 public:
  TracedPolicy(Policy& inner, Tracer& tracer,
               telemetry::Registry* phase_timers)
      : inner_(inner), tracer_(tracer), phases_(phase_timers) {}

  std::string_view name() const noexcept override { return inner_.name(); }
  Assignment select(const SlotInfo& info) override;
  void select(const SlotInfo& info, Assignment& out) override;
  void observe(const SlotInfo& info, const Assignment& assignment,
               const SlotFeedback& feedback) override;
  bool needs_realizations() const noexcept override {
    return inner_.needs_realizations();
  }
  Assignment select_omniscient(const Slot& slot) override {
    return inner_.select_omniscient(slot);
  }
  void reset() override { inner_.reset(); }
  bool set_slot_budget(std::uint32_t budget_us) override {
    return inner_.set_slot_budget(budget_us);
  }
  bool enable_delayed_feedback(int max_delay) override {
    return inner_.enable_delayed_feedback(max_delay);
  }
  void observe_delayed(int origin_t, const SlotFeedback& feedback) override;
  bool supports_checkpoint() const noexcept override {
    return inner_.supports_checkpoint();
  }
  void save_checkpoint(std::string& out) const override {
    inner_.save_checkpoint(out);
  }
  void load_checkpoint(std::string_view blob) override {
    inner_.load_checkpoint(blob);
  }

 private:
  Policy& inner_;
  Tracer& tracer_;
  PhaseTimers phases_;
};

}  // namespace lfsc::bench
