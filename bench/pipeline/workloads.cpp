#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "harness/checkpoint.h"
#include "harness/paper_setup.h"
#include "scenario/scenario_source.h"
#include "scenario/scenario_spec.h"

namespace lfsc::bench {

namespace {

constexpr std::string_view kWorkloads[] = {"paper", "city", "flash_churn",
                                           "serve_wire"};

/// The in-process workloads. Nominal rates are timed slots per second of
/// --seconds on the 4-core reference host (README.md), so the default
/// run measures about --seconds of work there; the count, not the clock,
/// fixes the run length.
struct InProcessSpec {
  std::string_view name;
  int scns;
  bool parallel;  ///< parallel_scns on a 4-worker pool, shards auto
  bool flash;     ///< scenario + admission + faults + checkpoints
  int warmup;
  double nominal_rate;
  int replay_slots;  ///< slots a traced run replays through the serve layer
  int smoke_slots;
};

constexpr InProcessSpec kInProcess[] = {
    {"paper", 30, false, false, 200, 2700.0, 200, 20},
    {"city", 2000, true, false, 5, 10.0, 2, 2},
    // 600 smoke slots still cross one checkpoint and the delay window.
    {"flash_churn", 30, false, true, 200, 2000.0, 200, 600},
};

const InProcessSpec* find_in_process(std::string_view name) {
  for (const auto& spec : kInProcess) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

constexpr int kSetupsPerChunk = 5;  ///< untraced: setup_s takes 50 samples
constexpr int kExtraCheckpoints = 5;  ///< paper/city: timed after the pass
constexpr int kCheckpointEvery = 500;  ///< flash_churn
constexpr int kTelemetryInterval = 100;  ///< lfsc_serve's default stride

PaperSetup world_setup(const InProcessSpec& spec, std::uint64_t seed) {
  PaperSetup setup;
  setup.set_num_scns(spec.scns);
  setup.set_seed(seed);
  setup.lfsc.parallel_scns = spec.parallel;
  return setup;
}

ScenarioSpec flash_spec(std::uint64_t seed) {
  ScenarioSpec spec =
      parse_scenario_file(LFSC_PIPELINE_DIR "/flash_churn.scn");
  spec.seed = seed;
  return spec;
}

std::unique_ptr<SlotSource> make_source(const InProcessSpec& spec,
                                        std::uint64_t seed) {
  if (spec.flash) return std::make_unique<ScenarioSource>(flash_spec(seed));
  const PaperSetup setup = world_setup(spec, seed);
  return std::make_unique<Simulator>(
      setup.net, setup.env, std::make_unique<AbstractCoverage>(setup.coverage));
}

std::string pct_name(double q) {
  // 0.99 -> "p99", 0.999 -> "p999", 0.5 -> "p50".
  char buf[16];
  std::snprintf(buf, sizeof buf, "%g", q * 100.0);
  std::string digits;
  for (const char* c = buf; *c != '\0'; ++c) {
    if (*c != '.') digits.push_back(*c);
  }
  return "p" + digits;
}

/// Captures `stepper` and writes it to `path` (tmp + fsync + rename)
/// the way a periodic checkpoint does; returns the file size.
std::uint64_t take_checkpoint(SlotStepper& stepper, const std::string& path,
                              Tracer* tracer, Samples* us) {
  const double t0 = now_s();
  const std::int32_t span = tracer ? tracer->open("checkpoint") : -1;
  stepper.note_checkpoint_write();
  CheckpointState state;
  std::int32_t part = tracer ? tracer->open("checkpoint.capture") : -1;
  stepper.capture(state);
  if (tracer) tracer->close(part);
  part = tracer ? tracer->open("checkpoint.write") : -1;
  write_checkpoint_file(path, state);
  if (tracer) {
    tracer->close(part);
    tracer->close(span);
  }
  if (us != nullptr) us->add((now_s() - t0) * 1e6);
  return std::filesystem::file_size(path);
}

/// One world's timed slots, accumulated over run_slots() calls.
struct Pass {
  explicit Pass(std::string path) : checkpoint_path(std::move(path)) {}

  std::string checkpoint_path;
  Measured measured;  ///< slot_us: step plus any checkpoint taken after it
  Samples checkpoint_us;
  std::uint64_t checkpoint_bytes = 0;
};

void warm_up(World& world, int slots, Tracer* tracer) {
  if (tracer) tracer->set_recording(false);
  for (int i = 0; i < slots; ++i) world.stepper->step();
  if (tracer) tracer->set_recording(true);
}

/// Steps `count` timed slots. With a tracer every slot is a "slot" span
/// around a "harness.step" span (and its checkpoint, if one is due).
void run_slots(World& world, int count, Tracer* tracer, Pass& pass) {
  for (int i = 0; i < count; ++i) {
    const int t = world.stepper->completed_slots() + 1;
    std::int32_t slot_span = -1;
    std::int32_t step_span = -1;
    if (tracer) {
      tracer->set_trace(t);
      slot_span = tracer->open("slot");
      step_span = tracer->open("harness.step");
    }
    const double t0 = now_s();
    world.stepper->step();
    if (tracer) tracer->close(step_span);
    if (world.checkpoint_every > 0 && t % world.checkpoint_every == 0) {
      pass.checkpoint_bytes = take_checkpoint(
          *world.stepper, pass.checkpoint_path, tracer, &pass.checkpoint_us);
    }
    pass.measured.slot_us.add((now_s() - t0) * 1e6);
    if (tracer) tracer->close(slot_span);
  }
}

/// The learner's totals, and the outcome checks every run makes.
void finish(const std::string& name, const World& world, Pass& pass,
            Result& r) {
  Measured& m = pass.measured;
  const SeriesRecorder& series = world.stepper->series()[0];
  m.reward = series.total_reward();
  m.violation =
      series.total_qos_violation() + series.total_resource_violation();
  m.slots = world.stepper->completed_slots();
  r.check(std::isfinite(m.reward) && m.reward > 0.0,
          name + ": no finite positive reward");
  if (world.admission) {
    const AdmissionControl& adm = *world.admission;
    r.check(adm.offered() == adm.admitted() + adm.total_shed(),
            name + ": admission offered != admitted + shed");
  }
  std::filesystem::remove(pass.checkpoint_path);
}

void report_pass(Result& r, const std::string& what, const World& world,
                 Pass& pass) {
  describe_slots(r, what, pass.measured);
  if (world.admission) {
    const AdmissionControl& adm = *world.admission;
    r.report.push_back("admission: offered " + std::to_string(adm.offered()) +
                       ", admitted " + std::to_string(adm.admitted()) +
                       ", shed " + std::to_string(adm.total_shed()) +
                       " in " + std::to_string(adm.saturated_slots()) +
                       " saturated slots");
  }
  if (pass.checkpoint_us.size() > 0) {
    r.report.push_back("checkpoints: " +
                       std::to_string(pass.checkpoint_us.size()) + ", last " +
                       std::to_string(pass.checkpoint_bytes) + " B, p50 " +
                       fmt_g(pass.checkpoint_us.median()) + " us");
  }
}

/// max/mean of the per-shard busy time added to lfsc.shard.busy since
/// `before`.
double shard_imbalance(const telemetry::Timer& busy,
                       const std::vector<double>& before) {
  double max = 0.0;
  double sum = 0.0;
  for (std::size_t s = 0; s < before.size(); ++s) {
    const double d = busy.stream_total(s) - before[s];
    max = std::max(max, d);
    sum += d;
  }
  const double mean = before.empty() ? 0.0 : sum / double(before.size());
  return mean > 0.0 ? max / mean : 1.0;
}

std::vector<double> shard_totals(const telemetry::Timer& busy) {
  std::vector<double> out(busy.streams());
  for (std::size_t s = 0; s < out.size(); ++s) out[s] = busy.stream_total(s);
  return out;
}

/// Untraced: the timed slots in kRateChunks chunks, with kSetupsPerChunk
/// timed set-ups before each. A set-up lasts tens of microseconds at
/// paper scale and its speed follows the host's load: on a shared 4-core
/// host, set-ups timed all at once at start-up gave per-run medians that
/// spread by 30-45%, and set-ups spread between the chunks by about 3%. Each set-up world lives beside the running
/// one while it is built, so peak_rss_mb counts one of them.
void run_untraced(const InProcessSpec& spec, const RunOptions& opt,
                  int warmup, int slots, const std::string& ckpt_path,
                  Result& r) {
  const std::string name(spec.name);
  Samples setup;
  const auto time_setups = [&] {
    for (int rep = 0; rep < (opt.smoke ? 1 : kSetupsPerChunk); ++rep) {
      // Construction until the first slot can be stepped; the world is
      // destroyed outside the timed region.
      const double t0 = now_s();
      const auto fresh = make_world(spec.name, opt.seed, nullptr);
      setup.add(now_s() - t0);
    }
  };
  auto world = make_world(spec.name, opt.seed, nullptr);
  warm_up(*world, warmup, nullptr);
  Pass pass(ckpt_path);
  Samples rates;
  const int chunks = std::min(static_cast<int>(kRateChunks), slots);
  for (int c = 0; c < chunks; ++c) {
    time_setups();
    const int count = (c + 1) * slots / chunks - c * slots / chunks;
    const double t0 = now_s();
    run_slots(*world, count, nullptr, pass);
    rates.add(count / (now_s() - t0));
  }
  finish(name, *world, pass, r);
  Measured& m = pass.measured;
  m.slots_per_s = rates.median();
  m.setup_s = std::move(setup);
  m.peak_rss_mb = peak_rss_mb();
  report_pass(r,
              name + ": " + std::to_string(warmup) + " warm-up + " +
                  std::to_string(slots) + " timed slots, seed " +
                  std::to_string(opt.seed),
              *world, pass);
  add_end_to_end(r, m);
}

/// Traced: a bare and a decorated world step the same slots in
/// alternating chunks (a matched-window A/B, so host drift cancels out
/// of the tracing overhead), then the serve layer replays this
/// workload's traffic.
void run_traced(const InProcessSpec& spec, const RunOptions& opt, int warmup,
                int slots, const std::string& ckpt_path, Result& r) {
  const std::string name(spec.name);
  Tracer& tracer = *opt.tracer;
  auto bare_world = make_world(spec.name, opt.seed, nullptr);
  auto traced_world = make_world(spec.name, opt.seed, &tracer);
  warm_up(*bare_world, warmup, nullptr);
  warm_up(*traced_world, warmup, &tracer);
  telemetry::Timer& busy =
      traced_world->policy->telemetry().timer("lfsc.shard.busy");
  const std::vector<double> busy_before = shard_totals(busy);

  Pass bare(ckpt_path + ".bare");
  Pass traced(ckpt_path + ".traced");
  const double overhead_pct = ab_overhead_pct(
      static_cast<std::size_t>(slots), kOverheadChunks,
      [&](bool traced_side, std::size_t first, std::size_t last) {
        const int n = static_cast<int>(last - first);
        if (traced_side) {
          run_slots(*traced_world, n, &tracer, traced);
        } else {
          run_slots(*bare_world, n, nullptr, bare);
        }
      });
  finish(name, *bare_world, bare, r);
  finish(name, *traced_world, traced, r);
  r.check(std::memcmp(&traced.measured.reward, &bare.measured.reward,
                      sizeof(double)) == 0 &&
              std::memcmp(&traced.measured.violation, &bare.measured.violation,
                          sizeof(double)) == 0,
          name + ": traced reward/violation differ from the untraced run");
  report_pass(r,
              name + " (untraced side): " + std::to_string(warmup) +
                  " warm-up + " + std::to_string(slots) +
                  " timed slots, seed " + std::to_string(opt.seed),
              *bare_world, bare);

  const double imbalance = shard_imbalance(busy, busy_before);
  Samples& ckpt_us = tracer.samples("checkpoint.us");
  std::uint64_t ckpt_bytes = traced.checkpoint_bytes;
  for (const double us : traced.checkpoint_us.values()) ckpt_us.add(us);
  if (traced_world->checkpoint_every == 0) {
    // No checkpoints in the workload itself: time a few of its final
    // state, outside any slot.
    for (int k = 0; k < kExtraCheckpoints; ++k) {
      ckpt_bytes = take_checkpoint(*traced_world->stepper, ckpt_path, nullptr,
                                   &ckpt_us);
    }
    std::filesystem::remove(ckpt_path);
  }
  tracer.samples("checkpoint.bytes").add(double(ckpt_bytes));
  bare_world.reset();
  traced_world.reset();
  tracer.sample_self_time("harness.step", "harness.step_self_us");
  const auto shares = tracer.layer_shares("slot");

  // The serve layer on this workload's traffic: the first slots of the
  // same world, rendered to protocol lines and replayed in process.
  std::vector<RenderedSlot> lines(static_cast<std::size_t>(
      opt.smoke ? std::min(spec.replay_slots, 5) : spec.replay_slots));
  {
    auto source = make_source(spec, opt.seed);
    Slot slot;
    for (std::size_t t = 0; t < lines.size(); ++t) {
      source->generate_slot(static_cast<int>(t) + 1, slot);
      render_slot(slot, lines[t]);
    }
  }
  Replay(serve_config(spec.name, opt.seed), &tracer, false, r)
      .run(lines, 0, lines.size());

  add_layer_metrics(r, tracer, bare.measured, overhead_pct, imbalance);
  report_shares(r, "slot", shares);
}

Result run_in_process(const InProcessSpec& spec, const RunOptions& opt) {
  Result r;
  const int warmup = opt.smoke ? std::min(spec.warmup, 5) : spec.warmup;
  const int slots = opt.smoke ? spec.smoke_slots
                              : static_cast<int>(std::lround(
                                    spec.nominal_rate * opt.seconds));
  r.attempted = static_cast<std::uint64_t>(slots);
  std::filesystem::create_directories(opt.workdir);
  const std::string ckpt_path = opt.workdir + "/" + std::string(spec.name) +
                                "-" + std::to_string(::getpid()) + ".ckpt";
  try {
    if (opt.tracer == nullptr) {
      run_untraced(spec, opt, warmup, slots, ckpt_path, r);
    } else {
      run_traced(spec, opt, warmup, slots, ckpt_path, r);
    }
  } catch (const std::exception& e) {
    // validate_assignment failures and I/O errors land here.
    ++r.failed;
    r.check(false, std::string(spec.name) + ": " + e.what());
    r.metrics.clear();
  }
  return r;
}

}  // namespace

std::span<const std::string_view> workload_names() { return kWorkloads; }

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string fmt_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

namespace {

/// Adds "<name>.p50"-style metrics for the given percentiles of `samples`.
void add_percentiles(Result& result, const std::string& name,
                     Samples& samples, std::initializer_list<double> qs,
                     const std::string& unit) {
  for (const double q : qs) {
    result.add(name + "." + pct_name(q), samples.percentile(q), unit);
  }
}

/// The percentile slot_tail_us reports: the highest of these with at
/// least ten samples beyond it.
double tail_of(const Samples& samples) {
  return tail_quantile(samples.size(), {0.999, 0.99, 0.95, 0.90});
}

}  // namespace

void add_end_to_end(Result& r, Measured& m) {
  r.add("setup_s", m.setup_s.median(), "s");
  r.add("slots_per_s", m.slots_per_s, "1/s");
  r.add("slot_p50_us", m.slot_us.median(), "us");
  r.add("peak_rss_mb", m.peak_rss_mb, "MB");
}

void describe_slots(Result& r, const std::string& what, Measured& m) {
  const double q = tail_of(m.slot_us);
  r.report.push_back(what + "; slot_tail_us is " + pct_name(q) + " = " +
                     fmt_g(m.slot_us.percentile(q)) + " us with " +
                     std::to_string(samples_beyond(m.slot_us.size(), q)) +
                     " of " + std::to_string(m.slot_us.size()) +
                     " samples beyond");
}

void add_layer_metrics(Result& r, Tracer& tracer, Measured& m,
                       double overhead_pct, double imbalance) {
  const auto pct = [&](const char* name, std::initializer_list<double> qs) {
    add_percentiles(r, name, tracer.samples(name), qs, "us");
  };
  r.add("slot_tail_us", m.slot_us.percentile(tail_of(m.slot_us)), "us");
  r.add("lfsc.reward_per_slot", m.reward / m.slots, "reward");
  r.add("lfsc.violation_per_slot", m.violation / m.slots, "violation");
  pct("sim.generate_us", {0.5, 0.99});
  r.add("sim.tasks_per_slot", tracer.samples("sim.tasks_per_slot").mean(),
        "count");
  r.add("sim.edges_per_slot", tracer.samples("sim.edges_per_slot").mean(),
        "count");
  pct("lfsc.select_us", {0.5, 0.99});
  pct("lfsc.alg2_us", {0.5});
  pct("lfsc.alg4_us", {0.5});
  pct("lfsc.observe_us", {0.5, 0.99});
  pct("lfsc.alg3_us", {0.5});
  r.add("lfsc.shard.imbalance", imbalance, "ratio");
  pct("harness.step_self_us", {0.5, 0.99});
  pct("checkpoint.us", {0.5, 0.9});
  r.add("checkpoint.bytes", tracer.samples("checkpoint.bytes").mean(), "B");
  pct("serve.task_us", {0.5, 0.99});
  pct("serve.tick_us", {0.5, 0.99});
  pct("serve.stats_us", {0.5});
  pct("serve.telemetry_us", {0.5});
  r.add("trace.overhead_pct", overhead_pct, "%");
}

void report_shares(Result& r, std::string_view root,
                   const std::vector<std::pair<std::string, double>>& shares) {
  r.report.push_back("self-time share of each '" + std::string(root) +
                     "' span:");
  for (const auto& [layer, share] : shares) {
    r.report.push_back("  " + layer + " " + fmt_g(share * 100.0) + "%");
  }
}

std::unique_ptr<World> make_world(std::string_view workload,
                                  std::uint64_t seed, Tracer* tracer) {
  const InProcessSpec* spec = find_in_process(workload);
  if (spec == nullptr) {
    throw std::invalid_argument("no in-process workload '" +
                                std::string(workload) + "'");
  }
  auto world = std::make_unique<World>();
  PaperSetup setup = world_setup(*spec, seed);
  if (spec->parallel) {
    world->pool = std::make_unique<ThreadPool>(4);
    setup.lfsc.pool = world->pool.get();
  }
  world->source = make_source(*spec, seed);
  const NetworkConfig& net = world->source->network();
  world->policy = std::make_unique<LfscPolicy>(net, setup.lfsc);

  StepConfig step;
  step.horizon = 0;
  step.validate = true;
  step.telemetry = &world->policy->telemetry();
  step.telemetry_interval = kTelemetryInterval;
  if (spec->flash) {
    // Only the 20x spike slots overflow: a normal slot offers about 1560
    // tasks against a drain of 3 * c * M = 1800 per slot.
    AdmissionConfig admission;
    admission.max_queue = 3600;
    admission.capacity_factor = 3.0;
    world->admission = std::make_unique<AdmissionControl>(admission, net);
    FaultConfig faults;
    faults.loss_prob = 0.05;
    faults.delay_prob = 0.1;
    faults.delay_slots = 2;
    faults.outage_prob = 0.001;
    faults.outage_min_slots = 1;
    faults.outage_max_slots = 5;
    world->faults = std::make_unique<FaultModel>(faults, net.num_scns);
    step.admission = world->admission.get();
    step.faults = world->faults.get();
    step.checkpoint_counters = true;
    world->checkpoint_every = kCheckpointEvery;
  }

  SlotSource* source = world->source.get();
  Policy* policy = world->policy.get();
  if (tracer != nullptr) {
    world->traced_source = std::make_unique<TracedSource>(*source, *tracer);
    world->traced_policy = std::make_unique<TracedPolicy>(
        *policy, *tracer, &world->policy->telemetry());
    source = world->traced_source.get();
    policy = world->traced_policy.get();
  }
  world->roster[0] = policy;
  world->stepper =
      std::make_unique<SlotStepper>(*source, world->roster, step);
  return world;
}

void render_slot(const Slot& slot, RenderedSlot& out) {
  out.bytes.clear();
  out.line_end.clear();
  out.tasks = 0;
  const std::size_t n = slot.info.tasks.size();
  // Coverage entries grouped by task, SCNs ascending (CSR layout).
  std::vector<std::uint32_t> start(n + 1, 0);
  for (const auto& covered : slot.info.coverage) {
    for (const int i : covered) ++start[static_cast<std::size_t>(i) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) start[i + 1] += start[i];
  std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entries(start[n]);
  for (std::size_t m = 0; m < slot.info.coverage.size(); ++m) {
    const auto& covered = slot.info.coverage[m];
    for (std::size_t j = 0; j < covered.size(); ++j) {
      entries[fill[static_cast<std::size_t>(covered[j])]++] = {
          static_cast<std::uint32_t>(m), static_cast<std::uint32_t>(j)};
    }
  }
  char buf[64];
  const auto num = [&](double v) {
    const int len = std::snprintf(buf, sizeof buf, "%.17g", v);
    out.bytes.append(buf, static_cast<std::size_t>(len));
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (start[i] == start[i + 1]) continue;  // uncovered: no SCN can take it
    const TaskContext& ctx = slot.info.tasks[i].context;
    out.bytes += "task ";
    out.bytes += std::to_string(slot.info.tasks[i].wd_id);
    out.bytes.push_back(' ');
    num(ctx.input_mbit);
    out.bytes.push_back(' ');
    num(ctx.output_mbit);
    out.bytes += ctx.resource == ResourceType::kCpu   ? " cpu "
                 : ctx.resource == ResourceType::kGpu ? " gpu "
                                                      : " cpugpu ";
    for (std::uint32_t e = start[i]; e < start[i + 1]; ++e) {
      const auto [m, j] = entries[e];
      if (e != start[i]) out.bytes.push_back(',');
      out.bytes += std::to_string(m);
      out.bytes.push_back(':');
      num(slot.real.u[m][j]);
      out.bytes.push_back(':');
      num(slot.real.v[m][j]);
      out.bytes.push_back(':');
      num(slot.real.q[m][j]);
    }
    out.bytes.push_back('\n');
    out.line_end.push_back(static_cast<std::uint32_t>(out.bytes.size()));
    ++out.tasks;
  }
  out.bytes += "tick\n";
  out.line_end.push_back(static_cast<std::uint32_t>(out.bytes.size()));
}

serve::ServeConfig serve_config(std::string_view workload,
                                std::uint64_t seed) {
  serve::ServeConfig config;
  const InProcessSpec* spec = find_in_process(workload);
  if (spec == nullptr) spec = find_in_process("paper");  // serve_wire
  config.setup = world_setup(*spec, seed);
  config.telemetry_interval = kTelemetryInterval;
  if (spec->flash) {
    config.admission.max_queue = 3600;
    config.admission.capacity_factor = 3.0;
  }
  return config;
}

Replay::Replay(const serve::ServeConfig& config, Tracer* tracer,
               bool policy_spans, Result& result)
    : controller_(config),
      tracer_(tracer),
      phases_(tracer != nullptr && policy_spans
                  ? &controller_.policy().telemetry()
                  : nullptr),
      policy_spans_(policy_spans),
      task_us_(tracer != nullptr ? &tracer->samples("serve.task_us")
                                 : nullptr),
      result_(result) {}

void Replay::fail(const std::string& what) {
  ++result_.failed;
  result_.check(false, what);
}

std::string Replay::call(std::string_view line, const char* span) {
  if (tracer_ == nullptr) return controller_.handle_line(line);
  const std::int32_t id = tracer_->open(span);
  std::string reply = controller_.handle_line(line);
  tracer_->samples(std::string(span) + "_us").add(tracer_->close(id));
  return reply;
}

std::string Replay::task(std::string_view line) {
  if (task_us_ == nullptr) return controller_.handle_line(line);
  // A sample only: a span per task line would outweigh the whole rest of
  // the trace.
  const double t0 = now_s();
  std::string reply = controller_.handle_line(line);
  task_us_->add((now_s() - t0) * 1e6);
  return reply;
}

void Replay::run(const std::vector<RenderedSlot>& slots, std::size_t first,
                 std::size_t last) {
  for (std::size_t s = first; s < last && result_.failed < 5; ++s) {
    const RenderedSlot& slot = slots[s];
    const int t = static_cast<int>(s) + 1;
    std::int32_t slot_span = -1;
    std::int32_t ingest_span = -1;
    if (tracer_) {
      tracer_->set_trace(t);
      slot_span = tracer_->open("serve.slot");
      ingest_span = tracer_->open("serve.ingest");
    }
    std::size_t begin = 0;
    for (int i = 0; i < slot.tasks; ++i) {
      const std::size_t end = slot.line_end[static_cast<std::size_t>(i)];
      const std::string reply =
          task(std::string_view(slot.bytes).substr(begin, end - 1 - begin));
      begin = end;
      if (reply.rfind("ok queued=", 0) != 0) {
        fail("replay slot " + std::to_string(t) + ": task -> " + reply);
      }
    }
    if (tracer_) tracer_->close(ingest_span);
    const PhaseTimers::Totals before = phases_.totals();
    const std::string tick = call("tick", "serve.tick");
    if (tracer_ && policy_spans_) {
      phases_.add_spans(*tracer_,
                        static_cast<std::int32_t>(tracer_->spans().size() - 1),
                        before, true);
    }
    const std::string want = "ok slot=" + std::to_string(t) +
                             " tasks=" + std::to_string(slot.tasks);
    if (tick != want) {
      fail("replay tick -> '" + tick + "', want '" + want + "'");
    }
    if (call("stats", "serve.stats").rfind("ok ", 0) != 0 ||
        call("telemetry", "serve.telemetry").rfind("ok {", 0) != 0) {
      fail("replay slot " + std::to_string(t) + ": stats/telemetry failed");
    }
    if (tracer_) tracer_->close(slot_span);
  }
}

std::string Replay::stats() { return controller_.handle_line("stats"); }

void Replay::checkpoints(const std::string& prefix, int count) {
  Samples& us = tracer_->samples("checkpoint.us");
  for (int k = 0; k < count; ++k) {
    const double t0 = now_s();
    const std::string reply = controller_.handle_line("checkpoint");
    us.add((now_s() - t0) * 1e6);
    if (reply.rfind("ok generation=", 0) != 0) {
      fail("replay checkpoint -> " + reply);
    }
  }
  tracer_->samples("checkpoint.bytes")
      .add(double(std::filesystem::file_size(checkpoint_generation_path(
          prefix, controller_.checkpoint_generation() - 1))));
}

Result run_workload(std::string_view name, const RunOptions& opt) {
  if (name == "serve_wire") return run_serve_wire(opt);
  const InProcessSpec* spec = find_in_process(name);
  if (spec == nullptr) {
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "'");
  }
  return run_in_process(*spec, opt);
}

}  // namespace lfsc::bench
