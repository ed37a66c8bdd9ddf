#include "trace.h"

#include <algorithm>
#include <chrono>

namespace lfsc::bench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string_view layer_of(std::string_view name) {
  return name.substr(0, name.find('.'));
}

constexpr const char* kPhaseNames[5] = {"lfsc.select", "lfsc.observe",
                                        "lfsc.alg2", "lfsc.alg4",
                                        "lfsc.alg3"};
constexpr const char* kPhaseTimers[5] = {
    "lfsc.select", "lfsc.observe", "lfsc.alg2.calculating",
    "lfsc.alg4.greedy_select", "lfsc.alg3.updating"};

}  // namespace

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

std::int64_t Tracer::now_ns() const { return steady_ns() - epoch_ns_; }

std::int32_t Tracer::open(const char* name) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({trace_, name, now_ns(), 0, parent});
  open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  return open_.back();
}

double Tracer::close(std::int32_t id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  return static_cast<double>(span.end_ns - span.start_ns) / 1e3;
}

std::int32_t Tracer::add(const char* name, std::int64_t start_ns,
                         std::int64_t end_ns, std::int32_t parent) {
  spans_.push_back({trace_, name, start_ns, end_ns, parent});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  // Children of one span never overlap (one thread records them in
  // sequence), so their lengths add up to the time they cover.
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -=
          span.end_ns - span.start_ns;
    }
  }
  for (auto& s : self) s = std::max<std::int64_t>(s, 0);
  return self;
}

void Tracer::sample_self_time(const char* span_name,
                              const std::string& sample_name) {
  const std::vector<std::int64_t> self = self_ns();
  Samples& out = samples_[sample_name];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::string_view(spans_[i].name) == span_name) {
      out.add(static_cast<double>(self[i]) / 1e3);
    }
  }
}

std::vector<std::pair<std::string, double>> Tracer::layer_shares(
    std::string_view root) const {
  const std::vector<std::int64_t> self = self_ns();
  // Spans are appended after their parents, so one forward pass finds
  // each span's root.
  std::vector<std::int32_t> root_of(spans_.size());
  std::map<std::string, double, std::less<>> by_layer;
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    root_of[i] = span.parent < 0
                     ? static_cast<std::int32_t>(i)
                     : root_of[static_cast<std::size_t>(span.parent)];
    if (std::string_view(spans_[static_cast<std::size_t>(root_of[i])].name) !=
        root) {
      continue;
    }
    if (span.parent < 0) {
      total += static_cast<double>(span.end_ns - span.start_ns);
    }
    by_layer[std::string(layer_of(span.name))] +=
        static_cast<double>(self[i]);
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [layer, ns] : by_layer) {
    out.emplace_back(layer, total > 0.0 ? ns / total : 0.0);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

void Tracer::write_jsonl(std::ostream& out) const {
  for (const Span& span : spans_) {
    out << "{\"trace\":" << span.trace << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << "}\n";
  }
}

PhaseTimers::PhaseTimers(telemetry::Registry* registry) {
  if (registry == nullptr) return;
  for (std::size_t i = 0; i < timers_.size(); ++i) {
    timers_[i] = &registry->timer(kPhaseTimers[i]);
  }
}

PhaseTimers::Totals PhaseTimers::totals() const {
  Totals out{};
  for (std::size_t i = 0; i < timers_.size(); ++i) {
    if (timers_[i] != nullptr) out[i] = timers_[i]->total_seconds();
  }
  return out;
}

void PhaseTimers::add_spans(Tracer& tracer, std::int32_t parent,
                            const Totals& before, bool with_calls) const {
  const Totals now = totals();
  const auto ns = [&](std::size_t i) {
    return static_cast<std::int64_t>((now[i] - before[i]) * 1e9);
  };
  // Lays phases `first..last` end to end under `under` from `cursor`.
  const auto lay = [&](std::size_t first, std::size_t last,
                       std::int32_t under, std::int64_t cursor) {
    for (std::size_t i = first; i <= last; ++i) {
      const std::int64_t d = ns(i);
      if (d <= 0) continue;
      tracer.add(kPhaseNames[i], cursor, cursor + d, under);
      tracer.samples(std::string(kPhaseNames[i]) + "_us")
          .add(static_cast<double>(d) / 1e3);
      cursor += d;
    }
    return cursor;
  };
  const std::int64_t start =
      tracer.spans()[static_cast<std::size_t>(parent)].start_ns;
  if (!with_calls) {
    lay(2, 4, parent, start);
    return;
  }
  std::int64_t cursor = start;
  // select holds Alg. 2 and Alg. 4; observe holds Alg. 3.
  const std::size_t first_phase[2] = {2, 4};
  const std::size_t last_phase[2] = {3, 4};
  for (std::size_t call = 0; call < 2; ++call) {
    const std::int64_t d = ns(call);
    if (d <= 0) continue;
    const std::int32_t id =
        tracer.add(kPhaseNames[call], cursor, cursor + d, parent);
    tracer.samples(std::string(kPhaseNames[call]) + "_us")
        .add(static_cast<double>(d) / 1e3);
    lay(first_phase[call], last_phase[call], id, cursor);
    cursor += d;
  }
}

void TracedSource::generate_slot(int t, Slot& out) {
  if (!tracer_.recording()) {
    inner_.generate_slot(t, out);
    return;
  }
  const std::int32_t span = tracer_.open("sim.generate");
  inner_.generate_slot(t, out);
  tracer_.samples("sim.generate_us").add(tracer_.close(span));
  std::size_t edges = 0;
  for (const auto& covered : out.info.coverage) edges += covered.size();
  tracer_.samples("sim.tasks_per_slot").add(double(out.info.tasks.size()));
  tracer_.samples("sim.edges_per_slot").add(double(edges));
}

Assignment TracedPolicy::select(const SlotInfo& info) {
  Assignment out;
  select(info, out);
  return out;
}

void TracedPolicy::select(const SlotInfo& info, Assignment& out) {
  if (!tracer_.recording()) {
    inner_.select(info, out);
    return;
  }
  const PhaseTimers::Totals before = phases_.totals();
  const std::int32_t span = tracer_.open("lfsc.select");
  inner_.select(info, out);
  tracer_.samples("lfsc.select_us").add(tracer_.close(span));
  phases_.add_spans(tracer_, span, before, false);
}

void TracedPolicy::observe(const SlotInfo& info, const Assignment& assignment,
                           const SlotFeedback& feedback) {
  if (!tracer_.recording()) {
    inner_.observe(info, assignment, feedback);
    return;
  }
  const PhaseTimers::Totals before = phases_.totals();
  const std::int32_t span = tracer_.open("lfsc.observe");
  inner_.observe(info, assignment, feedback);
  tracer_.samples("lfsc.observe_us").add(tracer_.close(span));
  phases_.add_spans(tracer_, span, before, false);
}

void TracedPolicy::observe_delayed(int origin_t, const SlotFeedback& feedback) {
  if (!tracer_.recording()) {
    inner_.observe_delayed(origin_t, feedback);
    return;
  }
  const PhaseTimers::Totals before = phases_.totals();
  const std::int32_t span = tracer_.open("lfsc.observe_delayed");
  inner_.observe_delayed(origin_t, feedback);
  tracer_.samples("lfsc.observe_delayed_us").add(tracer_.close(span));
  phases_.add_spans(tracer_, span, before, false);
}

}  // namespace lfsc::bench
