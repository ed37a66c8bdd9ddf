// lfsc_bench — the repository's end-to-end benchmark (README.md in this
// directory has the metric glossary and why each workload exists).
//
//   lfsc_bench --workload paper --seed 3             # end-to-end metrics
//   lfsc_bench --all --seed 3 --json out.json        # every workload
//   lfsc_bench --workload city --trace spans.jsonl   # per-layer metrics
//
// Prints each workload's context and metrics with their units, then one
// line of JSON: {"correct", "attempted", "failed", "metrics"}. Exits 1
// when a correctness check fails, 2 on a bad flag.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/flags.h"
#include "workloads.h"

namespace {

using namespace lfsc;
using namespace lfsc::bench;

int fail(const std::string& message) {
  std::cerr << "lfsc_bench: " << message << "\n";
  return 2;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string to_json(const Result& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser parser("lfsc_bench",
                    "end-to-end pipeline benchmark: paper, city, flash_churn "
                    "and serve_wire");
  const std::string* workload =
      parser.add_string("workload", "", "workload to run");
  const bool* all = parser.add_bool("all", false, "run every workload");
  const int* seed = parser.add_int("seed", 1, "world seed (>= 0)");
  const int* seconds = parser.add_int(
      "seconds", 15,
      "run length: each workload runs its nominal slots/s times this many "
      "slots (1..600)");
  const std::string* trace_path = parser.add_string(
      "trace", "",
      "traced run: report per-layer metrics and write spans as JSONL here");
  const std::string* json_path =
      parser.add_string("json", "", "also write the results to this file");
  const bool* smoke =
      parser.add_bool("smoke", false, "tiny run sizes, for the smoke test");
  const std::string* workdir = parser.add_string(
      "workdir", ".bench_tmp", "scratch directory (checkpoints, socket)");

  switch (parser.parse(argc, argv, std::cerr)) {
    case FlagParser::Result::kHelp:
      return 0;
    case FlagParser::Result::kError:
      return 2;
    case FlagParser::Result::kOk:
      break;
  }
  std::vector<std::string_view> names;
  if (*all == !workload->empty()) {
    return fail("give exactly one of --workload NAME and --all");
  }
  for (const std::string_view name : workload_names()) {
    if (*all || name == *workload) names.push_back(name);
  }
  if (names.empty()) {
    return fail("unknown workload '" + *workload +
                "' (paper, city, flash_churn, serve_wire)");
  }
  if (*seed < 0) return fail("--seed must be >= 0");
  if (*seconds < 1 || *seconds > 600) {
    return fail("--seconds must be in [1, 600]");
  }

  bool all_correct = true;
  std::ostringstream json;
  json << "{";
  for (const std::string_view name : names) {
    Tracer tracer;
    RunOptions opt;
    opt.seed = static_cast<std::uint64_t>(*seed);
    opt.seconds = *seconds;
    opt.smoke = *smoke;
    opt.workdir = *workdir;
    opt.tracer = trace_path->empty() ? nullptr : &tracer;

    Result r;
    try {
      r = run_workload(name, opt);
    } catch (const std::exception& e) {
      ++r.failed;
      r.check(false, e.what());
    }
    for (const Metric& m : r.metrics) {
      r.check(std::isfinite(m.value), m.name + " is not finite");
    }
    if (opt.tracer != nullptr) {
      const std::string path =
          *all ? *trace_path + "." + std::string(name) : *trace_path;
      std::ofstream spans(path);
      tracer.write_jsonl(spans);
      r.check(static_cast<bool>(spans), "cannot write spans to " + path);
      r.report.push_back(std::to_string(tracer.spans().size()) +
                         " spans -> " + path);
    }

    std::cout << "== " << name << (opt.tracer ? " (traced)" : "") << " ==\n";
    for (const std::string& line : r.report) std::cout << line << "\n";
    for (const Metric& m : r.metrics) {
      std::printf("  %-26s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const std::string& e : r.errors) {
      std::cout << "CHECK FAILED: " << e << "\n";
    }
    const std::string line = to_json(r);
    json << (name == names.front() ? "" : ", ") << "\"" << name
         << "\": " << line;
    std::cout << line << std::endl;
    all_correct = all_correct && r.correct;
  }
  json << "}\n";

  if (!json_path->empty()) {
    std::ofstream out(*json_path);
    out << json.str();
    if (!out) return fail("cannot write " + *json_path);
  }
  std::error_code ec;
  std::filesystem::remove(*workdir, ec);  // only if empty
  return all_correct ? 0 : 1;
}
