// serve_wire: the real tools/lfsc_serve behind its Unix socket, fed
// pre-rendered paper-scale traffic.
//
// Phase A is an open loop at 100 slots/s: slot t's task lines fall due
// evenly across its 10 ms period and its tick at the period's end. Each
// reply's latency runs from its line's due time, so a stall is charged
// for the wait it imposes on every later line. An observer connection
// sends stats/telemetry every 10 ms beside the ingest. Phase B hands a
// fresh server the same slots as fast as the socket accepts them. Both
// servers' final stats lines must equal an in-process replay's byte for
// byte. Load: writer, reader and observer threads plus the server.
//
// The end-to-end metrics come from phase B, the closed loop: slot
// latency is the time between consecutive tick replies, as it is the
// step time in process. Phase A's open-loop latencies (tick, task ack,
// control requests) are reported beside them; on a shared host they
// swing too far between runs to hold a regression bound.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "harness/paper_setup.h"
#include "workloads.h"

namespace lfsc::bench {

namespace {

constexpr double kPeriodS = 0.010;      ///< phase A: 100 slots/s
constexpr double kNominalRate = 40.0;   ///< slots per second of --seconds
constexpr int kSmokeSlots = 20;
constexpr double kTickLimitUs = 1e4;    ///< one slot period
constexpr int kIdleStartsPerGap = 5;    ///< setup_s: 15 idle + 2 phases
constexpr int kReplayCheckpoints = 5;   ///< traced run only
constexpr int kReplyTimeoutS = 30;

void sleep_until_s(double when) {
  const double wait = when - now_s();
  if (wait > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  // A wedged server must fail the run, not hang it.
  timeval timeout{kReplyTimeoutS, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  return fd;
}

/// Buffered reader of newline-terminated replies.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// With a non-zero wait, sleeps that long before each read so replies
  /// arrive in batches.
  void set_batch_wait(std::chrono::microseconds wait) { batch_wait_ = wait; }

  /// The next line without its '\n', valid until the next call; false on
  /// EOF, error or timeout.
  bool next(std::string_view& line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line = std::string_view(buf_).substr(pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      if (batch_wait_.count() > 0) std::this_thread::sleep_for(batch_wait_);
      const std::size_t old = buf_.size();
      buf_.resize(old + 65536);
      const ssize_t n = ::read(fd_, buf_.data() + old, 65536);
      buf_.resize(old + (n > 0 ? static_cast<std::size_t>(n) : 0));
      if (n == 0) return false;
      if (n < 0 && errno != EINTR) return false;
    }
  }

 private:
  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
  std::chrono::microseconds batch_wait_{0};
};

/// A spawned lfsc_serve, killed and reaped if still running when this
/// object goes away.
class ServeProcess {
 public:
  /// posix_spawn, not fork: the client holds the whole pre-rendered run,
  /// and copying its page tables would land in the server's set-up time.
  ServeProcess(const std::vector<std::string>& args, const std::string& log) {
    std::vector<char*> argv;
    static char bin[] = LFSC_SERVE_BIN;
    argv.push_back(bin);
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                       O_RDONLY, 0);
    ::posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ::posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    if (::posix_spawn(&pid_, LFSC_SERVE_BIN, &actions, nullptr, argv.data(),
                      environ) != 0) {
      pid_ = -1;
    }
    ::posix_spawn_file_actions_destroy(&actions);
  }
  ~ServeProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  bool started() const { return pid_ > 0; }

  /// Waits up to `timeout_s` for the exit status; false on timeout (the
  /// destructor then kills the process).
  bool wait(double timeout_s, int& status) {
    const double deadline = now_s() + timeout_s;
    while (now_s() < deadline) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return true;
      }
      if (r < 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  /// utime + stime so far, from /proc/<pid>/stat.
  double cpu_seconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime/stime are the
    // 14th and 15th fields overall.
    std::istringstream rest(text.substr(text.rfind(')') + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i >= 14) ticks += std::stod(field);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// Peak resident set (VmHWM) in MB.
  double vm_hwm_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmHWM:") {
        double kb = 0.0;
        in >> kb;
        return kb / 1024.0;
      }
    }
    return 0.0;
  }

 private:
  pid_t pid_ = -1;
};

/// A started server: its process and the main connection, which has
/// already seen the first `stats` reply.
struct Server {
  std::unique_ptr<ServeProcess> proc;
  int fd = -1;
  std::unique_ptr<LineReader> reader;
  double setup_s = 0.0;

  Server() = default;
  ~Server() {
    if (fd >= 0) ::close(fd);
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
};

std::string request(Server& server, std::string_view line) {
  std::string_view reply;
  if (!send_all(server.fd, std::string(line) + "\n") ||
      !server.reader->next(reply)) {
    return "";
  }
  return std::string(reply);
}

/// Spawns lfsc_serve on `socket` and times spawn -> first stats reply.
std::unique_ptr<Server> start_server(const RunOptions& opt,
                                     const std::string& socket,
                                     const std::string& log) {
  auto server = std::make_unique<Server>();
  const double t0 = now_s();
  server->proc = std::make_unique<ServeProcess>(
      std::vector<std::string>{"--socket", socket, "--seed",
                               std::to_string(opt.seed)},
      log);
  while (server->proc->started() && now_s() - t0 < kReplyTimeoutS) {
    server->fd = connect_unix(socket);
    if (server->fd >= 0) break;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  if (server->fd < 0) return nullptr;
  server->reader = std::make_unique<LineReader>(server->fd);
  if (request(*server, "stats").rfind("ok ", 0) != 0) return nullptr;
  server->setup_s = now_s() - t0;
  return server;
}

/// Sends `shutdown` and reaps the process; true on a clean exit 0.
bool stop_server(Server& server) {
  const bool acked = request(server, "shutdown") == "ok shutdown";
  int status = 0;
  const bool exited = server.proc->wait(10.0, status);
  return acked && exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::map<std::string, double> parse_stats(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      out[token.substr(0, eq)] = std::strtod(token.c_str() + eq + 1, nullptr);
    }
  }
  return out;
}

/// Failure accounting shared by the client threads of one phase.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t bad = 0;
  std::vector<std::string> errors;

  void fail(std::string what) {
    ++bad;
    if (errors.size() < 5) errors.push_back(std::move(what));
  }
  void merge(const Tally& other) {
    sent += other.sent;
    bad += other.bad;
    for (const auto& e : other.errors) {
      if (errors.size() < 5) errors.push_back(e);
    }
  }
};

/// Checks one reply against the line it answers.
void check_reply(const RenderedSlot& slot, int t, int j, std::string_view reply,
                 Tally& tally) {
  if (j < slot.tasks) {
    if (reply.rfind("ok queued=", 0) != 0) {
      tally.fail("slot " + std::to_string(t) + " task -> " +
                 std::string(reply));
    }
    return;
  }
  const std::string want = "ok slot=" + std::to_string(t) +
                           " tasks=" + std::to_string(slot.tasks);
  if (reply != want) {
    tally.fail("tick -> '" + std::string(reply) + "', want '" + want + "'");
  }
}

struct PhaseA {
  Samples task_us;
  Samples tick_us;
  std::vector<double> tick_order;  ///< tick latencies in slot order
  Samples ctl_us;
  Samples late_us;
  double write_s = 0.0;  ///< time spent inside send()
  double wall_s = 0.0;
  Tally tally;
};

PhaseA run_phase_a(Server& server, const std::string& socket,
                   const std::vector<RenderedSlot>& slots) {
  PhaseA a;
  const int observer_fd = connect_unix(socket);
  if (observer_fd < 0) {
    a.tally.fail("observer connect failed");
    return a;
  }
  const double t0 = now_s() + 0.005;
  const auto due = [&](std::size_t s, int j) {
    const int k = slots[s].tasks;
    const double start = t0 + double(s) * kPeriodS;
    return j < k ? start + kPeriodS * j / k : start + kPeriodS;
  };
  std::atomic<bool> done{false};
  Tally writer_tally;
  Tally observer_tally;

  std::thread writer([&] {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const RenderedSlot& slot = slots[s];
      const int lines = slot.tasks + 1;
      int j = 0;
      while (j < lines) {
        sleep_until_s(due(s, j));
        const double now = now_s();
        int last = j;
        while (last + 1 < lines && due(s, last + 1) <= now) ++last;
        a.late_us.add((now - due(s, j)) * 1e6);
        const std::size_t begin =
            j == 0 ? 0 : slot.line_end[static_cast<std::size_t>(j - 1)];
        const std::size_t end = slot.line_end[static_cast<std::size_t>(last)];
        const std::string_view batch =
            std::string_view(slot.bytes).substr(begin, end - begin);
        if (!send_all(server.fd, batch)) {
          writer_tally.fail("send failed");
          return;
        }
        a.write_s += now_s() - now;
        writer_tally.sent += static_cast<std::uint64_t>(last - j + 1);
        j = last + 1;
      }
    }
  });

  std::thread observer([&] {
    LineReader reader(observer_fd);
    for (int i = 0; !done.load(); ++i) {
      const double when = t0 + i * kPeriodS + kPeriodS / 2;
      sleep_until_s(when);
      if (done.load()) break;
      std::string_view reply;
      ++observer_tally.sent;
      if (!send_all(observer_fd, i % 2 == 0 ? "stats\n" : "telemetry\n") ||
          !reader.next(reply)) {
        observer_tally.fail("observer request failed");
        break;
      }
      a.ctl_us.add((now_s() - when) * 1e6);
      if (reply.rfind("ok ", 0) != 0) {
        observer_tally.fail("observer -> " + std::string(reply.substr(0, 80)));
      }
    }
  });

  // Reader: this thread.
  std::string_view reply;
  for (std::size_t s = 0; s < slots.size() && a.tally.bad == 0; ++s) {
    const RenderedSlot& slot = slots[s];
    for (int j = 0; j <= slot.tasks; ++j) {
      if (!server.reader->next(reply)) {
        a.tally.fail("missing reply in slot " + std::to_string(s + 1));
        break;
      }
      const double latency = (now_s() - due(s, j)) * 1e6;
      check_reply(slot, static_cast<int>(s) + 1, j, reply, a.tally);
      if (j < slot.tasks) {
        a.task_us.add(latency);
      } else {
        a.tick_us.add(latency);
        a.tick_order.push_back(latency);
      }
    }
  }
  a.wall_s = now_s() - t0;
  done.store(true);
  writer.join();
  observer.join();
  ::close(observer_fd);
  a.tally.merge(writer_tally);
  a.tally.merge(observer_tally);
  return a;
}

struct PhaseB {
  double slots_per_s = 0.0;  ///< median_chunk_rate of the tick replies
  Samples slot_us;  ///< time between consecutive tick replies
  Tally tally;
};

PhaseB run_phase_b(Server& server, const std::vector<RenderedSlot>& slots) {
  PhaseB b;
  Tally writer_tally;
  const double t0 = now_s();
  std::thread writer([&] {
    for (const RenderedSlot& slot : slots) {
      if (!send_all(server.fd, slot.bytes)) {
        writer_tally.fail("send failed");
        return;
      }
      writer_tally.sent += static_cast<std::uint64_t>(slot.tasks) + 1;
    }
  });
  // Replies are read in batches, so the server is not paying a client
  // wake-up per line it answers.
  server.reader->set_batch_wait(std::chrono::microseconds(500));
  std::vector<double> ticks;
  std::string_view reply;
  for (std::size_t s = 0; s < slots.size() && b.tally.bad == 0; ++s) {
    for (int j = 0; j <= slots[s].tasks; ++j) {
      if (!server.reader->next(reply)) {
        b.tally.fail("missing reply in slot " + std::to_string(s + 1));
        break;
      }
      check_reply(slots[s], static_cast<int>(s) + 1, j, reply, b.tally);
    }
    ticks.push_back(now_s());
  }
  server.reader->set_batch_wait({});
  writer.join();
  b.slots_per_s = median_chunk_rate(t0, ticks, kRateChunks);
  for (std::size_t s = 0; s < ticks.size(); ++s) {
    b.slot_us.add((ticks[s] - (s == 0 ? t0 : ticks[s - 1])) * 1e6);
  }
  b.tally.merge(writer_tally);
  return b;
}

}  // namespace

Result run_serve_wire(const RunOptions& opt) {
  Result r;
  Tracer* tracer = opt.tracer;
  std::filesystem::create_directories(opt.workdir);
  const std::string base =
      opt.workdir + "/wire-" + std::to_string(::getpid());
  const std::string socket = base + ".sock";
  const std::string log = base + ".log";
  const int n = opt.smoke ? kSmokeSlots
                          : static_cast<int>(std::lround(kNominalRate *
                                                         opt.seconds));

  // The client renders the whole run before any timing starts.
  std::vector<RenderedSlot> slots(static_cast<std::size_t>(n));
  const double render_t0 = now_s();
  {
    PaperSetup setup;
    setup.set_seed(opt.seed);
    Simulator world(setup.net, setup.env,
                    std::make_unique<AbstractCoverage>(setup.coverage));
    // Traced, the client's world generation stands in for the sim layer.
    std::optional<TracedSource> traced_world;
    SlotSource* source = &world;
    if (tracer != nullptr) source = &traced_world.emplace(world, *tracer);
    Slot slot;
    for (int t = 1; t <= n; ++t) {
      source->generate_slot(t, slot);
      render_slot(slot, slots[static_cast<std::size_t>(t - 1)]);
    }
  }
  const double render_s = now_s() - render_t0;
  double bytes = 0.0;
  for (const auto& s : slots) bytes += double(s.bytes.size());

  Samples setup;
  const auto start = [&]() -> std::unique_ptr<Server> {
    auto server = start_server(opt, socket, log);
    if (server == nullptr) {
      ++r.failed;
      r.check(false, "lfsc_serve did not come up (see " + log + ")");
      return nullptr;
    }
    setup.add(server->setup_s);
    return server;
  };
  const auto stop = [&](Server& server, const char* phase) {
    r.check(stop_server(server),
            std::string("lfsc_serve did not shut down cleanly after ") + phase);
  };
  // More set-up samples from idle servers, before, between and after the
  // phases, so one stretch of host noise does not decide setup_s.
  const auto idle_starts = [&] {
    for (int rep = 0; rep < (opt.smoke ? 0 : kIdleStartsPerGap); ++rep) {
      auto idle = start();
      if (idle == nullptr) return false;
      stop(*idle, "an idle start");
    }
    return true;
  };

  // Phase A: open loop.
  if (!idle_starts()) return r;
  auto server = start();
  if (server == nullptr) return r;
  const double cpu0 = server->proc->cpu_seconds();
  PhaseA a = run_phase_a(*server, socket, slots);
  const double busy = (server->proc->cpu_seconds() - cpu0) / a.wall_s;
  const std::string stats_a = request(*server, "stats");
  double rss = server->proc->vm_hwm_mb();
  stop(*server, "phase A");
  server.reset();

  // Phase B: closed loop on a fresh server.
  if (!idle_starts()) return r;
  server = start();
  if (server == nullptr) return r;
  PhaseB b = run_phase_b(*server, slots);
  const std::string stats_b = request(*server, "stats");
  rss = std::max(rss, server->proc->vm_hwm_mb());
  stop(*server, "phase B");
  server.reset();
  if (!idle_starts()) return r;

  r.attempted = a.tally.sent + b.tally.sent;
  r.failed += a.tally.bad + b.tally.bad;
  for (const auto& e : a.tally.errors) r.check(false, "phase A: " + e);
  for (const auto& e : b.tally.errors) r.check(false, "phase B: " + e);

  // The in-process replay every run checks the servers against. A traced
  // run replays twice, a bare and a timed controller in alternating
  // chunks, so host drift cancels out of the tracing overhead.
  const serve::ServeConfig config = serve_config("serve_wire", opt.seed);
  const std::string ckpt_dir = base + "-ckpt";
  const double replay_t0 = now_s();
  Replay bare(config, nullptr, false, r);
  double overhead_pct = 0.0;
  if (tracer == nullptr) {
    bare.run(slots, 0, slots.size());
  } else {
    serve::ServeConfig traced_config = config;
    traced_config.checkpoint_prefix = ckpt_dir + "/replay";
    std::filesystem::create_directories(ckpt_dir);
    Replay traced(traced_config, tracer, true, r);
    overhead_pct = ab_overhead_pct(
        slots.size(), kOverheadChunks,
        [&](bool traced_side, std::size_t first, std::size_t last) {
          (traced_side ? traced : bare).run(slots, first, last);
        });
    r.check(traced.stats() == bare.stats(),
            "traced replay stats differ from untraced");
    traced.checkpoints(traced_config.checkpoint_prefix, kReplayCheckpoints);
    std::filesystem::remove_all(ckpt_dir);
  }
  const std::string stats_r = bare.stats();
  const double replay_s = now_s() - replay_t0;
  r.check(stats_a == stats_r && stats_b == stats_r,
          "final stats differ: A '" + stats_a + "' B '" + stats_b +
              "' replay '" + stats_r + "'");
  const std::map<std::string, double> stats = parse_stats(stats_r);
  const auto stat = [&](const char* key) {
    const auto it = stats.find(key);
    return it == stats.end() ? 0.0 : it->second;
  };
  r.check(stat("slots") == n,
          "stats report " + fmt_g(stat("slots")) + " slots");

  Measured m;
  m.setup_s = std::move(setup);
  m.slots_per_s = b.slots_per_s;
  m.slot_us = b.slot_us;
  m.peak_rss_mb = rss;
  m.reward = stat("reward");
  m.violation = stat("qos_violation") + stat("resource_violation");
  m.slots = n;

  // A growing backlog shows as the last ticks running later than the
  // first ones.
  const std::size_t decile = std::max<std::size_t>(1, a.tick_order.size() / 10);
  Samples first;
  Samples last;
  for (std::size_t i = 0; i < decile && i < a.tick_order.size(); ++i) {
    first.add(a.tick_order[i]);
    last.add(a.tick_order[a.tick_order.size() - 1 - i]);
  }
  const bool over_limit = a.tick_us.percentile(0.99) > kTickLimitUs ||
                          last.median() > 2.0 * first.median();

  describe_slots(r,
                 "serve_wire: " + std::to_string(n) +
                     " slots per phase, seed " +
                     std::to_string(opt.seed) +
                     "; slot latencies are phase-B closed-loop slot times",
                 m);
  r.report.push_back(
      "phase A: tick p50/p99 " + fmt_g(a.tick_us.median()) + "/" +
      fmt_g(a.tick_us.percentile(0.99)) + " us, task_ack p50/p99 " +
      fmt_g(a.task_us.median()) + "/" + fmt_g(a.task_us.percentile(0.99)) +
      " us, ctl p99 " + fmt_g(a.ctl_us.percentile(0.99)) + " us (" +
      std::to_string(a.ctl_us.size()) + " requests), " +
      (over_limit ? "OVER the 10 ms limit or backlogged"
                  : "within the 10 ms limit, no backlog"));
  r.report.push_back(
      "phase A: loadgen late p99 " + fmt_g(a.late_us.percentile(0.99)) +
      " us, client send " + fmt_g(a.write_s) + " s, server busy " +
      fmt_g(busy * 100.0) + "%, " + fmt_g(bytes / n) + " B/slot");
  r.report.push_back("phase B: " + fmt_g(b.slots_per_s) +
                     " slots/s; loadgen render " + fmt_g(render_s) +
                     " s; replay " + fmt_g(replay_s) + " s");

  if (tracer == nullptr) {
    add_end_to_end(r, m);
  } else {
    tracer->sample_self_time("serve.tick", "harness.step_self_us");
    r.report.push_back(
        "wire.transport_us.p50 " +
        fmt_g(a.task_us.median() - tracer->samples("serve.task_us").median()) +
        " (task_ack p50 minus serve.task_us p50)");
    // The service runs serial: one shard.
    add_layer_metrics(r, *tracer, m, overhead_pct, 1.0);
    report_shares(r, "serve.slot", tracer->layer_shares("serve.slot"));
  }
  std::filesystem::remove(log);
  std::filesystem::remove(socket);
  return r;
}

}  // namespace lfsc::bench
