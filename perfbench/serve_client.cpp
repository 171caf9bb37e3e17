// serve-curves: the shipped lnc_serve daemon (--threads 2, fresh cache
// dir) driven by one client over one persistent Unix-socket connection,
// in a closed loop: the next request goes out only after the reply.
//
// The session is generated from the seed: a few dozen curve keys (value
// and success presets, each with its own 12-point n-grid), each first a
// miss, then topped up in several steps; after every compute round a
// read phase re-reads every key as a hit while nothing is computing.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common.h"
#include "obs/trace.h"
#include "rand/splitmix.h"
#include "scenario/presets.h"
#include "scenario/spec_json.h"
#include "serve/service.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace lnc;

// ------------------------------------------------------------ session ----

struct Key {
  std::string preset;
  std::vector<std::uint64_t> grid;
  std::vector<std::uint64_t> trials;  ///< miss count, then each top-up's
};

struct Session {
  std::vector<Key> keys;
  /// Per round (0 = misses, then top-ups): the order keys are computed.
  std::vector<std::vector<std::size_t>> compute_order;
  /// Per read phase (one after each round): the order keys are re-read.
  std::vector<std::vector<std::size_t>> read_order;
};

std::vector<std::size_t> shuffled(std::size_t count, rand::SplitMix64& gen) {
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  for (std::size_t i = count; i > 1; --i) {
    std::swap(order[i - 1], order[gen.next_below(i)]);
  }
  return order;
}

/// The session a seed generates. The three presets cost about the same
/// per trial (one value, two success curves), every key covers the same
/// trial total, and the n-grids differ only by a small jitter, so the
/// work — and the latency distributions — are the same for every seed;
/// the seed changes which curves are asked for, the top-up steps, and
/// every order. With two success curves to one value curve (whose
/// responses are three times larger), hit p50 falls inside the success
/// cluster and hit p90 inside the value cluster, not on a boundary.
Session make_session(std::uint64_t seed, bool smoke) {
  static const char* const kPresets[] = {
      "hard-ring-beta", "random-regular-mis-luby", "rand-matching-rounds"};
  static const std::uint64_t kBaseGrid[12] = {12, 24, 32, 40, 48, 64,
                                              80, 96, 128, 160, 192, 256};
  const std::size_t variants = smoke ? 1 : 10;
  const std::uint64_t first = smoke ? 4 : 32;
  const std::vector<std::uint64_t> steps =
      smoke ? std::vector<std::uint64_t>{2, 4}
            : std::vector<std::uint64_t>{24, 28, 32, 36, 40};

  Session session;
  rand::SplitMix64 gen(derive_seed(seed, 0x5E55));
  for (const char* preset : kPresets) {
    for (std::size_t v = 0; v < variants; ++v) {
      Key key;
      key.preset = preset;
      // The first point carries the variant index, so keys are distinct.
      for (std::size_t i = 0; i < 12; ++i) {
        key.grid.push_back(kBaseGrid[i] + (i == 0 ? v : gen.next_below(8)));
      }
      std::uint64_t total = first;
      key.trials.push_back(total);
      for (const std::size_t s : shuffled(steps.size(), gen)) {
        total += steps[s];
        key.trials.push_back(total);
      }
      session.keys.push_back(std::move(key));
    }
  }
  for (std::size_t r = 0; r <= steps.size(); ++r) {
    session.compute_order.push_back(shuffled(session.keys.size(), gen));
    session.read_order.push_back(shuffled(session.keys.size(), gen));
  }
  return session;
}

std::string request_line(const Key& key, std::uint64_t trials,
                         std::uint64_t seed) {
  std::ostringstream os;
  os << "{\"scenario\": \"" << key.preset << "\", \"trials\": " << trials
     << ", \"seed\": " << seed << ", \"n\": [";
  for (std::size_t i = 0; i < key.grid.size(); ++i) {
    os << (i == 0 ? "" : ", ") << key.grid[i];
  }
  os << "]}";
  return os.str();
}

/// The spec the daemon builds from request_line (preset plus overrides).
scenario::ScenarioSpec key_spec(const Key& key, std::uint64_t trials,
                                std::uint64_t seed) {
  scenario::ScenarioSpec spec = *scenario::find_preset(key.preset);
  spec.trials = trials;
  spec.base_seed = seed;
  spec.n_grid = key.grid;
  return spec;
}

// ------------------------------------------------------------ transport --

struct Reply {
  std::string error;  ///< empty when the exchange itself succeeded
  std::string outcome;
  std::uint64_t reused = 0;
  std::uint64_t computed = 0;
  std::optional<scenario::SweepResult> result;  ///< when asked for
};

/// One request of the session: the key, its trial count, and whether the
/// caller needs the served result back (not just the cache outcome).
using Transport = std::function<Reply(const Key&, std::uint64_t trials,
                                      bool want_result, double& seconds)>;

/// The lnc_serve daemon as a child process. Set-up ends when the daemon
/// reports `listening` on stderr — the socket is bound by then — and the
/// client's connection is open.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket,
         const std::string& cache) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], 2);
    posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
    posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
    const std::string args[] = {binary, "--socket", socket, "--cache", cache,
                                "--threads", "2"};
    std::vector<char*> argv;
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(pipe_fds[1]);
    stderr_fd_ = pipe_fds[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + binary + ": " + std::strerror(rc));
    }
    // Wait for the status line (bounded: a daemon that never listens is a
    // failed run, not a hang).
    std::string text;
    const double deadline = now_seconds() + 30.0;
    while (text.find("listening on") == std::string::npos) {
      pollfd pfd{stderr_fd_, POLLIN, 0};
      const bool late = now_seconds() > deadline || ::poll(&pfd, 1, 100) < 0;
      char chunk[512];
      const ssize_t got = late || (pfd.revents & (POLLIN | POLLHUP)) == 0
                              ? 0
                              : ::read(stderr_fd_, chunk, sizeof(chunk));
      if (late || got < 0 || (got == 0 && (pfd.revents & POLLHUP) != 0)) {
        stop();
        ::close(stderr_fd_);
        stderr_fd_ = -1;
        throw std::runtime_error("lnc_serve did not report listening: " + text);
      }
      text.append(chunk, static_cast<std::size_t>(std::max<ssize_t>(got, 0)));
    }
  }

  ~Daemon() {
    if (pid_ > 0) stop();
    if (stderr_fd_ >= 0) ::close(stderr_fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return pid_; }

  /// SIGTERM, then waits (SIGKILL after 10 s). True on a clean exit 0.
  bool stop() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    const double deadline = now_seconds() + 10.0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_seconds() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(2000);
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  int stderr_fd_ = -1;
};

/// One persistent client connection speaking the line protocol.
class Connection {
 public:
  explicit Connection(const std::string& socket) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || socket.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("cannot create the client socket");
    }
    std::strncpy(addr.sun_path, socket.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one line and reads one response line; false when the
  /// connection broke.
  bool exchange(const std::string& line, std::string& response) {
    const std::string out = line + "\n";
    for (std::size_t sent = 0; sent < out.size();) {
      // MSG_NOSIGNAL: a daemon that died must count as a failed request,
      // not kill the client with SIGPIPE.
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    response.clear();
    char chunk[1 << 16];
    while (response.empty() || response.back() != '\n') {
      // Polls without sleeping: on a shared host, waking a halted vCPU
      // for the reply would add the host's scheduling delay to every
      // round trip, which is the client's cost, not the daemon's.
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
        continue;
      }
      if (n <= 0) return false;
      response.append(chunk, static_cast<std::size_t>(n));
    }
    response.pop_back();
    return true;
  }

 private:
  int fd_ = -1;
};

/// Reads a daemon response. Hits skip the (large) result unless it is
/// wanted: the cache block comes first in every ok response.
Reply parse_response(const std::string& response, bool want_result) {
  Reply reply;
  static const std::string kOk = "{\"status\": \"ok\", \"cache\": ";
  if (response.rfind(kOk, 0) != 0) {
    reply.error = "daemon error: " + response.substr(0, 300);
    return reply;
  }
  try {
    if (want_result) {
      const scenario::Json root = scenario::Json::parse(response);
      const scenario::Json& cache = root.at("cache");
      reply.outcome = cache.at("outcome").as_string();
      reply.reused = cache.at("trials_reused").as_uint64();
      reply.computed = cache.at("trials_computed").as_uint64();
      reply.result = scenario::sweep_from_json(root.at("result"));
    } else {
      const std::size_t end = response.find('}', kOk.size());
      const scenario::Json cache =
          scenario::Json::parse(response.substr(kOk.size(), end + 1 - kOk.size()));
      reply.outcome = cache.at("outcome").as_string();
      reply.reused = cache.at("trials_reused").as_uint64();
      reply.computed = cache.at("trials_computed").as_uint64();
    }
  } catch (const std::exception& ex) {
    reply.error = std::string("malformed response: ") + ex.what();
  }
  return reply;
}

// ------------------------------------------------------------ playback ---

struct Playback {
  Samples hit, topup, miss, compute;
  double fresh_node_trials = 0;  ///< Σ actual_n × trials computed
  std::uint64_t requests = 0, hits = 0, topups = 0, misses = 0;
  std::uint64_t reused = 0, computed = 0;
  std::vector<scenario::SweepResult> final;  ///< per key, last served
};

/// Plays the session through `transport`. Read phase r ends once
/// `read_seconds` × (r + 1) / rounds have passed since the start (at
/// least one sweep over every key; exactly one when read_seconds is 0).
/// Every reply is checked against the outcome the script expects.
Playback play(const Session& session, const Transport& transport,
              double read_seconds, Report& report) {
  Playback out;
  out.final.resize(session.keys.size());
  const double start = now_seconds();
  const std::size_t rounds = session.compute_order.size();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const std::size_t k : session.compute_order[r]) {
      const Key& key = session.keys[k];
      const std::uint64_t previous = r == 0 ? 0 : key.trials[r - 1];
      double seconds = 0;
      const Reply reply = transport(key, key.trials[r], true, seconds);
      const char* expected = r == 0 ? "miss" : "topup";
      const bool ok = reply.error.empty() && reply.outcome == expected &&
                      reply.reused == previous &&
                      reply.computed == key.trials[r] - previous &&
                      reply.result.has_value();
      report.op(ok, key.preset + ": expected " + expected + " " +
                        reply.error + " got " + reply.outcome);
      ++out.requests;
      if (!ok) continue;
      (r == 0 ? out.miss : out.topup).add_seconds(seconds);
      out.compute.add_seconds(seconds);
      (r == 0 ? out.misses : out.topups) += 1;
      out.reused += reply.reused;
      out.computed += reply.computed;
      double n_sum = 0;
      for (const scenario::SweepRow& row : reply.result->rows) {
        n_sum += static_cast<double>(row.actual_n);
      }
      out.fresh_node_trials += n_sum * static_cast<double>(reply.computed);
      out.final[k] = *reply.result;
    }
    const double phase_end =
        start + read_seconds * static_cast<double>(r + 1) / rounds;
    bool first_sweep = true;
    do {
      for (const std::size_t k : session.read_order[r]) {
        const Key& key = session.keys[k];
        double seconds = 0;
        // The first sweep of a phase also checks the served bits.
        const Reply reply = transport(key, key.trials[r], first_sweep, seconds);
        bool ok = reply.error.empty() && reply.outcome == "hit" &&
                  reply.reused == key.trials[r] && reply.computed == 0;
        if (ok && first_sweep) {
          ok = reply.result && fingerprint(*reply.result) == fingerprint(out.final[k]);
        }
        report.op(ok, key.preset + ": expected an exact hit " + reply.error +
                          " got " + reply.outcome);
        ++out.requests;
        if (!ok) continue;
        out.hit.add_seconds(seconds);
        ++out.hits;
        out.reused += reply.reused;
      }
      first_sweep = false;
    } while (now_seconds() < phase_end);
  }
  return out;
}

}  // namespace

void serve_curves(const Options& options, Report& report) {
  const std::string source = "serve-curves";
  const Session session = make_session(options.seed, options.smoke());
  // The base seed every request carries (the daemon's curves' seed).
  const std::uint64_t seed = derive_seed(options.seed, 0xC0DE);
  std::filesystem::remove_all("daemon");
  std::filesystem::create_directories("daemon");

  const double setup_start = now_seconds();
  std::optional<Daemon> daemon;
  std::optional<Connection> connection;
  try {
    daemon.emplace(options.serve_bin, "daemon/sock", "daemon/store");
    connection.emplace("daemon/sock");
  } catch (const std::exception& ex) {
    report.op(false, std::string("daemon set-up: ") + ex.what());
    return;
  }
  report.setup_s = now_seconds() - setup_start;
  if (options.setup_only()) {
    connection.reset();
    report.op(daemon->stop(), "lnc_serve did not exit cleanly");
    return;
  }

  const Transport over_socket = [&](const Key& key, std::uint64_t trials,
                                    bool want_result, double& seconds) {
    const std::string line = request_line(key, trials, seed);
    std::string response;
    const obs::Span span("serve.daemon_round_trip");
    const double start = now_seconds();
    const bool ok = connection->exchange(line, response);
    seconds = now_seconds() - start;
    if (!ok) return Reply{"connection dropped", "", 0, 0, std::nullopt};
    return parse_response(response, want_result);
  };
  // Read phases fill the run; a traced run reads every key once per phase
  // (its timings come from the run without tracing).
  const double read_seconds =
      options.smoke() || options.trace() ? 0.0 : options.seconds;
  const Playback played = play(session, over_socket, read_seconds, report);

  // The daemon's own totals must match the script.
  std::string response;
  bool stats_ok = connection->exchange("{\"op\": \"stats\"}", response);
  if (stats_ok) {
    try {
      const scenario::Json stats = scenario::Json::parse(response).at("stats");
      stats_ok = stats.at("queries").as_uint64() == played.requests &&
                 stats.at("hits").as_uint64() == played.hits &&
                 stats.at("topups").as_uint64() == played.topups &&
                 stats.at("misses").as_uint64() == played.misses;
    } catch (const std::exception&) {
      stats_ok = false;
    }
  }
  report.op(stats_ok, "daemon stats disagree with the session");
  const double daemon_hwm_mb = proc_status_field(daemon->pid(), "VmHWM") / 1024.0;
  const double daemon_threads = proc_status_field(daemon->pid(), "Threads");
  connection.reset();
  report.op(daemon->stop(), "lnc_serve did not exit cleanly");

  report.latency["hit"] = played.hit;
  report.latency["topup"] = played.topup;
  report.latency["miss"] = played.miss;
  report.latency["compute"] = played.compute;
  report.metrics["node_trials_per_s"] =
      played.fresh_node_trials / (played.compute.sum() / 1e3);
  report.metrics["request_p50_ms"] = played.hit.percentile(50);
  report.metrics["request_p90_ms"] = played.hit.percentile(90);
  report.metrics["compute_p50_ms"] = played.compute.percentile(50);
  report.metrics["peak_rss_mb"] = daemon_hwm_mb;

  // Outside the timed part: sampled curves must equal an in-process cold
  // run at the same trial count, bit for bit — the cache's own contract.
  const stats::ThreadPool pool(2);
  scenario::SweepOptions sweep_options;
  sweep_options.pool = &pool;
  rand::SplitMix64 gen(derive_seed(options.seed, 0xC01D));
  const std::size_t samples = options.smoke() ? 1 : 3;
  Samples run_sweep_ms;
  double merge_s = 0, compile_s = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const std::size_t k = gen.next_below(session.keys.size());
    const Key& key = session.keys[k];
    const scenario::ScenarioSpec spec = key_spec(key, key.trials.back(), seed);
    double start = now_seconds();
    const scenario::CompiledScenario compiled = [&] {
      const obs::Span span("scenario.compile");
      return scenario::compile(spec);
    }();
    compile_s += now_seconds() - start;
    start = now_seconds();
    const scenario::SweepResult cold = [&] {
      const obs::Span span("scenario.run_sweep");
      return scenario::run_sweep(compiled, sweep_options);
    }();
    run_sweep_ms.add_seconds(now_seconds() - start);
    report.op(fingerprint(cold) == fingerprint(played.final[k]),
              key.preset + ": served curve differs from a cold run");
    if (!options.trace()) continue;
    // The last top-up as the daemon computed it: cached prefix + range.
    const std::uint64_t split = key.trials[key.trials.size() - 2];
    std::vector<scenario::SweepResult> parts;
    for (const local::TrialRange range :
         {local::TrialRange{0, split}, local::TrialRange{split, spec.trials}}) {
      scenario::SweepOptions ranged = sweep_options;
      ranged.trial_range = range;
      const obs::Span span("scenario.run_sweep");
      parts.push_back(scenario::run_sweep(compiled, ranged));
    }
    const obs::Span span("scenario.merge_trial_ranges");
    start = now_seconds();
    const scenario::SweepResult merged = scenario::merge_trial_ranges(parts);
    merge_s += now_seconds() - start;
    report.op(fingerprint(merged) == fingerprint(cold),
              key.preset + ": merged trial ranges differ from a cold run");
  }
  if (!options.trace()) return;

  // Compiling every curve first interns its graphs, so neither replay
  // below pays for building them.
  std::vector<scenario::ScenarioSpec> specs;
  std::vector<scenario::CompiledScenario> compiled;
  for (const Key& key : session.keys) {
    specs.push_back(key_spec(key, key.trials.back(), seed));
    const obs::Span span("scenario.compile");
    const double start = now_seconds();
    compiled.push_back(scenario::compile(specs.back()));
    compile_s += now_seconds() - start;
  }
  vectorized_share(compiled, source, report);

  // Traced run: replay the session in process against two SweepServices
  // on fresh cache dirs, one plain and one traced. Each request goes to
  // both back to back, alternating which goes first, so drift on a shared
  // machine falls on both alike; the traced answer must equal the plain
  // one. The daemon's hit round trip minus the in-process hit query is
  // the transport's share.
  std::filesystem::remove_all("replay-plain");
  std::filesystem::remove_all("replay-traced");
  serve::SweepService services[2] = {serve::SweepService("replay-plain", {2}),
                                     serve::SweepService("replay-traced", {2})};
  Samples traced_queries;
  std::uint64_t turn = 0;
  const Transport in_process = [&](const Key& key, std::uint64_t trials,
                                   bool, double& seconds) {
    const scenario::ScenarioSpec spec = key_spec(key, trials, seed);
    Reply replies[2];
    for (std::uint64_t side = 0; side < 2; ++side) {
      const std::size_t traced = (turn + side) % 2;
      set_tracing(traced == 1);
      Reply& reply = replies[traced];
      const obs::Span span("serve.query");
      const double start = now_seconds();
      try {
        serve::QueryOutcome outcome = services[traced].query(spec);
        const double elapsed = now_seconds() - start;
        if (traced == 1) {
          traced_queries.add_seconds(elapsed);
        } else {
          seconds = elapsed;
        }
        reply.outcome = serve::to_string(outcome.outcome);
        reply.reused = outcome.trials_reused;
        reply.computed = outcome.trials_computed;
        reply.result = std::move(outcome.result);
      } catch (const std::exception& ex) {
        reply.error = ex.what();
      }
    }
    ++turn;
    const bool same =
        replies[0].error.empty() && replies[1].error.empty() &&
        replies[1].outcome == replies[0].outcome &&
        fingerprint(*replies[1].result) == fingerprint(*replies[0].result);
    if (!same && replies[0].error.empty()) {
      replies[0].error = "the traced replay answered differently";
    }
    return replies[0];
  };
  const Playback plain = play(session, in_process, 0.0, report);
  set_tracing(true);
  std::filesystem::remove_all("replay-plain");
  std::filesystem::remove_all("replay-traced");
  report.set_layer("obs.overhead",
                   traced_queries.sum() / (plain.hit.sum() + plain.compute.sum()) - 1.0,
                   source);
  report.set_layer("serve.query_ms.hit", plain.hit.percentile(50), source);
  report.set_layer("serve.query_ms.topup", plain.topup.percentile(50), source);
  report.set_layer("serve.query_ms.miss", plain.miss.percentile(50), source);
  report.set_layer("serve.transport_ms",
                   played.hit.percentile(50) - plain.hit.percentile(50), source);
  report.set_layer("serve.hit_share",
                   static_cast<double>(played.hits) / played.requests, source);
  report.set_layer("serve.trials_reused_share",
                   static_cast<double>(played.reused) /
                       static_cast<double>(played.reused + played.computed),
                   source);
  report.set_layer("serve.daemon_threads", daemon_threads, source);
  report.set_layer("scenario.merge_trial_ranges_us", merge_s * 1e6 / samples,
                   source);
  report.set_layer("scenario.run_sweep_ms",
                   run_sweep_ms.sum() / static_cast<double>(samples), source);

  report.set_layer("scenario.compile_ms",
                   compile_s * 1e3 / static_cast<double>(samples + specs.size()),
                   source);
  layer_metrics_from_results(played.final, 2, source, report);
  layer_metrics_from_entries(specs, played.final, source, report);
}

}  // namespace perfbench
