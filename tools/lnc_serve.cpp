// lnc_serve — the serving tier's front door (src/serve). One binary,
// two modes:
//
//   lnc_serve --socket PATH --cache DIR [--tcp PORT] [--threads N]
//             [--max-requests N]
//       Run the daemon: line-delimited JSON requests over a Unix socket
//       (and optionally loopback TCP), answered from the
//       content-addressed result store. A repeated query is a cache
//       hit; a query with more trials computes only the missing trial
//       range and merges it exactly (see src/serve/daemon.h for the
//       wire format).
//
//   lnc_serve --query (--socket PATH | --tcp PORT) SPEC [overrides]
//   lnc_serve --query ... --request '{"scenario": ...}'
//       Client: resolve the spec here and send {"spec": {...}} (or pass
//       a --request line through), print the response JSON on stdout and
//       a human-readable cache line on stderr. Exits nonzero when the
//       daemon reports an error. SPEC and the overrides are
//       scenario::SpecFlags, the flag table lnc_sweep and lnc_launch
//       share. The connect retries until --timeout seconds, so a script
//       can start the daemon and query it with no sleep in between.
//
//   lnc_serve --query-stats (--socket PATH | --tcp PORT)
//       Ask a running daemon for its monotonic query totals and latency
//       metrics ({"op": "stats"} on the wire — runs no trials): raw
//       response JSON on stdout, a one-line summary on stderr.
#include <iostream>
#include <optional>
#include <string>

#include "scenario/spec_flags.h"
#include "scenario/spec_json.h"
#include "serve/daemon.h"
#include "util/build_info.h"
#include "util/string_util.h"

namespace {

using namespace lnc;

int usage(std::ostream& os, int code) {
  os << "usage: lnc_serve --socket PATH --cache DIR [--tcp PORT]\n"
        "                 [--threads N] [--max-requests N]\n"
        "       lnc_serve --query (--socket PATH | --tcp PORT)\n"
        "                 (SPEC [overrides] | --request JSONLINE)\n"
        "                 [--timeout SECONDS]\n"
        "       lnc_serve --query-stats (--socket PATH | --tcp PORT)\n"
     << scenario::SpecFlags::usage()
     << "The daemon answers spec queries from a content-addressed cache\n"
        "of merged sweep results: repeated queries hit without running a\n"
        "single trial, and a raised trial count computes only the missing\n"
        "range — bit-identical to a cold run at the full count.\n"
        "build identity: " << util::build_identity() << "\n";
  return code;
}

struct Options {
  bool help = false;
  bool version = false;
  bool query = false;
  bool query_stats = false;
  std::string socket_path;
  int tcp_port = 0;
  std::string cache_dir;
  unsigned threads = 0;
  std::uint64_t max_requests = 0;
  // Client-side request assembly.
  scenario::SpecFlags spec;
  std::optional<std::string> raw_request;
  double timeout_seconds = 10.0;
};

bool parse_args(int argc, char** argv, Options& options, std::string& error) {
  auto next_value = [&](int& i, const std::string& flag) -> const char* {
    if (i + 1 >= argc) {
      error = flag + " needs a value";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (options.spec.offer(argc, argv, i, error)) {
      if (!error.empty()) return false;
    } else if (arg == "--help") {
      options.help = true;
    } else if (arg == "--version") {
      options.version = true;
    } else if (arg == "--query") {
      options.query = true;
    } else if (arg == "--query-stats") {
      options.query_stats = true;
    } else if (arg == "--socket") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.socket_path = value;
    } else if (arg == "--tcp") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      const std::optional<std::uint64_t> port = util::parse_uint(value);
      if (!port || *port == 0 || *port > 65535) {
        error = std::string("--tcp expects a port in [1, 65535], got '") +
                value + "'";
        return false;
      }
      options.tcp_port = static_cast<int>(*port);
    } else if (arg == "--cache") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.cache_dir = value;
    } else if (arg == "--threads") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      const std::optional<std::uint64_t> threads = util::parse_uint(value);
      if (!threads || *threads > 4096) {
        error = std::string("--threads expects a non-negative integer "
                            "(<= 4096), got '") + value + "'";
        return false;
      }
      options.threads = static_cast<unsigned>(*threads);
    } else if (arg == "--max-requests") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      const std::optional<std::uint64_t> count = util::parse_uint(value);
      if (!count) {
        error = std::string("--max-requests expects a non-negative "
                            "integer, got '") + value + "'";
        return false;
      }
      options.max_requests = *count;
    } else if (arg == "--request") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.raw_request = value;
    } else if (arg == "--timeout") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      const std::optional<double> seconds =
          util::parse_nonnegative_double(value);
      if (!seconds) {
        error = std::string("--timeout expects seconds, got '") + value +
                "'";
        return false;
      }
      options.timeout_seconds = *seconds;
    } else {
      error = "unknown flag '" + arg + "'";
      return false;
    }
  }
  return true;
}

/// The client's request line: --request verbatim, else the resolved spec
/// as {"spec": {...}}. Returns the exit code of a failure (2 for a usage
/// error, 1 for an unknown preset or unreadable spec file) with `error`
/// set, else 0.
int build_request(const Options& options, std::string& request,
                  std::string& error) {
  if (options.raw_request) {
    if (options.spec.named() > 0 || options.spec.has_overrides()) {
      error = "--request carries the whole query; it takes no spec flags";
      return 2;
    }
    request = *options.raw_request;
    return 0;
  }
  try {
    std::string spec_json = scenario::spec_to_json(options.spec.resolve());
    spec_json.pop_back();  // one line on the wire
    request = "{\"spec\": " + spec_json + "}";
    return 0;
  } catch (const scenario::SpecFlags::UsageError& ex) {
    error = ex.what();
    return 2;
  } catch (const std::exception& ex) {
    error = ex.what();
    return 1;
  }
}

int query_mode(const Options& options) {
  if (options.socket_path.empty() && options.tcp_port == 0) {
    std::cerr << "--query needs --socket PATH or --tcp PORT\n";
    return 2;
  }
  std::string request;
  std::string error;
  if (const int rc = build_request(options, request, error); rc != 0) {
    std::cerr << error << "\n";
    return rc;
  }
  serve::Endpoint endpoint;
  endpoint.socket_path = options.socket_path;
  endpoint.tcp_port = options.tcp_port;
  std::string response;
  if (!serve::query_daemon(endpoint, request, options.timeout_seconds,
                           response, error)) {
    std::cerr << "lnc_serve: " << error << "\n";
    return 1;
  }
  // Raw response on stdout for scripts; the human-readable cache line on
  // stderr so piping stdout into a JSON tool stays clean.
  std::cout << response << "\n";
  try {
    const scenario::Json root = scenario::Json::parse(response);
    if (root.at("status").as_string() != "ok") {
      std::cerr << "lnc_serve: daemon error: "
                << root.at("error").as_string() << "\n";
      return 1;
    }
    const scenario::Json& cache = root.at("cache");
    std::cerr << "cache: outcome=" << cache.at("outcome").as_string()
              << " trials_reused=" << cache.at("trials_reused").as_uint64()
              << " trials_computed="
              << cache.at("trials_computed").as_uint64() << "\n";
  } catch (const std::exception& ex) {
    std::cerr << "lnc_serve: malformed daemon response: " << ex.what()
              << "\n";
    return 1;
  }
  return 0;
}

/// {"op": "stats"}: raw response on stdout (scripts), a one-line totals
/// summary on stderr (humans / CI greps).
int stats_mode(const Options& options) {
  if (options.socket_path.empty() && options.tcp_port == 0) {
    std::cerr << "--query-stats needs --socket PATH or --tcp PORT\n";
    return 2;
  }
  serve::Endpoint endpoint;
  endpoint.socket_path = options.socket_path;
  endpoint.tcp_port = options.tcp_port;
  std::string response;
  std::string error;
  if (!serve::query_daemon(endpoint, "{\"op\": \"stats\"}",
                           options.timeout_seconds, response, error)) {
    std::cerr << "lnc_serve: " << error << "\n";
    return 1;
  }
  std::cout << response << "\n";
  try {
    const scenario::Json root = scenario::Json::parse(response);
    if (root.at("status").as_string() != "ok") {
      std::cerr << "lnc_serve: daemon error: "
                << root.at("error").as_string() << "\n";
      return 1;
    }
    const scenario::Json& stats = root.at("stats");
    std::cerr << "stats: queries=" << stats.at("queries").as_uint64()
              << " hits=" << stats.at("hits").as_uint64()
              << " topups=" << stats.at("topups").as_uint64()
              << " misses=" << stats.at("misses").as_uint64()
              << " trials_reused=" << stats.at("trials_reused").as_uint64()
              << " trials_computed="
              << stats.at("trials_computed").as_uint64() << "\n";
  } catch (const std::exception& ex) {
    std::cerr << "lnc_serve: malformed daemon response: " << ex.what()
              << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!parse_args(argc, argv, options, error)) {
    std::cerr << error << "\n";
    return usage(std::cerr, 2);
  }
  if (options.help) return usage(std::cout, 0);
  if (options.version) {
    std::cout << "lnc_serve (" << util::build_identity() << ")\n";
    return 0;
  }
  if (options.query && options.query_stats) {
    std::cerr << "pick one of --query, --query-stats\n";
    return usage(std::cerr, 2);
  }
  if (options.query_stats) return stats_mode(options);
  if (options.query) return query_mode(options);

  if (options.socket_path.empty()) {
    std::cerr << "the daemon needs --socket PATH\n";
    return usage(std::cerr, 2);
  }
  if (options.cache_dir.empty()) {
    std::cerr << "the daemon needs --cache DIR\n";
    return usage(std::cerr, 2);
  }
  serve::DaemonOptions daemon_options;
  daemon_options.socket_path = options.socket_path;
  daemon_options.tcp_port = options.tcp_port;
  daemon_options.cache_dir = options.cache_dir;
  daemon_options.threads = options.threads;
  daemon_options.max_requests = options.max_requests;
  daemon_options.status = &std::cerr;
  try {
    const int rc = serve::run_daemon(daemon_options, &error);
    if (rc != 0) std::cerr << "lnc_serve: " << error << "\n";
    return rc;
  } catch (const std::exception& ex) {
    std::cerr << "lnc_serve: " << ex.what() << "\n";
    return 1;
  }
}
