// The long-lived lnc_serve daemon: line-delimited JSON over a Unix
// domain socket (and optionally loopback TCP), one request per line,
// one response line per request.
//
// Request (unknown keys rejected; exactly one of scenario/spec):
//   {"scenario": "<preset name>" | "spec": {<scenario spec object>},
//    "trials": T, "seed": S, "n": [16, 64], "params": {"colors": 3}}
// trials/seed/n/params override the named preset or embedded spec.
//
// Introspection (runs no trials):
//   {"op": "stats"}
// answers {"status": "ok", "stats": {"queries": N, "hits": H,
//   "topups": U, "misses": M, "trials_computed": C, "trials_reused": R,
//   "key_locks": K (keys with a query in flight)},
//   "metrics": {<latency histograms: cache_lookup_seconds,
//   query_seconds>}, "identity": {...}}.
//
// Response, one line:
//   {"status": "ok",
//    "cache": {"outcome": "hit|topup|miss", "trials_reused": R,
//              "trials_computed": C, "key": "<sha256>"},
//    "identity": {"seed_stream_epoch": E, "build_rev": "<rev>"},
//    "summary": ["value[...]: mean=... stddev=... trials=...", ...],
//    "notes": [...], "result": {<sweep result JSON>}}
// or {"status": "error", "error": "<message>"}.
//
// Connections are handled on their own threads; SweepService's per-key
// locking makes concurrent identical queries share one computation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "serve/service.h"

namespace lnc::serve {

/// Longest request line the daemon buffers, newline excluded. Past it the
/// daemon answers one {"status": "error", ...} line naming the cap and
/// closes the connection. Spec lines stay far below it (the longest
/// preset's is under 1 KiB).
inline constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

/// Answers one request line with one response line (newline-terminated).
/// Never throws: malformed requests become {"status": "error", ...}.
/// Exposed separately from the socket loop so tests can drive the full
/// protocol without sockets.
std::string handle_request_line(SweepService& service,
                                const std::string& line);

struct DaemonOptions {
  std::string socket_path;    ///< Unix socket (required)
  int tcp_port = 0;           ///< additionally listen on 127.0.0.1:port
  std::string cache_dir;      ///< ResultStore root (required)
  unsigned threads = 0;       ///< per-sweep worker threads (0 = hardware)
  /// Exit after serving this many requests (0 = run until SIGINT /
  /// SIGTERM). Lets CI drive a deterministic start-query-query-exit
  /// cycle without kill/sleep races.
  std::uint64_t max_requests = 0;
  std::ostream* status = nullptr;  ///< progress lines (null = silent)
};

/// Runs the accept loop until a termination signal or the max_requests
/// budget is exhausted. Returns a process exit code; setup failures
/// (unusable socket path, bind/listen errors) report to `error` when
/// non-null and return nonzero.
int run_daemon(const DaemonOptions& options, std::string* error = nullptr);

/// Where a client should connect: exactly one of the two.
struct Endpoint {
  std::string socket_path;
  int tcp_port = 0;
};

/// Sends one request line and returns the one response line (without the
/// trailing newline). Retries the connect until `connect_timeout_seconds`
/// elapses — a client started in the same script as the daemon needs no
/// sleep. Returns false with `error` set on timeout or I/O failure.
bool query_daemon(const Endpoint& endpoint, const std::string& line,
                  double connect_timeout_seconds, std::string& response,
                  std::string& error);

}  // namespace lnc::serve
