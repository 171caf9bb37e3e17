#include "serve/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <ostream>
#include <sstream>
#include <thread>
#include <vector>

#include "scenario/presets.h"
#include "scenario/spec_json.h"
#include "util/build_info.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace lnc::serve {
namespace {

std::string error_response(const std::string& message) {
  return "{\"status\": \"error\", \"error\": \"" +
         util::json_escape(message) + "\"}\n";
}

std::string string_array_json(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out.append("\"").append(util::json_escape(items[i])).append("\"");
  }
  out += "]";
  return out;
}

scenario::ScenarioSpec spec_from_request(const scenario::Json& root) {
  if (root.has("scenario") == root.has("spec")) {
    throw std::runtime_error(
        "request must carry exactly one of 'scenario' (preset name) or "
        "'spec' (spec object)");
  }
  scenario::ScenarioSpec spec;
  if (root.has("scenario")) {
    const std::string& name = root.at("scenario").as_string();
    const scenario::ScenarioSpec* preset = scenario::find_preset(name);
    if (preset == nullptr) {
      throw std::runtime_error("unknown scenario '" + name + "'");
    }
    spec = *preset;
  } else {
    spec = scenario::spec_from_json(root.at("spec"));
  }
  for (const auto& [key, value] : root.as_object()) {
    if (key == "scenario" || key == "spec") continue;
    if (key == "trials") {
      spec.trials = value.as_uint64();
    } else if (key == "seed") {
      spec.base_seed = value.as_uint64();
    } else if (key == "n") {
      spec.n_grid.clear();
      for (const scenario::Json& n : value.as_array()) {
        spec.n_grid.push_back(n.as_uint64());
      }
    } else if (key == "params") {
      for (const auto& [param, number] : value.as_object()) {
        spec.params[param] = number.as_number();
      }
    } else {
      throw std::runtime_error("unknown request key '" + key + "'");
    }
  }
  return spec;
}

}  // namespace

std::string handle_request_line(SweepService& service,
                                const std::string& line) {
  QueryOutcome outcome;
  try {
    const scenario::Json root = scenario::Json::parse(line);
    // Introspection op, dispatched BEFORE the spec path (which rejects
    // unknown keys): {"op": "stats"} returns the daemon's monotonic
    // query totals plus its latency-metric registry, and runs no trials.
    if (root.has("op")) {
      const std::string& op = root.at("op").as_string();
      if (op != "stats") {
        throw std::runtime_error("unknown op '" + op +
                                 "' (the only op is 'stats')");
      }
      if (root.as_object().size() != 1) {
        throw std::runtime_error(
            "a stats request carries no keys besides 'op'");
      }
      const SweepService::Stats stats = service.stats();
      std::ostringstream os;
      os << "{\"status\": \"ok\", \"stats\": {\"queries\": " << stats.queries
         << ", \"hits\": " << stats.hits << ", \"topups\": " << stats.topups
         << ", \"misses\": " << stats.misses
         << ", \"trials_computed\": " << stats.trials_computed
         << ", \"trials_reused\": " << stats.trials_reused
         << ", \"key_locks\": " << stats.key_locks << "}"
         << ", \"metrics\": " << service.metrics_snapshot().to_json()
         << ", \"identity\": {\"seed_stream_epoch\": "
         << util::seed_stream_epoch() << ", \"build_rev\": \""
         << util::json_escape(util::build_rev()) << "\"}}\n";
      return os.str();
    }
    outcome = service.query(spec_from_request(root));
  } catch (const std::exception& ex) {
    return error_response(ex.what());
  }
  std::ostringstream result_os;
  scenario::write_json(result_os, outcome.result);
  std::string result_json = result_os.str();
  while (!result_json.empty() && result_json.back() == '\n') {
    result_json.pop_back();
  }
  std::ostringstream os;
  os << "{\"status\": \"ok\", \"cache\": {\"outcome\": \""
     << to_string(outcome.outcome)
     << "\", \"trials_reused\": " << outcome.trials_reused
     << ", \"trials_computed\": " << outcome.trials_computed
     << ", \"key\": \"" << outcome.key << "\"}"
     << ", \"identity\": {\"seed_stream_epoch\": "
     << util::seed_stream_epoch() << ", \"build_rev\": \""
     << util::json_escape(util::build_rev()) << "\"}"
     << ", \"summary\": " << string_array_json(summary_lines(outcome.result))
     << ", \"notes\": " << string_array_json(outcome.notes)
     << ", \"result\": " << result_json << "}\n";
  return os.str();
}

namespace {

std::atomic<bool> g_stop{false};

void stop_handler(int) { g_stop.store(true); }

// write(2) the whole buffer; short writes retried.
bool write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

int listen_unix(const std::string& path, std::string* error) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = "socket(AF_UNIX) failed";
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) {
      *error = "socket path '" + path + "' exceeds the AF_UNIX limit (" +
               std::to_string(sizeof(addr.sun_path) - 1) + " bytes)";
    }
    ::close(fd);
    return -1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  // A previous daemon's leftover socket file would make bind fail; a
  // LIVE daemon still answers on its bound inode, so removing the name
  // only orphans truly dead sockets.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    if (error != nullptr) {
      *error = "cannot listen on unix socket '" + path +
               "': " + std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  return fd;
}

int listen_tcp(int port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = "socket(AF_INET) failed";
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  // Loopback only: the daemon is a local serving tier, not an open
  // network service — no auth layer exists.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    if (error != nullptr) {
      *error = "cannot listen on 127.0.0.1:" + std::to_string(port) + ": " +
               std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  return fd;
}

// One connection: read request lines, answer each, until EOF or the
// request budget trips. The 1-second receive timeout keeps the thread
// responsive to a daemon-wide stop even under an idle client. A line
// longer than kMaxRequestLine gets one error line and the connection is
// closed, so no client can grow the daemon's memory without bound.
void serve_connection(int fd, SweepService& service,
                      std::atomic<std::uint64_t>& served,
                      std::uint64_t max_requests) {
  timeval timeout{};
  timeout.tv_sec = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string buffer;
  char chunk[4096];
  while (!g_stop.load()) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line.empty()) continue;
      if (!write_all(fd, handle_request_line(service, line))) break;
      const std::uint64_t count = served.fetch_add(1) + 1;
      if (max_requests != 0 && count >= max_requests) {
        g_stop.store(true);
        break;
      }
      continue;
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;  // receive timeout — re-check the stop flag
      }
      break;
    }
    if (n == 0) break;  // client closed
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (buffer.size() > kMaxRequestLine &&
        buffer.find('\n') == std::string::npos) {
      write_all(fd, error_response("request line exceeds " +
                                   std::to_string(kMaxRequestLine) +
                                   " bytes; connection closed"));
      break;
    }
  }
  ::close(fd);
}

}  // namespace

int run_daemon(const DaemonOptions& options, std::string* error) {
  if (options.socket_path.empty()) {
    if (error != nullptr) *error = "a --socket path is required";
    return 2;
  }
  SweepService service(options.cache_dir, {options.threads});

  std::vector<int> listeners;
  const int unix_fd = listen_unix(options.socket_path, error);
  if (unix_fd < 0) return 2;
  listeners.push_back(unix_fd);
  if (options.tcp_port != 0) {
    const int tcp_fd = listen_tcp(options.tcp_port, error);
    if (tcp_fd < 0) {
      ::close(unix_fd);
      ::unlink(options.socket_path.c_str());
      return 2;
    }
    listeners.push_back(tcp_fd);
  }

  // A client that vanishes mid-response must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  g_stop.store(false);
  std::signal(SIGINT, stop_handler);
  std::signal(SIGTERM, stop_handler);

  if (options.status != nullptr) {
    *options.status << "lnc_serve: listening on " << options.socket_path;
    if (options.tcp_port != 0) {
      *options.status << " and 127.0.0.1:" << options.tcp_port;
    }
    *options.status << " (cache " << service.store().dir() << ", "
                    << util::build_identity() << ")" << std::endl;
  }

  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> workers;
  while (!g_stop.load()) {
    std::vector<pollfd> fds;
    fds.reserve(listeners.size());
    for (const int fd : listeners) fds.push_back({fd, POLLIN, 0});
    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    for (const pollfd& pfd : fds) {
      if ((pfd.revents & POLLIN) == 0) continue;
      const int client = ::accept(pfd.fd, nullptr, nullptr);
      if (client < 0) continue;
      workers.emplace_back(serve_connection, client, std::ref(service),
                           std::ref(served), options.max_requests);
    }
  }

  for (const int fd : listeners) ::close(fd);
  for (std::thread& worker : workers) worker.join();
  ::unlink(options.socket_path.c_str());

  if (options.status != nullptr) {
    const SweepService::Stats stats = service.stats();
    *options.status << "lnc_serve: served " << stats.queries << " queries ("
                    << stats.hits << " hits, " << stats.topups
                    << " top-ups, " << stats.misses << " misses; "
                    << stats.trials_reused << " trials reused, "
                    << stats.trials_computed << " computed)" << std::endl;
  }
  return 0;
}

bool query_daemon(const Endpoint& endpoint, const std::string& line,
                  double connect_timeout_seconds, std::string& response,
                  std::string& error) {
  util::Timer timer;
  int fd = -1;
  // Retry the connect until the deadline: a client launched alongside
  // the daemon (CI smoke) connects as soon as the socket binds, without
  // sleeps in the script.
  while (true) {
    if (!endpoint.socket_path.empty()) {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd >= 0) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (endpoint.socket_path.size() >= sizeof(addr.sun_path)) {
          error = "socket path too long";
          ::close(fd);
          return false;
        }
        std::strncpy(addr.sun_path, endpoint.socket_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) == 0) {
          break;
        }
        ::close(fd);
        fd = -1;
      }
    } else {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd >= 0) {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(endpoint.tcp_port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) == 0) {
          break;
        }
        ::close(fd);
        fd = -1;
      }
    }
    if (timer.elapsed_seconds() > connect_timeout_seconds) {
      error = "could not connect within " +
              std::to_string(connect_timeout_seconds) + "s";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  std::signal(SIGPIPE, SIG_IGN);
  std::string request = line;
  if (request.empty() || request.back() != '\n') request += '\n';
  if (!write_all(fd, request)) {
    error = "send failed";
    ::close(fd);
    return false;
  }
  response.clear();
  char chunk[4096];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      error = "receive failed";
      ::close(fd);
      return false;
    }
    if (n == 0) {
      error = "connection closed before a full response line";
      ::close(fd);
      return false;
    }
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  response.erase(response.find('\n'));
  return true;
}

}  // namespace lnc::serve
