#include "orchestrate/transport.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace lnc::orchestrate {
namespace {

/// Decodes a reaped wait status into the TransportResult.
TransportResult& finish_wait(int status, TransportResult& result) {
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
    if (result.exit_code == 127) {
      // 127 is exec/command-not-found from our direct exec OR from a
      // template's shell — don't name argv[0], it may just be /bin/sh.
      result.error = "exited with code 127 (command not found)";
    } else if (result.exit_code != 0) {
      result.error =
          "exited with code " + std::to_string(result.exit_code);
    }
  } else if (WIFSIGNALED(status)) {
    result.exit_code = 128 + WTERMSIG(status);
    result.error =
        std::string("killed by signal ") + std::to_string(WTERMSIG(status));
  } else {
    result.error = "ended with unrecognized wait status";
  }
  return result;
}

/// Blocking argv runner with a kill-at-deadline. The child's stdout and
/// stderr land in job-specific log files so concurrent shard output never
/// interleaves with the coordinator's status stream.
TransportResult run_argv(const std::vector<std::string>& argv,
                         const std::string& log_path,
                         double timeout_seconds) {
  TransportResult result;
  std::vector<char*> arg_ptrs;
  arg_ptrs.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    arg_ptrs.push_back(const_cast<char*>(arg.c_str()));
  }
  arg_ptrs.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    result.error = std::string("fork failed: ") + std::strerror(errno);
    return result;
  }
  if (pid == 0) {
    // Child: own process group (so a deadline kill reaps the whole job
    // tree — a template's /bin/sh AND whatever it spawned), capture
    // output, then exec. Only async-signal-safe calls.
    ::setpgid(0, 0);
    // stdin from /dev/null: concurrent children must not drain (or block
    // on) the coordinator's terminal — ssh without -n would otherwise
    // hang invisibly on a host-key or password prompt.
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      if (devnull > STDERR_FILENO) ::close(devnull);
    }
    const char* sink = log_path.empty() ? "/dev/null" : log_path.c_str();
    const int fd = ::open(sink, O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      if (fd > STDERR_FILENO) ::close(fd);
    }
    ::execvp(arg_ptrs[0], arg_ptrs.data());
    ::_exit(127);  // exec failed
  }
  // Mirror the setpgid from the parent side too, closing the race where
  // the deadline fires before the child reaches its own call.
  ::setpgid(pid, pid);

  result.launched = true;
  int status = 0;
  if (timeout_seconds <= 0) {
    // No deadline: block in waitpid instead of polling — a coordinator
    // babysitting hours-long shards should not wake 200 times a second.
    if (::waitpid(pid, &status, 0) < 0) {
      result.error = std::string("waitpid failed: ") + std::strerror(errno);
      return result;
    }
    return finish_wait(status, result);
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  while (true) {
    const pid_t reaped = ::waitpid(pid, &status, WNOHANG);
    if (reaped == pid) break;
    if (reaped < 0) {
      result.error =
          std::string("waitpid failed: ") + std::strerror(errno);
      return result;
    }
    if (timeout_seconds > 0 &&
        std::chrono::steady_clock::now() >= deadline) {
      // Straggler: kill the whole coordinator-side job process group and
      // reap; the supervisor re-dispatches. Group-wide, so a template's
      // local shell children cannot linger. A REMOTE process an ssh-style
      // template started may still survive its client — benign for
      // results (the frozen spec makes any late atomic write
      // bit-identical to the re-run's), but wrap the remote command in
      // its own `timeout` to reclaim the compute.
      ::kill(-pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      result.timed_out = true;
      result.error = "timed out after " +
                     std::to_string(timeout_seconds) + " s (killed)";
      return result;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return finish_wait(status, result);
}

}  // namespace

std::vector<std::string> sweep_argv(const std::string& sweep_binary,
                                    const ShardJob& job) {
  std::vector<std::string> argv = {
      sweep_binary,
      "--spec",
      job.spec_path,
      "--trial-range",
      std::to_string(job.trial_begin) + ":" + std::to_string(job.trial_end),
      "--out",
      job.output_path,
  };
  if (job.threads != 1) {
    argv.push_back("--threads");
    argv.push_back(std::to_string(job.threads));
  }
  return argv;
}

std::string shell_quote(const std::string& text) {
  std::string quoted = "'";
  for (const char ch : text) {
    if (ch == '\'') {
      quoted += "'\\''";
    } else {
      quoted.push_back(ch);
    }
  }
  quoted.push_back('\'');
  return quoted;
}

/// True when the text passes through ANY number of shell evaluations
/// unchanged — no quoting, splitting, or expansion characters.
bool shell_safe(const std::string& text) {
  if (text.empty()) return false;
  for (const char ch : text) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == '.' ||
                    ch == '/' || ch == ':' || ch == '+' || ch == ',' ||
                    ch == '=' || ch == '@' || ch == '%' || ch == '-';
    if (!ok) return false;
  }
  return true;
}

std::string render_template(const std::string& command_template,
                            const std::string& sweep_command,
                            const ShardJob& job) {
  std::string command;
  for (const std::string& arg : sweep_argv(sweep_command, job)) {
    // Quoting cannot survive a template's unknown number of shell
    // evaluations (the local /bin/sh consumes one level; ssh's remote
    // shell re-splits; srun does not) — so arguments are emitted BARE
    // and must be shell-safe. In practice that means: pick run
    // directories without spaces or shell metacharacters.
    if (!shell_safe(arg)) {
      throw std::runtime_error(
          "command-template argument '" + arg +
          "' contains shell-unsafe characters; use run-directory and "
          "binary paths made of letters, digits, and _ . / : + , = @ % -");
    }
    if (!command.empty()) command.push_back(' ');
    command += arg;
  }
  std::string rendered = command_template;
  bool placed = false;
  auto replace_all = [&](const std::string& token, const std::string& with) {
    std::size_t pos = 0;
    while ((pos = rendered.find(token, pos)) != std::string::npos) {
      rendered.replace(pos, token.size(), with);
      pos += with.size();
      placed |= token == "{cmd}";
    }
  };
  replace_all("{shard}", std::to_string(job.shard));
  replace_all("{cmd}", command);
  if (!placed) rendered += " " + command;
  return rendered;
}

TransportResult LocalProcessTransport::run(const ShardJob& job,
                                           double timeout_seconds) {
  return run_argv(sweep_argv(sweep_binary_, job), job.log_path,
                  timeout_seconds);
}

TransportResult SshTransport::run(const ShardJob& job,
                                  double timeout_seconds) {
  const std::string rendered =
      render_template(template_, sweep_command_, job);
  return run_argv({"/bin/sh", "-c", rendered}, job.log_path,
                  timeout_seconds);
}

TransportResult FaultInjectingTransport::run(const ShardJob& job,
                                             double timeout_seconds) {
  if (job.shard == shard_) {
    unsigned remaining = remaining_.load(std::memory_order_relaxed);
    while (remaining > 0) {
      if (remaining_.compare_exchange_weak(remaining, remaining - 1,
                                           std::memory_order_relaxed)) {
        TransportResult result;
        result.launched = true;
        result.exit_code = 99;
        result.error = "injected failure (test hook)";
        return result;
      }
    }
  }
  return inner_->run(job, timeout_seconds);
}

}  // namespace lnc::orchestrate
