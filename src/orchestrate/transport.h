// How shard jobs reach an executor (ROADMAP "remote shard launcher").
//
// A Transport runs ONE shard job to completion — `lnc_sweep --spec S
// --trial-range B:E --out O` — and reports how it ended. The result file
// carries its trial range, which is all the merge reads. The supervisor
// (orchestrate/supervisor.h) owns concurrency, deadlines, and retries;
// transports own only the mechanics of starting the process somewhere and
// waiting for it. Two real transports ship: LocalProcessTransport
// (fork/exec of the local lnc_sweep binary — the CI-testable baseline)
// and SshTransport (a user-supplied command template rendered per shard —
// ssh, srun, or any launcher that blocks until the remote job exits).
// FaultInjectingTransport is the test/CI hook that forces attempt
// failures to exercise the retry and permanent-failure paths.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace lnc::orchestrate {

/// One shard's work order. Paths are absolute (or coordinator-relative);
/// the SshTransport contract is that they resolve on the executor too —
/// i.e. the run directory lives on a shared filesystem, the standard
/// cluster arrangement.
struct ShardJob {
  unsigned shard = 0;
  /// The job's non-empty slice [trial_begin, trial_end) of the frozen
  /// spec's trials; its result merges by range
  /// (scenario::merge_sweep_files).
  std::uint64_t trial_begin = 0;
  std::uint64_t trial_end = 0;
  std::string spec_path;    ///< frozen spec JSON (scenario::spec_to_json)
  std::string output_path;  ///< where the shard result JSON must land
  std::string log_path;     ///< attempt stdout+stderr (empty: /dev/null)
  unsigned threads = 1;     ///< lnc_sweep --threads for this job
};

struct TransportResult {
  bool launched = false;   ///< false: the process never started
  bool timed_out = false;  ///< killed at the deadline (straggler)
  int exit_code = -1;      ///< meaningful when launched and not timed out
  std::string error;       ///< human-readable failure description

  bool ok() const noexcept {
    return launched && !timed_out && exit_code == 0;
  }
};

class Transport {
 public:
  virtual ~Transport() = default;
  virtual std::string name() const = 0;

  /// Runs the job and blocks until it finishes or `timeout_seconds`
  /// elapses (<= 0: no deadline; the process is killed at the deadline).
  /// Must be callable from several supervisor threads concurrently.
  virtual TransportResult run(const ShardJob& job,
                              double timeout_seconds) = 0;
};

/// The lnc_sweep argv a job expands to — shared by both transports and
/// by lnc_launch's status/dry-run output.
std::vector<std::string> sweep_argv(const std::string& sweep_binary,
                                    const ShardJob& job);

/// Single-quotes a string for exactly ONE /bin/sh evaluation (POSIX
/// quoting; embedded single quotes use the '\'' dance). NOT used for
/// template rendering — see render_template.
std::string shell_quote(const std::string& text);

/// Renders an SshTransport command template: `{cmd}` expands to the
/// lnc_sweep invocation, `{shard}` to the job's shard index (so
/// templates can map shards onto hosts, e.g. "ssh worker{shard} {cmd}").
/// A template with no `{cmd}` gets the command appended. Because the
/// rendered line crosses an UNKNOWN number of shell evaluations (local
/// sh, then maybe ssh's remote shell), arguments are emitted bare and
/// must be shell-safe; an argument with spaces or metacharacters throws
/// std::runtime_error telling the user to pick safe paths.
std::string render_template(const std::string& command_template,
                            const std::string& sweep_command,
                            const ShardJob& job);

/// fork/exec of a local lnc_sweep binary; the zero-infrastructure
/// transport CI exercises end to end.
class LocalProcessTransport final : public Transport {
 public:
  explicit LocalProcessTransport(std::string sweep_binary)
      : sweep_binary_(std::move(sweep_binary)) {}

  std::string name() const override { return "local"; }
  TransportResult run(const ShardJob& job, double timeout_seconds) override;

 private:
  std::string sweep_binary_;
};

/// Command-template transport: renders the template per job and runs it
/// through `/bin/sh -c`. Works for ssh, srun, docker exec — anything that
/// blocks until the remote job exits and propagates its exit code.
class SshTransport final : public Transport {
 public:
  /// `sweep_command` is the lnc_sweep spelling ON THE EXECUTOR (default
  /// assumes it is on PATH there).
  explicit SshTransport(std::string command_template,
                        std::string sweep_command = "lnc_sweep")
      : template_(std::move(command_template)),
        sweep_command_(std::move(sweep_command)) {}

  std::string name() const override { return "ssh"; }
  TransportResult run(const ShardJob& job, double timeout_seconds) override;

 private:
  std::string template_;
  std::string sweep_command_;
};

/// Test hook: the first `times` attempts of `shard` fail synthetically
/// (exit 99) without reaching the inner transport; later attempts pass
/// through. CI forces one shard to fail once, proving the supervisor's
/// retry path on every push.
class FaultInjectingTransport final : public Transport {
 public:
  FaultInjectingTransport(Transport& inner, unsigned shard, unsigned times)
      : inner_(&inner), shard_(shard), remaining_(times) {}

  std::string name() const override { return inner_->name(); }
  TransportResult run(const ShardJob& job, double timeout_seconds) override;

 private:
  Transport* inner_;
  unsigned shard_;
  std::atomic<unsigned> remaining_;
};

}  // namespace lnc::orchestrate
