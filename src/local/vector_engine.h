// Trial-vectorized execution backend (ROADMAP "Trial vectorization").
//
// Every Monte-Carlo estimate in the paper is thousands of independent
// trials of the SAME (instance, program) pair. The scalar round engine
// (local/engine.h) advances one trial at a time through per-node heap
// program objects — pointer-chasing and virtual dispatch per node per
// round. This backend advances a BATCH of B trials in lockstep instead:
//
//   * per-node program state lives in contiguous structure-of-arrays
//     storage indexed [trial * n + node] (no program objects at all);
//   * coin flips are drawn batch-at-a-time per round from the per-trial
//     Philox streams — VecRng replays the exact (key, identity, counter)
//     draw sequence of rand::NodeRng, so every number is bit-identical
//     to the scalar engine's;
//   * message rounds are flat passes over the batch against the shared
//     CSR adjacency (messages are never materialized: a "received"
//     message is a read of the sender's round-start state);
//   * per-round skip lists elide trials that already terminated and
//     nodes that are silent/halted.
//
// A program opts in by overriding NodeProgramFactory::create_vector()
// (local/engine.h); everything else transparently falls back to the
// scalar engine. OptimizationConfig selects the backend per plan — by
// hand or through OptimizationConfig::automatic(n, trials, degree).
//
// The contract, gated by tests/vector_engine_test.cpp and CI: tallies,
// exact sums, and deterministic telemetry are bit-identical across
// backends x thread counts x shard partitions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "local/engine.h"
#include "rand/philox.h"

namespace lnc::local {

/// Which trial-execution strategy a plan runs under. Every setting
/// produces bit-identical tallies, exact sums, and deterministic telemetry
/// by contract.
struct OptimizationConfig {
  enum class Backend {
    kAuto,        ///< resolve per plan (automatic() or the runner default)
    kNaive,       ///< scalar engine, fresh arenas per trial (no reuse)
    kBatched,     ///< scalar engine, warm per-worker arenas (the PR-1 path)
    kVectorized,  ///< SoA lockstep batches (falls back when not vectorizable)
  };

  Backend backend = Backend::kAuto;

  /// The most trials one lockstep batch advances (vectorized backend
  /// only): a cap that keeps a batch's SoA state cache-sized. The runner
  /// cuts a range into near-equal batches under it, as many as a multiple
  /// of its worker count (local/batch_runner.h), so batches are often
  /// smaller than the cap.
  std::uint64_t batch_trials = 32;

  /// The auto-tuning entry point: picks batched for workloads too small
  /// to win from lockstep batches, and vectorized with a cache-sized
  /// batch_trials otherwise; naive, the reference oracle, runs only when
  /// forced. `mean_degree` is the instance's average degree (the SoA
  /// state per trial scales with n * degree for port-indexed programs).
  static OptimizationConfig automatic(std::uint64_t n, std::uint64_t trials,
                                      double mean_degree);
};

const char* to_string(OptimizationConfig::Backend backend) noexcept;

/// Inverse of to_string — the parser behind spec files and --backend.
/// Nullopt on an unknown tag (callers own the error message).
std::optional<OptimizationConfig::Backend> backend_from_string(
    std::string_view text) noexcept;

/// Per-(trial, node) Philox stream — the allocation-free mirror of
/// rand::NodeRng over a raw PhiloxCoins key. Draw k of this struct equals
/// rand::NodeRng(PhiloxCoins-with-this-key, identity) draw k bit for bit;
/// that equivalence (asserted in tests/vector_engine_test.cpp) is what
/// makes the vector backend's coin flips identical to the scalar engine's.
struct VecRng {
  std::uint64_t key = 0;
  std::uint64_t identity = 0;
  std::uint64_t counter = 0;

  std::uint64_t next_u64() noexcept {
    return rand::philox_u64(key, identity, counter++);
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() noexcept { return unit(next_u64()); }

  /// The double next_double() makes of the draw r.
  static double unit(std::uint64_t r) noexcept {
    return static_cast<double>(r >> 11) * 0x1.0p-53;
  }

  /// Bernoulli(p): true with probability p.
  bool bernoulli(double p) noexcept { return next_double() < p; }

  /// Uniform integer in [0, bound); bound must be positive. Same
  /// rejection loop as NodeRng::next_below, draw for draw.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (true) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }
};

class VectorScratch;

/// Shared driver-owned state of one lockstep batch: the instance, the
/// per-(trial, node) RNG and halt arrays, per-trial round/traffic
/// accounting, and the skip lists. VectorPrograms read and update it from
/// their flat round passes.
class VectorBatch {
 public:
  const Instance& instance() const noexcept { return *inst_; }
  std::uint32_t nodes() const noexcept { return n_; }
  std::uint32_t trials() const noexcept { return trials_; }

  /// Flat index of (trial, node) into the [trial * n + node] arrays.
  std::size_t at(std::uint32_t trial, std::uint32_t node) const noexcept {
    return static_cast<std::size_t>(trial) * n_ + node;
  }

  VecRng& rng(std::uint32_t trial, std::uint32_t node) noexcept {
    return rngs_[at(trial, node)];
  }

  bool halted(std::uint32_t trial, std::uint32_t node) const noexcept {
    return halted_[at(trial, node)] != 0;
  }

  /// Marks (trial, node) halted — the vector analogue of receive()
  /// returning true. Idempotent.
  void set_halted(std::uint32_t trial, std::uint32_t node) noexcept {
    char& flag = halted_[at(trial, node)];
    if (flag == 0) {
      flag = 1;
      --live_nodes_[trial];
    }
  }

  bool trial_done(std::uint32_t trial) const noexcept {
    return done_[trial] != 0;
  }

  /// Charges `messages` non-silent messages totalling `words` words to
  /// the trial's deterministic telemetry counters. Programs must charge
  /// exactly what the scalar engine would measure for the round.
  void add_traffic(std::uint32_t trial, std::uint64_t messages,
                   std::uint64_t words) noexcept {
    messages_[trial] += messages;
    words_[trial] += words;
  }

  /// Every trial still running (the compact live-trial list).
  template <typename Body>
  void for_each_live_trial(Body&& body) const {
    for (const std::uint32_t t : live_trials_) body(t);
  }

  /// Every non-halted node of a live trial, through its compact
  /// active-node list (halted nodes cost nothing). Nodes halted DURING the
  /// pass stay in the list until the driver compacts it at the end of the
  /// round.
  template <typename Body>
  void for_each_active_node(std::uint32_t trial, Body&& body) const {
    const std::uint32_t* list =
        active_nodes_.data() + static_cast<std::size_t>(trial) * n_;
    const std::uint32_t count = active_counts_[trial];
    for (std::uint32_t k = 0; k < count; ++k) body(list[k]);
  }

 private:
  friend class VectorScratch;
  friend void run_vector_batch(const Instance& inst,
                               const NodeProgramFactory& factory,
                               std::span<const std::uint64_t> coin_keys,
                               VectorScratch& scratch, Telemetry* accumulate,
                               const std::function<void(
                                   std::uint32_t, const Labeling&, int,
                                   const Telemetry&)>& finish);

  std::size_t footprint_bytes() const noexcept;

  const Instance* inst_ = nullptr;
  std::uint32_t n_ = 0;
  std::uint32_t trials_ = 0;

  std::vector<VecRng> rngs_;             // [trial * n + node]
  std::vector<char> halted_;             // [trial * n + node]
  std::vector<std::uint32_t> live_nodes_;  // per trial: non-halted count
  std::vector<char> done_;               // per trial
  std::vector<int> rounds_;              // per trial: rounds executed
  std::vector<std::uint64_t> messages_;  // per trial: messages sent
  std::vector<std::uint64_t> words_;     // per trial: words sent

  std::vector<std::uint32_t> live_trials_;   // compact list of live trials
  std::vector<std::uint32_t> active_nodes_;  // [trial * n], non-halted
  std::vector<std::uint32_t> active_counts_;  // per trial
};

/// A trial-vectorized node program: the SoA counterpart of one
/// NodeProgram, advancing EVERY (trial, node) of a batch per call.
/// Implementations own their state arrays (sized in init, capacity kept
/// across batches when the scratch is reused) and must replicate the
/// scalar program exactly: per-node draw sequences, halting rounds, and
/// per-round message/word counts.
class VectorProgram {
 public:
  virtual ~VectorProgram() = default;

  virtual std::string name() const = 0;

  /// Sizes/resets state for batch.trials() lockstep trials on
  /// batch.instance(); marks nodes that halt at wake-up via set_halted
  /// (the analogue of init() returning true).
  virtual void init(VectorBatch& batch) = 0;

  /// One synchronous round (numbering starts at 1) over every live
  /// trial: the send pass, the traffic charge, then the receive pass,
  /// exactly mirroring the scalar engine's send barrier.
  virtual void round(VectorBatch& batch, int round) = 0;

  /// Trial `trial`'s output labeling, resized to batch.nodes().
  virtual void output(const VectorBatch& batch, std::uint32_t trial,
                      Labeling& out) const = 0;

  /// Retained state-array capacity, for the arena high-water telemetry
  /// (reported, never gated).
  virtual std::size_t footprint_bytes() const noexcept { return 0; }
};

/// Reusable per-worker storage for the vector backend: the batch arrays
/// and the (recyclable) vector program survive across batches, so a warm
/// batch allocates nothing. Not thread-safe: one scratch per worker.
class VectorScratch {
 public:
  VectorScratch() = default;
  VectorScratch(const VectorScratch&) = delete;
  VectorScratch& operator=(const VectorScratch&) = delete;
  VectorScratch(VectorScratch&&) = default;
  VectorScratch& operator=(VectorScratch&&) = default;

 private:
  friend void run_vector_batch(const Instance& inst,
                               const NodeProgramFactory& factory,
                               std::span<const std::uint64_t> coin_keys,
                               VectorScratch& scratch, Telemetry* accumulate,
                               const std::function<void(
                                   std::uint32_t, const Labeling&, int,
                                   const Telemetry&)>& finish);

  std::unique_ptr<VectorProgram> program_;
  const NodeProgramFactory* last_factory_ = nullptr;
  std::string last_factory_name_;
  VectorBatch batch_;
  Labeling output_;
  std::vector<std::uint64_t> coin_keys_;  // BatchRunner's reusable key buffer
public:
  /// Reusable per-batch coin-key buffer for callers assembling key spans.
  std::vector<std::uint64_t>& coin_key_buffer() noexcept { return coin_keys_; }
};

/// Runs one lockstep batch of coin_keys.size() trials of the factory's
/// vector program (factory.create_vector() must be non-null) on `inst`.
/// coin_keys[t] is trial t's construction-coin Philox key — the exact
/// PhiloxCoins key the scalar engine would have been handed, so draws
/// match bit for bit. For each trial, `finish` receives the local trial
/// index, the output labeling (valid only during the call), the executed
/// round count, and the trial's deterministic telemetry delta. The
/// deltas (plus the batch arena high-water mark) are merged into
/// `accumulate` when non-null — the per-worker accumulator the batch
/// runner reads, exactly like EngineScratch::telemetry().
void run_vector_batch(
    const Instance& inst, const NodeProgramFactory& factory,
    std::span<const std::uint64_t> coin_keys, VectorScratch& scratch,
    Telemetry* accumulate,
    const std::function<void(std::uint32_t, const Labeling&, int,
                             const Telemetry&)>& finish);

}  // namespace lnc::local
