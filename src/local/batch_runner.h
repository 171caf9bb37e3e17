// The unified batched experiment executor.
//
// Every probabilistic quantity in the paper — the construction success
// probability r, the decider guarantee p, the Claim-2 beta, the Claim-3
// boosted acceptance — is an average over millions of independent trials.
// The seed routed those trials through four disjoint entry points that each
// re-allocated programs, message buffers, and RNGs per trial. This header
// is the single replacement:
//
//   ExperimentPlan  — one trial body, which adds the trial's outcome (a
//                     success, a real-valued statistic, or counter slots)
//                     to the executing worker's ShardTally, or the part
//                     body of a trial cut by node range; how many trials,
//                     and the base seed;
//   BatchRunner     — executes a plan over stats::ThreadPool, one
//                     reusable WorkerArena and one ShardTally per worker,
//                     and per-trial Philox streams derived as
//                     stats::trial_seed(base_seed, index), so results are
//                     bit-for-bit identical across thread counts. Workers
//                     take whole trials, or the node-range parts of a
//                     parted plan's trial batches (PartedTrial), so one
//                     large trial runs on every worker and the trials of
//                     a batch share each ball.
//
// Plan factories for the common workload shapes live in local/experiment.h
// (construction algorithms) and decide/experiment_plans.h (deciders).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "local/ball_collector.h"
#include "local/engine.h"
#include "local/runner.h"
#include "local/vector_engine.h"
#include "obs/metrics.h"
#include "rand/coins.h"
#include "stats/montecarlo.h"
#include "stats/threadpool.h"

namespace lnc::obs {
class Progress;
}  // namespace lnc::obs

namespace lnc::local {

/// Direct-mapped memo of one part call's construction outputs, for the
/// streaming construct-then-decide loop on implicit instances
/// (decide/experiment_plans.cpp), over the call's trial lanes: the trials
/// of one batch, which see the same balls. Slot u & (kSlots - 1) holds
/// the last node u stored there: the size and encoded words of its
/// construction ball (the node's construction-phase charge, the same in
/// every lane) and one construction label per lane. Neighbouring decision
/// balls share members, so on ring and path most lookups hit (grid and
/// torus only while a row has under about 340 nodes); a collision simply
/// evicts. Entries are pure functions of the lanes' construction coins
/// and the trial's fault stream: clear() before every part. A miss
/// collects the member's construction ball into `ball` once, while the
/// decision ball stays live (both through the worker's one BallScratch: a
/// scratch is dead between collections), and computes each lane's label
/// from that lane's coin table (WorkerArena::coin_tables), refilled per
/// block of nodes (sized by the block and the algorithm's coin_prefix(),
/// never by n).
class ConstructionMemo {
 public:
  static constexpr std::size_t kSlots = std::size_t{1} << 10;

  struct Entry {
    graph::NodeId node = graph::kInvalidNode;  ///< empty slot
    graph::NodeId ball_size = 0;
    std::uint64_t encoded_words = 0;
  };
  static_assert(sizeof(Entry) == 16, "the table is kSlots * 16 bytes");

  /// Empties the min(n, kSlots) slots a trial of n nodes can map to, for
  /// `lanes` labels per slot; the first call allocates the fixed table
  /// (kSlots * 16 bytes) and the labels grow with the widest batch
  /// (kSlots * 8 bytes per lane), so arenas that never run the loop pay
  /// nothing.
  void clear(graph::NodeId n, std::size_t lanes) {
    slots_.resize(kSlots);
    if (labels_.size() < kSlots * lanes) labels_.resize(kSlots * lanes);
    lanes_ = lanes;
    std::fill_n(slots_.begin(), std::min<std::size_t>(n, kSlots), Entry{});
  }
  Entry& slot(graph::NodeId u) noexcept { return slots_[u & (kSlots - 1)]; }
  /// The labels of u's slot, one per lane.
  Label* labels(graph::NodeId u) noexcept {
    return labels_.data() + (u & (kSlots - 1)) * lanes_;
  }

  graph::BallView ball;

 private:
  std::vector<Entry> slots_;
  std::vector<Label> labels_;  // [slot * lanes_ + lane]
  std::size_t lanes_ = 1;
};

/// Per-worker reusable scratch: engine arenas, a labeling buffer, and
/// knowledge tables survive from one trial to the next, so the steady-state
/// trial allocates (almost) nothing. Not thread-safe; the runner hands each
/// worker its own arena.
class WorkerArena {
 public:
  EngineScratch& engine() noexcept { return engine_; }
  Labeling& labeling() noexcept { return labeling_; }
  std::vector<Knowledge>& knowledge() noexcept { return knowledge_; }

  /// This worker's reusable ball-collection slot: the direct ball runner
  /// keeps view and visited-map capacity warm across trials instead of
  /// allocating five vectors per node per trial.
  BallWorkspace& ball_workspace() noexcept { return ball_; }

  /// The construct-then-decide loop's construction memo, cleared per
  /// part call and sized by its batch's lanes.
  ConstructionMemo& construction_memo() noexcept { return memo_; }

  /// This worker's construction coin tables, one per trial lane: the
  /// first is filled per trial over the instance's identities by
  /// construct_trial (local/experiment.h); the streaming
  /// construct-then-decide loop refills one per lane of its batch per
  /// block of nodes. There are as many as the widest batch had lanes, and
  /// their arrays keep their capacity across fills.
  std::span<rand::CoinTable> coin_tables(std::size_t lanes) {
    if (coins_.size() < lanes) coins_.resize(lanes);
    return {coins_.data(), lanes};
  }

  /// This worker's telemetry accumulator (lives in the engine scratch so
  /// engine runs on this arena count into it automatically; ball-mode and
  /// decider paths charge it explicitly). BatchRunner resets it per batch
  /// and merges the per-worker blocks into the batch result.
  Telemetry& telemetry() noexcept { return engine_.telemetry(); }
  const Telemetry& telemetry() const noexcept { return engine_.telemetry(); }

  /// This worker's observability metrics (timing histograms and the
  /// like). Populated only while obs::metrics_enabled(); reset and
  /// merged by BatchRunner exactly like telemetry(), but NEVER part of
  /// the deterministic contract — metrics carry wall-clock measurements.
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// This worker's reusable trial-vectorized batch storage (SoA arrays,
  /// the vector program, and the per-batch coin-key buffer stay warm
  /// across batches, mirroring what engine() does for the scalar path).
  VectorScratch& vector_scratch() noexcept { return vector_; }

 private:
  EngineScratch engine_;
  Labeling labeling_;
  std::vector<Knowledge> knowledge_;
  BallWorkspace ball_;
  ConstructionMemo memo_;
  std::vector<rand::CoinTable> coins_;
  VectorScratch vector_;
  obs::MetricsRegistry metrics_;
};

/// Standard per-trial seed-derivation tags. Keeping them in one place is
/// what makes the construction and decision streams of every experiment
/// independent yet reproducible.
inline constexpr std::uint64_t kConstructionSeedTag = 0xC0;
inline constexpr std::uint64_t kDecisionSeedTag = 0xD0;
inline constexpr std::uint64_t kSampleSeedTag = 0x15;
inline constexpr std::uint64_t kFaultSeedTag = 0xFA;

/// Everything a trial body receives: its index, its private seed
/// (stats::trial_seed(base_seed, index) — a pure function of the index, so
/// the trial-to-worker assignment cannot influence results), and the
/// executing worker's arena. BatchRunner ALWAYS populates `arena`; trial
/// bodies may dereference it unconditionally.
struct TrialEnv {
  std::uint64_t index = 0;
  std::uint64_t seed = 0;
  WorkerArena* arena = nullptr;

  /// The read-only ball tables of the trial's row (graph/ball.h), empty
  /// unless whoever runs the plan set them (BatchRunner::set_ball_tables).
  /// construct_trial and decide::trial_options hand them to the ball
  /// runner and the decision loop.
  std::span<const graph::BallTable> ball_tables;

  /// Derives a sub-seed for an auxiliary purpose within the trial.
  std::uint64_t derive(std::uint64_t tag) const noexcept {
    return rand::mix_keys(seed, tag);
  }
  /// The trial's construction coins (the paper's sigma in Rand(C)).
  rand::PhiloxCoins construction_coins() const noexcept {
    return {derive(kConstructionSeedTag), rand::Stream::kConstruction};
  }
  /// The trial's decision coins (the paper's sigma' in Rand(D)).
  rand::PhiloxCoins decision_coins() const noexcept {
    return {derive(kDecisionSeedTag), rand::Stream::kDecision};
  }
  /// The trial's adversity coins — the fault model's private stream,
  /// disjoint from both algorithms' randomness by construction.
  rand::PhiloxCoins fault_coins() const noexcept {
    return {derive(kFaultSeedTag), rand::Stream::kFault};
  }
  /// Seed for per-trial instance/configuration sampling.
  std::uint64_t sample_seed() const noexcept {
    return derive(kSampleSeedTag);
  }
};

/// Raw tally of one executed trial range: what every trial body adds to.
/// Success plans count `successes`, value plans add their statistic to
/// the exact sums (add_value), counter plans add to `counts`. All blocks
/// merge order-free, so any partition of [0, plan.trials) into ranges,
/// and of a range over workers, reproduces the unsharded run's numbers
/// bit for bit.
struct ShardTally {
  std::uint64_t successes = 0;
  std::uint64_t trials = 0;  ///< trials executed in this range

  /// Value-workload accumulators: the trial statistics and their squares
  /// summed EXACTLY (stats::ExactSum), which is what makes sharded means
  /// merge to the unsharded mean bit for bit — the floating-point
  /// analogue of the integer success tally.
  stats::ExactSum value_sum;
  stats::ExactSum value_sum_sq;

  /// Counter-workload slot sums (plan.counters entries; empty for other
  /// workloads).
  std::vector<std::uint64_t> counts;

  /// Communication volume accumulated executing this range. The
  /// deterministic counters are per-trial sums, so shard telemetries
  /// merged over a partition of [0, trials) equal the unsharded run's
  /// counters bit for bit.
  Telemetry telemetry;

  /// Adds one trial's statistic to both exact sums.
  void add_value(double value) {
    value_sum.add(value);
    value_sum_sq.add(value * value);
  }

  /// Adds the tally of a disjoint range of the same plan: every block
  /// sums exactly. Empty `counts` count as all-zero; non-empty ones must
  /// agree on width.
  void merge(const ShardTally& other);
};

/// A plan's trial body: runs trial env.index and adds its outcome to the
/// executing worker's tally.
using Trial = std::function<void(const TrialEnv&, ShardTally&)>;

/// The same, for a trial whose construction already ran in lockstep: it
/// receives the construction's output labeling (valid only during the
/// call), its round count and its deterministic telemetry delta —
/// everything a scalar trial body derives from its own construction run.
using TrialFinish = std::function<void(const TrialEnv&, const Labeling&, int,
                                       const Telemetry&, ShardTally&)>;

/// The nodes of one part of a parted trial, the last part taking the
/// rest. One constant, a multiple of the streaming loop's 256-node coin
/// block (decide/experiment_plans.cpp).
inline constexpr graph::NodeId kPartNodes = graph::NodeId{1} << 14;

/// The most trials one call of a parted plan's part body runs together.
/// One constant, as kPartNodes is.
inline constexpr std::uint64_t kBatchTrials = 16;

/// A trial whose outcome is a conjunction of per-node verdicts, as a
/// decider's acceptance is (paper, Eq. 1), run as node-range parts of
/// kPartNodes nodes. `part` runs nodes `nodes` of the trials `envs`, a
/// batch of consecutive trials (the trial lanes), and sets accepts[k] to
/// whether every verdict it counted for trial envs[k] accepts. Like a
/// trial body it charges the lanes' shared arena's telemetry, each part
/// its own nodes' share for every lane, and the part holding node 0 each
/// lane's per-trial rounds; so parts and batches merge exactly. A batch
/// holds at most kBatchTrials trials, and one trial only unless
/// `shares_balls`: the trials then see the same balls, which the part
/// collects once for all lanes. The runner counts a success when a
/// trial's parts' conjunction equals `success_on_accept`.
struct PartedTrial {
  graph::NodeId nodes = 0;  ///< the trial's node count
  std::function<void(std::span<const TrialEnv> envs, NodeRange nodes,
                     std::span<std::uint8_t> accepts)>
      part;
  bool success_on_accept = true;
  bool shares_balls = false;
};

/// Opt-in trial-vectorized execution of a plan. When `factory` (whose
/// create_vector() must be non-null) and `instance` are set, the runner
/// may advance whole batches of trials in lockstep on the SoA backend
/// (local/vector_engine.h) instead of calling the plan's trial body; per
/// trial, `finish` then adds the construction's outcome to the tally. The
/// trial body stays set regardless — it is the naive/batched path and the
/// bit-identity reference.
struct VectorExec {
  const Instance* instance = nullptr;
  const NodeProgramFactory* factory = nullptr;
  TrialFinish finish;

  bool engaged() const noexcept {
    return instance != nullptr && factory != nullptr;
  }
};

/// The three trial shapes a plan (and a scenario) can declare. Success
/// plans tally {0,1} outcomes into a Wilson estimate; value plans
/// average a real statistic; counter plans sum integer slots.
enum class WorkloadKind { kSuccess, kValue, kCounter };

const char* to_string(WorkloadKind kind) noexcept;

/// Inverse of to_string — the one parser behind spec files, shard files,
/// and the CLI flag. Nullopt on an unknown tag (callers own the error
/// message).
std::optional<WorkloadKind> workload_from_string(
    std::string_view text) noexcept;

/// A declarative batch of independent trials.
struct ExperimentPlan {
  std::string name;
  std::uint64_t trials = 0;
  std::uint64_t base_seed = 0;

  /// Which block of the tally `trial` adds to, and the width of a
  /// counter plan's `counts`.
  WorkloadKind workload = WorkloadKind::kSuccess;
  std::size_t counters = 0;

  Trial trial;

  /// A trial run as node-range parts (PartedTrial). When `parts.part` is
  /// set it is the plan's only body, on every backend: `trial` stays
  /// empty and `vector` unengaged.
  PartedTrial parts;

  /// Optional vectorized execution of the same trials (see VectorExec).
  VectorExec vector;

  /// Backend selection and vector-backend tuning. kAuto resolves to
  /// kBatched here (scenario compilation resolves kAuto through
  /// OptimizationConfig::automatic before the plan reaches the runner);
  /// kVectorized transparently falls back to kBatched when `vector` is
  /// not engaged.
  OptimizationConfig optimization;
};

/// Plans from one {0,1}, real-valued or counter-slot callback, for trial
/// shapes the factories don't cover. The callback must derive all
/// randomness from the TrialEnv.
ExperimentPlan custom_plan(std::string name, std::uint64_t trials,
                           std::uint64_t base_seed,
                           std::function<bool(const TrialEnv&)> trial);
ExperimentPlan custom_value_plan(std::string name, std::uint64_t trials,
                                 std::uint64_t base_seed,
                                 std::function<double(const TrialEnv&)> trial);
ExperimentPlan custom_count_plan(
    std::string name, std::uint64_t trials, std::uint64_t base_seed,
    std::size_t counters,
    std::function<void(const TrialEnv&, std::span<std::uint64_t>)> trial);

/// A contiguous trial-index subrange [begin, end) of a plan — the unit of
/// cross-process sharding. Per-trial seeds are pure functions of the trial
/// index, so executing a plan as any partition of ranges and summing the
/// tallies is bit-identical to one full run.
struct TrialRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  std::uint64_t count() const noexcept { return end - begin; }
};

/// The range of shard `shard` out of `shard_count` near-equal contiguous
/// shards of [0, trials) (earlier shards take the remainder). Requires
/// shard < shard_count.
TrialRange shard_range(std::uint64_t trials, unsigned shard,
                       unsigned shard_count);

/// A trial range cut into `count` consecutive near-equal batches, earlier
/// batches taking the remainder.
struct TrialBatches {
  TrialRange range;
  std::uint64_t count = 0;

  TrialRange operator[](std::uint64_t batch) const noexcept;
};

/// The runner's one batch cut, for lockstep batches of the vectorized
/// backend and the batches a parted plan's part calls run: the fewest
/// batches of at most `cap` trials whose count is a multiple of
/// ceil(workers / parts), so that batches x parts tasks cover every
/// worker, and never more batches than trials.
TrialBatches cut_trials(TrialRange range, std::uint64_t cap,
                        std::uint64_t workers, std::uint64_t parts);

/// Executes ExperimentPlans. Arenas persist across run() calls, so a
/// runner reused for a sweep keeps its scratch warm. Not thread-safe;
/// use one runner per caller thread.
class BatchRunner {
 public:
  /// null pool => sequential execution with a single arena.
  explicit BatchRunner(const stats::ThreadPool* pool = nullptr);

  unsigned worker_count() const noexcept;

  /// Runs a success plan; Wilson-interval estimate of Pr[success].
  stats::Estimate run(const ExperimentPlan& plan);

  /// Runs only the trials of a plan inside `range` — one shard of a
  /// cross-process run, for any workload kind — each adding to its
  /// worker's tally, and merges the workers' tallies and telemetry in
  /// worker order. A parted plan's (batch, part) pairs of the range run
  /// in one dispatch, the batches cut by cut_trials (at most kBatchTrials
  /// trials each when the plan shares balls and the backend is not
  /// naive, else one), after which each trial's parts' verdicts are
  /// conjoined and its success counted. Tallies of abutting ranges
  /// combine with ShardTally::merge.
  ShardTally run_shard(const ExperimentPlan& plan, TrialRange range);

  /// Runs a value plan (run_shard over the full range, finalized with
  /// stats::finalize_mean_exact).
  stats::MeanEstimate run_mean(const ExperimentPlan& plan);

  /// Runs a counter plan; returns the `plan.counters` summed slots.
  std::vector<std::uint64_t> run_counts(const ExperimentPlan& plan);

  /// Telemetry of the most recent run/run_shard/run_mean/run_counts:
  /// the per-worker accumulators merged in worker order. Deterministic
  /// counters are bit-identical across thread counts.
  const Telemetry& last_telemetry() const noexcept { return last_telemetry_; }

  /// Observability metrics of the most recent run (per-trial wall-time
  /// and per-batch throughput histograms, merged across workers). Empty
  /// unless obs::metrics_enabled() was set during the run.
  const obs::MetricsRegistry& last_metrics() const noexcept {
    return last_metrics_;
  }

  /// Optional live-progress sink: when set, every completed trial ticks
  /// the heartbeat. Timing-only; never affects results.
  void set_progress(obs::Progress* progress) noexcept {
    progress_ = progress;
  }

  /// Ball tables every following trial receives in TrialEnv::ball_tables
  /// until the next call; they must outlive those runs and belong to the
  /// instance of the plans run (scenario::run_sweep sets a row's tables
  /// around its run_shard and clears them after). Never affects results.
  void set_ball_tables(std::span<const graph::BallTable> tables) noexcept {
    ball_tables_ = tables;
  }

  /// Calls body(arena, i) for every i in [0, count) on the runner's
  /// workers, each call with its worker's arena, and returns when all
  /// are done: work a caller spreads over the pool outside any plan, as
  /// scenario::run_sweep builds a row's ball tables.
  void run_on_workers(
      std::uint64_t count,
      const std::function<void(WorkerArena&, std::uint64_t)>& body);

 private:
  /// Calls body(worker, envs, part) for every part in [0, parts) of every
  /// batch of `batches`, envs holding the batch's trials, all in one
  /// dispatch; a naive run gives each call a fresh arena.
  template <typename Body>
  void for_each_batch(const ExperimentPlan& plan, const TrialBatches& batches,
                      std::uint64_t parts, bool fresh_arenas, Body&& body);

  /// Vectorized dispatch: runs each batch of cut_trials(range,
  /// plan.optimization.batch_trials, worker_count(), 1) in lockstep
  /// through run_vector_batch on the executing worker's scratch. `body`
  /// sees one call per trial; results never depend on the batching.
  template <typename Body>
  void for_each_vector_trial(const ExperimentPlan& plan, TrialRange range,
                             Body&& body);

  /// Clears per-worker accumulators before a batch / merges them after.
  void reset_worker_telemetry();
  void reset_worker_metrics();
  obs::MetricsRegistry merged_worker_metrics();

  const stats::ThreadPool* pool_;
  std::vector<WorkerArena> arenas_;
  Telemetry last_telemetry_;
  obs::MetricsRegistry last_metrics_;
  obs::Progress* progress_ = nullptr;
  std::span<const graph::BallTable> ball_tables_;
};

}  // namespace lnc::local
