#include "local/engine.h"

#include <algorithm>

#include "fault/fault.h"
#include "local/vector_engine.h"
#include "obs/metrics.h"
#include "util/assert.h"
#include "util/timer.h"

namespace lnc::local {

std::unique_ptr<VectorProgram> NodeProgramFactory::create_vector() const {
  return nullptr;
}

namespace {

/// Port of (v+1) mod n in v's sorted neighbor list, for the canonical cycle
/// produced by graph::cycle(). Returns nullopt when g is not that cycle.
std::optional<std::vector<std::uint32_t>> ring_successor_ports(
    const graph::Graph& g) {
  const graph::NodeId n = g.node_count();
  if (n < 3) return std::nullopt;
  std::vector<std::uint32_t> ports(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    if (g.degree(v) != 2) return std::nullopt;
    const graph::NodeId succ = (v + 1) % n;
    const auto nbrs = g.neighbors(v);
    if (nbrs[0] == succ) {
      ports[v] = 0;
    } else if (nbrs[1] == succ) {
      ports[v] = 1;
    } else {
      return std::nullopt;
    }
  }
  return ports;
}

}  // namespace

EngineResult run_engine(const Instance& inst,
                        const NodeProgramFactory& factory,
                        const EngineOptions& options) {
  inst.validate();
  const graph::NodeId n = inst.node_count();

  // Observability-only run timing: lands in the worker's metrics
  // registry when one is installed (obs::WorkerMetricsScope), otherwise
  // a single TLS load. Never touches the deterministic telemetry.
  obs::MetricsRegistry* obs_metrics = obs::worker_metrics();
  const util::Timer run_timer;

  std::optional<std::vector<std::uint32_t>> succ_ports;
  if (options.grant_ring_orientation) {
    succ_ports = ring_successor_ports(inst.g);
    LNC_EXPECTS(succ_ports.has_value() &&
                "grant_ring_orientation requires the canonical cycle");
  }

  EngineScratch local_scratch;
  EngineScratch& s =
      options.scratch != nullptr ? *options.scratch : local_scratch;

  // Program recycling: retained programs from a previous run on this
  // scratch may be reset in place when the SAME factory runs again and
  // opts in via recreate() — the per-trial hot path then allocates no
  // programs at all.
  const bool may_recycle = s.last_factory_ == &factory &&
                           s.last_factory_name_ == factory.name();
  s.programs_.resize(n);
  s.halted_.assign(n, 0);
  s.rngs_.clear();
  if (options.coins != nullptr) {
    // reserve() keeps &rngs_[v] stable while programs hold the pointer for
    // the whole run.
    s.rngs_.reserve(n);
  }

  for (graph::NodeId v = 0; v < n; ++v) {
    const bool recycled = may_recycle && s.programs_[v] != nullptr &&
                          factory.recreate(*s.programs_[v]);
    if (!recycled) s.programs_[v] = factory.create();
    NodeEnv env;
    env.id = inst.ids[v];
    env.input = inst.input_of(v);
    env.degree = inst.g.degree(v);
    if (succ_ports) env.succ_port = (*succ_ports)[v];
    if (options.coins != nullptr) {
      s.rngs_.emplace_back(*options.coins, inst.ids[v]);
      env.rng = &s.rngs_.back();
    }
    s.halted_[v] = s.programs_[v]->init(env) ? 1 : 0;
  }
  s.last_factory_ = &factory;
  s.last_factory_name_ = factory.name();

  // Resolve the adversary once per run: crash rounds are pure per-node
  // draws, the link table lists every edge once, and the per-port
  // suppression bitmap is refilled by a deterministic single-threaded
  // pass each round.
  const bool fault_active =
      options.fault != nullptr && !options.fault->trivial();
  const bool drops = fault_active && options.fault->drops_deliveries();
  if (fault_active) {
    LNC_EXPECTS(options.fault_coins != nullptr &&
                "non-trivial fault model requires its coin stream");
    s.crash_rounds_.resize(n);
    s.dead_.assign(n, 0);
    s.port_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
    for (graph::NodeId v = 0; v < n; ++v) {
      s.crash_rounds_[v] =
          options.fault->crash_round(*options.fault_coins, inst.ids[v]);
      s.port_offsets_[v + 1] = s.port_offsets_[v] + inst.g.degree(v);
    }
    s.suppressed_.assign(s.port_offsets_[n], 0);
    s.links_.build(*options.fault, inst.g, inst.ids.raw(), s.port_offsets_);
  }

  auto all_halted = [&]() {
    return std::all_of(s.halted_.begin(), s.halted_.end(),
                       [](char h) { return h != 0; });
  };

  s.store_.reset(n);

  // Measured telemetry for THIS run; merged into the scratch accumulator
  // at the end (BatchRunner reads per-worker totals from there).
  Telemetry run_telemetry;

  auto finish = [&](int rounds, bool completed) {
    EngineResult result;
    result.completed = completed;
    result.rounds = rounds;
    result.output.resize(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      // A crashed node produced no output; label 0 is its tombstone (the
      // deciders treat crashed nodes separately — see decide/evaluate.cpp).
      result.output[v] = fault_active && s.dead_[v] != 0
                             ? Label{0}
                             : s.programs_[v]->output();
    }
    run_telemetry.rounds_executed = static_cast<std::uint64_t>(rounds);
    run_telemetry.arena_peak_bytes =
        s.store_.footprint_bytes() +
        s.programs_.capacity() * sizeof(s.programs_[0]) +
        s.rngs_.capacity() * sizeof(rand::NodeRng) + s.halted_.capacity() +
        s.crash_rounds_.capacity() * sizeof(std::uint64_t) +
        s.dead_.capacity() + s.suppressed_.capacity() +
        s.port_offsets_.capacity() * sizeof(std::size_t) +
        s.links_.footprint_bytes();
    result.telemetry = run_telemetry;
    s.telemetry_.merge(run_telemetry);
    if (obs_metrics != nullptr) {
      obs_metrics->observe("engine_run_seconds", run_timer.elapsed_seconds());
    }
    if (options.retain_programs) result.programs = std::move(s.programs_);
    return result;
  };

  int round = 0;
  while (!all_halted()) {
    if (round >= options.max_rounds) return finish(round, false);
    ++round;

    // Crash-stop resolution: a node whose crash round has arrived falls
    // silent BEFORE sending (it is dead for this and all later rounds).
    // Only crashes realized within the executed window are counted — the
    // tally is still a pure function of the trial, not of the schedule.
    if (fault_active) {
      for (graph::NodeId v = 0; v < n; ++v) {
        if (s.dead_[v] == 0 &&
            s.crash_rounds_[v] <= static_cast<std::uint64_t>(round)) {
          s.dead_[v] = 1;
          s.halted_[v] = 1;
          ++run_telemetry.nodes_crashed;
        }
      }
    }

    s.store_.begin_round();
    for (graph::NodeId v = 0; v < n; ++v) {
      MessageWriter out = s.store_.writer(v);
      if (!fault_active || s.dead_[v] == 0) s.programs_[v]->send(round, out);
      s.store_.end_write(v);
      // Empty messages are silence.
      const std::size_t words = s.store_.message(v).size();
      if (words > 0) {
        ++run_telemetry.messages_sent;
        run_telemetry.words_sent += words;
      }
    }
    // Link-fault pass (after the send phase): fill the per-port
    // suppression bitmap for this round and tally what was realized. The
    // link table writes both slots of every edge from one batched draw,
    // one churn event per (edge, round) deactivation; models that drop
    // then draw each delivery per directed port. Every draw is keyed by
    // (identities, round), so the bitmap — and the counters — are
    // independent of thread count.
    if (fault_active) {
      run_telemetry.edges_churned += s.links_.realize(
          *options.fault_coins, static_cast<std::uint64_t>(round),
          s.suppressed_.data());
    }
    if (drops) {
      // The link pass rewrote every slot only if the model takes links
      // down; otherwise the slots still hold last round's drops.
      const bool links = !s.links_.empty();
      for (graph::NodeId v = 0; v < n; ++v) {
        const auto nbrs = inst.g.neighbors(v);
        for (std::size_t p = 0; p < nbrs.size(); ++p) {
          char& slot = s.suppressed_[s.port_offsets_[v] + p];
          if (links && slot != 0) continue;  // link down: nothing to lose
          slot = 0;
          const graph::NodeId u = nbrs[p];
          // A drop is only an event when there was a delivery to lose: a
          // non-silent, non-crashed sender and a receiver still running.
          if (s.halted_[v] != 0 || s.dead_[u] != 0 ||
              s.store_.message(u).empty()) {
            continue;
          }
          if (options.fault->drops_delivery(
                  *options.fault_coins, inst.ids[u], inst.ids[v],
                  static_cast<std::uint64_t>(round))) {
            slot = 1;
            ++run_telemetry.messages_dropped;
          }
        }
      }
    }
    for (graph::NodeId v = 0; v < n; ++v) {
      if (s.halted_[v] != 0) continue;
      const Inbox inbox(
          s.store_, inst.g.neighbors(v),
          fault_active ? s.suppressed_.data() + s.port_offsets_[v] : nullptr);
      if (s.programs_[v]->receive(round, inbox)) s.halted_[v] = 1;
    }
  }

  return finish(round, true);
}

}  // namespace lnc::local
