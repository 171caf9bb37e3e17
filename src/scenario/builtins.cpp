// The built-in component catalogue: every topology family, language,
// construction algorithm, and decider the repo implements, registered
// under stable string names so scenarios (and the lnc_sweep CLI) can
// reference them as data. Adding a component here makes it available to
// every preset, spec file, and bench binary at once.
#include "scenario/builtins.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/cole_vishkin.h"
#include "algo/greedy_by_id.h"
#include "algo/luby_mis.h"
#include "algo/moser_tardos.h"
#include "algo/rand_coloring.h"
#include "algo/rand_matching.h"
#include "algo/weak_color_mc.h"
#include "core/hard_instances.h"
#include "decide/amos_decider.h"
#include "decide/lcl_decider.h"
#include "decide/resilient_decider.h"
#include "decide/slack_decider.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "graph/implicit.h"
#include "lang/amos.h"
#include "lang/coloring.h"
#include "lang/domset.h"
#include "lang/frugal.h"
#include "lang/lll.h"
#include "lang/matching.h"
#include "lang/mis.h"
#include "lang/relax.h"
#include "lang/weak_coloring.h"
#include "local/experiment.h"
#include "rand/coins.h"
#include "util/assert.h"

namespace lnc::scenario::detail {
namespace {

// ---------------------------------------------------------------- helpers --

/// Identity-derivation tag: keeps identity sampling independent of the
/// topology's own edge sampling under one scenario seed.
constexpr std::uint64_t kIdSeedTag = 0x1D;

/// Round cap for engine constructions under a non-trivial fault model:
/// faults can stall termination (a node whose progress messages always
/// drop never halts), so a faulty run that exhausts this budget is a
/// legitimate outcome, not an engine bug. Deterministic in the fault
/// coins, so the cap itself never breaks bit-reproducibility.
constexpr int kFaultMaxRounds = 256;

ident::IdAssignment ids_for(graph::NodeId n, bool random_ids,
                            std::uint64_t seed) {
  if (random_ids) {
    return ident::random_permutation(n, rand::mix_keys(seed, kIdSeedTag));
  }
  return ident::consecutive(n);
}

local::Instance instance_for(graph::Graph g, bool random_ids,
                             std::uint64_t seed) {
  const graph::NodeId n = g.node_count();
  return local::make_instance(std::move(g), ids_for(n, random_ids, seed));
}

bool flag(const ParamMap& merged, const std::string& name) {
  return param(merged, name) != 0.0;
}

const ParamSpec kRandomIdsOff{"random-ids", 0,
                              "1 = seed-derived permutation identities, "
                              "0 = consecutive 1..n",
                              0, 1};
const ParamSpec kRandomIdsOn{"random-ids", 1,
                             "1 = seed-derived permutation identities, "
                             "0 = consecutive 1..n",
                             0, 1};

// ------------------------------------------------------------- topologies --

void register_topologies(Registry<TopologyEntry>& topologies) {
  topologies.add(
      {"ring",
       "Cycle C_n (n >= 3) — the paper's canonical family; consecutive "
       "identities by default (the Corollary-1 hard case).",
       {kRandomIdsOff},
       [](std::uint64_t n, const ParamMap& p, std::uint64_t seed) {
         const auto size = static_cast<graph::NodeId>(std::max<std::uint64_t>(n, 3));
         return instance_for(graph::cycle(size), flag(p, "random-ids"), seed);
       },
       [](std::uint64_t n, const ParamMap& p, std::uint64_t /*seed*/)
           -> std::shared_ptr<const graph::ImplicitTopology> {
         if (flag(p, "random-ids")) return nullptr;
         const auto size =
             static_cast<graph::NodeId>(std::max<std::uint64_t>(n, 3));
         return graph::implicit_cycle(size);
       }});
  topologies.add(
      {"hard-ring",
       "Claim-2 hard instance: C_n with consecutive identities starting at "
       "id-start (the identity-floor knob of the claim).",
       {{"id-start", 1, "smallest identity (Claim 2's Imin)", 1, 1e18}},
       [](std::uint64_t n, const ParamMap& p, std::uint64_t /*seed*/) {
         const auto size = static_cast<graph::NodeId>(std::max<std::uint64_t>(n, 3));
         return core::consecutive_ring(
             size, static_cast<ident::Identity>(param(p, "id-start")));
       },
       // id-start offsets the identity assignment, which implicit
       // instances compute as consecutive 1..n — not representable.
       nullptr});
  topologies.add(
      {"path",
       "Path P_n.",
       {kRandomIdsOff},
       [](std::uint64_t n, const ParamMap& p, std::uint64_t seed) {
         const auto size = static_cast<graph::NodeId>(std::max<std::uint64_t>(n, 1));
         return instance_for(graph::path(size), flag(p, "random-ids"), seed);
       },
       [](std::uint64_t n, const ParamMap& p, std::uint64_t /*seed*/)
           -> std::shared_ptr<const graph::ImplicitTopology> {
         if (flag(p, "random-ids")) return nullptr;
         const auto size =
             static_cast<graph::NodeId>(std::max<std::uint64_t>(n, 1));
         return graph::implicit_path(size);
       }});
  topologies.add(
      {"grid",
       "Near-square grid: the largest s x s grid with s*s <= n (degree <= 4).",
       {kRandomIdsOn},
       [](std::uint64_t n, const ParamMap& p, std::uint64_t seed) {
         graph::NodeId side = 1;
         while (static_cast<std::uint64_t>(side + 1) * (side + 1) <= n) ++side;
         side = std::max<graph::NodeId>(side, 2);
         return instance_for(graph::grid(side, side), flag(p, "random-ids"),
                             seed);
       },
       [](std::uint64_t n, const ParamMap& p, std::uint64_t /*seed*/)
           -> std::shared_ptr<const graph::ImplicitTopology> {
         if (flag(p, "random-ids")) return nullptr;
         graph::NodeId side = 1;
         while (static_cast<std::uint64_t>(side + 1) * (side + 1) <= n) ++side;
         side = std::max<graph::NodeId>(side, 2);
         return graph::implicit_grid(side, side);
       }});
  topologies.add(
      {"torus",
       "Near-square torus (4-regular): the largest s x s torus with "
       "s*s <= n, s >= 3.",
       {kRandomIdsOn},
       [](std::uint64_t n, const ParamMap& p, std::uint64_t seed) {
         graph::NodeId side = 3;
         while (static_cast<std::uint64_t>(side + 1) * (side + 1) <= n) ++side;
         return instance_for(graph::torus(side, side), flag(p, "random-ids"),
                             seed);
       },
       [](std::uint64_t n, const ParamMap& p, std::uint64_t /*seed*/)
           -> std::shared_ptr<const graph::ImplicitTopology> {
         if (flag(p, "random-ids")) return nullptr;
         graph::NodeId side = 3;
         while (static_cast<std::uint64_t>(side + 1) * (side + 1) <= n) ++side;
         return graph::implicit_torus(side, side);
       }});
  topologies.add(
      {"hypercube",
       "d-dimensional hypercube: the largest d with 2^d <= n (d >= 1).",
       {kRandomIdsOn},
       [](std::uint64_t n, const ParamMap& p, std::uint64_t seed) {
         int d = 1;
         while ((std::uint64_t{1} << (d + 1)) <= std::max<std::uint64_t>(n, 2)) {
           ++d;
         }
         return instance_for(graph::hypercube(d), flag(p, "random-ids"), seed);
       },
       [](std::uint64_t n, const ParamMap& p, std::uint64_t /*seed*/)
           -> std::shared_ptr<const graph::ImplicitTopology> {
         if (flag(p, "random-ids")) return nullptr;
         int d = 1;
         while ((std::uint64_t{1} << (d + 1)) <= std::max<std::uint64_t>(n, 2)) {
           ++d;
         }
         return graph::implicit_hypercube(d);
       }});
  topologies.add(
      {"binary-tree",
       "Complete binary tree with n nodes (heap indexing, degree <= 3).",
       {kRandomIdsOn},
       [](std::uint64_t n, const ParamMap& p, std::uint64_t seed) {
         const auto size = static_cast<graph::NodeId>(std::max<std::uint64_t>(n, 1));
         return instance_for(graph::binary_tree(size), flag(p, "random-ids"),
                             seed);
       },
       [](std::uint64_t n, const ParamMap& p, std::uint64_t /*seed*/)
           -> std::shared_ptr<const graph::ImplicitTopology> {
         if (flag(p, "random-ids")) return nullptr;
         const auto size =
             static_cast<graph::NodeId>(std::max<std::uint64_t>(n, 1));
         return graph::implicit_binary_tree(size);
       }});
  topologies.add(
      {"random-regular",
       "Random near-d-regular simple graph (union of seed-keyed "
       "permutation 2-factors, locally samplable); n is bumped by one when "
       "n*d is odd.",
       {{"degree", 3, "regular degree d", 1, 1024}, kRandomIdsOn},
       [](std::uint64_t n, const ParamMap& p, std::uint64_t seed) {
         const auto degree = static_cast<graph::NodeId>(param(p, "degree"));
         auto size = static_cast<graph::NodeId>(
             std::max<std::uint64_t>(n, degree + 1));
         if ((static_cast<std::uint64_t>(size) * degree) % 2 != 0) ++size;
         return instance_for(graph::random_regular_cycles(size, degree, seed),
                             flag(p, "random-ids"), seed);
       },
       [](std::uint64_t n, const ParamMap& p, std::uint64_t seed)
           -> std::shared_ptr<const graph::ImplicitTopology> {
         if (flag(p, "random-ids")) return nullptr;
         const auto degree = static_cast<graph::NodeId>(param(p, "degree"));
         auto size = static_cast<graph::NodeId>(
             std::max<std::uint64_t>(n, degree + 1));
         if ((static_cast<std::uint64_t>(size) * degree) % 2 != 0) ++size;
         return graph::implicit_random_regular_cycles(size, degree, seed);
       }});
  topologies.add(
      {"gnp",
       "Erdos-Renyi G(n, p) conditioned on max degree <= max-degree — the "
       "promise F_k realized on random instances (hash-sampled edges, "
       "locally samplable).",
       {{"edge-prob", 0.1, "edge probability p", 0, 1},
        {"max-degree", 8, "degree cap (the promise's k)", 0, 1e9},
        kRandomIdsOn},
       [](std::uint64_t n, const ParamMap& p, std::uint64_t seed) {
         const auto size = static_cast<graph::NodeId>(std::max<std::uint64_t>(n, 2));
         return instance_for(
             graph::gnp_hash(size, param(p, "edge-prob"),
                             static_cast<graph::NodeId>(param(p, "max-degree")),
                             seed),
             flag(p, "random-ids"), seed);
       },
       [](std::uint64_t n, const ParamMap& p, std::uint64_t seed)
           -> std::shared_ptr<const graph::ImplicitTopology> {
         if (flag(p, "random-ids")) return nullptr;
         const auto size =
             static_cast<graph::NodeId>(std::max<std::uint64_t>(n, 2));
         return graph::implicit_gnp_hash(
             size, param(p, "edge-prob"),
             static_cast<graph::NodeId>(param(p, "max-degree")), seed);
       }});
  topologies.add(
      {"random-tree",
       "Random tree with maximum degree <= max-degree.",
       {{"max-degree", 3, "degree cap", 2, 1e9}, kRandomIdsOn},
       [](std::uint64_t n, const ParamMap& p, std::uint64_t seed) {
         const auto size = static_cast<graph::NodeId>(std::max<std::uint64_t>(n, 1));
         return instance_for(
             graph::random_tree_bounded(
                 size, static_cast<graph::NodeId>(param(p, "max-degree")), seed),
             flag(p, "random-ids"), seed);
       },
       // Sequential attachment sampler — no local neighborhood oracle.
       nullptr});
  topologies.add(
      {"petersen",
       "The Petersen graph (3-regular, girth 5); n is ignored (always 10).",
       {kRandomIdsOff},
       [](std::uint64_t /*n*/, const ParamMap& p, std::uint64_t seed) {
         return instance_for(graph::petersen(), flag(p, "random-ids"), seed);
       },
       // Fixed 10-node graph — nothing to gain from implicitness.
       nullptr});
}

// -------------------------------------------------------------- languages --

/// Owns a ProperColoring base plus one of the paper's three relaxations of
/// it, exposing the base as the LCL core deciders check against.
class ColoringRelaxation final : public RelaxedLanguage {
 public:
  enum class Kind { kResilient, kSlack, kPoly };

  ColoringRelaxation(int colors, Kind kind, double value) : base_(colors) {
    switch (kind) {
      case Kind::kResilient:
        relaxed_ = std::make_unique<lang::FResilient>(
            base_, static_cast<std::size_t>(value));
        break;
      case Kind::kSlack:
        relaxed_ = std::make_unique<lang::EpsSlack>(base_, value);
        break;
      case Kind::kPoly:
        relaxed_ = std::make_unique<lang::PolyResilient>(base_, value);
        break;
    }
  }

  std::string name() const override { return relaxed_->name(); }
  bool contains(const local::Instance& inst,
                std::span<const local::Label> output) const override {
    return relaxed_->contains(inst, output);
  }
  const lang::LclLanguage& core() const override { return base_; }

 private:
  lang::ProperColoring base_;
  std::unique_ptr<lang::Language> relaxed_;
};

void register_languages(Registry<LanguageEntry>& languages) {
  languages.add({"coloring",
                 "Proper q-coloring (radius-1 LCL) — the running example.",
                 {{"colors", 3, "palette size q", 1, 1e9}},
                 [](const ParamMap& p) -> std::unique_ptr<lang::Language> {
                   return std::make_unique<lang::ProperColoring>(
                       static_cast<int>(param(p, "colors")));
                 }});
  languages.add({"weak-coloring",
                 "Weak q-coloring (Naor-Stockmeyer): every non-isolated node "
                 "has a differing neighbor.",
                 {{"colors", 2, "palette size q", 2, 1e9}},
                 [](const ParamMap& p) -> std::unique_ptr<lang::Language> {
                   return std::make_unique<lang::WeakColoring>(
                       static_cast<int>(param(p, "colors")));
                 }});
  languages.add({"mis",
                 "Maximal independent set (radius-1 LCL).",
                 {},
                 [](const ParamMap&) -> std::unique_ptr<lang::Language> {
                   return std::make_unique<lang::MaximalIndependentSet>();
                 }});
  languages.add({"matching",
                 "Maximal matching; outputs name the matched neighbor.",
                 {},
                 [](const ParamMap&) -> std::unique_ptr<lang::Language> {
                   return std::make_unique<lang::MaximalMatching>();
                 }});
  languages.add({"minimal-dominating-set",
                 "Minimal dominating set (radius-2 LCL).",
                 {},
                 [](const ParamMap&) -> std::unique_ptr<lang::Language> {
                   return std::make_unique<lang::MinimalDominatingSet>();
                 }});
  languages.add({"lll-avoidance",
                 "The LLL system: no closed neighborhood is monochromatic.",
                 {},
                 [](const ParamMap&) -> std::unique_ptr<lang::Language> {
                   return std::make_unique<lang::LllAvoidance>();
                 }});
  languages.add({"frugal-coloring",
                 "c-frugal proper coloring (paper, section 4).",
                 {{"colors", 4, "palette size", 1, 1e9},
                  {"frugality", 1, "max per-color multiplicity c", 1, 1e9}},
                 [](const ParamMap& p) -> std::unique_ptr<lang::Language> {
                   return std::make_unique<lang::FrugalColoring>(
                       static_cast<int>(param(p, "colors")),
                       static_cast<int>(param(p, "frugality")));
                 }});
  languages.add({"amos",
                 "At most one selected (global; the LD-vs-BPLD separator).",
                 {},
                 [](const ParamMap&) -> std::unique_ptr<lang::Language> {
                   return std::make_unique<lang::Amos>();
                 }});
  languages.add({"resilient-coloring",
                 "f-resilient relaxation of proper coloring (Definition 1): "
                 "at most `faults` bad balls.",
                 {{"colors", 3, "palette size", 1, 1e9},
                  {"faults", 1, "fault budget f", 0, 1e9}},
                 [](const ParamMap& p) -> std::unique_ptr<lang::Language> {
                   return std::make_unique<ColoringRelaxation>(
                       static_cast<int>(param(p, "colors")),
                       ColoringRelaxation::Kind::kResilient,
                       param(p, "faults"));
                 }});
  languages.add({"slack-coloring",
                 "eps-slack relaxation of proper coloring: at most eps*n bad "
                 "balls (BPLD#node territory).",
                 {{"colors", 3, "palette size", 1, 1e9},
                  {"eps", 0.1, "slack fraction", 0, 1}},
                 [](const ParamMap& p) -> std::unique_ptr<lang::Language> {
                   return std::make_unique<ColoringRelaxation>(
                       static_cast<int>(param(p, "colors")),
                       ColoringRelaxation::Kind::kSlack, param(p, "eps"));
                 }});
  languages.add({"poly-resilient-coloring",
                 "n^c-resilient coloring — the paper's section-5 open-problem "
                 "regime.",
                 {{"colors", 3, "palette size", 1, 1e9},
                  {"exponent", 0.5, "budget exponent c in (0, 1)", 0, 1}},
                 [](const ParamMap& p) -> std::unique_ptr<lang::Language> {
                   return std::make_unique<ColoringRelaxation>(
                       static_cast<int>(param(p, "colors")),
                       ColoringRelaxation::Kind::kPoly, param(p, "exponent"));
                 }});
}

// ----------------------------------------------------------- constructions --

/// Ball-algorithm-backed construction (direct ball runner; scenario
/// compilation may still re-route through the messages/two-phase modes).
class BallConstruction final : public Construction {
 public:
  explicit BallConstruction(
      std::unique_ptr<local::RandomizedBallAlgorithm> algo)
      : algo_(std::move(algo)) {}

  std::string name() const override { return algo_->name(); }

  Outcome run(const local::Instance& inst, const local::TrialEnv& env,
              local::Labeling& output,
              const RunOptions& run_options) const override {
    const rand::PhiloxCoins coins = env.construction_coins();
    const rand::PhiloxCoins fault_coins = env.fault_coins();
    local::ExecOptions options;
    options.arena = env.arena;
    if (run_options.fault != nullptr && !run_options.fault->trivial()) {
      options.fault = run_options.fault;
      options.fault_coins = &fault_coins;
    }
    local::run_construction_into(inst, *algo_, coins, local::ExecMode::kBalls,
                                 output, options);
    return {algo_->radius()};
  }

  const local::RandomizedBallAlgorithm* ball_algorithm() const override {
    return algo_.get();
  }

 private:
  std::unique_ptr<local::RandomizedBallAlgorithm> algo_;
};

/// Engine-program-backed construction.
class EngineConstruction final : public Construction {
 public:
  EngineConstruction(std::unique_ptr<local::NodeProgramFactory> factory,
                     bool randomized)
      : factory_(std::move(factory)), randomized_(randomized) {}

  std::string name() const override { return factory_->name(); }

  Outcome run(const local::Instance& inst, const local::TrialEnv& env,
              local::Labeling& output,
              const RunOptions& run_options) const override {
    const rand::PhiloxCoins coins = env.construction_coins();
    const rand::PhiloxCoins fault_coins = env.fault_coins();
    local::EngineOptions options;
    if (randomized_) options.coins = &coins;
    if (env.arena != nullptr) options.scratch = &env.arena->engine();
    const bool faulty =
        run_options.fault != nullptr && !run_options.fault->trivial();
    if (faulty) {
      options.fault = run_options.fault;
      options.fault_coins = &fault_coins;
      // Lossy/crashed neighborhoods can stall progress detection forever
      // (e.g. a proposer whose acceptances always drop); cap the rounds and
      // let undecided nodes keep their current output.
      options.max_rounds = kFaultMaxRounds;
    }
    local::EngineResult result = run_engine(inst, *factory_, options);
    if (!faulty) LNC_ASSERT(result.completed);
    output = std::move(result.output);
    return {result.rounds};
  }

  const local::NodeProgramFactory* engine_factory() const override {
    return factory_.get();
  }

 private:
  std::unique_ptr<local::NodeProgramFactory> factory_;
  bool randomized_;
};

/// Zero-round amos construction: a node selects itself iff its identity is
/// at most `count` — on permutation identities 1..n this marks exactly
/// `count` nodes, giving declarative yes (count <= 1) and no (count >= 2)
/// amos configurations.
class SelectIdBelow final : public local::RandomizedBallAlgorithm {
 public:
  explicit SelectIdBelow(std::uint64_t count) : count_(count) {}
  std::string name() const override {
    return "select-id-below(" + std::to_string(count_) + ")";
  }
  int radius() const override { return 0; }
  local::Label compute(const local::View& view,
                       const rand::CoinProvider& /*coins*/) const override {
    return view.center_identity() <= count_ ? lang::Amos::kSelected : 0;
  }

 private:
  std::uint64_t count_;
};

/// K phases of Luby's MIS simulated inside the radius-K ball, reading the
/// center. Phase-j priorities are pure functions of (coins, identity, j),
/// so every ball containing a node replays the same trajectory for it —
/// the consistency the implicit streaming path relies on when it
/// recomputes members' outputs from their own balls. This is NOT K-phase
/// global Luby: whether a node joins in phase j depends on its
/// radius-(2j - 1) ball (a neighbour leaves the race when one of ITS
/// neighbours joins), so the radius-K simulation matches global Luby at
/// the center only through phase floor((K + 1) / 2); later phases run on
/// a truncated view of the ball's rim. It is still a K-round Monte-Carlo
/// LOCAL algorithm, and the presets measure it, not global Luby. Output:
/// 1 = joined the MIS; undecided centers output 0.
///
/// compute() simulates only the center's dependency cone. In phase j a
/// member's new state reads its own state, its undecided neighbours'
/// priorities (does it win?) and its neighbours' wins (does it leave?),
/// so it depends only on the states after phase j - 1 of members within
/// distance 2. Members are in BFS order, so the members within distance R
/// are a prefix of the ball, and simulating that prefix on the ball's own
/// rows gives every member within R - 2(j + 1) its whole-ball state after
/// phase j. The stage ladder uses this: stage s = 0, 1, ... restarts from
/// a fresh state and runs phases 0..s, phase j drawing within distance
/// r + 2, racing within r + 1 and updating within r = 2(s - j), so the
/// center is exact after every phase and the call returns at the first
/// phase that decides it, as the whole-ball simulation does. Once a
/// stage's cone, radius 2(s + 1), covers the whole ball, the ladder jumps
/// to stage K - 1: the whole-ball simulation with its late phases pruned.
/// A center decided in phase p costs stages 0..p over at most its
/// radius-(2p + 2) members, so the cost stops growing with the ball's
/// radius; a ring center decided in phase 0 (87% of them at K = 4) reads
/// the coins of 5 of its 9 members.
class LubyBallMis final : public local::RandomizedBallAlgorithm {
 public:
  explicit LubyBallMis(int phases) : phases_(phases) {}

  std::string name() const override {
    return "luby-ball(" + std::to_string(phases_) + ")";
  }
  int radius() const override { return phases_; }
  std::uint64_t coin_prefix() const override {
    return static_cast<std::uint64_t>(phases_);
  }

  local::Label compute(const local::View& view,
                       const rand::CoinProvider& coins) const override {
    const graph::BallView& ball = *view.ball;
    const graph::NodeId size = ball.size();
    // Per-thread simulation state: compute() is shared across workers, and
    // it stays ball-sized (never O(n)).
    static thread_local Scratch s;
    if (s.state.size() < size) {
      s.state.resize(size);
      s.wins.resize(size);
      s.priority.resize(size);
      s.id.resize(size);
    }
    const int widest = 2 * phases_;
    if (s.within.size() <= static_cast<std::size_t>(widest)) {
      s.within.resize(widest + 1);
    }
    // within[d]: the members at distance <= d, a prefix of the BFS order.
    // It grows with the cone and reads each member's identity once.
    graph::NodeId* within = s.within.data();
    int reached = -1;
    graph::NodeId known = 0;
    const auto reach = [&](int radius) {
      for (; reached < radius; ++reached) {
        for (; known < size && ball.distance(known) <= reached + 1; ++known) {
          s.id[known] = view.identity(known);
        }
        within[reached + 1] = known;
      }
    };
    for (int stage = 0; stage < phases_; ++stage) {
      reach(2 * stage + 2);
      if (within[2 * stage + 2] == size) {  // the cone covers the ball
        stage = phases_ - 1;
        reach(widest);
      }
      std::fill_n(s.state.begin(), within[2 * stage + 2], std::uint8_t{0});
      for (int phase = 0; phase <= stage; ++phase) {
        const int r = 2 * (stage - phase);
        const graph::NodeId drawn = within[r + 2];
        const graph::NodeId raced = within[r + 1];
        const graph::NodeId updated = within[r];
        for (graph::NodeId v = 0; v < drawn; ++v) {
          if (s.state[v] == 0) {
            s.priority[v] =
                coins.draw(s.id[v], static_cast<std::uint64_t>(phase));
          }
        }
        for (graph::NodeId v = 0; v < raced; ++v) {
          s.wins[v] = 0;
          if (s.state[v] != 0) continue;
          bool best = true;
          for (const graph::NodeId w : ball.neighbors(v)) {
            if (s.state[w] == 0 &&
                (s.priority[w] < s.priority[v] ||
                 (s.priority[w] == s.priority[v] && s.id[w] < s.id[v]))) {
              best = false;
              break;
            }
          }
          s.wins[v] = best ? 1 : 0;
        }
        // A pull of the joins: two adjacent undecided members never both
        // win (strict total order by (priority, identity)).
        for (graph::NodeId v = 0; v < updated; ++v) {
          if (s.state[v] != 0) continue;
          if (s.wins[v] != 0) {
            s.state[v] = 1;
            continue;
          }
          for (const graph::NodeId w : ball.neighbors(v)) {
            if (s.wins[w] != 0) {
              s.state[v] = 2;
              break;
            }
          }
        }
        // States only move from 0 to 1 or 2: a decided center is final.
        if (s.state[0] != 0) return s.state[0] == 1 ? 1 : 0;
      }
    }
    return 0;
  }

 private:
  struct Scratch {
    std::vector<std::uint8_t> state;  // 0 undecided, 1 in MIS, 2 out
    std::vector<std::uint8_t> wins;
    std::vector<std::uint64_t> priority;
    std::vector<ident::Identity> id;
    std::vector<graph::NodeId> within;  // [d]: members at distance <= d
  };

  int phases_;
};

/// Cole-Vishkin on the oriented ring; the iteration budget derives from
/// the instance's actual identity range, so one registered entry serves
/// every ring size.
class ColeVishkinConstruction final : public Construction {
 public:
  std::string name() const override { return "cole-vishkin"; }

  Outcome run(const local::Instance& inst, const local::TrialEnv& env,
              local::Labeling& output,
              const RunOptions& /*run_options*/) const override {
    int bits = 1;
    while ((inst.ids.max_identity() >> bits) != 0) ++bits;
    local::EngineOptions options;
    options.grant_ring_orientation = true;
    if (env.arena != nullptr) options.scratch = &env.arena->engine();
    local::EngineResult result =
        run_engine(inst, factory_for_bits(bits), options);
    LNC_ASSERT(result.completed);
    output = std::move(result.output);
    return {result.rounds};
  }

 private:
  /// Interned immutable factories, one per identity width. A stack-local
  /// factory per trial would defeat run_engine's program recycling (the
  /// scratch compares factory addresses across runs); these live for the
  /// process, so consecutive trials on one worker recycle their programs.
  static const algo::ColeVishkinFactory& factory_for_bits(int bits) {
    static const auto table = [] {
      std::vector<std::unique_ptr<algo::ColeVishkinFactory>> factories;
      factories.reserve(64);
      for (int b = 1; b <= 64; ++b) {
        factories.push_back(std::make_unique<algo::ColeVishkinFactory>(b));
      }
      return factories;
    }();
    LNC_EXPECTS(bits >= 1 && bits <= 64);
    return *table[static_cast<std::size_t>(bits) - 1];
  }
};

/// Distributed Moser-Tardos resampling (4 LOCAL rounds per phase).
class MoserTardosConstruction final : public Construction {
 public:
  explicit MoserTardosConstruction(int max_phases) : max_phases_(max_phases) {}

  std::string name() const override { return "moser-tardos"; }

  Outcome run(const local::Instance& inst, const local::TrialEnv& env,
              local::Labeling& output,
              const RunOptions& /*run_options*/) const override {
    const rand::PhiloxCoins coins = env.construction_coins();
    algo::MoserTardosResult result =
        algo::run_moser_tardos(inst, coins, max_phases_);
    output = std::move(result.assignment);
    return {4 * result.phases};
  }

 private:
  int max_phases_;
};

void register_constructions(Registry<ConstructionEntry>& constructions) {
  constructions.add(
      {"rand-coloring",
       "Zero-round uniform random q-coloring — the paper's section-1.1 "
       "Monte-Carlo witness.",
       {{"colors", 3, "palette size q", 1, 1e9}},
       /*randomized=*/true, /*ring_only=*/false,
       /*default_language=*/"coloring",
       /*fault_capable=*/true,
       [](const ParamMap& p) -> std::unique_ptr<Construction> {
         return std::make_unique<BallConstruction>(
             std::make_unique<algo::UniformRandomColoring>(
                 static_cast<int>(param(p, "colors"))));
       }});
  constructions.add(
      {"select-id-below",
       "Zero-round amos marker: select iff identity <= count (exactly "
       "`count` selected under permutation identities).",
       {{"count", 1, "number of selected nodes", 0, 1e18}},
       /*randomized=*/false, /*ring_only=*/false,
       /*default_language=*/"amos",
       /*fault_capable=*/true,
       [](const ParamMap& p) -> std::unique_ptr<Construction> {
         return std::make_unique<BallConstruction>(
             std::make_unique<SelectIdBelow>(
                 static_cast<std::uint64_t>(param(p, "count"))));
       }});
  constructions.add(
      {"weak-color-mc",
       "Constant-round Monte-Carlo weak 2-coloring with R fix-up rounds.",
       {{"fixup-rounds", 6, "resampling rounds R", 0, 1e6}},
       /*randomized=*/true, /*ring_only=*/false,
       /*default_language=*/"weak-coloring",
       /*fault_capable=*/true,
       [](const ParamMap& p) -> std::unique_ptr<Construction> {
         return std::make_unique<EngineConstruction>(
             std::make_unique<algo::WeakColorMcFactory>(
                 static_cast<int>(param(p, "fixup-rounds"))),
             /*randomized=*/true);
       }});
  constructions.add(
      {"luby-mis",
       "Luby's randomized MIS (O(log n) expected phases).",
       {},
       /*randomized=*/true, /*ring_only=*/false,
       /*default_language=*/"mis",
       /*fault_capable=*/true,
       [](const ParamMap&) -> std::unique_ptr<Construction> {
         return std::make_unique<EngineConstruction>(
             std::make_unique<algo::LubyMisFactory>(), /*randomized=*/true);
       }});
  constructions.add(
      {"luby-ball",
       "K phases of Luby's MIS simulated inside the radius-K ball and "
       "read at the center — a constant-round Monte-Carlo MIS "
       "construction (ball-backed, so it streams over implicit "
       "giga-scale topologies). It matches global Luby only through "
       "phase floor((K+1)/2): later phases see a truncated ball, so its "
       "outputs need not be an MIS even where K-phase Luby's would be.",
       {{"phases", 2, "Luby phases K (= ball radius)", 1, 64}},
       /*randomized=*/true, /*ring_only=*/false,
       /*default_language=*/"mis",
       /*fault_capable=*/true,
       [](const ParamMap& p) -> std::unique_ptr<Construction> {
         return std::make_unique<BallConstruction>(
             std::make_unique<LubyBallMis>(
                 static_cast<int>(param(p, "phases"))));
       }});
  constructions.add(
      {"rand-matching",
       "Randomized maximal matching by propose-and-accept.",
       {},
       /*randomized=*/true, /*ring_only=*/false,
       /*default_language=*/"matching",
       /*fault_capable=*/true,
       [](const ParamMap&) -> std::unique_ptr<Construction> {
         return std::make_unique<EngineConstruction>(
             std::make_unique<algo::RandMatchingFactory>(),
             /*randomized=*/true);
       }});
  constructions.add(
      {"greedy-coloring",
       "Sequential-greedy (Delta+1)-coloring by identity (Theta(n) on "
       "consecutive rings).",
       {},
       /*randomized=*/false, /*ring_only=*/false,
       /*default_language=*/"coloring",
       /*fault_capable=*/false,
       [](const ParamMap&) -> std::unique_ptr<Construction> {
         return std::make_unique<EngineConstruction>(
             std::make_unique<algo::GreedyColoringFactory>(),
             /*randomized=*/false);
       }});
  constructions.add(
      {"greedy-mis",
       "Sequential-greedy MIS by identity.",
       {},
       /*randomized=*/false, /*ring_only=*/false,
       /*default_language=*/"mis",
       /*fault_capable=*/false,
       [](const ParamMap&) -> std::unique_ptr<Construction> {
         return std::make_unique<EngineConstruction>(
             std::make_unique<algo::GreedyMisFactory>(), /*randomized=*/false);
       }});
  constructions.add(
      {"cole-vishkin",
       "Cole-Vishkin 3-coloring of the oriented ring in O(log* n) rounds.",
       {},
       /*randomized=*/false, /*ring_only=*/true,
       /*default_language=*/"coloring",
       /*fault_capable=*/false,
       [](const ParamMap&) -> std::unique_ptr<Construction> {
         return std::make_unique<ColeVishkinConstruction>();
       }});
  constructions.add(
      {"moser-tardos",
       "Distributed Moser-Tardos resampling for the LLL system.",
       {{"max-phases", 10000, "resampling phase cap", 1, 1e9}},
       /*randomized=*/true, /*ring_only=*/false,
       /*default_language=*/"lll-avoidance",
       /*fault_capable=*/false,
       [](const ParamMap& p) -> std::unique_ptr<Construction> {
         return std::make_unique<MoserTardosConstruction>(
             static_cast<int>(param(p, "max-phases")));
       }});
}

// ---------------------------------------------------------------- deciders --

/// Radius-t deterministic "local population count" decider for amos:
/// reject iff the ball holds >= 2 selected nodes. Registered because E9
/// uses it as the LD-side foil; it errs whenever two selected nodes are
/// more than 2t apart.
class LocalCountDecider final : public decide::Decider {
 public:
  explicit LocalCountDecider(int radius) : radius_(radius) {}
  std::string name() const override {
    return "local-count(t=" + std::to_string(radius_) + ")";
  }
  int radius() const override { return radius_; }
  bool bad(const decide::DeciderView& view) const override {
    int selected = 0;
    for (graph::NodeId local = 0; local < view.view.ball->size(); ++local) {
      if (view.output_of(local) == lang::Amos::kSelected) ++selected;
    }
    return selected > 1;
  }

 private:
  int radius_;
};

void register_deciders(Registry<DeciderEntry>& deciders) {
  deciders.add({"exact",
                "Pseudo-decider: global membership check by the scenario's "
                "language (measures the construction's raw success "
                "probability).",
                {},
                /*global_check=*/true,
                /*needs_lcl=*/false,
                /*needs_n=*/false,
                nullptr});
  deciders.add(
      {"lcl",
       "The canonical deterministic LD decider: accept iff the radius-t "
       "ball is not in Bad(L).",
       {},
       /*global_check=*/false,
       /*needs_lcl=*/true,
       /*needs_n=*/false,
       [](const lang::Language* language, const ParamMap&)
           -> std::unique_ptr<decide::Decider> {
         return std::make_unique<decide::LclDecider>(*lcl_core(*language));
       }});
  deciders.add(
      {"amos",
       "Zero-round randomized amos decider: selected nodes accept with "
       "probability p (golden-ratio optimum by default).",
       {{"p", -1, "acceptance probability at selected nodes; -1 = optimum",
         -1, 1}},
       /*global_check=*/false,
       /*needs_lcl=*/false,
       /*needs_n=*/false,
       [](const lang::Language*, const ParamMap& p)
           -> std::unique_ptr<decide::Decider> {
         return std::make_unique<decide::AmosDecider>(param(p, "p"));
       }});
  deciders.add(
      {"resilient",
       "Corollary-1 decider for f-resilient relaxations: bad balls accept "
       "with probability p in (2^-1/f, 2^-1/(f+1)).",
       {{"faults", 1, "fault budget f", 1, 1e7},
        {"p", -1, "per-bad-ball acceptance; -1 = interval geometric mean",
         -1, 1}},
       /*global_check=*/false,
       /*needs_lcl=*/true,
       /*needs_n=*/false,
       [](const lang::Language* language, const ParamMap& p)
           -> std::unique_ptr<decide::Decider> {
         return std::make_unique<decide::ResilientDecider>(
             *lcl_core(*language),
             static_cast<std::size_t>(param(p, "faults")), param(p, "p"));
       }});
  deciders.add(
      {"slack",
       "BPLD#node decider for eps-slack relaxations (fault budget eps*n; "
       "nodes must know n).",
       {{"eps", 0.1, "slack fraction", 1e-9, 1}},
       /*global_check=*/false,
       /*needs_lcl=*/true,
       /*needs_n=*/true,
       [](const lang::Language* language, const ParamMap& p)
           -> std::unique_ptr<decide::Decider> {
         return std::make_unique<decide::SlackDecider>(*lcl_core(*language),
                                                       param(p, "eps"));
       }});
  deciders.add(
      {"local-count",
       "Deterministic radius-t amos foil: reject iff >= 2 selected in the "
       "ball (errs once the diameter exceeds 2t — E9).",
       {{"radius", 1, "ball radius t", 0, 1e6}},
       /*global_check=*/false,
       /*needs_lcl=*/false,
       /*needs_n=*/false,
       [](const lang::Language*, const ParamMap& p)
           -> std::unique_ptr<decide::Decider> {
         return std::make_unique<LocalCountDecider>(
             static_cast<int>(param(p, "radius")));
       }});
}

// -------------------------------------------------------------- statistics --

void register_statistics(Registry<StatisticEntry>& statistics) {
  statistics.add(
      {"rounds",
       "LOCAL rounds the construction executed this trial (engine programs "
       "report their actual round count; ball algorithms their radius) — "
       "the E10 contrast quantity.",
       /*integer_valued=*/true, /*needs_lcl=*/false, /*needs_telemetry=*/false,
       [](const StatisticContext& ctx) {
         return static_cast<double>(ctx.outcome.rounds);
       }});
  statistics.add(
      {"output-size",
       "Nodes with a nonzero output label — MIS size, matched nodes, "
       "selected amos nodes.",
       /*integer_valued=*/true, /*needs_lcl=*/false, /*needs_telemetry=*/false,
       [](const StatisticContext& ctx) {
         std::uint64_t nonzero = 0;
         for (const local::Label label : *ctx.output) {
           if (label != 0) ++nonzero;
         }
         return static_cast<double>(nonzero);
       }});
  statistics.add(
      {"distinct-labels",
       "Distinct output labels used (the palette a coloring actually "
       "spends).",
       /*integer_valued=*/true, /*needs_lcl=*/false, /*needs_telemetry=*/false,
       [](const StatisticContext& ctx) {
         std::vector<local::Label> labels(ctx.output->begin(),
                                          ctx.output->end());
         std::sort(labels.begin(), labels.end());
         return static_cast<double>(
             std::unique(labels.begin(), labels.end()) - labels.begin());
       }});
  statistics.add(
      {"bad-balls",
       "Bad balls of the language's LCL core in the output — 0 is a "
       "perfect configuration, so the mean measures output quality.",
       /*integer_valued=*/true, /*needs_lcl=*/true, /*needs_telemetry=*/false,
       [](const StatisticContext& ctx) {
         const lang::LclLanguage* core = lcl_core(*ctx.language);
         LNC_ASSERT(core != nullptr);
         return static_cast<double>(
             core->count_bad_balls(*ctx.instance, *ctx.output));
       }});
  statistics.add(
      {"messages",
       "Messages the construction run charged this trial (measured for "
       "engine runs, simulation-theorem-modeled for ball runs).",
       /*integer_valued=*/true, /*needs_lcl=*/false, /*needs_telemetry=*/true,
       [](const StatisticContext& ctx) {
         return static_cast<double>(ctx.delta.messages_sent);
       }});
  statistics.add(
      {"words",
       "64-bit words the construction run charged this trial (measured "
       "for engine runs, simulation-theorem-modeled for ball runs).",
       /*integer_valued=*/true, /*needs_lcl=*/false, /*needs_telemetry=*/true,
       [](const StatisticContext& ctx) {
         return static_cast<double>(ctx.delta.words_sent);
       }});
}

// ------------------------------------------------------------ fault models --

void register_faults(Registry<FaultEntry>& faults) {
  faults.add({"none",
              "No faults: every message delivers, every node and edge stays "
              "up. The default; specs omitting the fault block get this.",
              {},
              [](const ParamMap&) { return fault::make_none(); }});
  faults.add({"drop",
              "Lossy links: each delivery is independently dropped with "
              "probability p-loss (the sender never learns).",
              {{"p-loss", 0.1, "per-delivery loss probability", 0, 1}},
              [](const ParamMap& p) {
                return fault::make_drop(param(p, "p-loss"));
              }});
  faults.add({"crash",
              "Crash-stop nodes: with probability p-crash a node dies before "
              "a round drawn uniformly from [1, crash-round] and falls "
              "silent for the rest of the run.",
              {{"p-crash", 0.05, "per-node crash probability", 0, 1},
               {"crash-round", 1, "latest possible crash round", 1, 1e6}},
              [](const ParamMap& p) {
                return fault::make_crash(
                    param(p, "p-crash"),
                    static_cast<std::uint64_t>(param(p, "crash-round")));
              }});
  faults.add({"churn",
              "Edge churn: each edge is independently down for each round "
              "with probability p-churn (no message crosses either way).",
              {{"p-churn", 0.1, "per-edge per-round outage probability", 0, 1}},
              [](const ParamMap& p) {
                return fault::make_churn(param(p, "p-churn"));
              }});
}

}  // namespace

void register_builtins(Registry<TopologyEntry>& topologies,
                       Registry<LanguageEntry>& languages,
                       Registry<ConstructionEntry>& constructions,
                       Registry<DeciderEntry>& deciders,
                       Registry<StatisticEntry>& statistics,
                       Registry<FaultEntry>& faults) {
  register_topologies(topologies);
  register_languages(languages);
  register_constructions(constructions);
  register_deciders(deciders);
  register_statistics(statistics);
  register_faults(faults);
}

}  // namespace lnc::scenario::detail
