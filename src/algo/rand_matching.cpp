#include "algo/rand_matching.h"

#include <algorithm>
#include <vector>

#include "local/vector_engine.h"
#include "rand/philox.h"
#include "util/assert.h"

namespace lnc::algo {
namespace {

// Each phase is two engine rounds. At the start of a phase every unmatched
// node flips a role coin: PROPOSER or LISTENER. Proposers aim at one random
// available neighbor; listeners accept the best proposal addressed to them
// (highest draw, ties by identity). A proposer matches exactly when its
// target accepted it, and the target matches it symmetrically — roles make
// the "accepted while also being accepted elsewhere" race impossible.
//
// Message layouts ([0] is always the matched flag):
//   odd rounds  : [matched, role, proposal_target_id, draw, id]
//   even rounds : [matched, accepted_proposer_id]
constexpr std::uint64_t kRoleListener = 0;
constexpr std::uint64_t kRoleProposer = 1;

class MatchingProgram final : public local::NodeProgram {
 public:
  bool init(const local::NodeEnv& env) override {
    LNC_EXPECTS(env.rng != nullptr && "randomized matching needs coins");
    rng_ = env.rng;
    id_ = env.id;
    degree_ = env.degree;
    neighbor_available_.assign(degree_, true);
    neighbor_id_.assign(degree_, 0);
    return degree_ == 0;  // isolated nodes stay unmatched forever
  }

  void send(int round, local::MessageWriter& out) override {
    if (matched_) {
      const std::uint64_t words[] = {1, mate_id_, 0, 0, 0};
      out.append(words);
      return;
    }
    if (round % 2 == 1) {
      role_ = rng_->bernoulli(0.5) ? kRoleProposer : kRoleListener;
      proposal_target_ = role_ == kRoleProposer ? pick_target() : 0;
      draw_ = rng_->next_u64();
      const std::uint64_t words[] = {0, role_, proposal_target_, draw_, id_};
      out.append(words);
      return;
    }
    out.push(0);
    out.push(accepted_proposer_);
  }

  bool receive(int round, const local::Inbox& inbox) override {
    if (matched_) return true;  // the match was broadcast last round
    if (round % 2 == 1) {
      accepted_proposer_ = 0;
      std::uint64_t best_draw = 0;
      for (std::size_t p = 0; p < inbox.size(); ++p) {
        const auto msg = inbox[p];
        // A silent port (crashed/lossy neighbor) carries no information;
        // the last known availability stands.
        if (msg.empty()) continue;
        neighbor_available_[p] = msg[0] == 0;
        if (msg[0] != 0) continue;
        neighbor_id_[p] = msg[4];
        ids_known_ = true;
        if (role_ == kRoleListener && msg[1] == kRoleProposer &&
            msg[2] == id_) {
          const std::uint64_t their_draw = msg[3];
          const std::uint64_t their_id = msg[4];
          if (accepted_proposer_ == 0 || their_draw > best_draw ||
              (their_draw == best_draw && their_id > accepted_proposer_)) {
            accepted_proposer_ = their_id;
            best_draw = their_draw;
          }
        }
      }
      return false;
    }
    // Accept round.
    if (role_ == kRoleProposer && proposal_target_ != 0) {
      for (std::size_t p = 0; p < inbox.size(); ++p) {
        const auto msg = inbox[p];
        if (msg.empty()) continue;  // silent port: no acceptance heard
        if (msg[0] == 0 && msg[1] == id_) {
          // Only our proposal target could have accepted us.
          matched_ = true;
          mate_id_ = proposal_target_;
          return false;  // broadcast [1, mate] next round, then halt
        }
      }
    } else if (role_ == kRoleListener && accepted_proposer_ != 0) {
      matched_ = true;
      mate_id_ = accepted_proposer_;
      return false;
    }
    // Unmatched: halt once no neighbor is available (maximality reached).
    for (std::size_t p = 0; p < degree_; ++p) {
      if (neighbor_available_[p]) return false;
    }
    return true;
  }

  local::Label output() const override { return matched_ ? mate_id_ : 0; }

  /// Back to the pre-init() state (init reassigns rng/id/degree/buffers).
  void reset() noexcept {
    ids_known_ = false;
    matched_ = false;
    role_ = kRoleListener;
    mate_id_ = 0;
    proposal_target_ = 0;
    accepted_proposer_ = 0;
    draw_ = 0;
  }

 private:
  /// Uniform random available neighbor's identity (0 when none, and in the
  /// very first phase while neighbor identities are still unknown).
  std::uint64_t pick_target() {
    if (!ids_known_) return 0;
    candidates_.clear();  // keeps its capacity across proposals
    for (std::size_t p = 0; p < degree_; ++p) {
      if (neighbor_available_[p]) candidates_.push_back(neighbor_id_[p]);
    }
    if (candidates_.empty()) return 0;
    return candidates_[rng_->next_below(candidates_.size())];
  }

  rand::NodeRng* rng_ = nullptr;
  std::uint64_t id_ = 0;
  std::size_t degree_ = 0;
  bool ids_known_ = false;
  bool matched_ = false;
  std::uint64_t role_ = kRoleListener;
  std::uint64_t mate_id_ = 0;
  std::uint64_t proposal_target_ = 0;
  std::uint64_t accepted_proposer_ = 0;
  std::uint64_t draw_ = 0;
  std::vector<bool> neighbor_available_;
  std::vector<std::uint64_t> neighbor_id_;
  std::vector<std::uint64_t> candidates_;  // pick_target's scratch
};

/// SoA lockstep counterpart of MatchingProgram. Node state is flat
/// [trial * n + node]; the per-port availability/identity tables are flat
/// [trial * ports + port_base[node] + port] against shared CSR port
/// offsets. Draw sequences replicate the scalar send exactly: role coin,
/// then (proposers with known ids and a non-empty candidate list) the
/// target pick, then the competition draw. Halted unmatched nodes' scalar
/// draws are provably unread — every neighbor is matched and a matched
/// node's receive halts before scanning — so the vector backend skips
/// them without observable difference.
class MatchingVectorProgram final : public local::VectorProgram {
 public:
  std::string name() const override { return "rand-matching"; }

  void init(local::VectorBatch& batch) override {
    const auto& g = batch.instance().g;
    const std::uint32_t n = batch.nodes();
    const std::uint32_t trials = batch.trials();
    const std::size_t total = static_cast<std::size_t>(trials) * n;
    port_base_.resize(n + 1);
    port_base_[0] = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
      port_base_[v + 1] = port_base_[v] + g.degree(v);
    }
    const std::size_t ports = port_base_[n];
    matched_.assign(total, 0);
    ids_known_.assign(total, 0);
    role_.assign(total, static_cast<std::uint8_t>(kRoleListener));
    mate_.assign(total, 0);
    target_.assign(total, 0);
    accepted_.assign(total, 0);
    draw_.assign(total, 0);
    avail_.assign(static_cast<std::size_t>(trials) * ports, 1);
    nid_.assign(static_cast<std::size_t>(trials) * ports, 0);
    matched_count_.assign(trials, 0);
    prev_matched_.resize(n);
    for (std::uint32_t t = 0; t < trials; ++t) {
      for (std::uint32_t v = 0; v < n; ++v) {
        if (g.degree(v) == 0) batch.set_halted(t, v);  // unmatched forever
      }
    }
  }

  void round(local::VectorBatch& batch, int round) override {
    const auto& g = batch.instance().g;
    const auto& ids = batch.instance().ids;
    const std::uint32_t n = batch.nodes();
    const std::size_t ports = port_base_[n];
    const bool odd = round % 2 == 1;
    batch.for_each_live_trial([&](std::uint32_t t) {
      const std::size_t base = batch.at(t, 0);
      std::uint8_t* matched = matched_.data() + base;
      std::uint8_t* known = ids_known_.data() + base;
      std::uint8_t* role = role_.data() + base;
      std::uint64_t* mate = mate_.data() + base;
      std::uint64_t* target = target_.data() + base;
      std::uint64_t* accepted = accepted_.data() + base;
      std::uint64_t* draw = draw_.data() + base;
      std::uint8_t* avail = avail_.data() + static_cast<std::size_t>(t) * ports;
      std::uint64_t* nid = nid_.data() + static_cast<std::size_t>(t) * ports;
      // Everyone sends: matched nodes 5 words always, unmatched nodes 5
      // in propose rounds and 2 in accept rounds.
      const std::uint64_t mc = matched_count_[t];
      batch.add_traffic(t, n, odd ? 5 * std::uint64_t{n} : 5 * mc + 2 * (n - mc));
      if (odd) {
        // Send pass: unmatched nodes flip the role coin, proposers pick a
        // target, everyone refreshes the competition draw. That is at most
        // three coins per node, so every unmatched node's next three are
        // gathered and filled through the bulk philox kernel
        // (rand/philox.h), then read in the scalar order: lane 0 is the
        // role coin; a proposer with candidates picks with lane 1 and
        // draws lane 2, everyone else draws lane 1. Each counter advances
        // by the lanes read, as the scalar draws would advance it.
        pending_.clear();
        pending_hi_.clear();
        pending_lo_.clear();
        batch.for_each_active_node(t, [&](std::uint32_t v) {
          if (matched[v] != 0) return;
          const local::VecRng& rng = batch.rng(t, v);
          pending_.push_back(v);
          for (std::uint64_t lane = 0; lane < 3; ++lane) {
            pending_hi_.push_back(rng.identity);
            pending_lo_.push_back(rng.counter + lane);
          }
        });
        pending_out_.resize(pending_lo_.size());
        if (!pending_.empty()) {
          rand::philox_u64_batch(batch.rng(t, pending_[0]).key,
                                 pending_hi_.data(), pending_lo_.data(),
                                 pending_out_.data(), pending_out_.size());
        }
        for (std::size_t p = 0; p < pending_.size(); ++p) {
          const std::uint32_t v = pending_[p];
          const std::uint64_t* lane = pending_out_.data() + 3 * p;
          local::VecRng& rng = batch.rng(t, v);
          role[v] = local::VecRng::unit(lane[0]) < 0.5
                        ? static_cast<std::uint8_t>(kRoleProposer)
                        : static_cast<std::uint8_t>(kRoleListener);
          target[v] = 0;
          if (role[v] == kRoleProposer && known[v] != 0) {
            candidates_.clear();
            for (std::size_t pp = port_base_[v]; pp < port_base_[v + 1]; ++pp) {
              if (avail[pp] != 0) candidates_.push_back(nid[pp]);
            }
            if (!candidates_.empty()) {
              const std::uint64_t k = candidates_.size();
              if (lane[1] >= (0 - k) % k) {
                target[v] = candidates_[lane[1] % k];
                draw[v] = lane[2];
                rng.counter += 3;
              } else {
                // next_below refused lane 1 (about k times in 2^64):
                // continue its rejection loop on the scalar stream.
                rng.counter += 2;
                target[v] = candidates_[rng.next_below(k)];
                draw[v] = rng.next_u64();
              }
              continue;
            }
          }
          draw[v] = lane[1];
          rng.counter += 2;
        }
        batch.for_each_active_node(t, [&](std::uint32_t v) {
          if (matched[v] != 0) {
            batch.set_halted(t, v);  // the match was broadcast last round
            return;
          }
          accepted[v] = 0;
          std::uint64_t best_draw = 0;
          const auto nbrs = g.neighbors(v);
          for (std::size_t p = 0; p < nbrs.size(); ++p) {
            const auto u = nbrs[p];
            const std::size_t pp = port_base_[v] + p;
            avail[pp] = matched[u] == 0 ? 1 : 0;
            if (matched[u] != 0) continue;
            nid[pp] = ids[u];
            known[v] = 1;
            if (role[v] == kRoleListener && role[u] == kRoleProposer &&
                target[u] == ids[v]) {
              if (accepted[v] == 0 || draw[u] > best_draw ||
                  (draw[u] == best_draw && ids[u] > accepted[v])) {
                accepted[v] = ids[u];
                best_draw = draw[u];
              }
            }
          }
        });
        return;
      }
      // Accept round: matches form in place, so compare against the
      // round-start matched snapshot (the "sent" flags).
      std::copy(matched, matched + n, prev_matched_.begin());
      std::uint32_t new_matches = 0;
      batch.for_each_active_node(t, [&](std::uint32_t v) {
        if (matched[v] != 0) {
          batch.set_halted(t, v);
          return;
        }
        if (role[v] == kRoleProposer && target[v] != 0) {
          const auto nbrs = g.neighbors(v);
          for (std::size_t p = 0; p < nbrs.size(); ++p) {
            const auto u = nbrs[p];
            if (prev_matched_[u] == 0 && accepted[u] == ids[v]) {
              // Only our proposal target could have accepted us.
              matched[v] = 1;
              mate[v] = target[v];
              ++new_matches;
              return;  // broadcast [1, mate] next round, then halt
            }
          }
        } else if (role[v] == kRoleListener && accepted[v] != 0) {
          matched[v] = 1;
          mate[v] = accepted[v];
          ++new_matches;
          return;
        }
        // Unmatched: halt once no neighbor is available (maximality).
        for (std::size_t pp = port_base_[v]; pp < port_base_[v + 1]; ++pp) {
          if (avail[pp] != 0) return;
        }
        batch.set_halted(t, v);
      });
      matched_count_[t] += new_matches;
    });
  }

  void output(const local::VectorBatch& batch, std::uint32_t trial,
              local::Labeling& out) const override {
    const std::uint32_t n = batch.nodes();
    out.resize(n);
    const std::size_t base = batch.at(trial, 0);
    for (std::uint32_t v = 0; v < n; ++v) {
      out[v] = matched_[base + v] != 0 ? mate_[base + v] : 0;
    }
  }

  std::size_t footprint_bytes() const noexcept override {
    return matched_.capacity() + ids_known_.capacity() + role_.capacity() +
           avail_.capacity() + prev_matched_.capacity() +
           (mate_.capacity() + target_.capacity() + accepted_.capacity() +
            draw_.capacity() + nid_.capacity() + candidates_.capacity()) *
               sizeof(std::uint64_t) +
           (port_base_.capacity() + matched_count_.capacity()) *
               sizeof(std::uint32_t);
  }

 private:
  std::vector<std::uint32_t> port_base_;  // shared CSR port offsets, n + 1
  std::vector<std::uint8_t> matched_;     // [trial * n + node]
  std::vector<std::uint8_t> ids_known_;   // [trial * n + node]
  std::vector<std::uint8_t> role_;        // [trial * n + node]
  std::vector<std::uint64_t> mate_;       // [trial * n + node]
  std::vector<std::uint64_t> target_;     // [trial * n + node]
  std::vector<std::uint64_t> accepted_;   // [trial * n + node]
  std::vector<std::uint64_t> draw_;       // [trial * n + node]
  std::vector<std::uint8_t> avail_;       // [trial * ports + port]
  std::vector<std::uint64_t> nid_;        // [trial * ports + port]
  std::vector<std::uint32_t> matched_count_;  // per trial
  std::vector<std::uint8_t> prev_matched_;    // round-start snapshot
  std::vector<std::uint64_t> candidates_;     // pick_target scratch
  std::vector<std::uint32_t> pending_;     // send-pass gather: nodes...
  std::vector<std::uint64_t> pending_hi_;  // ...their stream identities...
  std::vector<std::uint64_t> pending_lo_;  // ...and next three draw indices
  std::vector<std::uint64_t> pending_out_;
};

}  // namespace

std::unique_ptr<local::NodeProgram> RandMatchingFactory::create() const {
  return std::make_unique<MatchingProgram>();
}

bool RandMatchingFactory::recreate(local::NodeProgram& program) const {
  auto* matching = dynamic_cast<MatchingProgram*>(&program);
  if (matching == nullptr) return false;
  matching->reset();
  return true;
}

std::unique_ptr<local::VectorProgram> RandMatchingFactory::create_vector()
    const {
  return std::make_unique<MatchingVectorProgram>();
}

local::EngineResult run_rand_matching(const local::Instance& inst,
                                      const rand::CoinProvider& coins) {
  RandMatchingFactory factory;
  local::EngineOptions options;
  options.coins = &coins;
  return run_engine(inst, factory, options);
}

}  // namespace lnc::algo
