#include "algo/luby_mis.h"

#include <algorithm>

#include "local/vector_engine.h"
#include "rand/philox.h"
#include "util/assert.h"

namespace lnc::algo {
namespace {

enum Status : std::uint64_t { kUndecided = 0, kIn = 1, kOut = 2 };

// Odd rounds exchange draws: [status, draw, id].
// Even rounds exchange join decisions: [status, joining].
class LubyProgram final : public local::NodeProgram {
 public:
  bool init(const local::NodeEnv& env) override {
    LNC_EXPECTS(env.rng != nullptr && "Luby's MIS is randomized");
    rng_ = env.rng;
    id_ = env.id;
    if (env.degree == 0) {
      status_ = kIn;  // isolated nodes join immediately
      return true;
    }
    return false;
  }

  void send(int round, local::MessageWriter& out) override {
    if (round % 2 == 1) {
      if (status_ == kUndecided) draw_ = rng_->next_u64();
      out.push(status_);
      out.push(draw_);
      out.push(id_);
      return;
    }
    out.push(status_);
    out.push(joining_ ? std::uint64_t{1} : std::uint64_t{0});
  }

  bool receive(int round, const local::Inbox& inbox) override {
    if (status_ != kUndecided) return true;
    if (round % 2 == 1) {
      joining_ = true;
      for (std::size_t p = 0; p < inbox.size(); ++p) {
        const auto msg = inbox[p];
        if (msg.empty()) continue;  // silent port (crashed/lossy neighbor)
        if (msg[0] != kUndecided) continue;
        const std::uint64_t their_draw = msg[1];
        const std::uint64_t their_id = msg[2];
        if (their_draw > draw_ ||
            (their_draw == draw_ && their_id > id_)) {
          joining_ = false;
          break;
        }
      }
      return false;
    }
    if (joining_) {
      status_ = kIn;
      return false;  // broadcast kIn next round, then halt
    }
    for (std::size_t p = 0; p < inbox.size(); ++p) {
      const auto msg = inbox[p];
      if (msg.empty()) continue;  // silent port (crashed/lossy neighbor)
      if (msg[0] == kUndecided && msg[1] == 1) {
        status_ = kOut;
        return false;  // a neighbor joined this phase
      }
      if (msg[0] == kIn) {
        status_ = kOut;
        return false;  // a neighbor joined in an earlier phase
      }
    }
    return false;
  }

  local::Label output() const override { return status_ == kIn ? 1 : 0; }

  /// Back to the pre-init() state (init reassigns rng and id).
  void reset() noexcept {
    draw_ = 0;
    joining_ = false;
    status_ = kUndecided;
  }

 private:
  rand::NodeRng* rng_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t draw_ = 0;
  bool joining_ = false;
  Status status_ = kUndecided;
};

/// SoA lockstep counterpart of LubyProgram. A "message" is a read of the
/// sender's round-start state: draws are refreshed for every undecided
/// node before the odd receive pass (the send barrier), and the even pass
/// compares against a per-trial status snapshot because kIn/kOut flips
/// happen in place during that same pass.
///
/// The per-node state stays trial-major — [trial * n + node] — matching
/// the rest of the vector backend: each trial's n-node window fits low
/// cache levels, which matters because neighbor reads on random graphs
/// are scattered (a node-major [node * B + trial] layout was measured
/// ~1.8x slower here for exactly that reason — it blows the working set
/// up by the batch width).
class LubyVectorProgram final : public local::VectorProgram {
 public:
  std::string name() const override { return "luby-mis"; }

  void init(local::VectorBatch& batch) override {
    const auto& g = batch.instance().g;
    const std::uint32_t n = batch.nodes();
    const std::size_t total = static_cast<std::size_t>(batch.trials()) * n;
    status_.assign(total, static_cast<std::uint8_t>(kUndecided));
    draws_.resize(total);
    joining_.resize(total);
    prev_status_.resize(n);
    for (std::uint32_t t = 0; t < batch.trials(); ++t) {
      for (std::uint32_t v = 0; v < n; ++v) {
        if (g.degree(v) == 0) {
          status_[batch.at(t, v)] = static_cast<std::uint8_t>(kIn);
          batch.set_halted(t, v);  // isolated nodes join immediately
        }
      }
    }
  }

  void round(local::VectorBatch& batch, int round) override {
    const auto& g = batch.instance().g;
    const auto& ids = batch.instance().ids;
    const std::uint32_t n = batch.nodes();
    const bool odd = round % 2 == 1;
    batch.for_each_live_trial([&](std::uint32_t t) {
      // Every node broadcasts: [status, draw, id] odd, [status, joining]
      // even — halted relays included.
      batch.add_traffic(t, n, odd ? 3 * std::uint64_t{n} : 2 * std::uint64_t{n});
      const std::size_t base = batch.at(t, 0);
      std::uint8_t* status = status_.data() + base;
      std::uint64_t* draws = draws_.data() + base;
      std::uint8_t* joining = joining_.data() + base;
      if (odd) {
        // Send pass: undecided nodes refresh their competition draw. The
        // draws are gathered and filled through the bulk philox kernel
        // (rand/philox.h) — bit-identical to per-node next_u64() calls,
        // several times the serial throughput.
        pending_.clear();
        pending_hi_.clear();
        pending_lo_.clear();
        batch.for_each_active_node(t, [&](std::uint32_t v) {
          if (status[v] == kUndecided) {
            local::VecRng& rng = batch.rng(t, v);
            pending_.push_back(v);
            pending_hi_.push_back(rng.identity);
            pending_lo_.push_back(rng.counter++);
          }
        });
        pending_out_.resize(pending_.size());
        if (!pending_.empty()) {
          rand::philox_u64_batch(batch.rng(t, pending_[0]).key,
                                 pending_hi_.data(), pending_lo_.data(),
                                 pending_out_.data(), pending_.size());
          for (std::size_t p = 0; p < pending_.size(); ++p) {
            draws[pending_[p]] = pending_out_[p];
          }
        }
        batch.for_each_active_node(t, [&](std::uint32_t v) {
          if (status[v] != kUndecided) {
            batch.set_halted(t, v);  // decided last phase; announced, halts
            return;
          }
          std::uint8_t joins = 1;
          for (const auto u : g.neighbors(v)) {
            if (status[u] != kUndecided) continue;
            if (draws[u] > draws[v] ||
                (draws[u] == draws[v] && ids[u] > ids[v])) {
              joins = 0;
              break;
            }
          }
          joining[v] = joins;
        });
        return;
      }
      std::copy(status, status + n, prev_status_.begin());
      batch.for_each_active_node(t, [&](std::uint32_t v) {
        if (status[v] != kUndecided) {
          batch.set_halted(t, v);
          return;
        }
        if (joining[v] != 0) {
          status[v] = static_cast<std::uint8_t>(kIn);
          return;  // broadcast kIn next round, then halt
        }
        for (const auto u : g.neighbors(v)) {
          if ((prev_status_[u] == kUndecided && joining[u] != 0) ||
              prev_status_[u] == kIn) {
            status[v] = static_cast<std::uint8_t>(kOut);
            return;  // a neighbor joined this phase or an earlier one
          }
        }
      });
    });
  }

  void output(const local::VectorBatch& batch, std::uint32_t trial,
              local::Labeling& out) const override {
    const std::uint32_t n = batch.nodes();
    out.resize(n);
    const std::uint8_t* status = status_.data() + batch.at(trial, 0);
    for (std::uint32_t v = 0; v < n; ++v) out[v] = status[v] == kIn ? 1 : 0;
  }

  std::size_t footprint_bytes() const noexcept override {
    return status_.capacity() + joining_.capacity() + prev_status_.capacity() +
           draws_.capacity() * sizeof(std::uint64_t);
  }

 private:
  std::vector<std::uint8_t> status_;    // [trial * n + node]
  std::vector<std::uint64_t> draws_;    // [trial * n + node]
  std::vector<std::uint8_t> joining_;   // [trial * n + node]
  std::vector<std::uint8_t> prev_status_;  // round-start snapshot, one trial
  std::vector<std::uint32_t> pending_;     // draw-pass gather: nodes...
  std::vector<std::uint64_t> pending_hi_;  // ...their stream identities...
  std::vector<std::uint64_t> pending_lo_;  // ...and next draw indices
  std::vector<std::uint64_t> pending_out_;
};

}  // namespace

std::unique_ptr<local::NodeProgram> LubyMisFactory::create() const {
  return std::make_unique<LubyProgram>();
}

bool LubyMisFactory::recreate(local::NodeProgram& program) const {
  auto* luby = dynamic_cast<LubyProgram*>(&program);
  if (luby == nullptr) return false;
  luby->reset();
  return true;
}

std::unique_ptr<local::VectorProgram> LubyMisFactory::create_vector() const {
  return std::make_unique<LubyVectorProgram>();
}

local::EngineResult run_luby_mis(const local::Instance& inst,
                                 const rand::CoinProvider& coins) {
  LubyMisFactory factory;
  local::EngineOptions options;
  options.coins = &coins;
  return run_engine(inst, factory, options);
}

}  // namespace lnc::algo
