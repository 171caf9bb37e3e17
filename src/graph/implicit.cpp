#include "graph/implicit.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "rand/splitmix.h"
#include "util/assert.h"

namespace lnc::graph {
namespace {

/// A seed-keyed pseudorandom permutation of [0, n): 4-round balanced
/// Feistel over the smallest even-bit power-of-two domain >= n, with
/// cycle-walking back into [0, n). Invertible in both directions — the
/// property random_regular_cycles needs, since node v's neighbors under
/// permutation pi are pi(v) AND pi^-1(v).
class FeistelPermutation {
 public:
  FeistelPermutation(std::uint64_t n, std::uint64_t key)
      : n_(n), key_(key) {
    LNC_EXPECTS(n >= 1);
    half_bits_ = 1;
    while ((std::uint64_t{1} << (2 * half_bits_)) < n) ++half_bits_;
    half_mask_ = (std::uint64_t{1} << half_bits_) - 1;
  }

  std::uint64_t forward(std::uint64_t x) const {
    do {
      x = encrypt(x);
    } while (x >= n_);
    return x;
  }

  std::uint64_t inverse(std::uint64_t x) const {
    do {
      x = decrypt(x);
    } while (x >= n_);
    return x;
  }

 private:
  std::uint64_t round_f(std::uint64_t half, int round) const {
    return rand::mix_keys(rand::mix_keys(key_, static_cast<std::uint64_t>(
                                                   round)),
                          half) &
           half_mask_;
  }

  std::uint64_t encrypt(std::uint64_t x) const {
    std::uint64_t l = x >> half_bits_;
    std::uint64_t r = x & half_mask_;
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t next = l ^ round_f(r, i);
      l = r;
      r = next;
    }
    return (l << half_bits_) | r;
  }

  std::uint64_t decrypt(std::uint64_t x) const {
    std::uint64_t l = x >> half_bits_;
    std::uint64_t r = x & half_mask_;
    for (int i = 3; i >= 0; --i) {
      const std::uint64_t prev = r ^ round_f(l, i);
      r = l;
      l = prev;
    }
    return (l << half_bits_) | r;
  }

  std::uint64_t n_;
  std::uint64_t key_;
  unsigned half_bits_ = 1;
  std::uint64_t half_mask_ = 3;
};

std::span<const NodeId> sorted_unique(std::vector<NodeId>& scratch) {
  std::sort(scratch.begin(), scratch.end());
  scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
  return scratch;
}

class ImplicitCycle final : public ImplicitTopology {
 public:
  explicit ImplicitCycle(NodeId n) : n_(n) { LNC_EXPECTS(n >= 3); }

  NodeId node_count() const noexcept override { return n_; }
  NodeId degree_bound() const noexcept override { return 2; }
  double mean_degree() const noexcept override { return 2.0; }

  std::span<const NodeId> neighbors_of(
      NodeId v, std::vector<NodeId>& scratch) const override {
    // n >= 3 keeps the two neighbors distinct, so ordering them needs
    // no sort.
    const NodeId prev = v == 0 ? n_ - 1 : v - 1;
    const NodeId next = v + 1 == n_ ? 0 : v + 1;
    scratch.resize(2);
    scratch[0] = std::min(prev, next);
    scratch[1] = std::max(prev, next);
    return scratch;
  }

 private:
  NodeId n_;
};

class ImplicitPath final : public ImplicitTopology {
 public:
  explicit ImplicitPath(NodeId n) : n_(n) { LNC_EXPECTS(n >= 1); }

  NodeId node_count() const noexcept override { return n_; }
  NodeId degree_bound() const noexcept override { return n_ >= 2 ? 2 : 0; }
  double mean_degree() const noexcept override {
    return n_ == 0 ? 0.0 : 2.0 * (n_ - 1) / n_;
  }

  std::span<const NodeId> neighbors_of(
      NodeId v, std::vector<NodeId>& scratch) const override {
    scratch.clear();
    if (v > 0) scratch.push_back(v - 1);
    if (v + 1 < n_) scratch.push_back(v + 1);
    return scratch;
  }

 private:
  NodeId n_;
};

class ImplicitGrid final : public ImplicitTopology {
 public:
  ImplicitGrid(NodeId width, NodeId height) : width_(width), height_(height) {
    LNC_EXPECTS(width >= 1 && height >= 1);
    LNC_EXPECTS(static_cast<std::uint64_t>(width) * height <=
                static_cast<std::uint64_t>(kInvalidNode));
  }

  NodeId node_count() const noexcept override { return width_ * height_; }
  NodeId degree_bound() const noexcept override { return 4; }
  double mean_degree() const noexcept override {
    const double n = static_cast<double>(width_) * height_;
    const double edges = static_cast<double>(height_) * (width_ - 1) +
                         static_cast<double>(width_) * (height_ - 1);
    return n == 0.0 ? 0.0 : 2.0 * edges / n;
  }

  std::span<const NodeId> neighbors_of(
      NodeId v, std::vector<NodeId>& scratch) const override {
    const NodeId r = v / width_;
    const NodeId c = v % width_;
    scratch.clear();
    // Up, left, right, down — already ascending by index.
    if (r > 0) scratch.push_back(v - width_);
    if (c > 0) scratch.push_back(v - 1);
    if (c + 1 < width_) scratch.push_back(v + 1);
    if (r + 1 < height_) scratch.push_back(v + width_);
    return scratch;
  }

 private:
  NodeId width_;
  NodeId height_;
};

class ImplicitTorus final : public ImplicitTopology {
 public:
  ImplicitTorus(NodeId width, NodeId height) : width_(width), height_(height) {
    LNC_EXPECTS(width >= 3 && height >= 3);
    LNC_EXPECTS(static_cast<std::uint64_t>(width) * height <=
                static_cast<std::uint64_t>(kInvalidNode));
  }

  NodeId node_count() const noexcept override { return width_ * height_; }
  NodeId degree_bound() const noexcept override { return 4; }
  double mean_degree() const noexcept override { return 4.0; }

  std::span<const NodeId> neighbors_of(
      NodeId v, std::vector<NodeId>& scratch) const override {
    const NodeId r = v / width_;
    const NodeId c = v % width_;
    auto index = [this](NodeId row, NodeId col) { return row * width_ + col; };
    scratch.clear();
    scratch.push_back(index(r == 0 ? height_ - 1 : r - 1, c));
    scratch.push_back(index(r + 1 == height_ ? 0 : r + 1, c));
    scratch.push_back(index(r, c == 0 ? width_ - 1 : c - 1));
    scratch.push_back(index(r, c + 1 == width_ ? 0 : c + 1));
    return sorted_unique(scratch);
  }

 private:
  NodeId width_;
  NodeId height_;
};

class ImplicitHypercube final : public ImplicitTopology {
 public:
  explicit ImplicitHypercube(int dimensions) : dimensions_(dimensions) {
    LNC_EXPECTS(dimensions >= 1 && dimensions < 32);
  }

  NodeId node_count() const noexcept override {
    return NodeId{1} << dimensions_;
  }
  NodeId degree_bound() const noexcept override {
    return static_cast<NodeId>(dimensions_);
  }
  double mean_degree() const noexcept override { return dimensions_; }

  std::span<const NodeId> neighbors_of(
      NodeId v, std::vector<NodeId>& scratch) const override {
    scratch.clear();
    for (int d = 0; d < dimensions_; ++d) {
      scratch.push_back(v ^ (NodeId{1} << d));
    }
    return sorted_unique(scratch);
  }

 private:
  int dimensions_;
};

class ImplicitBinaryTree final : public ImplicitTopology {
 public:
  explicit ImplicitBinaryTree(NodeId n) : n_(n) { LNC_EXPECTS(n >= 1); }

  NodeId node_count() const noexcept override { return n_; }
  NodeId degree_bound() const noexcept override { return 3; }
  double mean_degree() const noexcept override {
    return n_ == 0 ? 0.0 : 2.0 * (n_ - 1) / n_;
  }

  std::span<const NodeId> neighbors_of(
      NodeId v, std::vector<NodeId>& scratch) const override {
    scratch.clear();
    // Parent < v < children: already ascending.
    if (v > 0) scratch.push_back((v - 1) / 2);
    const std::uint64_t left = 2 * static_cast<std::uint64_t>(v) + 1;
    if (left < n_) scratch.push_back(static_cast<NodeId>(left));
    if (left + 1 < n_) scratch.push_back(static_cast<NodeId>(left + 1));
    return scratch;
  }

 private:
  NodeId n_;
};

class ImplicitRandomRegularCycles final : public ImplicitTopology {
 public:
  ImplicitRandomRegularCycles(NodeId n, NodeId degree, std::uint64_t seed)
      : n_(n), degree_(degree) {
    LNC_EXPECTS(degree >= 1 && degree < n);
    const bool odd = degree % 2 != 0;
    LNC_EXPECTS(!odd || n % 2 == 0);
    const NodeId factors = degree / 2;
    permutations_.reserve(factors);
    for (NodeId j = 0; j < factors; ++j) {
      permutations_.emplace_back(n, rand::mix_keys(seed, 0x52454750ULL + j));
    }
    if (odd) matching_.emplace(n, rand::mix_keys(seed, 0x4D415443ULL));
  }

  NodeId node_count() const noexcept override { return n_; }
  NodeId degree_bound() const noexcept override { return degree_; }
  double mean_degree() const noexcept override { return degree_; }

  std::span<const NodeId> neighbors_of(
      NodeId v, std::vector<NodeId>& scratch) const override {
    scratch.clear();
    for (const FeistelPermutation& pi : permutations_) {
      const auto image = static_cast<NodeId>(pi.forward(v));
      const auto preimage = static_cast<NodeId>(pi.inverse(v));
      if (image != v) scratch.push_back(image);
      if (preimage != v) scratch.push_back(preimage);
    }
    if (matching_) {
      // sigma(sigma^-1(v) XOR 1): a fixed-point-free involution pairing
      // the nodes up (n is even), i.e. a seed-derived perfect matching.
      scratch.push_back(static_cast<NodeId>(
          matching_->forward(matching_->inverse(v) ^ 1)));
    }
    return sorted_unique(scratch);
  }

 private:
  NodeId n_;
  NodeId degree_;
  std::vector<FeistelPermutation> permutations_;
  std::optional<FeistelPermutation> matching_;
};

class ImplicitGnpHash final : public ImplicitTopology {
 public:
  ImplicitGnpHash(NodeId n, double edge_prob, NodeId max_degree,
                  std::uint64_t seed)
      : n_(n),
        cap_(std::min<NodeId>(max_degree, n >= 1 ? n - 1 : 0)),
        edge_prob_(edge_prob),
        // 53-bit threshold: double-exact, so the same p maps to the same
        // cut on every platform.
        threshold_(static_cast<std::uint64_t>(edge_prob *
                                              9007199254740992.0)),
        edge_key_(rand::mix_keys(seed, 0x474E5048ULL)) {
    LNC_EXPECTS(n >= 1);
    LNC_EXPECTS(edge_prob >= 0.0 && edge_prob <= 1.0);
  }

  NodeId node_count() const noexcept override { return n_; }
  NodeId degree_bound() const noexcept override { return cap_; }
  double mean_degree() const noexcept override {
    return std::min(edge_prob_ * (n_ >= 1 ? n_ - 1 : 0),
                    static_cast<double>(cap_));
  }

  std::span<const NodeId> neighbors_of(
      NodeId v, std::vector<NodeId>& scratch) const override {
    scratch.clear();
    NodeId my_rank = 0;
    for (NodeId u = 0; u < n_ && my_rank < cap_; ++u) {
      if (u == v || !present(v, u)) continue;
      ++my_rank;  // u's rank in v's candidate list is my_rank - 1 < cap_
      if (rank_below_cap(u, v)) scratch.push_back(u);
    }
    return scratch;
  }

 private:
  /// Whether the candidate edge {a, b} clears the p-threshold —
  /// symmetric, pure in (edge_key_, pair).
  bool present(NodeId a, NodeId b) const {
    if (a > b) std::swap(a, b);
    const std::uint64_t h = rand::splitmix64(rand::mix_keys(
        edge_key_, (static_cast<std::uint64_t>(a) << 32) | b));
    return (h >> 11) < threshold_;
  }

  /// Whether candidate `other` ranks below the cap in `node`'s candidate
  /// list (candidates ordered by ascending index). Early-exits once the
  /// cap is reached.
  bool rank_below_cap(NodeId node, NodeId other) const {
    NodeId rank = 0;
    for (NodeId w = 0; w < other; ++w) {
      if (w == node || !present(node, w)) continue;
      if (++rank >= cap_) return false;
    }
    return true;
  }

  NodeId n_;
  NodeId cap_;
  double edge_prob_;
  std::uint64_t threshold_;
  std::uint64_t edge_key_;
};

}  // namespace

std::shared_ptr<const ImplicitTopology> implicit_cycle(NodeId n) {
  return std::make_shared<ImplicitCycle>(n);
}

std::shared_ptr<const ImplicitTopology> implicit_path(NodeId n) {
  return std::make_shared<ImplicitPath>(n);
}

std::shared_ptr<const ImplicitTopology> implicit_grid(NodeId width,
                                                      NodeId height) {
  return std::make_shared<ImplicitGrid>(width, height);
}

std::shared_ptr<const ImplicitTopology> implicit_torus(NodeId width,
                                                       NodeId height) {
  return std::make_shared<ImplicitTorus>(width, height);
}

std::shared_ptr<const ImplicitTopology> implicit_hypercube(int dimensions) {
  return std::make_shared<ImplicitHypercube>(dimensions);
}

std::shared_ptr<const ImplicitTopology> implicit_binary_tree(NodeId n) {
  return std::make_shared<ImplicitBinaryTree>(n);
}

std::shared_ptr<const ImplicitTopology> implicit_random_regular_cycles(
    NodeId n, NodeId degree, std::uint64_t seed) {
  return std::make_shared<ImplicitRandomRegularCycles>(n, degree, seed);
}

std::shared_ptr<const ImplicitTopology> implicit_gnp_hash(
    NodeId n, double edge_prob, NodeId max_degree, std::uint64_t seed) {
  return std::make_shared<ImplicitGnpHash>(n, edge_prob, max_degree, seed);
}

Graph materialize(const Topology& topology) {
  const NodeId n = topology.node_count();
  Graph::Builder builder(n);
  std::vector<NodeId> scratch;
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId u : topology.neighbors_of(v, scratch)) {
      if (v < u) builder.add_edge(v, u);
    }
  }
  return builder.build();
}

}  // namespace lnc::graph
