#include "local/ball_collector.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace lnc::local {
namespace {

void serialize(const Knowledge& knowledge, MessageWriter& out) {
  out.push(knowledge.size());
  for (const auto& [id, record] : knowledge) {
    out.push(id);
    out.push(record.input);
    out.push(record.adjacency_known ? 1 : 0);
    out.push(record.neighbor_ids.size());
    for (ident::Identity nbr : record.neighbor_ids) out.push(nbr);
  }
}

void merge_from(Knowledge& knowledge, std::span<const std::uint64_t> msg) {
  std::size_t pos = 0;
  LNC_ASSERT(!msg.empty());
  const std::uint64_t count = msg[pos++];
  for (std::uint64_t i = 0; i < count; ++i) {
    KnownNode incoming;
    incoming.id = msg[pos++];
    incoming.input = msg[pos++];
    incoming.adjacency_known = msg[pos++] != 0;
    const std::uint64_t nbr_count = msg[pos++];
    incoming.neighbor_ids.reserve(nbr_count);
    for (std::uint64_t j = 0; j < nbr_count; ++j) {
      incoming.neighbor_ids.push_back(msg[pos++]);
    }
    auto [it, inserted] = knowledge.try_emplace(incoming.id, incoming);
    if (!inserted && incoming.adjacency_known &&
        !it->second.adjacency_known) {
      it->second = std::move(incoming);
    }
  }
  LNC_ASSERT(pos == msg.size());
}

class CollectorFactory final : public NodeProgramFactory {
 public:
  explicit CollectorFactory(int radius) : radius_(radius) {}

  std::string name() const override { return "ball-collector"; }

  std::unique_ptr<NodeProgram> create() const override {
    return std::make_unique<BallCollectorProgram>(radius_);
  }

 private:
  int radius_;
};

}  // namespace

bool BallCollectorProgram::init(const NodeEnv& env) {
  self_id_ = env.id;
  knowledge_.clear();
  KnownNode self;
  self.id = env.id;
  self.input = env.input;
  knowledge_.emplace(env.id, std::move(self));
  return radius_ == 0;
}

void BallCollectorProgram::send(int /*round*/, MessageWriter& out) {
  serialize(knowledge_, out);
}

bool BallCollectorProgram::receive(int round, const Inbox& inbox) {
  for (std::size_t p = 0; p < inbox.size(); ++p) {
    merge_from(knowledge_, inbox[p]);
  }
  if (round == 1) {
    // The round-1 messages reveal the neighbors' identities: the node
    // now knows its own adjacency and can flood it from round 2 on.
    KnownNode& self = knowledge_.at(self_id_);
    self.adjacency_known = true;
    self.neighbor_ids.clear();
    for (std::size_t p = 0; p < inbox.size(); ++p) {
      // Each round-1 message contains exactly the sender's own record:
      // [count=1, id, input, adj_flag=0, nbr_count=0].
      const auto msg = inbox[p];
      LNC_ASSERT(msg.size() == 5);
      self.neighbor_ids.push_back(msg[1]);
    }
    std::sort(self.neighbor_ids.begin(), self.neighbor_ids.end());
  }
  return round >= radius_;
}

void collect_balls_into(const Instance& inst, int radius,
                        const EngineOptions& options,
                        std::vector<Knowledge>& tables) {
  LNC_EXPECTS(radius >= 0);
  CollectorFactory factory(radius);
  EngineOptions engine_options = options;
  engine_options.retain_programs = true;  // the knowledge lives in programs
  EngineResult result = run_engine(inst, factory, engine_options);
  LNC_ASSERT(result.completed);
  LNC_ASSERT(result.rounds == radius || (radius == 0 && result.rounds == 0));
  tables.resize(result.programs.size());
  for (std::size_t v = 0; v < result.programs.size(); ++v) {
    // EngineResult::programs[v] is node v's program by construction.
    tables[v] = static_cast<BallCollectorProgram&>(*result.programs[v])
                    .take_knowledge();
  }
}

std::vector<Knowledge> collect_balls(const Instance& inst, int radius,
                                     const EngineOptions& options) {
  std::vector<Knowledge> tables;
  collect_balls_into(inst, radius, options, tables);
  return tables;
}

std::vector<std::pair<ident::Identity, ident::Identity>> knowledge_edges(
    const Knowledge& knowledge) {
  std::vector<std::pair<ident::Identity, ident::Identity>> edges;
  for (const auto& [id, record] : knowledge) {
    if (!record.adjacency_known) continue;
    for (ident::Identity nbr : record.neighbor_ids) {
      // Report each edge once; both-known edges would otherwise repeat.
      const auto lo = std::min(id, nbr);
      const auto hi = std::max(id, nbr);
      edges.emplace_back(lo, hi);
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

ReconstructedBall reconstruct_ball(const Knowledge& knowledge,
                                   ident::Identity center_identity) {
  // Stable node order: identities ascending (any order works; algorithms
  // may only read identities and inputs, never raw indices).
  std::vector<ident::Identity> ids;
  ids.reserve(knowledge.size());
  for (const auto& [id, record] : knowledge) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  auto index_of = [&ids](ident::Identity id) {
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    LNC_ASSERT(it != ids.end() && *it == id);
    return static_cast<graph::NodeId>(it - ids.begin());
  };

  graph::Graph::Builder builder(static_cast<graph::NodeId>(ids.size()));
  for (const auto& [a, b] : knowledge_edges(knowledge)) {
    builder.add_edge(index_of(a), index_of(b));
  }

  Labeling input(ids.size(), 0);
  for (const auto& [id, record] : knowledge) {
    input[index_of(id)] = record.input;
  }

  ReconstructedBall result;
  result.instance.g = builder.build();
  result.instance.input = std::move(input);
  result.instance.ids = ident::IdAssignment(std::move(ids));
  result.center = result.instance.ids.index_of(center_identity);
  LNC_ASSERT(result.center != graph::kInvalidNode);
  return result;
}

}  // namespace lnc::local
