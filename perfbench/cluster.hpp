#pragma once

// A live KV service cluster assembled the way `mcpaxos_node` assembles a
// production node: one runtime::Node per member over its own TcpTransport
// on a loopback ephemeral port, with FileStorage and the flight recorder
// when durable. Ids are laid out per-group coordinators, then the shared
// acceptors, then the servers (the KvServiceCluster layout), so a
// coordinator id names exactly one group's coordinator.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cstruct/history.hpp"
#include "genpaxos/engine.hpp"
#include "paxos/round_config.hpp"
#include "runtime/node.hpp"
#include "service/client.hpp"
#include "service/frontend.hpp"
#include "service/partition.hpp"
#include "transport/tcp_transport.hpp"

namespace perfbench {

using mcp::cstruct::History;
using mcp::sim::NodeId;

enum class Role { kCoordinator, kAcceptor, kServer };

// Shared by every workload: acceptor nodes (each hosts one acceptor per
// group), server nodes (frontends), the real length of a protocol tick,
// and the frontend batch window (commands, ticks).
constexpr int kAcceptors = 3;
constexpr int kServers = 2;
constexpr std::chrono::microseconds kTick{200};
constexpr std::size_t kBatchSize = 8;
constexpr mcp::sim::Time kBatchDelay = 5;

struct Shape {
  /// Coordinator nodes per consensus group; more than one runs
  /// multicoordinated rounds (PatternPolicy::multi_then_single).
  int coordinators = 1;
  int groups = 1;
  /// Every node keeps its protocol state in a FileStorage under
  /// <data_root>/node<id> and journals into <that>/journal.
  bool durable = false;
  /// Frontend::Options::trace_sample_every; nonzero also enables every
  /// node's TraceRecorder.
  std::size_t trace_sample_every = 0;
};

class BenchCluster {
 public:
  BenchCluster(const Shape& shape, const std::string& data_root, std::uint64_t seed)
      : shape_(shape) {
    namespace gp = mcp::genpaxos;
    const int groups = shape.groups;
    NodeId next = static_cast<NodeId>(groups * shape.coordinators);
    std::vector<NodeId> acceptor_ids;
    for (int i = 0; i < kAcceptors; ++i) acceptor_ids.push_back(next++);
    for (int i = 0; i < kServers; ++i) server_ids_.push_back(next++);
    const auto node_count = static_cast<std::size_t>(next);
    roles_.assign(node_count, Role::kCoordinator);
    for (const NodeId id : acceptor_ids) roles_[static_cast<std::size_t>(id)] = Role::kAcceptor;
    for (const NodeId id : server_ids_) roles_[static_cast<std::size_t>(id)] = Role::kServer;

    for (int g = 0; g < groups; ++g) {
      std::vector<NodeId> coords;
      for (int i = 0; i < shape.coordinators; ++i) coords.push_back(coordinator_id(g, i));
      policies_.push_back(shape.coordinators > 1
                              ? mcp::paxos::PatternPolicy::multi_then_single(coords)
                              : mcp::paxos::PatternPolicy::always_single(coords));
      auto config = std::make_unique<gp::Config<History>>();
      config->acceptors = acceptor_ids;
      config->learners = server_ids_;
      config->proposers = server_ids_;
      config->policy = policies_.back().get();
      config->f = 1;
      config->e = 0;
      config->bottom = History(&conflicts_);
      configs_.push_back(std::move(config));
    }

    for (std::size_t id = 0; id < node_count; ++id) {
      mcp::transport::TcpConfig tcp;
      tcp.self = static_cast<NodeId>(id);
      tcp.listen_host = "127.0.0.1";
      auto t = std::make_unique<mcp::transport::TcpTransport>(tcp);
      t->bind_and_listen();
      transports_.push_back(std::move(t));
    }
    for (std::size_t id = 0; id < node_count; ++id) {
      for (std::size_t peer = 0; peer < node_count; ++peer) {
        if (peer == id) continue;
        transports_[id]->set_peer(static_cast<NodeId>(peer),
                                  {"127.0.0.1", transports_[peer]->listen_port()});
      }
      mcp::runtime::NodeOptions options;
      options.id = static_cast<NodeId>(id);
      options.tick = kTick;
      options.rng_seed = seed + id;
      if (shape.durable) {
        options.data_dir = data_root + "/node" + std::to_string(id);
        options.journal_dir = options.data_dir + "/journal";
      }
      nodes_.push_back(std::make_unique<mcp::runtime::Node>(options, *transports_[id]));
      if (shape.trace_sample_every > 0) nodes_.back()->trace().set_enabled(true);
    }

    for (int g = 0; g < groups; ++g) {
      for (int i = 0; i < shape.coordinators; ++i) {
        node(coordinator_id(g, i))
            .make_process_for_group<gp::GenCoordinator<History>>(
                static_cast<std::uint32_t>(g), *configs_[static_cast<std::size_t>(g)]);
      }
    }
    for (const NodeId id : acceptor_ids) {
      for (int g = 0; g < groups; ++g) {
        node(id).make_process_for_group<gp::GenAcceptor<History>>(
            static_cast<std::uint32_t>(g), *configs_[static_cast<std::size_t>(g)]);
      }
    }
    std::vector<mcp::service::Frontend::GroupConfig> shard_configs;
    for (int g = 0; g < groups; ++g) {
      shard_configs.push_back(
          {static_cast<std::uint32_t>(g), configs_[static_cast<std::size_t>(g)].get()});
    }
    mcp::service::Frontend::Options fopt;
    fopt.batch_size = kBatchSize;
    fopt.batch_delay = kBatchDelay;
    fopt.trace_sample_every = shape.trace_sample_every;
    for (const NodeId id : server_ids_) {
      auto& f = node(id).make_process_for_group<mcp::service::Frontend>(
          0, shard_configs, partition(), fopt);
      for (int g = 1; g < groups; ++g) node(id).route_group(static_cast<std::uint32_t>(g), f);
      frontends_.push_back(&f);
    }
  }

  ~BenchCluster() { stop(); }
  BenchCluster(const BenchCluster&) = delete;
  BenchCluster& operator=(const BenchCluster&) = delete;

  void start() {
    for (auto& n : nodes_) n->start();
  }
  /// Stop every node (each stops its own transport), then the transports.
  void stop() {
    for (auto& n : nodes_) n->stop();
    for (auto& t : transports_) t->stop();
  }

  std::size_t node_count() const { return nodes_.size(); }
  mcp::runtime::Node& node(NodeId id) { return *nodes_.at(static_cast<std::size_t>(id)); }
  mcp::transport::TcpTransport& transport(NodeId id) {
    return *transports_.at(static_cast<std::size_t>(id));
  }
  Role role(NodeId id) const { return roles_.at(static_cast<std::size_t>(id)); }
  NodeId coordinator_id(int group, int i) const {
    return static_cast<NodeId>(group * shape_.coordinators + i);
  }
  const std::vector<NodeId>& server_ids() const { return server_ids_; }
  mcp::service::Frontend& frontend(std::size_t i) { return *frontends_.at(i); }
  mcp::service::KeyPartition partition() const {
    return mcp::service::KeyPartition::hashed(static_cast<std::uint32_t>(shape_.groups));
  }

  /// A client connection that knows every server's loopback address.
  std::unique_ptr<mcp::service::ClientChannel> make_channel() {
    std::map<NodeId, mcp::service::ServerAddr> servers;
    for (const NodeId id : server_ids_) servers[id] = {"127.0.0.1", transport(id).listen_port()};
    return std::make_unique<mcp::service::TcpClientChannel>(std::move(servers));
  }

 private:
  Shape shape_;
  mcp::cstruct::KeyConflict conflicts_;
  std::vector<std::unique_ptr<mcp::paxos::RoundPolicy>> policies_;
  std::vector<std::unique_ptr<mcp::genpaxos::Config<History>>> configs_;
  std::vector<NodeId> server_ids_;
  std::vector<Role> roles_;
  // Nodes reference their transports and their processes reference the
  // configs: declared after both so they are destroyed first.
  std::vector<std::unique_ptr<mcp::transport::TcpTransport>> transports_;
  std::vector<std::unique_ptr<mcp::runtime::Node>> nodes_;
  std::vector<mcp::service::Frontend*> frontends_;
};

}  // namespace perfbench
