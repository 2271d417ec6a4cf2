#pragma once

// Output checks run after every load: wait until both servers have learned
// and applied the same histories, then check what the clients saw against
// what the servers hold. Any violation throws CheckFailure; the benchmark
// exits nonzero and prints no result.

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster.hpp"
#include "load.hpp"
#include "service/messages.hpp"
#include "smr/kv.hpp"

namespace perfbench {

struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One server's state, read on its node loop.
struct ServerState {
  std::vector<History> learned;  ///< per group, in group order
  std::size_t applied = 0;
  std::map<std::string, std::string> data;

  std::size_t learned_total() const {
    std::size_t n = 0;
    for (const auto& h : learned) n += h.size();
    return n;
  }
};

inline ServerState read_server(BenchCluster& cluster, std::size_t i) {
  auto& f = cluster.frontend(i);
  return cluster.node(cluster.server_ids().at(i)).call([&] {
    ServerState s;
    for (const std::uint32_t gid : f.group_ids()) s.learned.push_back(*f.learned_for_group(gid));
    s.applied = f.applied();
    s.data = f.store_data();
    return s;
  });
}

/// Poll until every server learned the same number of commands per group
/// and applied all of them; the final states, or CheckFailure after
/// `timeout`.
inline std::vector<ServerState> converge(BenchCluster& cluster,
                                         std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  while (true) {
    std::vector<ServerState> states;
    for (std::size_t i = 0; i < cluster.server_ids().size(); ++i) {
      states.push_back(read_server(cluster, i));
    }
    bool same = true;
    for (const auto& s : states) {
      same = same && s.applied == s.learned_total();
      for (std::size_t g = 0; g < s.learned.size(); ++g) {
        same = same && s.learned[g].size() == states.front().learned[g].size();
      }
    }
    if (same) return states;
    if (Clock::now() > deadline) {
      throw CheckFailure("servers did not converge within " +
                         std::to_string(timeout.count()) + " ms");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// Check converged server states against the client records. `extra_puts`
/// maps values written outside `ops` (the set-up write) to their key.
inline void check_outputs(const std::vector<ServerState>& states,
                          const std::vector<Op>& ops, const LoadResult& load,
                          const std::map<std::string, std::string>& extra_puts) {
  const ServerState& ref = states.front();
  for (std::size_t i = 1; i < states.size(); ++i) {
    if (states[i].data != ref.data) throw CheckFailure("server stores differ");
    for (std::size_t g = 0; g < ref.learned.size(); ++g) {
      if (states[i].learned[g] != ref.learned[g]) {
        throw CheckFailure("learned histories of group " + std::to_string(g) + " differ");
      }
    }
  }
  for (const auto& s : states) {
    if (s.applied != s.learned_total()) throw CheckFailure("applied != learned");
    for (const auto& h : s.learned) {
      std::unordered_set<std::uint64_t> ids;
      for (const auto& c : h.sequence()) {
        if (!ids.insert(c.id).second) {
          throw CheckFailure("command id " + std::to_string(c.id) + " learned twice");
        }
      }
    }
  }

  // Replaying the learned histories must rebuild the served store.
  std::map<std::string, std::string> replayed;
  for (const auto& h : ref.learned) {
    mcp::smr::KVStore store;
    for (const auto& c : h.sequence()) store.apply(c);
    replayed.insert(store.data().begin(), store.data().end());
  }
  if (replayed != ref.data) throw CheckFailure("replaying the learned history gives another store");

  // Every value written, mapped to its key. A put whose client gave up
  // (a failed op) may still have been chosen, so its value is allowed too;
  // with no failed ops every value must come from an acked put.
  std::map<std::string, std::string> puts = extra_puts;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].put) puts[ops[i].value] = ops[i].key;
  }
  for (const auto& [key, value] : ref.data) {
    const auto it = puts.find(value);
    if (it == puts.end() || it->second != key) {
      throw CheckFailure("key " + key + " holds a value no put wrote to it");
    }
  }

  std::unordered_map<std::uint64_t, const mcp::cstruct::Command*> learned_by_id;
  for (const auto& h : ref.learned) {
    for (const auto& c : h.sequence()) learned_by_id[c.id] = &c;
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& r = load.recs[i];
    if (!r.ok) continue;
    if (ops[i].put) {
      const auto it = learned_by_id.find(mcp::service::session_command_id(r.client_id, r.seq));
      if (it == learned_by_id.end() || it->second->key != ops[i].key ||
          it->second->value != ops[i].value) {
        throw CheckFailure("acked put " + ops[i].value + " is not in the learned history");
      }
    } else if (r.found) {
      const auto it = puts.find(r.value);
      if (it == puts.end() || it->second != ops[i].key) {
        throw CheckFailure("get " + ops[i].key + " returned a value no put wrote to it");
      }
    }
  }
}

}  // namespace perfbench
