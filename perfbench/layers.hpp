#pragma once

// Per-layer measurements, all taken from outside the modules: counters the
// modules already export (util::Metrics, TcpTransport::stats(), FileStorage
// accessors through Process::storage(), the per-host TraceRecorder), timed
// calls into public functions on copies of the final state, a Node::post
// no-op probe for event-loop lag, and the trace-ring span points turned
// into pipeline stages.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster.hpp"
#include "cstruct/serialize.hpp"
#include "genpaxos/engine.hpp"
#include "load.hpp"
#include "service/messages.hpp"
#include "smr/kv.hpp"
#include "storage/file_storage.hpp"
#include "util/trace.hpp"

namespace perfbench {

/// Nearest-rank percentile of `v` (sorted in place); NaN when empty.
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

template <typename F>
double time_us(F&& f) {
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Median of `reps` timings of `f(i)`.
template <typename F>
double median_us(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(time_us([&] { f(i); }));
  return median(std::move(t));
}

inline std::uint64_t dir_bytes(const std::filesystem::path& dir, const std::string& skip = "") {
  namespace fs = std::filesystem;
  std::uint64_t total = 0;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  for (auto it = fs::recursive_directory_iterator(dir, ec); it != fs::recursive_directory_iterator();
       it.increment(ec)) {
    if (!skip.empty() && it->is_directory() && it->path().filename() == skip) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

// --------------------------------------------------------------- counters ---

/// Cluster-wide sums of the modules' own counters after a load.
struct Counters {
  std::map<std::string, std::int64_t> metrics;  ///< util::Metrics, summed over nodes
  std::int64_t votes = 0;                       ///< acceptor.<id>.accepts
  std::int64_t storage_writes = 0;              ///< StableStorage::write_count
  std::int64_t storage_syncs = 0;               ///< FileStorage::syncs
  std::int64_t requests = 0;                    ///< Frontend::requests_received
  std::int64_t duplicates = 0;                  ///< Frontend::duplicates_dropped
  mcp::transport::TransportStats net;

  std::int64_t m(const std::string& name) const {
    const auto it = metrics.find(name);
    return it == metrics.end() ? 0 : it->second;
  }
};

inline Counters read_counters(BenchCluster& cluster) {
  Counters c;
  for (std::size_t id = 0; id < cluster.node_count(); ++id) {
    auto& node = cluster.node(static_cast<NodeId>(id));
    for (const auto& [name, value] : node.metrics().all_counters()) {
      c.metrics[name] += value;
      const std::string suffix = ".accepts";
      if (name.rfind("acceptor.", 0) == 0 && name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        c.votes += value;
      }
    }
    node.call([&] {
      std::set<mcp::sim::Process*> seen;
      for (const auto& [gid, p] : node.group_table()) {
        if (!seen.insert(p).second) continue;
        c.storage_writes += p->storage().write_count();
        if (const auto* fs = dynamic_cast<const mcp::storage::FileStorage*>(&p->storage())) {
          c.storage_syncs += fs->syncs();
        }
      }
    });
    const auto s = cluster.transport(static_cast<NodeId>(id)).stats();
    c.net.flushes += s.flushes;
    c.net.flushed_frames += s.flushed_frames;
    c.net.backpressure_drops += s.backpressure_drops;
  }
  for (std::size_t i = 0; i < cluster.server_ids().size(); ++i) {
    auto& f = cluster.frontend(i);
    cluster.node(cluster.server_ids()[i]).call([&] {
      c.requests += static_cast<std::int64_t>(f.requests_received());
      c.duplicates += static_cast<std::int64_t>(f.duplicates_dropped());
    });
  }
  return c;
}

// ----------------------------------------------------------------- probes ---

/// Timed calls into cstruct, storage and smr on copies of the final state.
struct Probes {
  double len = 0;
  double encoded_kb = 0;
  double copy_us = 0;
  double append_us = 0;
  double suffix_after_us = 0;
  double join_us = 0;
  double vote_write_us = 0;
  double apply_us = 0;
};

/// `h` is group 0's learned history, `vval` an acceptor's group-0 vote,
/// `all` every group's history (the replay input).
inline Probes run_probes(const History& h, const History& vval, const std::vector<History>& all,
                         const std::string& scratch_dir) {
  constexpr int kReps = 21;
  Probes p;
  p.len = static_cast<double>(h.size());
  p.encoded_kb = static_cast<double>(mcp::cstruct::encode(h).size()) / 1024.0;
  std::atomic<std::size_t> sink{0};
  p.copy_us = median_us(kReps, [&](int) {
    History copy = h;
    sink += copy.size();
  });
  auto fresh = [](int i, const std::string& key) {
    return mcp::cstruct::make_write(0xFFFF000000000000ull + static_cast<std::uint64_t>(i), key, "x");
  };
  {
    std::vector<History> copies(kReps, h);
    p.append_us =
        median_us(kReps, [&](int i) { copies[static_cast<std::size_t>(i)].append(fresh(i, "k0")); });
  }
  {
    const auto& seq = h.sequence();
    const std::size_t cut = seq.size() > 8 ? seq.size() - 8 : 0;
    const History base = History::from_sequence(
        h.relation(), std::vector<mcp::cstruct::Command>(seq.begin(), seq.begin() + static_cast<long>(cut)));
    p.suffix_after_us = median_us(kReps, [&](int) { sink += h.suffix_after(base)->size(); });
  }
  {
    History a = h;
    History b = h;
    a.append(fresh(1, "join-a"));
    b.append(fresh(2, "join-b"));
    p.join_us = median_us(kReps, [&](int) { sink += a.join(b).size(); });
  }
  {
    mcp::storage::FileStorage fs(scratch_dir);
    const std::string value = mcp::cstruct::encode(vval);
    p.vote_write_us = median_us(kReps, [&](int) { fs.write("vval", value); });
  }
  p.apply_us = median_us(5, [&](int) {
    for (const auto& g : all) {
      mcp::smr::KVStore store;
      for (const auto& c : g.sequence()) store.apply(c);
      sink += store.applied_count();
    }
  });
  return p;
}

/// Group 0's vote at the first acceptor (read on its loop).
inline History acceptor_vval(BenchCluster& cluster, NodeId acceptor) {
  auto& node = cluster.node(acceptor);
  return node.call([&] {
    auto* a = dynamic_cast<mcp::genpaxos::GenAcceptor<History>*>(node.process_for_group(0));
    return a != nullptr ? a->vval() : History();
  });
}

// --------------------------------------------------------------- loop lag ---

/// Posts a no-op to one node of each role every few milliseconds and
/// records post -> run on the node's loop thread.
class LoopLagProbe {
 public:
  LoopLagProbe(BenchCluster& cluster, std::vector<std::pair<std::string, NodeId>> targets)
      : cluster_(cluster), targets_(std::move(targets)), state_(std::make_shared<State>()) {
    thread_ = std::thread([this] { run(); });
  }
  ~LoopLagProbe() { stop(); }
  LoopLagProbe(const LoopLagProbe&) = delete;
  LoopLagProbe& operator=(const LoopLagProbe&) = delete;

  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  /// Lag samples (us) per role name.
  std::map<std::string, std::vector<double>> samples() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->lag;
  }

 private:
  struct State {
    mutable std::mutex mu;
    std::map<std::string, std::vector<double>> lag;
  };

  void run() {
    while (!stop_) {
      for (const auto& [role, id] : targets_) {
        const auto posted = Clock::now();
        // The closure owns the state it writes to: it may run after the
        // probe is gone (or never, once the node stopped).
        cluster_.node(id).post([state = state_, role = role, posted] {
          const double us = std::chrono::duration<double, std::micro>(Clock::now() - posted).count();
          std::lock_guard<std::mutex> lock(state->mu);
          state->lag[role].push_back(us);
        });
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  BenchCluster& cluster_;
  std::vector<std::pair<std::string, NodeId>> targets_;
  std::shared_ptr<State> state_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ------------------------------------------------------------------ trace ---

/// Drains every node's trace ring while the load runs (the rings hold the
/// most recent events only) and keeps the first time each host recorded
/// each (trace id, point), on the load's clock.
class TraceCollector {
 public:
  using Key = std::pair<std::uint64_t, mcp::util::TracePoint>;

  TraceCollector(BenchCluster& cluster, Clock::time_point epoch)
      : cluster_(cluster), events_(cluster.node_count()) {
    // trace_now_us() counts from each node's own start(); estimate where
    // that origin sits on the load's clock from the tightest of a few
    // round trips.
    for (std::size_t id = 0; id < cluster.node_count(); ++id) {
      auto& node = cluster.node(static_cast<NodeId>(id));
      double best_rtt = std::numeric_limits<double>::infinity();
      double offset = 0;
      for (int i = 0; i < 8; ++i) {
        const auto t0 = Clock::now();
        const std::uint64_t at = node.call([&] { return node.trace_now_us(); });
        const auto t1 = Clock::now();
        const double rtt = std::chrono::duration<double, std::micro>(t1 - t0).count();
        if (rtt < best_rtt) {
          best_rtt = rtt;
          const double mid = std::chrono::duration<double, std::micro>(t0 - epoch).count() + rtt / 2;
          offset = mid - static_cast<double>(at);
        }
      }
      offsets_.push_back(offset);
    }
    thread_ = std::thread([this] {
      while (!stop_) {
        drain();
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }
  ~TraceCollector() { stop(); }
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Stop polling and take a last snapshot; call while the cluster lives.
  void stop() {
    if (!thread_.joinable()) return;
    stop_ = true;
    thread_.join();
    drain();
  }

  /// Event time (us on the load clock) of `point` for `trace_id` at
  /// `host`; valid after stop().
  const double* at(NodeId host, std::uint64_t trace_id, mcp::util::TracePoint point) const {
    const auto& m = events_.at(static_cast<std::size_t>(host));
    const auto it = m.find({trace_id, point});
    return it == m.end() ? nullptr : &it->second;
  }
  std::uint64_t overwritten() const { return overwritten_; }

 private:
  void drain() {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t id = 0; id < cluster_.node_count(); ++id) {
      const auto& ring = cluster_.node(static_cast<NodeId>(id)).trace();
      const std::uint64_t recorded = ring.recorded();
      if (recorded > seen_[id] + ring.capacity()) overwritten_ += recorded - seen_[id] - ring.capacity();
      seen_[id] = recorded;
      for (const auto& e : ring.snapshot()) {
        events_[id].emplace(Key{e.trace_id, e.point}, offsets_[id] + static_cast<double>(e.ts_us));
      }
    }
  }

  BenchCluster& cluster_;
  std::vector<double> offsets_;
  std::mutex mu_;
  std::vector<std::map<Key, double>> events_;
  std::map<std::size_t, std::uint64_t> seen_;
  std::uint64_t overwritten_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Per-op stage durations (us) from the span points of traced ops.
struct Stages {
  static constexpr const char* kNames[] = {"batch_wait", "propose", "accept", "learn",
                                           "apply",      "reply",   "client_net"};
  static constexpr std::size_t kCount = 7;
  std::vector<double> us[kCount];
  std::vector<double> traced_latency_ms;  ///< from scheduled arrival, traced ops only
};

/// The majority-rank time among the hosts of one role that recorded
/// `point` (the event that completes a quorum of them), or nullptr.
inline const double* quorum_time(const TraceCollector& tc, const std::vector<NodeId>& hosts,
                                 std::uint64_t tid, mcp::util::TracePoint point,
                                 std::vector<double>& scratch) {
  scratch.clear();
  for (const NodeId h : hosts) {
    if (const double* t = tc.at(h, tid, point)) scratch.push_back(*t);
  }
  if (scratch.empty()) return nullptr;
  std::sort(scratch.begin(), scratch.end());
  return &scratch[std::min(scratch.size() - 1, hosts.size() / 2)];
}

inline Stages stages_of(BenchCluster& cluster, const TraceCollector& tc, const LoadResult& load) {
  using P = mcp::util::TracePoint;
  std::vector<NodeId> coords;
  std::vector<NodeId> acceptors;
  for (std::size_t id = 0; id < cluster.node_count(); ++id) {
    const auto nid = static_cast<NodeId>(id);
    if (cluster.role(nid) == Role::kCoordinator) coords.push_back(nid);
    if (cluster.role(nid) == Role::kAcceptor) acceptors.push_back(nid);
  }
  Stages st;
  std::vector<double> scratch_c;
  std::vector<double> scratch_a;
  for (const OpRecord& r : load.recs) {
    if (!r.ok) continue;
    const std::uint64_t tid = mcp::service::session_command_id(r.client_id, r.seq) | 1;
    for (const NodeId s : cluster.server_ids()) {
      const double* sent = tc.at(s, tid, P::kReplySent);
      const double* recv = tc.at(s, tid, P::kClientRecv);
      const double* flush = tc.at(s, tid, P::kBatchFlush);
      const double* learned = tc.at(s, tid, P::kLearned);
      const double* applied = tc.at(s, tid, P::kApplied);
      if (!sent || !recv || !flush || !learned || !applied) continue;
      // Only the group's coordinators and acceptors see this command, but
      // hosts of other groups never record its trace id, so scanning every
      // host of the role is enough.
      const double* c2a = quorum_time(tc, coords, tid, P::kCoord2a, scratch_c);
      const double* vote = quorum_time(tc, acceptors, tid, P::kAcceptorVote, scratch_a);
      if (!c2a || !vote) break;
      const double d[Stages::kCount] = {*flush - *recv,  *c2a - *flush,  *vote - *c2a,
                                        *learned - *vote, *applied - *learned, *sent - *applied,
                                        (r.done_us - r.issue_us) - (*sent - *recv)};
      for (std::size_t k = 0; k < Stages::kCount; ++k) st.us[k].push_back(d[k]);
      st.traced_latency_ms.push_back((r.done_us - r.sched_us) / 1000.0);
      break;
    }
  }
  return st;
}

}  // namespace perfbench
