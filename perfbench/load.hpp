#pragma once

// Seeded open-loop load: the op sequence (kind, key, value) and its arrival
// timeline come from the workload and the seed alone; the cluster only
// ever sees the generated requests. Up to `threads` client threads, one
// service::Client session and one connection each, take arrivals in order
// from a shared cursor, sleep until the arrival is due and issue it. An op
// issued late (every thread was busy) still has its latency measured from
// its scheduled arrival, so a stall is charged to every op it delays.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cluster.hpp"
#include "service/client.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Op {
  bool put = false;
  std::string key;
  std::string value;  ///< unique per put; empty for gets
};

/// `count` ops: puts with probability `put_frac`, keys uniform over
/// `keys` names, every put value unique within the seed.
inline std::vector<Op> make_ops(std::uint64_t seed, std::size_t count, double put_frac,
                                int keys) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<int> key(0, keys - 1);
  std::vector<Op> ops(count);
  for (std::size_t i = 0; i < count; ++i) {
    ops[i].put = coin(rng) < put_frac;
    ops[i].key = "k" + std::to_string(key(rng));
    if (ops[i].put) ops[i].value = "v" + std::to_string(seed) + "." + std::to_string(i);
  }
  return ops;
}

/// What the client saw for one op. Times are microseconds from the load's
/// epoch on the steady clock.
struct OpRecord {
  double sched_us = 0;
  double issue_us = 0;
  double done_us = 0;
  bool issued = false;  ///< false: still unissued at the deadline (counts as failed)
  bool ok = false;
  bool found = false;
  std::string value;  ///< get result
  std::uint64_t client_id = 0;
  std::uint64_t seq = 0;
};

struct LoadResult {
  Clock::time_point epoch;
  std::vector<OpRecord> recs;
  std::uint64_t client_retries = 0;
  /// Microseconds from the epoch at which `at_event` ran (-1: never).
  double event_us = -1;
};

/// Client ids of load threads; the set-up client uses kSetupClient.
constexpr std::uint64_t kLoadClientBase = 1;
constexpr std::uint64_t kSetupClient = 100;

inline mcp::service::Client make_client(BenchCluster& cluster, std::uint64_t client_id,
                                        std::size_t first_server) {
  mcp::service::Client::Options opt;
  opt.client_id = client_id;
  const auto& ids = cluster.server_ids();
  for (std::size_t i = 0; i < ids.size(); ++i) opt.servers.push_back(ids[(first_server + i) % ids.size()]);
  // 20 attempts of 250 ms: an op fails after 5 s without a reply.
  opt.attempt_timeout = std::chrono::milliseconds(250);
  opt.max_attempts = 20;
  return mcp::service::Client(cluster.make_channel(), opt);
}

/// An op still unissued this long after the last scheduled arrival is
/// given up (a stalled service must not hold the run open indefinitely).
constexpr std::chrono::seconds kIssueGrace{5};

/// Run `ops` at `rate` ops/s. `at_event`, when set, runs on its own thread
/// at the scheduled arrival of op `event_index` (the coordinator crash, or
/// a no-op probe instant).
inline LoadResult run_load(BenchCluster& cluster, const std::vector<Op>& ops, double rate,
                           int threads, std::size_t event_index,
                           const std::function<void()>& at_event) {
  LoadResult out;
  out.recs.resize(ops.size());
  const auto period = std::chrono::duration<double>(1.0 / rate);
  out.epoch = Clock::now() + std::chrono::milliseconds(20);
  auto at = [&](std::size_t i) {
    return out.epoch + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(i));
  };
  auto since = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - out.epoch).count();
  };
  const auto give_up = at(ops.size()) + kIssueGrace;
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::uint64_t> retries{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto client = make_client(cluster, kLoadClientBase + static_cast<std::uint64_t>(t),
                                static_cast<std::size_t>(t));
      for (std::size_t i = cursor.fetch_add(1); i < ops.size(); i = cursor.fetch_add(1)) {
        std::this_thread::sleep_until(at(i));
        OpRecord& r = out.recs[i];
        r.sched_us = since(at(i));
        if (Clock::now() > give_up) continue;
        r.issued = true;
        r.issue_us = since(Clock::now());
        const auto res = ops[i].put ? client.put(ops[i].key, ops[i].value) : client.get(ops[i].key);
        r.done_us = since(Clock::now());
        r.ok = res.ok;
        r.found = res.found;
        if (!ops[i].put) r.value = res.value;
        r.client_id = client.client_id();
        r.seq = client.seq();
      }
      retries.fetch_add(client.retries());
    });
  }
  std::thread event;
  if (at_event) {
    event = std::thread([&] {
      std::this_thread::sleep_until(at(event_index));
      out.event_us = since(Clock::now());
      at_event();
    });
  }
  for (auto& w : workers) w.join();
  if (event.joinable()) event.join();
  out.client_retries = retries.load();
  return out;
}

}  // namespace perfbench
