// Live KV benchmark: open-loop client load against a loopback TCP cluster
// of the multicoordinated Generalized Paxos KV service, with output checks.
//
//   kvbench --workload hot-durable|read-sharded|coord-crash --seed N
//           --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0 runs the untraced load in rounds on fresh clusters and prints
// the end-to-end metrics; --trace 1 runs one round's ops untraced, traced
// and untraced again and prints the per-layer metrics (traced minus
// untraced is the tracing overhead). The last stdout line is one JSON
// object; a failed output check exits 1 without printing it. NOTES.md says
// why each workload exists and what each metric measures.

#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "check.hpp"
#include "cluster.hpp"
#include "layers.hpp"
#include "load.hpp"

namespace perfbench {
namespace {

struct Workload {
  std::string name;
  Shape shape;
  double rate = 200;  ///< arrivals per second
  double put_frac = 0.75;
  int keys = 8;
  /// Stop group 0's first coordinator node at mid-load.
  bool crash_coordinator = false;
};

std::optional<Workload> workload_named(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "hot-durable") {
    w.shape.durable = true;
  } else if (name == "read-sharded") {
    w.shape.groups = 4;
    w.rate = 400;
    w.put_frac = 0.10;
    w.keys = 1024;
  } else if (name == "coord-crash") {
    w.shape.coordinators = 3;
    w.crash_coordinator = true;
  } else {
    return std::nullopt;
  }
  return w;
}

constexpr int kClientThreads = 4;
/// An untraced run measures kRounds loads of seconds/kRounds each, every
/// one on a fresh cluster, and reports percentiles over the ops of all
/// rounds: more ops per run than one cluster can take before its
/// ever-growing history pushes it towards saturation, where latency stops
/// repeating from run to run.
constexpr int kRounds = 8;
/// Set-up is timed on these throwaway clusters and on every round's.
constexpr int kExtraSetups = 24;
constexpr std::chrono::milliseconds kConvergeTimeout{10000};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) { return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6; };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// A cluster brought up to its first reply, with the time that took.
struct Live {
  std::unique_ptr<BenchCluster> cluster;
  std::string dir;
  double setup_s = 0;
  std::map<std::string, std::string> setup_puts;  ///< value -> key
};

Live bring_up(const Workload& w, const Shape& shape, const std::string& dir, std::uint64_t seed,
              int index) {
  Live live;
  live.dir = dir;
  const auto t0 = Clock::now();
  live.cluster = std::make_unique<BenchCluster>(shape, dir, seed);
  live.cluster->start();
  auto client = make_client(*live.cluster, kSetupClient, 0);
  const std::string value = "setup." + std::to_string(index);
  if (!client.put("setup", value).ok) {
    throw std::runtime_error(w.name + ": set-up write got no reply");
  }
  live.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  live.setup_puts[value] = "setup";
  return live;
}

void tear_down(Live& live) {
  live.cluster->stop();
  live.cluster.reset();
  std::error_code ec;
  std::filesystem::remove_all(live.dir, ec);
}

struct Run {
  LoadResult load;
  double cpu_s = 0;
  std::size_t completed = 0;
  std::vector<double> latency_ms;  ///< from scheduled arrival; failed ops are +inf
  double gap_ms = 0;
};

/// Load `live` with the workload's ops, then converge and check outputs.
Run load_and_check(const Workload& w, Live& live, const std::vector<Op>& ops,
                   const std::function<void()>& before_check = {}) {
  BenchCluster& cluster = *live.cluster;
  const std::size_t mid = ops.size() / 2;
  std::function<void()> event = [] {};
  if (w.crash_coordinator) event = [&cluster] { cluster.node(cluster.coordinator_id(0, 0)).stop(); };
  Run run;
  const double cpu0 = cpu_seconds();
  run.load = run_load(cluster, ops, w.rate, kClientThreads, mid, event);
  run.cpu_s = cpu_seconds() - cpu0;
  if (before_check) before_check();
  const auto states = converge(cluster, kConvergeTimeout);
  check_outputs(states, ops, run.load, live.setup_puts);

  double first_after = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < run.load.recs.size(); ++i) {
    const OpRecord& r = run.load.recs[i];
    if (r.ok) {
      ++run.completed;
      run.latency_ms.push_back((r.done_us - r.sched_us) / 1000.0);
      if (i >= mid) first_after = std::min(first_after, r.done_us);
    } else {
      run.latency_ms.push_back(std::numeric_limits<double>::infinity());
    }
  }
  run.gap_ms = (first_after - run.load.event_us) / 1000.0;
  return run;
}

// ----------------------------------------------------------------- output ---

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(std::size_t attempted, std::size_t failed, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Per-window p50s of a run, to show latency growth with history length.
std::vector<double> window_p50s(const Run& run, int windows) {
  std::vector<std::vector<double>> per(static_cast<std::size_t>(windows));
  const double span = run.load.recs.empty() ? 1 : run.load.recs.back().sched_us + 1;
  for (std::size_t i = 0; i < run.load.recs.size(); ++i) {
    const auto k = static_cast<std::size_t>(run.load.recs[i].sched_us / span * windows);
    per[std::min(k, per.size() - 1)].push_back(run.latency_ms[i]);
  }
  std::vector<double> out;
  for (auto& v : per) out.push_back(percentile(v, 0.5));
  return out;
}

/// Last-window p50 over first-window p50: how much slower the service got
/// as its history grew during the load.
double growth(const Run& run) {
  const auto w = window_p50s(run, 5);
  return w.back() / w.front();
}

double late_p99_us(const Run& run) {
  std::vector<double> late;
  for (const auto& r : run.load.recs) {
    if (r.issued) late.push_back(r.issue_us - r.sched_us);
  }
  return percentile(late, 0.99);
}

void describe(const Workload& w, const char* label, const Run& run) {
  std::vector<double> lat = run.latency_ms;
  std::printf("# %s %s: %zu ops, %zu completed, p10 %.3f ms, p50 %.3f ms, p90 %.3f ms, "
              "p95 %.3f ms, p99 %.3f ms (n=%zu), cpu %.3f ms/op, load generator late p99 %.1f us, "
              "gap %.3f ms\n",
              w.name.c_str(), label, run.load.recs.size(), run.completed, percentile(lat, 0.1),
              percentile(lat, 0.5), percentile(lat, 0.9), percentile(lat, 0.95), percentile(lat, 0.99),
              lat.size(),
              run.cpu_s * 1000 / static_cast<double>(std::max<std::size_t>(1, run.completed)),
              late_p99_us(run), run.gap_ms);
  std::printf("# %s %s: p50 per window (ms):", w.name.c_str(), label);
  for (const double p : window_p50s(run, 5)) std::printf(" %.3f", p);
  std::printf("\n");
}

std::size_t failed_ops(const Run& run) { return run.load.recs.size() - run.completed; }

// ------------------------------------------------------------ trace 0 run ---

int end_to_end(const Workload& w, std::uint64_t seed, int seconds, const std::string& work) {
  const std::size_t per_round = static_cast<std::size_t>(w.rate * seconds / kRounds);
  const auto ops = make_ops(seed, per_round * kRounds, w.put_frac, w.keys);
  std::vector<double> setups;
  for (int k = 0; k < kExtraSetups; ++k) {
    Live live = bring_up(w, w.shape, work + "/s" + std::to_string(k), seed, k);
    setups.push_back(live.setup_s);
    tear_down(live);
  }
  std::vector<double> pooled;  // every op's latency, all rounds
  double cpu_s = 0;
  std::size_t completed = 0;
  for (int r = 0; r < kRounds; ++r) {
    const std::vector<Op> round_ops(ops.begin() + static_cast<long>(per_round * r),
                                    ops.begin() + static_cast<long>(per_round * (r + 1)));
    Live live = bring_up(w, w.shape, work + "/r" + std::to_string(r), seed, kExtraSetups + r);
    setups.push_back(live.setup_s);
    Run run = load_and_check(w, live, round_ops);
    const Counters c = read_counters(*live.cluster);
    tear_down(live);
    const std::string label = "round " + std::to_string(r);
    describe(w, label.c_str(), run);
    std::printf("# %s %s: rounds started %lld, collisions %lld, frontend retries %lld, "
                "client retries %llu\n",
                w.name.c_str(), label.c_str(), static_cast<long long>(c.m("gen.rounds_started")),
                static_cast<long long>(c.m("gen.collisions_detected") + c.m("gen.fast_collisions_detected")),
                static_cast<long long>(c.m("svc.retries")),
                static_cast<unsigned long long>(run.load.client_retries));
    cpu_s += run.cpu_s;
    completed += run.completed;
    pooled.insert(pooled.end(), run.latency_ms.begin(), run.latency_ms.end());
  }
  std::printf("# %s: all rounds: p10 %.3f ms, p50 %.3f ms, p90 %.3f ms, p95 %.3f ms, p99 %.3f ms "
              "(n=%zu)\n",
              w.name.c_str(), percentile(pooled, 0.1), percentile(pooled, 0.5), percentile(pooled, 0.9),
              percentile(pooled, 0.95), percentile(pooled, 0.99), pooled.size());
  std::printf("# %s: set-up times (s):", w.name.c_str());
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\n");

  print_result(ops.size(), ops.size() - completed,
               {{"setup_s", median(setups), "s"},
                {"p10_ms", percentile(pooled, 0.1), "ms"},
                {"served_frac", static_cast<double>(completed) / static_cast<double>(ops.size()), "frac"},
                {"cpu_ms_per_op", cpu_s * 1000 / static_cast<double>(std::max<std::size_t>(1, completed)),
                 "ms/op"},
                {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return 0;
}

// ------------------------------------------------------------ trace 1 run ---

/// Two rounds of the same ops as one: ops and CPU pooled, the gap taken
/// from the first.
Run pool(Run a, const Run& b) {
  a.load.recs.insert(a.load.recs.end(), b.load.recs.begin(), b.load.recs.end());
  a.latency_ms.insert(a.latency_ms.end(), b.latency_ms.begin(), b.latency_ms.end());
  a.cpu_s += b.cpu_s;
  a.completed += b.completed;
  return a;
}

Run untraced_round(const Workload& w, const std::vector<Op>& ops, std::uint64_t seed,
                   const std::string& dir) {
  Live plain = bring_up(w, w.shape, dir, seed, 0);
  Run run = load_and_check(w, plain, ops);
  tear_down(plain);
  return run;
}

int per_layer(const Workload& w, std::uint64_t seed, int seconds, const std::string& work) {
  // Untraced, traced, untraced rounds of the same ops, each on a fresh
  // cluster: the tracing overhead is the traced round minus the two
  // untraced ones around it, which cancels a steady drift of the machine.
  const auto ops = make_ops(seed, static_cast<std::size_t>(w.rate * seconds / kRounds), w.put_frac,
                            w.keys);
  Run before = untraced_round(w, ops, seed, work + "/before");
  describe(w, "untraced before", before);

  Shape traced_shape = w.shape;
  traced_shape.trace_sample_every = 1;
  Live live = bring_up(w, traced_shape, work + "/traced", seed, 0);
  BenchCluster& cluster = *live.cluster;
  std::vector<std::pair<std::string, NodeId>> lag_targets;
  for (const Role role : {Role::kCoordinator, Role::kAcceptor, Role::kServer}) {
    // The last node of each role: never the crashed coordinator.
    for (std::size_t id = cluster.node_count(); id-- > 0;) {
      if (cluster.role(static_cast<NodeId>(id)) == role) {
        const char* name = role == Role::kCoordinator ? "coordinator"
                           : role == Role::kAcceptor  ? "acceptor"
                                                      : "server";
        lag_targets.emplace_back(name, static_cast<NodeId>(id));
        break;
      }
    }
  }
  // The load epoch is fixed inside run_load; the collector aligns clocks
  // to a provisional epoch and is re-based below.
  const auto clock_origin = Clock::now();
  TraceCollector collector(cluster, clock_origin);
  LoopLagProbe lag(cluster, lag_targets);
  Run traced = load_and_check(w, live, ops, [&] {
    lag.stop();
    collector.stop();
  });
  describe(w, "traced", traced);

  // Re-base the client records onto the collector's clock origin.
  LoadResult rebased = traced.load;
  const double shift = std::chrono::duration<double, std::micro>(traced.load.epoch - clock_origin).count();
  for (auto& r : rebased.recs) {
    r.sched_us += shift;
    r.issue_us += shift;
    r.done_us += shift;
  }
  Stages st = stages_of(cluster, collector, rebased);
  const Counters c = read_counters(cluster);
  const auto states = converge(cluster, kConvergeTimeout);
  const History vval = acceptor_vval(cluster, static_cast<NodeId>(w.shape.groups * w.shape.coordinators));
  std::uint64_t data_bytes = 0;
  std::uint64_t journal_bytes = 0;
  for (std::size_t id = 0; id < cluster.node_count(); ++id) {
    const std::string dir = live.dir + "/node" + std::to_string(id);
    data_bytes += dir_bytes(dir, "journal");
    journal_bytes += dir_bytes(dir + "/journal");
  }
  const auto lag_samples = lag.samples();
  // Histories point at the cluster's conflict relation: probe them before
  // the cluster is destroyed.
  cluster.stop();
  const Probes p = run_probes(states.front().learned.front(), vval, states.front().learned,
                              work + "/probe");
  tear_down(live);
  const Run after = untraced_round(w, ops, seed, work + "/after");
  describe(w, "untraced after", after);
  const Run untraced = pool(before, after);

  const double ops_done = static_cast<double>(std::max<std::size_t>(1, traced.completed));
  std::vector<double> ul = untraced.latency_ms;
  std::vector<double> tl = traced.latency_ms;
  const double p50_untraced = percentile(ul, 0.5);
  const double p50_traced = percentile(tl, 0.5);
  auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const std::int64_t full = c.m("gen.2a_full_sent") + c.m("gen.2b_full_sent");
  const std::int64_t all_2ab = full + c.m("gen.2a_delta_sent") + c.m("gen.2b_delta_sent");

  std::vector<Metric> m = {
      {"base.ops", ops_done, "count"},
      {"base.votes", static_cast<double>(c.votes), "count"},
      {"base.flushes", static_cast<double>(c.net.flushes), "count"},
      {"base.batches", static_cast<double>(c.m("svc.batches")), "count"},
      {"base.traced_ops", static_cast<double>(st.traced_latency_ms.size()), "count"},
      // Load-level figures come from the untraced rounds.
      {"load.late_p99_us", late_p99_us(untraced), "us"},
      {"load.fail_frac",
       static_cast<double>(failed_ops(untraced)) / static_cast<double>(untraced.load.recs.size()), "frac"},
      {"load.p99_ms", percentile(ul, 0.99), "ms"},
      {"load.gap_ms", untraced.gap_ms, "ms"},
      {"load.p50_growth", growth(untraced), "ratio"},
      {"cstruct.len", p.len, "count"},
      {"cstruct.encoded_kb", p.encoded_kb, "KiB"},
      {"cstruct.copy_us", p.copy_us, "us"},
      {"cstruct.append_us", p.append_us, "us"},
      {"cstruct.suffix_after_us", p.suffix_after_us, "us"},
      {"cstruct.join_us", p.join_us, "us"},
      {"storage.syncs_per_op", c.storage_syncs / ops_done, "1/op"},
      {"storage.records_per_op", c.storage_writes / ops_done, "1/op"},
      {"storage.vote_write_us", p.vote_write_us, "us"},
      {"storage.disk_kb_per_op", static_cast<double>(data_bytes) / 1024.0 / ops_done, "KiB/op"},
      {"journal.disk_kb_per_op", static_cast<double>(journal_bytes) / 1024.0 / ops_done, "KiB/op"},
  };
  for (const char* role : {"coordinator", "acceptor", "server"}) {
    auto it = lag_samples.find(role);
    std::vector<double> v = it == lag_samples.end() ? std::vector<double>{} : it->second;
    m.push_back({std::string("runtime.loop_lag_us.") + role + ".p50", percentile(v, 0.5), "us"});
    m.push_back({std::string("runtime.loop_lag_us.") + role + ".p99", percentile(v, 0.99), "us"});
  }
  std::vector<Metric> rest = {
      {"gen.votes_per_op", c.votes / ops_done, "1/op"},
      {"gen.full_frac", frac(static_cast<double>(full), static_cast<double>(all_2ab)), "frac"},
      {"gen.resyncs", static_cast<double>(c.m("gen.2a_resyncs") + c.m("gen.2b_resyncs")), "count"},
      {"gen.rounds_started", static_cast<double>(c.m("gen.rounds_started")), "count"},
      {"gen.collisions",
       static_cast<double>(c.m("gen.collisions_detected") + c.m("gen.fast_collisions_detected")), "count"},
      {"net.msgs_per_op", c.m("net.sent") / ops_done, "1/op"},
      {"net.bytes_per_op", c.m("net.bytes_sent") / ops_done, "B/op"},
      {"net.frames_per_flush",
       frac(static_cast<double>(c.net.flushed_frames), static_cast<double>(c.net.flushes)), "1/flush"},
      {"net.backpressure_drops", static_cast<double>(c.net.backpressure_drops), "count"},
      {"svc.cmds_per_batch",
       frac(static_cast<double>(c.m("svc.batched_commands")), static_cast<double>(c.m("svc.batches"))),
       "1/batch"},
      {"svc.dup_frac", frac(static_cast<double>(c.duplicates), static_cast<double>(c.requests)), "frac"},
      {"client.retries_per_op", static_cast<double>(traced.load.client_retries) / ops_done, "1/op"},
      {"smr.apply_us", p.apply_us, "us"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  double stage_sum = 0;
  for (std::size_t k = 0; k < Stages::kCount; ++k) {
    const std::string base = std::string("stage.") + Stages::kNames[k] + "_us";
    const double p50 = percentile(st.us[k], 0.5);
    stage_sum += p50;
    m.push_back({base + ".p50", p50, "us"});
    m.push_back({base + ".p99", percentile(st.us[k], 0.99), "us"});
  }
  const double traced_ops_p50_ms = percentile(st.traced_latency_ms, 0.5);
  std::vector<Metric> tail = {
      {"stage.sum_p50_us", stage_sum, "us"},
      {"stage.sum_over_traced_p50", frac(stage_sum, traced_ops_p50_ms * 1000), "frac"},
      {"trace.p50_ms", p50_traced, "ms"},
      {"trace.untraced_p50_ms", p50_untraced, "ms"},
      {"trace.overhead_p50_ms", p50_traced - p50_untraced, "ms"},
      {"trace.overhead_cpu_ms_per_op",
       traced.cpu_s * 1000 / ops_done -
           untraced.cpu_s * 1000 / static_cast<double>(std::max<std::size_t>(1, untraced.completed)),
       "ms"},
      {"trace.events_lost", static_cast<double>(collector.overwritten()), "count"},
  };
  m.insert(m.end(), tail.begin(), tail.end());
  std::printf("# %s: stage p50s sum to %.1f us against a traced-op p50 of %.1f us; tracing "
              "overhead %+.3f ms at p50\n",
              w.name.c_str(), stage_sum, traced_ops_p50_ms * 1000, p50_traced - p50_untraced);
  print_result(ops.size(), failed_ops(traced), m);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: kvbench --workload hot-durable|read-sharded|coord-crash --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace", "--work-dir"}) {
    if (!args.count(required)) return usage();
  }
  const auto w = workload_named(args["--workload"]);
  if (!w) return usage();
  const std::uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  const int seconds = std::atoi(args["--seconds"].c_str());
  const int trace = std::atoi(args["--trace"].c_str());
  if (seconds < 1 || (trace != 0 && trace != 1)) return usage();
  const std::string work = args["--work-dir"] + "/run-" + std::to_string(getpid());
  std::filesystem::create_directories(work);
  int rc = 1;
  try {
    rc = trace == 0 ? end_to_end(*w, seed, seconds, work) : per_layer(*w, seed, seconds, work);
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "kvbench: output check failed: %s\n", e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kvbench: %s\n", e.what());
  }
  std::error_code ec;
  std::filesystem::remove_all(work, ec);
  return rc;
}
