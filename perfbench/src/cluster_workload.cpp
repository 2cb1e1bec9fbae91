// cluster-private: three RealNodes in this process, each a full MARP stack
// with its own event-loop thread, talking over Unix-domain SocketTransports.
// Every origin runs a closed loop with one update session in flight over its
// own private keys, so the per-key commit order is deterministic and the
// reference simulator is an exact oracle for the final state.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <tuple>
#include <memory>
#include <thread>

#include "agent/platform.hpp"
#include "layers.hpp"
#include "marp/protocol.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "quorum/quorum.hpp"
#include "sim/simulator.hpp"
#include "trace/tracer.hpp"
#include "transport/cluster.hpp"
#include "transport/real_node.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace tr = marp::transport;
using marp::sim::SimTime;

constexpr std::size_t kNodes = 3;
constexpr std::uint64_t kSessionsPerNode = 1000;
constexpr std::uint64_t kKeysPerOrigin = 4;
// Each node's workload starts this long after its thread starts; set-up
// (construction, transport start, every listener answering) ends well
// before, and the timed window starts exactly here.
constexpr SimTime kStartDelay = SimTime::millis(50);
constexpr auto kPollEvery = std::chrono::milliseconds(2);
constexpr auto kQuiesceTimeout = std::chrono::seconds(60);
// Reference-sim twin stepping (traced run only).
constexpr SimTime kTwinSlice = SimTime::millis(20);
constexpr int kTwinSampleEvery = 10;  // slices

tr::ClusterSpec cluster_spec(std::uint64_t seed) {
  tr::ClusterSpec spec;
  spec.nodes = kNodes;
  spec.sessions_per_node = kSessionsPerNode;
  spec.keys_per_origin = kKeysPerOrigin;
  spec.shared_keys = false;
  spec.seed = seed;
  return spec;
}

/// Protocol config the nodes run: the cluster harness's (reliable commit)
/// with no modelled service time, so the wire and the node loop — not a
/// timer — pace every commit.
marp::core::MarpConfig node_marp(const tr::ClusterSpec& spec) {
  marp::core::MarpConfig config = spec.marp();
  config.visit_service_time = SimTime::zero();
  return config;
}

struct ClusterEpisode {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  bool quiesced = false;
  std::uint64_t peak_live = 0;
  std::vector<marp::rpc::NodeDump> dumps;
  std::vector<marp::rpc::NodeTrace> traces;
};

std::uint64_t counter(const marp::rpc::NodeDump& dump, const std::string& name) {
  for (const auto& [key, value] : dump.counters) {
    if (key == name) return value;
  }
  return 0;
}

ClusterEpisode run_episode(const tr::ClusterSpec& spec, const Options& options,
                           std::uint32_t index, bool traced, SpanLog& spans) {
  ClusterEpisode e;
  const std::string dir = options.out_dir + "/uds-" + std::to_string(getpid()) + "-" +
                          std::to_string(index);
  std::filesystem::create_directories(dir);
  const std::vector<tr::Endpoint> endpoints = tr::local_uds_cluster(dir, kNodes);
  // Traced nodes share one clock epoch so their span timelines line up.
  const std::int64_t epoch_us =
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now().time_since_epoch())
          .count();

  std::vector<std::unique_ptr<tr::RealNode>> nodes;
  Clock::time_point workload_start;
  const Clock::time_point setup_start = Clock::now();
  spans.time("transport", "cluster start", [&] {
    for (marp::net::NodeId id = 0; id < kNodes; ++id) {
      tr::RealNodeConfig config;
      config.node = id;
      config.endpoints = endpoints;
      config.marp = node_marp(spec);
      config.seed = spec.seed + id;
      config.sessions = spec.sessions_per_node;
      config.keys_per_origin = spec.keys_per_origin;
      config.shared_keys = spec.shared_keys;
      config.start_delay = kStartDelay;
      if (traced) {
        config.trace_capacity = std::size_t{1} << 20;
        config.clock_epoch_us = epoch_us;
      }
      nodes.push_back(std::make_unique<tr::RealNode>(std::move(config)));
    }
    workload_start = Clock::now() + std::chrono::microseconds(kStartDelay.as_micros());
    for (auto& node : nodes) node->start();
    tr::RetryPolicy policy;
    policy.attempts = 500;
    policy.backoff = std::chrono::milliseconds(1);
    policy.backoff_cap = std::chrono::milliseconds(2);
    for (marp::net::NodeId id = 0; id < kNodes; ++id) {
      tr::ControlClient client(endpoints[id], id, policy);
      if (!client.ping()) throw std::runtime_error("node " + std::to_string(id) + " never listened");
    }
  });
  e.setup_s = seconds_since(setup_start);
  const double cpu0 = cpu_seconds();

  spans.time("transport", "quiescence wait", [&] {
    const Clock::time_point deadline = Clock::now() + kQuiesceTimeout;
    while (Clock::now() < deadline) {
      bool all = true;
      std::uint64_t live = 0;
      for (auto& node : nodes) {
        const marp::rpc::NodeStatus status = node->status();
        all = all && status.quiesced;
        live += status.live_agents;
      }
      e.peak_live = std::max(e.peak_live, live);
      if (all) {
        e.quiesced = true;
        break;
      }
      std::this_thread::sleep_for(kPollEvery);
    }
  });
  e.wall_s = seconds_since(workload_start);
  e.cpu_s = cpu_seconds() - cpu0;

  spans.time("transport", "dump", [&] {
    for (auto& node : nodes) {
      e.dumps.push_back(node->dump());
      if (traced) e.traces.push_back(node->trace_dump());
    }
  });
  for (auto& node : nodes) node->request_stop();
  for (auto& node : nodes) node->join();
  nodes.clear();
  std::filesystem::remove_all(dir);
  // Hand the episode's freed heap back to the kernel: every episode then
  // starts from the same resident baseline, so peak_rss_mb is one
  // episode's footprint rather than whatever fragmentation the node and
  // transport threads' malloc arenas accumulated over earlier episodes.
  malloc_trim(0);
  return e;
}

/// compare_substrates reports an apply-order divergence whenever a replica's
/// per-key apply history differs from the reference's. On sockets with no
/// modelled service time a replica can receive a key's COMMIT after a newer
/// COMMIT of the same key (they travel on different connections); the Thomas
/// write rule then skips the older version. Such an episode is accepted only
/// if that is all that happened: every other check passed, and every
/// replica applied each key between once and the reference's number of
/// times. Returns the number of skipped applies, or -1 when the divergence
/// is anything else.
long skipped_applies(const tr::SubstrateResult& real, const tr::SubstrateResult& reference) {
  long skipped = 0;
  const auto& expected = reference.per_key_writers.at(0);
  for (const auto& node : real.per_key_writers) {
    if (node.size() != expected.size()) return -1;
    for (const auto& [key, writers] : node) {
      const auto it = expected.find(key);
      if (it == expected.end() || writers.empty() || writers.size() > it->second.size()) {
        return -1;
      }
      skipped += static_cast<long>(it->second.size() - writers.size());
    }
  }
  return skipped;
}

bool is_apply_order_finding(const std::string& violation) {
  return violation.find("per-key apply order diverges") != std::string::npos ||
         violation.find("per-key commit orders differ") != std::string::npos;
}

/// Correctness gate for one episode: the cluster quiesced, matches the
/// reference simulator (see skipped_applies for the one tolerated
/// difference), and the wire stayed clean. Returns the skipped applies.
long audit(ClusterEpisode& e, const tr::SubstrateResult& reference, bool corrupt,
           std::vector<std::string>& problems) {
  if (!e.quiesced) problems.push_back("cluster did not quiesce");
  if (corrupt && !e.dumps.empty() && !e.dumps[0].items.empty()) {
    e.dumps[0].items[0].value += "-corrupted";
  }
  const tr::SubstrateResult real = tr::aggregate_cluster(e.dumps);
  const std::vector<std::string> violations = tr::compare_substrates(reference, real);
  const bool only_order = std::all_of(violations.begin(), violations.end(), is_apply_order_finding);
  const long skipped = violations.empty() ? 0 : only_order ? skipped_applies(real, reference) : -1;
  if (skipped < 0) {
    for (const std::string& v : violations) problems.push_back("compare_substrates: " + v);
  }
  for (std::size_t n = 0; n < e.dumps.size(); ++n) {
    const marp::rpc::NodeDump& d = e.dumps[n];
    const auto expect_zero = [&](std::uint64_t value, const char* what) {
      if (value != 0) {
        problems.push_back("node " + std::to_string(n) + ": " + what + " = " +
                           std::to_string(value));
      }
    };
    expect_zero(d.checksum_rejected, "checksum_rejected");
    expect_zero(d.malformed_rejected, "malformed_rejected");
    expect_zero(d.agent_transfers_revived, "agent_transfers_revived");
    expect_zero(d.agent_transfers_pending, "agent_transfers_pending");
  }
  return std::max(skipped, 0L);
}

std::uint64_t commits_of(const ClusterEpisode& e) {
  std::uint64_t commits = 0;
  for (const auto& d : e.dumps) commits += d.status.commits;
  return commits;
}

void report_untraced(const Options& options, Report& r) {
  SpanLog spans(false);
  const tr::ClusterSpec spec = cluster_spec(options.seed);
  const tr::SubstrateResult reference = tr::run_reference_sim(spec);
  malloc_trim(0);
  EndToEnd run;
  long skipped_total = 0, order_episodes = 0;
  std::vector<std::string> problems;
  const Clock::time_point started = Clock::now();
  std::uint32_t episode = 0;
  while (episode < kMinEpisodes || seconds_since(started) < options.seconds) {
    ClusterEpisode e =
        run_episode(cluster_spec(episode_seed(options.seed, episode)), options, episode,
                    false, spans);
    std::vector<std::string> found;
    const long skipped = audit(e, reference, options.corrupt, found);
    skipped_total += skipped;
    order_episodes += skipped > 0 ? 1 : 0;
    for (const std::string& p : found) {
      problems.push_back("episode " + std::to_string(episode) + ": " + p);
    }
    const double commits = static_cast<double>(commits_of(e));
    run.setup_s.push_back(e.setup_s);
    run.rate.push_back(commits / e.wall_s);
    run.cpu_ms.push_back(1e3 * e.cpu_s / std::max(commits, 1.0));
    run.commits += commits;
    run.succeeded += commits;
    run.attempted += static_cast<double>(kNodes * kSessionsPerNode);
    for (const auto& d : e.dumps) {
      run.messages += static_cast<double>(d.frames_sent);
      run.wire_bytes += static_cast<double>(counter(d, "net.real.bytes_sent"));
    }
    ++episode;
  }
  for (const std::string& p : problems) r.fail(p);
  report_end_to_end(run, r);
  r.note("skipped_applies", static_cast<double>(skipped_total), "count");
  r.note("episodes_with_skipped_applies", static_cast<double>(order_episodes), "count");
}

/// The reference simulator's stack for the cluster spec, stepped in slices
/// so the benchmark can replay its live agents through the layers: the
/// cluster nodes' own stacks are private to their node threads.
void sample_reference_twin(const tr::ClusterSpec& spec, SpanLog& spans, LayerTotals& t,
                           std::vector<std::string>& problems) {
  marp::sim::Simulator sim(spec.seed);
  marp::net::Network network(
      sim, marp::net::make_lan_mesh(spec.nodes, SimTime::micros(500)),
      std::make_unique<marp::net::ConstantLatency>(SimTime::micros(500)));
  marp::agent::AgentPlatform platform(network);
  marp::core::MarpProtocol protocol(network, platform, spec.marp());
  tr::RealNodeConfig workload;
  workload.keys_per_origin = spec.keys_per_origin;
  std::vector<std::uint64_t> next(spec.nodes, 0);
  const auto submit = [&](marp::net::NodeId origin, std::uint64_t i) {
    marp::replica::Request request;
    request.id = static_cast<std::uint64_t>(origin) * 1'000'000 + i;
    request.key = tr::workload_key(workload, origin, i);
    request.value = tr::workload_value(origin, i);
    request.origin = origin;
    request.submitted = sim.now();
    protocol.submit(request);
  };
  protocol.set_outcome_handler([&](const marp::replica::Outcome& o) {
    if (++next[o.origin] < spec.sessions_per_node) submit(o.origin, next[o.origin]);
  });
  for (marp::net::NodeId origin = 0; origin < spec.nodes; ++origin) submit(origin, 0);

  int slice = 0;
  while (!sim.idle()) {
    std::uint64_t ran = 0;
    const std::int64_t ns = spans.time("sim", "run slice (reference twin)",
                                       [&] { ran = sim.run(sim.now() + kTwinSlice); });
    t.events += static_cast<double>(ran);
    t.slice_ns += static_cast<double>(ns);
    t.peak_pending = std::max(t.peak_pending, sim.pending_events());
    if (++slice % kTwinSampleEvery == 0) {
      sample_resident_agents(platform, protocol, spans, t.samples, problems);
    }
  }
  t.sim_commits += static_cast<double>(protocol.stats().updates_committed);
}

/// Phase durations from the nodes' span rings. Spans that close on the node
/// that opened them are taken as they are. An agent's session and its
/// migrations cross nodes, so they only close in the merged view: the nodes
/// share one clock epoch, a session runs from the agent's first span to its
/// last, and a migration from its open start on the source to the agent's
/// next span on any other node.
void add_stitched_phases(const std::vector<marp::rpc::NodeTrace>& traces, PhaseSamples& phases) {
  using marp::rpc::NodeTrace;
  using marp::trace::SpanKind;
  struct Seen {
    std::uint32_t node;
    std::int64_t start_us;
  };
  struct Life {
    std::int64_t first_us = std::numeric_limits<std::int64_t>::max();
    std::int64_t last_us = std::numeric_limits<std::int64_t>::min();
    std::vector<Seen> starts;                    ///< every span start, any node
    std::vector<Seen> open_migrations;           ///< source node, start
  };
  std::map<std::tuple<std::uint32_t, std::int64_t, std::uint32_t>, Life> lives;
  for (const NodeTrace& trace : traces) {
    for (const NodeTrace::Span& span : trace.spans) {
      const bool open = span.end_us == NodeTrace::kOpenEnd;
      const auto kind = static_cast<SpanKind>(span.kind);
      if (!open && kind != SpanKind::Session && kind != SpanKind::Migration) {
        phases.add(span.kind, static_cast<double>(span.end_us - span.start_us) * 1e-3);
      }
      if (span.agent_origin == marp::net::kInvalidNode) continue;
      Life& life = lives[{span.agent_origin, span.agent_created_us, span.agent_seq}];
      life.first_us = std::min(life.first_us, span.start_us);
      if (!open) life.last_us = std::max(life.last_us, span.end_us);
      life.starts.push_back({trace.node, span.start_us});
      if (open && kind == SpanKind::Migration) life.open_migrations.push_back({trace.node, span.start_us});
    }
  }
  for (const auto& [id, life] : lives) {
    if (life.last_us > life.first_us) {
      phases.add(static_cast<std::uint8_t>(SpanKind::Session),
                 static_cast<double>(life.last_us - life.first_us) * 1e-3);
    }
    for (const Seen& migration : life.open_migrations) {
      std::int64_t arrival = std::numeric_limits<std::int64_t>::max();
      for (const Seen& seen : life.starts) {
        if (seen.node != migration.node && seen.start_us >= migration.start_us) {
          arrival = std::min(arrival, seen.start_us);
        }
      }
      if (arrival != std::numeric_limits<std::int64_t>::max()) {
        phases.add(static_cast<std::uint8_t>(SpanKind::Migration),
                   static_cast<double>(arrival - migration.start_us) * 1e-3);
      }
    }
  }
}

void report_traced(const Options& options, Report& r) {
  SpanLog spans(true);
  const tr::ClusterSpec spec = cluster_spec(options.seed);
  const tr::SubstrateResult reference = tr::run_reference_sim(spec);
  std::vector<std::string> problems;
  LayerTotals t;
  double cluster_commits = 0;
  std::vector<double> rtt_p50, rtt_p99;
  const Clock::time_point started = Clock::now();
  std::uint32_t episode = 0;
  while (episode < 1 || seconds_since(started) < options.seconds / 2) {
    spans.set_episode(episode);
    const tr::ClusterSpec episode_spec = cluster_spec(episode_seed(options.seed, episode));
    ClusterEpisode plain = run_episode(episode_spec, options, 2 * episode, false, spans);
    ClusterEpisode traced = run_episode(episode_spec, options, 2 * episode + 1, true, spans);
    audit(plain, reference, false, problems);
    audit(traced, reference, options.corrupt, problems);
    const tr::SubstrateResult a = tr::aggregate_cluster(plain.dumps);
    const tr::SubstrateResult b = tr::aggregate_cluster(traced.dumps);
    if (a.commits != b.commits || a.store != b.store) {
      problems.push_back("episode " + std::to_string(episode) +
                         ": traced cluster diverged from its untraced twin");
    }
    const double commits = static_cast<double>(commits_of(traced));
    cluster_commits += commits;
    t.untraced_cpu_s += plain.cpu_s / static_cast<double>(std::max<std::uint64_t>(commits_of(plain), 1));
    t.traced_cpu_s += traced.cpu_s / std::max(commits, 1.0);
    t.samples.peak_live = std::max<std::size_t>(t.samples.peak_live, traced.peak_live);
    for (const marp::rpc::NodeDump& d : traced.dumps) {
      t.net_messages += static_cast<double>(counter(d, "net.messages_sent"));
      t.net_bytes += static_cast<double>(counter(d, "net.bytes_sent"));
      t.migrations += static_cast<double>(counter(d, "agent.migrations_started"));
      t.migration_bytes += static_cast<double>(counter(d, "agent.migration_bytes"));
      t.attempts += static_cast<double>(counter(d, "marp.update_attempts"));
      t.requeues += static_cast<double>(counter(d, "marp.lock_requeues"));
      t.anomalies += static_cast<double>(d.anomalies_total);
      t.frames += static_cast<double>(d.frames_sent);
      t.frame_bytes += static_cast<double>(counter(d, "net.real.bytes_sent"));
      t.agent_frames += static_cast<double>(d.agent_frames_sent);
      // Per-link transfer → ack round trips the traced transports measured.
      for (const auto& [name, value] : d.counters) {
        if (name.rfind("link.", 0) != 0) continue;
        if (name.ends_with(".rtt.p50_us")) rtt_p50.push_back(static_cast<double>(value));
        if (name.ends_with(".rtt.p99_us")) rtt_p99.push_back(static_cast<double>(value));
      }
    }
    for (const marp::rpc::NodeTrace& trace : traced.traces) t.spans_dropped += trace.spans_dropped;
    add_stitched_phases(traced.traces, t.phases);
    ++episode;
  }
  t.commits = cluster_commits;
  // The node stacks are private to their node threads: the simulator,
  // agent, decide() and codec figures come from the reference twin.
  const std::size_t peak_live = t.samples.peak_live;
  sample_reference_twin(spec, spans, t, problems);
  t.samples.peak_live = peak_live;
  t.make_view_ms = time_make_view_ms(kNodes, 0, 1, nullptr, spans);
  t.pick_read_us =
      time_read_quorum_picks(*marp::quorum::make_quorum_system(spec.marp().quorum, kNodes), spans);
  t.rtt_p50_us = median(rtt_p50);
  t.rtt_p99_us = rtt_p99.empty() ? 0.0 : *std::max_element(rtt_p99.begin(), rtt_p99.end());
  t.spans_dropped += spans.dropped();

  for (const std::string& p : problems) r.fail(p);
  r.attempted = static_cast<std::uint64_t>(episode) * kNodes * kSessionsPerNode;
  r.failed = r.correct ? r.attempted - static_cast<std::uint64_t>(cluster_commits) : r.attempted;
  report_layers(t, r);
  r.note("traced_episodes", episode, "count");
  for (const auto& [layer, busy] : spans.busy_by_layer()) r.note("busy_s." + layer, busy, "s");

  std::filesystem::create_directories(options.out_dir);
  std::ofstream out(options.out_dir + "/spans-cluster-private-" +
                    std::to_string(options.seed) + ".json");
  spans.write_chrome(out);
}

}  // namespace

void run_cluster_workload(const Options& options, Report& report) {
  if (options.trace) {
    report_traced(options, report);
  } else {
    report_untraced(options, report);
  }
}

}  // namespace perfbench
