// Simulator workloads: open-loop Poisson arrivals on a 64-server LAN mesh,
// the MARP stack assembled from its public parts exactly as the runner does
// (so the benchmark can step Simulator::run in slices and look at the live
// state between them).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "agent/platform.hpp"
#include "layers.hpp"
#include "marp/protocol.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "runner/consistency.hpp"
#include "sim/simulator.hpp"
#include "trace/tracer.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using marp::sim::SimTime;
namespace mc = marp::core;

struct SimWorkload {
  const char* name;
  std::size_t keys;
  double zipf;
  std::size_t lock_groups;
  double write_fraction;
  std::uint32_t replication_factor;  ///< 0 = full replication
  mc::ReadMode read_mode;
  std::uint64_t max_requests_per_server;
  SimTime duration;  ///< generation window (virtual time)
  /// Virtual time per Simulator::run slice: tens of wall milliseconds, so
  /// alternating twins do not keep evicting each other's working set.
  SimTime slice;
};

// Shared by both sim workloads: the deployment and the link model.
constexpr std::size_t kServers = 64;
constexpr double kInterarrivalMs = 20.0;  // mean, per server
constexpr SimTime kLanBase = SimTime::millis(2);
constexpr double kJitterMeanUs = 500.0;
constexpr double kBytesPerUs = 12.5;
constexpr SimTime kDrain = SimTime::seconds(20);
// Traced runs replay the live agents through the layers between slices,
// at most every kSampleEvery of virtual time.
constexpr SimTime kSampleEvery = SimTime::millis(250);
constexpr int kSetupRepeats = 31;

// A workload's episode length is part of its definition: carried agent
// state grows with history, so per-commit cost depends on it.
const SimWorkload kWorkloads[] = {
    // The ROADMAP profile cell: every write contends on a majority of 64
    // replicas; priority evaluation and carried state dominate.
    {"contended-full", 256, 0.0, 16, 1.0, 0, mc::ReadMode::LocalCopy, 4,
     SimTime::seconds(10), SimTime::millis(50)},
    // Partial replication: sessions tour 3 replicas, reads gather quorums
    // with agents; event dispatch and delivery dominate.
    {"partial-readmix", 4096, 0.9, 64, 0.2, 3, mc::ReadMode::QuorumAgent,
     std::numeric_limits<std::uint64_t>::max(), SimTime::seconds(4), SimTime::millis(500)},
};

mc::MarpConfig marp_config(const SimWorkload& w) {
  mc::MarpConfig config;
  config.num_lock_groups = w.lock_groups;
  config.membership.replication_factor = w.replication_factor;
  config.read_mode = w.read_mode;
  return config;
}

marp::workload::WorkloadConfig workload_config(const SimWorkload& w) {
  marp::workload::WorkloadConfig config;
  config.mean_interarrival_ms = kInterarrivalMs;
  config.write_fraction = w.write_fraction;
  config.num_keys = w.keys;
  config.zipf_s = w.zipf;
  config.duration = w.duration;
  config.max_requests_per_server = w.max_requests_per_server;
  return config;
}

/// One deployment: simulator, LAN, agent platform, MARP, outcome sink and
/// request generator, wired like runner::run_experiment wires a MARP run.
struct SimStack {
  SimStack(const SimWorkload& w, std::uint64_t seed)
      : sim(seed),
        topology(marp::net::make_lan_mesh(kServers, kLanBase)),
        network(sim, topology,
                std::make_unique<marp::net::LanLatency>(topology.delays, kJitterMeanUs,
                                                        kBytesPerUs)),
        platform(network),
        protocol(network, platform, marp_config(w)),
        generator(sim, kServers, workload_config(w),
                  [this](const marp::replica::Request& r) { protocol.submit(r); }) {
    protocol.set_outcome_handler(
        [this](const marp::replica::Outcome& o) { outcomes.record(o); });
    generator.start();
  }

  void attach_tracer() {
    tracer = std::make_unique<marp::trace::Tracer>(sim, std::size_t{1} << 22);
    network.set_observer(tracer.get());
    platform.set_observer(tracer.get());
    protocol.set_tracer(tracer.get());
  }

  // Declared first so it is destroyed last: the stack holds raw pointers.
  std::unique_ptr<marp::trace::Tracer> tracer;
  marp::sim::Simulator sim;
  marp::net::Topology topology;
  marp::net::Network network;
  marp::agent::AgentPlatform platform;
  mc::MarpProtocol protocol;
  marp::workload::TraceCollector outcomes;
  marp::workload::RequestGenerator generator;
};

struct Episode {
  double slice_ns = 0;  ///< summed Simulator::run slice wall time
  double cpu_s = 0;     ///< CPU over the same slices
  double best_ns = 0;   ///< per-slice minimum over the twins (run_twins)
  double best_cpu_s = 0;
  std::uint64_t events = 0;
  std::size_t peak_pending = 0;
  std::uint64_t commits = 0;
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  std::vector<double> commit_ms, read_ms, alt_ms;
};

/// The run's correctness gate for one episode: consistency audit
/// (convergence, per-group and per-key commit order, monotone histories),
/// the Theorem 2 monitor, and request accounting.
void audit(SimStack& s, const SimWorkload& w, bool corrupt,
           std::vector<std::string>& problems) {
  std::vector<const marp::replica::VersionedStore*> stores;
  for (marp::net::NodeId node = 0; node < kServers; ++node) {
    stores.push_back(&s.protocol.server(node).store());
  }
  if (corrupt) {
    marp::replica::VersionedStore& victim = s.protocol.server(0).store();
    const std::vector<std::string> keys = victim.keys();
    if (!keys.empty()) {
      const auto value = victim.read(keys.front());
      victim.force(keys.front(), "corrupted", value->version);
    }
  }
  const std::vector<bool> eligible(kServers, true);
  marp::runner::ConsistencyReport report;
  if (s.protocol.membership_enabled()) {
    const marp::membership::MembershipView& view = s.protocol.current_view();
    report = marp::runner::check_scoped_convergence(
        stores, eligible, s.protocol.router(),
        [&](std::size_t node, marp::shard::GroupId g) {
          return view.hosts(static_cast<marp::net::NodeId>(node), g);
        });
  } else {
    report = marp::runner::check_convergence(stores, eligible);
  }
  for (std::size_t i = 0; i < stores.size(); ++i) {
    report.merge(marp::runner::check_monotonic_history(*stores[i], i));
  }
  report.merge(marp::runner::check_commit_order(s.protocol.commit_log(), w.lock_groups));
  report.merge(marp::runner::check_per_key_order(s.protocol.commit_log()));
  for (const std::string& problem : report.problems) problems.push_back(problem);
  if (s.protocol.stats().mutex_violations != 0) {
    problems.push_back("Theorem 2 monitor: " +
                       std::to_string(s.protocol.stats().mutex_violations) +
                       " mutex violations");
  }
  if (s.outcomes.completed() != s.generator.generated()) {
    problems.push_back("accounting: generated " + std::to_string(s.generator.generated()) +
                       " != completed " + std::to_string(s.outcomes.completed()));
  }
}

/// Commit log and every replica's final store, as text: two runs of one
/// episode seed must produce identical signatures.
std::string signature(SimStack& s) {
  std::ostringstream os;
  for (const mc::CommitRecord& record : s.protocol.commit_log()) {
    os << record.agent.to_string() << '@' << record.committed.as_micros();
    for (const mc::CommitEntry& e : record.entries) {
      os << ' ' << e.key << '=' << e.version.time_us << '/' << e.version.writer;
    }
    os << '\n';
  }
  for (marp::net::NodeId node = 0; node < kServers; ++node) {
    const marp::replica::VersionedStore& store = s.protocol.server(node).store();
    std::vector<std::string> keys = store.keys();
    std::sort(keys.begin(), keys.end());
    for (const std::string& key : keys) {
      const auto value = store.read(key);
      os << node << ' ' << key << '=' << value->value << '@' << value->version.time_us
         << '/' << value->version.writer << '\n';
    }
  }
  return os.str();
}

/// Wall and CPU cost of one Simulator::run slice.
struct SliceCost {
  double ns = 0;
  double cpu_s = 0;
};

/// Run one slice of `s` up to `until` and book its cost into `e`.
SliceCost step(SimStack& s, SimTime until, SpanLog& spans, const char* span_name,
               Episode& e) {
  SliceCost cost;
  const double cpu0 = cpu_seconds();
  std::uint64_t ran = 0;
  cost.ns = static_cast<double>(spans.time("sim", span_name, [&] { ran = s.sim.run(until); }));
  cost.cpu_s = cpu_seconds() - cpu0;
  e.cpu_s += cost.cpu_s;
  e.slice_ns += cost.ns;
  e.events += ran;
  e.peak_pending = std::max(e.peak_pending, s.sim.pending_events());
  return cost;
}

/// Step twin stacks of one episode seed through the same virtual-time
/// slices, alternating which of the two runs a slice first. The simulator is
/// deterministic, so both execute identical events; per slice the cheaper of
/// the two timings is booked into `a.best_*`. Other processes on the machine
/// can only slow a slice down, so the per-slice minimum filters their bursts
/// out of the figure. `sample` runs between slices (the traced run replays
/// twin b's live agents there); its cost is booked nowhere.
template <typename Sample>
void run_twins(SimStack& a, SimStack& b, const SimWorkload& w, SpanLog& spans,
               const char* name_a, const char* name_b, Episode& ea, Episode& eb,
               Sample&& sample) {
  const SimTime end = w.duration + kDrain;
  SimTime next_sample = kSampleEvery;
  bool a_first = true;
  while (!a.sim.idle() && a.sim.now() < end) {
    const SimTime until = std::min(a.sim.now() + w.slice, end);
    SliceCost ca, cb;
    if (a_first) {
      ca = step(a, until, spans, name_a, ea);
      cb = step(b, until, spans, name_b, eb);
    } else {
      cb = step(b, until, spans, name_b, eb);
      ca = step(a, until, spans, name_a, ea);
    }
    a_first = !a_first;
    ea.best_ns += std::min(ca.ns, cb.ns);
    ea.best_cpu_s += std::min(ca.cpu_s, cb.cpu_s);
    if (b.sim.now() >= next_sample) {
      sample();
      next_sample = b.sim.now() + kSampleEvery;
    }
  }
}

void collect(SimStack& s, Episode& e) {
  e.commits = s.protocol.stats().updates_committed;
  e.attempted = s.generator.generated();
  const marp::net::TrafficStats& net = s.network.stats();
  e.messages = net.messages_sent;
  e.wire_bytes = net.bytes_sent + s.platform.stats().migration_bytes;
  for (const marp::replica::Outcome& o : s.outcomes.outcomes()) {
    if (!o.success) continue;
    ++e.succeeded;
    const double total_ms = o.total_latency().as_millis();
    if (o.kind == marp::replica::RequestKind::Write) {
      e.commit_ms.push_back(total_ms);
      e.alt_ms.push_back(o.lock_latency().as_millis());
    } else {
      e.read_ms.push_back(total_ms);
    }
  }
}

struct TimedBuild {
  std::unique_ptr<SimStack> stack;
  double seconds = 0;
};

TimedBuild build(const SimWorkload& w, std::uint64_t seed, SpanLog& spans) {
  TimedBuild b;
  const std::int64_t ns = spans.time("setup", "stack build",
                                     [&] { b.stack = std::make_unique<SimStack>(w, seed); });
  b.seconds = static_cast<double>(ns) * 1e-9;
  return b;
}

/// Set-up time: the median of many warm builds of the whole stack, so one
/// page-fault burst or scheduler hiccup cannot move it.
std::vector<double> setup_times(const SimWorkload& w, std::uint64_t seed, SpanLog& spans) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    times.push_back(build(w, episode_seed(seed, 100000 + i), spans).seconds);
  }
  return times;
}

void report_untraced(const SimWorkload& w, const Options& options, Report& r) {
  SpanLog spans(false);
  EndToEnd run;
  run.setup_s = setup_times(w, options.seed, spans);
  std::vector<double> commit_ms, read_ms, alt_ms;
  std::vector<std::string> problems;
  const Clock::time_point started = Clock::now();
  std::size_t episode = 0;
  while (static_cast<int>(episode) < kMinEpisodes || seconds_since(started) < options.seconds) {
    const std::uint64_t seed = episode_seed(options.seed, episode);
    Episode e, twin;
    TimedBuild a = build(w, seed, spans);
    TimedBuild b = build(w, seed, spans);
    run.setup_s.push_back(a.seconds);
    run.setup_s.push_back(b.seconds);
    run_twins(*a.stack, *b.stack, w, spans, "run slice", "run slice", e, twin, [] {});
    collect(*a.stack, e);
    std::vector<std::string> found;
    if (e.events != twin.events || signature(*a.stack) != signature(*b.stack)) {
      found.push_back("twin runs of one seed diverged (nondeterminism)");
    }
    audit(*a.stack, w, options.corrupt, found);
    for (const std::string& p : found) {
      problems.push_back("episode " + std::to_string(episode) + ": " + p);
    }
    const double commits = static_cast<double>(e.commits);
    run.rate.push_back(commits / (e.best_ns * 1e-9));
    run.cpu_ms.push_back(1e3 * e.best_cpu_s / commits);
    run.commits += commits;
    run.messages += static_cast<double>(e.messages);
    run.wire_bytes += static_cast<double>(e.wire_bytes);
    run.attempted += static_cast<double>(e.attempted);
    run.succeeded += static_cast<double>(e.succeeded);
    commit_ms.insert(commit_ms.end(), e.commit_ms.begin(), e.commit_ms.end());
    read_ms.insert(read_ms.end(), e.read_ms.begin(), e.read_ms.end());
    alt_ms.insert(alt_ms.end(), e.alt_ms.begin(), e.alt_ms.end());
    ++episode;
  }
  for (const std::string& p : problems) r.fail(p);
  report_end_to_end(run, r);
  r.note("commit_latency_p50_ms", percentile(commit_ms, 50), "ms");
  r.note("commit_latency_p95_ms", percentile(commit_ms, 95), "ms");
  r.note("commit_latency.samples", static_cast<double>(commit_ms.size()), "count");
  r.note("alt_ms", mean(alt_ms), "ms");
  if (!read_ms.empty()) {
    r.note("read_latency_p50_ms", percentile(read_ms, 50), "ms");
    r.note("read_latency_p95_ms", percentile(read_ms, 95), "ms");
    r.note("read_latency.samples", static_cast<double>(read_ms.size()), "count");
  }
}

void report_traced(const SimWorkload& w, const Options& options, Report& r) {
  SpanLog spans(true);
  LayerTotals t;
  std::vector<std::string> problems;
  const Clock::time_point started = Clock::now();
  std::uint32_t episode = 0;
  std::uint64_t attempted = 0, succeeded = 0;
  // Twice as many seconds go into each traced episode (untraced twin, then
  // traced twin with layer replay), so the loop aims at half the budget.
  while (episode < 1 || seconds_since(started) < options.seconds / 2) {
    spans.set_episode(episode);
    const std::uint64_t seed = episode_seed(options.seed, episode);

    Episode plain, traced;
    TimedBuild a = build(w, seed, spans);
    TimedBuild b = build(w, seed, spans);
    SimStack& s = *b.stack;
    s.attach_tracer();
    run_twins(*a.stack, s, w, spans, "run slice (untraced twin)", "run slice (traced twin)",
              plain, traced,
              [&] { sample_resident_agents(s.platform, s.protocol, spans, t.samples, problems); });
    const bool same = signature(*a.stack) == signature(s);
    a.stack.reset();
    collect(s, traced);
    std::vector<std::string> found;
    audit(s, w, options.corrupt, found);
    problems.insert(problems.end(), found.begin(), found.end());
    if (!same) {
      problems.push_back("episode " + std::to_string(episode) +
                         ": traced run diverged from its untraced twin");
    }

    attempted += traced.attempted;
    succeeded += traced.succeeded;
    t.commits += static_cast<double>(traced.commits);
    t.sim_commits += static_cast<double>(traced.commits);
    t.events += static_cast<double>(plain.events);
    t.slice_ns += plain.slice_ns;
    t.untraced_cpu_s += plain.cpu_s;
    t.traced_cpu_s += traced.cpu_s;
    t.peak_pending = std::max(t.peak_pending, traced.peak_pending);
    const marp::net::TrafficStats& net = s.network.stats();
    const marp::agent::PlatformStats& ag = s.platform.stats();
    const mc::MarpStats& marp = s.protocol.stats();
    t.net_messages += static_cast<double>(net.messages_sent);
    t.net_bytes += static_cast<double>(net.bytes_sent);
    t.migrations += static_cast<double>(ag.migrations_started);
    t.migration_bytes += static_cast<double>(ag.migration_bytes);
    t.attempts += static_cast<double>(marp.update_attempts);
    t.requeues += static_cast<double>(marp.lock_requeues);
    t.anomalies += static_cast<double>(marp.anomalies.total());
    // The simulated network is this workload's transport: every message and
    // every agent migration is one frame on a simulated link.
    t.frames += static_cast<double>(net.messages_sent + ag.migrations_started);
    t.frame_bytes += static_cast<double>(net.bytes_sent + ag.migration_bytes);
    t.agent_frames += static_cast<double>(ag.migrations_started);
    for (const marp::trace::SpanRecord& span : s.tracer->records()) {
      t.phases.add(static_cast<std::uint8_t>(span.kind),
                   static_cast<double>(span.end_us - span.start_us) * 1e-3);
    }
    t.spans_dropped += s.tracer->dropped();
    if (episode == 0) {
      t.make_view_ms = time_make_view_ms(kServers, w.replication_factor, w.lock_groups,
                                         &s.topology, spans);
      t.pick_read_us = time_read_quorum_picks(s.protocol, spans);
    }
    ++episode;
  }

  const std::vector<double> rtt = socket_round_trips(
      t.samples.probe_bodies,
      options.out_dir + "/probe-" + std::to_string(options.seed), spans, problems);
  t.rtt_p50_us = percentile(rtt, 50);
  t.rtt_p99_us = percentile(rtt, 99);
  t.spans_dropped += spans.dropped();

  for (const std::string& p : problems) r.fail(p);
  r.attempted = attempted;
  r.failed = r.correct ? attempted - succeeded : attempted;
  report_layers(t, r);
  r.note("traced_episodes", episode, "count");
  r.note("transport.rtt.samples", static_cast<double>(rtt.size()), "count");
  for (const auto& [layer, busy] : spans.busy_by_layer()) r.note("busy_s." + layer, busy, "s");

  std::filesystem::create_directories(options.out_dir);
  std::ofstream out(options.out_dir + "/spans-" + w.name + "-" +
                    std::to_string(options.seed) + ".json");
  spans.write_chrome(out);
}

}  // namespace

bool run_sim_workload(const Options& options, Report& report) {
  for (const SimWorkload& w : kWorkloads) {
    if (options.workload != w.name) continue;
    if (options.trace) {
      report_traced(w, options, report);
    } else {
      report_untraced(w, options, report);
    }
    return true;
  }
  return false;
}

}  // namespace perfbench
