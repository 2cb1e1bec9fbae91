// Per-layer measurement by replay: at sample points of a traced run the
// benchmark takes the live protocol state (every resident agent) and feeds
// it back through the public functions of one layer at a time — decide(),
// the agent frame codec, the rpc frame codec, quorum picks, view
// construction, a real socket round trip — timing each call from outside.
// Nothing here changes the state of the run being sampled.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "agent/platform.hpp"
#include "common.hpp"
#include "marp/protocol.hpp"
#include "quorum/quorum.hpp"
#include "serial/byte_buffer.hpp"

namespace perfbench {

/// What replaying the resident agents measured: one entry per call or agent.
struct LayerSamples {
  std::vector<double> decide_us;          ///< one per (update agent, group)
  std::vector<double> agent_encode_us;    ///< AgentPlatform::encode_frame
  std::vector<double> agent_decode_us;    ///< AgentPlatform::decode_frame
  std::vector<double> rpc_encode_us;      ///< rpc::encode_frame(AgentTransfer)
  std::vector<double> rpc_decode_us;      ///< rpc::decode_frame + transfer body
  std::vector<double> rpc_frame_bytes;    ///< encoded AgentTransfer frame size
  std::vector<double> ual_entries;        ///< per resident update agent
  std::vector<double> lock_table_entries; ///< per resident update agent
  std::size_t peak_live = 0;
  /// Transfer bodies kept for the socket round-trip probe (bounded).
  std::vector<marp::serial::Bytes> probe_bodies;
};

/// Durations of the library Tracer's phase spans, milliseconds.
struct PhaseSamples {
  std::vector<double> session, migration, visit, lock_wait, update_round, commit_fanout;
  /// File one finished span of trace::SpanKind `kind` (other kinds ignored).
  void add(std::uint8_t kind, double ms);
};

/// Everything the traced run of a workload measured, summed over its traced
/// episodes; report_layers turns it into the per-layer metrics.
struct LayerTotals {
  double commits = 0;
  double events = 0;                  ///< simulator events, untraced twin (or reference twin) …
  double sim_commits = 0;             ///< … while this many sessions committed …
  double slice_ns = 0;                ///< … and their Simulator::run slice wall time
  std::size_t peak_pending = 0;       ///< Simulator::pending_events between slices
  double net_messages = 0, net_bytes = 0;
  double migrations = 0, migration_bytes = 0;
  double attempts = 0, requeues = 0, anomalies = 0;
  double frames = 0, frame_bytes = 0, agent_frames = 0;
  LayerSamples samples;
  PhaseSamples phases;
  double make_view_ms = 0;
  double pick_read_us = 0;
  double rtt_p50_us = 0, rtt_p99_us = 0;
  double untraced_cpu_s = 0, traced_cpu_s = 0;
  std::uint64_t spans_dropped = 0;
};

/// Set every per-layer metric, in the order BENCHMARK.json lists them.
void report_layers(const LayerTotals& totals, Report& report);

/// Replay every agent resident on `platform` through decide() (update
/// agents, each of their lock groups, with the arguments the agent itself
/// uses), the agent codec and the rpc codec. Codec round trips that fail
/// are reported in `problems`.
void sample_resident_agents(marp::agent::AgentPlatform& platform,
                            marp::core::MarpProtocol& protocol, SpanLog& spans,
                            LayerSamples& out, std::vector<std::string>& problems);

/// Mean microseconds per pick_read_quorum call over every (group, preferred
/// replica) pair of the deployment's read quorums; one span per sweep.
double time_read_quorum_picks(marp::core::MarpProtocol& protocol, SpanLog& spans);
/// Same, for a plain geometry over `n` servers (the cluster's majority).
double time_read_quorum_picks(const marp::quorum::QuorumSystem& quorum, SpanLog& spans);

/// Median milliseconds of membership::make_view over `repeats` calls.
double time_make_view_ms(std::size_t servers, std::uint32_t replication_factor,
                         std::size_t groups, const marp::net::Topology* topology,
                         SpanLog& spans, int repeats = 21);

/// Ship each transfer body as an AgentTransfer frame between two real
/// SocketTransports over Unix-domain sockets in `dir` and time transfer →
/// ack. Returns the round trips in microseconds; failures go to `problems`.
std::vector<double> socket_round_trips(const std::vector<marp::serial::Bytes>& bodies,
                                       const std::string& dir, SpanLog& spans,
                                       std::vector<std::string>& problems);

}  // namespace perfbench
