#include "layers.hpp"

#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>

#include "marp/priority.hpp"
#include "marp/update_agent.hpp"
#include "membership/placement.hpp"
#include "rpc/frame.hpp"
#include "trace/tracer.hpp"
#include "transport/endpoint.hpp"
#include "transport/socket_transport.hpp"

namespace perfbench {

namespace mc = marp::core;
namespace rpc = marp::rpc;

namespace {

/// Transfer bodies kept per run for the socket probe.
constexpr std::size_t kMaxProbeBodies = 256;

double micros(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

double per(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

}  // namespace

void PhaseSamples::add(std::uint8_t kind, double ms) {
  using marp::trace::SpanKind;
  switch (static_cast<SpanKind>(kind)) {
    case SpanKind::Session: session.push_back(ms); break;
    case SpanKind::Migration: migration.push_back(ms); break;
    case SpanKind::Visit: visit.push_back(ms); break;
    case SpanKind::LockWait: lock_wait.push_back(ms); break;
    case SpanKind::UpdateRound: update_round.push_back(ms); break;
    case SpanKind::CommitFanout: commit_fanout.push_back(ms); break;
    default: break;
  }
}

void report_layers(const LayerTotals& t, Report& r) {
  const LayerSamples& s = t.samples;
  r.set("sim.events_per_commit", per(t.events, t.sim_commits), "count");
  r.set("sim.ns_per_event", per(t.slice_ns, t.events), "ns");
  r.set("sim.peak_pending_events", static_cast<double>(t.peak_pending), "count");
  r.set("net.messages_per_commit", per(t.net_messages, t.commits), "count");
  r.set("net.bytes_per_commit", per(t.net_bytes, t.commits), "B");
  r.set("agent.migrations_per_commit", per(t.migrations, t.commits), "count");
  r.set("agent.bytes_per_migration", per(t.migration_bytes, t.migrations), "B");
  r.set("agent.encode_us", mean(s.agent_encode_us), "us");
  r.set("agent.decode_us", mean(s.agent_decode_us), "us");
  r.set("agent.peak_live", static_cast<double>(s.peak_live), "count");
  r.set("marp.decide_us", mean(s.decide_us), "us");
  r.set("marp.ual_entries", mean(s.ual_entries), "count");
  r.set("marp.lock_table_entries", mean(s.lock_table_entries), "count");
  r.set("marp.attempts_per_commit", per(t.attempts, t.commits), "count");
  r.set("marp.anomalies_per_commit", per(t.anomalies, t.commits), "count");
  r.set("membership.make_view_ms", t.make_view_ms, "ms");
  r.set("quorum.pick_read_us", t.pick_read_us, "us");
  r.set("rpc.encode_us", mean(s.rpc_encode_us), "us");
  r.set("rpc.decode_us", mean(s.rpc_decode_us), "us");
  r.set("rpc.agent_frame_bytes", mean(s.rpc_frame_bytes), "B");
  r.set("transport.frames_per_commit", per(t.frames, t.commits), "count");
  r.set("transport.bytes_per_commit", per(t.frame_bytes, t.commits), "B");
  r.set("transport.agent_frames_per_commit", per(t.agent_frames, t.commits), "count");
  const PhaseSamples& p = t.phases;
  r.set("marp.lock_wait_p50_ms", percentile(p.lock_wait, 50), "ms");
  r.set("marp.lock_wait_p95_ms", percentile(p.lock_wait, 95), "ms");
  r.set("marp.migration_p50_ms", percentile(p.migration, 50), "ms");
  r.set("marp.update_round_p50_ms", percentile(p.update_round, 50), "ms");
  r.set("transport.rtt_p50_us", t.rtt_p50_us, "us");
  r.set("transport.rtt_p99_us", t.rtt_p99_us, "us");
  r.set("transport.session_p50_ms", percentile(p.session, 50), "ms");
  r.set("transport.session_p95_ms", percentile(p.session, 95), "ms");
  r.set("trace.overhead_share", per(t.traced_cpu_s, t.untraced_cpu_s) - 1.0, "share");
  r.set("trace.spans_dropped", static_cast<double>(t.spans_dropped), "count");
  // Recorded beside the metrics: structurally constant on some workload
  // (visit = the modelled service time; fan-out is instant without reliable
  // commit; single-group sessions never requeue), so they cannot move.
  r.note("marp.visit_p50_ms", percentile(p.visit, 50), "ms");
  r.note("marp.commit_fanout_p50_ms", percentile(p.commit_fanout, 50), "ms");
  r.note("marp.requeues_per_commit", per(t.requeues, t.commits), "count");
  r.note("phase.migration.samples", static_cast<double>(p.migration.size()), "count");
  r.note("phase.lock_wait.samples", static_cast<double>(p.lock_wait.size()), "count");
  r.note("phase.session.samples", static_cast<double>(p.session.size()), "count");
  r.note("agent.sampled_frames", static_cast<double>(s.agent_encode_us.size()), "count");
  r.note("marp.decide_calls", static_cast<double>(s.decide_us.size()), "count");
}

void sample_resident_agents(marp::agent::AgentPlatform& platform,
                            mc::MarpProtocol& protocol, SpanLog& spans,
                            LayerSamples& out, std::vector<std::string>& problems) {
  out.peak_live = std::max(out.peak_live, platform.live_agents());
  const mc::MarpConfig& config = protocol.config();
  const bool membership = config.membership.enabled();
  for (marp::net::NodeId node = 0; node < platform.size(); ++node) {
    for (const marp::agent::MobileAgent* agent : platform.host(node).resident_agents()) {
      if (const auto* update = dynamic_cast<const mc::UpdateAgent*>(agent)) {
        // The same arguments UpdateAgent::evaluate passes for each group.
        std::size_t lt_entries = 0;
        for (const marp::shard::GroupId g : update->lock_groups()) {
          const auto it = update->lock_tables().find(g);
          const mc::LockTable empty;
          const mc::LockTable& table = it == update->lock_tables().end() ? empty : it->second;
          for (const auto& [server, snapshot] : table) lt_entries += snapshot.agents.size();
          const marp::quorum::QuorumSystem* gq =
              membership ? protocol.server(node).group_quorum(g) : protocol.decision_quorum();
          const std::size_t electorate =
              membership && gq != nullptr ? gq->size() : protocol.size();
          out.decide_us.push_back(micros(spans.time("marp", "decide", [&] {
            (void)mc::decide(table, update->updated_agents(), update->id(), electorate,
                             config.tie_break, config.votes, config.mutant, gq);
          })));
        }
        out.ual_entries.push_back(static_cast<double>(update->updated_agents().size()));
        out.lock_table_entries.push_back(static_cast<double>(lt_entries));
      }

      marp::serial::Bytes frame;
      out.agent_encode_us.push_back(micros(spans.time(
          "agent", "encode_frame", [&] { frame = platform.encode_frame(*agent); })));
      bool decoded = false;
      out.agent_decode_us.push_back(micros(spans.time("agent", "decode_frame", [&] {
        decoded = platform.decode_frame(frame) != nullptr;
      })));
      if (!decoded) problems.push_back("agent frame failed to decode: " + agent->id().to_string());

      // Token and sequence number unique across the run: the socket probe
      // matches acks by token.
      const std::uint64_t seq = out.rpc_frame_bytes.size() + 1;
      const marp::serial::Bytes body = rpc::encode_transfer_body(seq, frame);
      marp::serial::Bytes wire;
      const auto dst = static_cast<marp::net::NodeId>((node + 1) % platform.size());
      out.rpc_encode_us.push_back(micros(spans.time("rpc", "encode_frame", [&] {
        wire = rpc::encode_frame(rpc::FrameType::AgentTransfer, node, dst, seq, body);
      })));
      out.rpc_frame_bytes.push_back(static_cast<double>(wire.size()));
      rpc::Frame parsed;
      rpc::DecodeStatus status = rpc::DecodeStatus::Ok;
      rpc::TransferBody transfer;
      out.rpc_decode_us.push_back(micros(spans.time("rpc", "decode_frame", [&] {
        status = rpc::decode_frame(wire, &parsed);
        if (status == rpc::DecodeStatus::Ok) transfer = rpc::decode_transfer_body(parsed.body);
      })));
      if (status != rpc::DecodeStatus::Ok || transfer.frame != frame) {
        problems.push_back(std::string("rpc AgentTransfer round trip failed: ") +
                           rpc::decode_status_name(status));
      }
      // Keep a rolling window so the probe ships frames from the whole run,
      // not only the small ones of its first sample points.
      if (out.probe_bodies.size() < kMaxProbeBodies) {
        out.probe_bodies.push_back(body);
      } else {
        out.probe_bodies[seq % kMaxProbeBodies] = body;
      }
    }
  }
}

double time_read_quorum_picks(mc::MarpProtocol& protocol, SpanLog& spans) {
  const bool membership = protocol.config().membership.enabled();
  std::size_t calls = 0;
  bool found = true;
  const std::int64_t ns = spans.time("quorum", "pick_read_quorum sweep", [&] {
    if (!membership) {
      for (marp::net::NodeId node = 0; node < protocol.size(); ++node, ++calls) {
        found = protocol.quorum_system().pick_read_quorum({}, node).has_value() && found;
      }
      return;
    }
    const marp::core::MarpServer& server = protocol.server(0);
    for (marp::shard::GroupId g = 0; g < server.view().num_groups(); ++g) {
      const marp::membership::MappedQuorum* gq = server.group_quorum(g);
      for (const marp::net::NodeId prefer : gq->replicas()) {
        found = gq->pick_read_quorum({}, prefer).has_value() && found;
        ++calls;
      }
    }
  });
  return found && calls > 0 ? micros(ns) / static_cast<double>(calls) : 0.0;
}

double time_read_quorum_picks(const marp::quorum::QuorumSystem& quorum, SpanLog& spans) {
  bool found = true;
  const std::int64_t ns = spans.time("quorum", "pick_read_quorum sweep", [&] {
    for (marp::net::NodeId node = 0; node < quorum.size(); ++node) {
      found = quorum.pick_read_quorum({}, node).has_value() && found;
    }
  });
  return found ? micros(ns) / static_cast<double>(quorum.size()) : 0.0;
}

double time_make_view_ms(std::size_t servers, std::uint32_t replication_factor,
                         std::size_t groups, const marp::net::Topology* topology,
                         SpanLog& spans, int repeats) {
  std::vector<marp::net::NodeId> active(servers);
  for (std::size_t i = 0; i < servers; ++i) active[i] = static_cast<marp::net::NodeId>(i);
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    std::size_t placed = 0;
    ms.push_back(micros(spans.time("membership", "make_view", [&] {
                   placed = marp::membership::make_view(1, active, replication_factor,
                                                        groups, topology)
                                .num_groups();
                 })) *
                 1e-3);
    if (placed != groups) return 0.0;
  }
  return median(ms);
}

std::vector<double> socket_round_trips(const std::vector<marp::serial::Bytes>& bodies,
                                       const std::string& dir, SpanLog& spans,
                                       std::vector<std::string>& problems) {
  namespace tr = marp::transport;
  std::filesystem::create_directories(dir);
  const std::vector<tr::Endpoint> endpoints = tr::local_uds_cluster(dir, 2);
  // Declared before the transports: their receiver threads use these until
  // the transports are stopped, which their destructors also do.
  std::mutex mutex;
  std::condition_variable acked_cv;
  std::optional<std::uint64_t> acked;
  const auto make = [&](marp::net::NodeId local) {
    tr::SocketTransportConfig config;
    config.local = local;
    config.peers = endpoints;
    return std::make_unique<tr::SocketTransport>(std::move(config));
  };
  std::unique_ptr<tr::SocketTransport> sender = make(0);
  std::unique_ptr<tr::SocketTransport> receiver = make(1);

  receiver->start([&receiver](rpc::Frame&& frame, tr::NodeTransport::ReplyFn) {
    if (frame.type() != rpc::FrameType::AgentTransfer) return;
    receiver->send_agent_ack(0, rpc::decode_transfer_body(frame.body).token);
  });
  sender->start([&](rpc::Frame&& frame, tr::NodeTransport::ReplyFn) {
    if (frame.type() != rpc::FrameType::AgentTransferAck) return;
    std::lock_guard<std::mutex> lock(mutex);
    acked = rpc::decode_transfer_ack_body(frame.body);
    acked_cv.notify_one();
  });

  std::vector<double> rtt_us;
  for (const marp::serial::Bytes& body : bodies) {
    const std::uint64_t token = rpc::decode_transfer_body(body).token;
    bool ok = false;
    const std::int64_t ns = spans.time("transport", "agent transfer round trip", [&] {
      if (!sender->send_agent_frame(1, body)) return;
      std::unique_lock<std::mutex> lock(mutex);
      ok = acked_cv.wait_for(lock, std::chrono::seconds(2),
                             [&] { return acked == token; });
    });
    if (!ok) {
      problems.push_back("socket probe: transfer " + std::to_string(token) + " was not acked");
      break;
    }
    rtt_us.push_back(micros(ns));
  }
  sender->stop();
  receiver->stop();
  std::filesystem::remove_all(dir);
  return rtt_us;
}

}  // namespace perfbench
