// Wire identity of the MARP hot path: a fixed contended scenario (N=16,
// gossip on, 4 lock groups, writes only, fixed seed) must produce exactly
// the same agent migration frames, in the same order and at the same virtual
// times, and the same commit log and final stores as the pinned digests.
//
// Migration latency is charged per byte, so the frame bytes also fix the
// simulated schedule: any change to what an agent carries or how it is
// coded moves these digests, and must re-pin them on purpose. They were last
// pinned when agents began to carry done-free Locking Tables (no snapshot
// lists a member of the carrier's UAL) in a dictionary-coded frame.
//
// The same run also checks the done-free invariant on every decoded frame,
// and feeds frames it captured to a seeded mutation loop: bit flips,
// truncations, length-field lies and splices must each decode or be a typed
// serial::DecodeError rejection, never anything else.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "agent/platform.hpp"
#include "marp/protocol.hpp"
#include "marp/update_agent.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace marp {
namespace {

constexpr std::size_t kServers = 16;

/// FNV-1a, 64-bit.
class Fnv1a64 {
 public:
  void bytes(const std::uint8_t* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= data[i];
      hash_ *= 0x100000001B3ULL;
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      const auto byte = static_cast<std::uint8_t>(v >> (8 * i));
      bytes(&byte, 1);
    }
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Called with every migration frame and the platform that encoded it.
using FrameSink = std::function<void(const agent::AgentPlatform&, const serial::Bytes&)>;

/// Digests every migration frame with its start time, endpoints and bytes.
class FrameDigest final : public agent::PlatformObserver {
 public:
  FrameDigest(sim::Simulator& sim, const agent::AgentPlatform& platform, FrameSink sink)
      : sim_(sim), platform_(platform), sink_(std::move(sink)) {}

  void on_migration_started(const agent::AgentId& /*id*/, net::NodeId from,
                            net::NodeId to, std::size_t bytes) override {
    hash_.u64(static_cast<std::uint64_t>(sim_.now().as_micros()));
    hash_.u64(from);
    hash_.u64(to);
    hash_.u64(bytes);
  }
  void on_migration_frame(const agent::AgentId& /*id*/,
                          const serial::Bytes& frame) override {
    hash_.u64(frame.size());
    hash_.bytes(frame.data(), frame.size());
    ++frames_;
    frame_bytes_ += frame.size();
    if (sink_) sink_(platform_, frame);
  }

  std::uint64_t digest() const noexcept { return hash_.value(); }
  std::uint64_t frames() const noexcept { return frames_; }
  std::uint64_t frame_bytes() const noexcept { return frame_bytes_; }

 private:
  sim::Simulator& sim_;
  const agent::AgentPlatform& platform_;
  FrameSink sink_;
  Fnv1a64 hash_;
  std::uint64_t frames_ = 0;
  std::uint64_t frame_bytes_ = 0;
};

core::MarpConfig contended_config() {
  core::MarpConfig config;
  config.num_lock_groups = 4;
  config.gossip = true;
  return config;
}

workload::WorkloadConfig contended_workload() {
  workload::WorkloadConfig config;
  config.mean_interarrival_ms = 20.0;
  config.write_fraction = 1.0;
  config.num_keys = 64;
  config.duration = sim::SimTime::seconds(2);
  config.max_requests_per_server = 8;
  return config;
}

struct Outcome {
  std::uint64_t frame_digest = 0;
  std::uint64_t frames = 0;
  std::uint64_t frame_bytes = 0;
  std::uint64_t state_digest = 0;  ///< commit log + every final store
  std::size_t commits = 0;
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
};

Outcome run_contended(std::uint64_t seed, FrameSink sink = {}) {
  sim::Simulator sim(seed);
  net::Topology topology = net::make_lan_mesh(kServers, sim::SimTime::millis(2));
  net::Network network(sim, topology,
                       std::make_unique<net::LanLatency>(topology.delays, 500.0, 12.5));
  agent::AgentPlatform platform(network);
  core::MarpProtocol protocol(network, platform, contended_config());
  std::uint64_t completed = 0;
  protocol.set_outcome_handler([&](const replica::Outcome&) { ++completed; });
  workload::RequestGenerator generator(
      sim, kServers, contended_workload(),
      [&](const replica::Request& r) { protocol.submit(r); });
  FrameDigest frames(sim, platform, std::move(sink));
  platform.set_observer(&frames);
  generator.start();
  sim.run(sim::SimTime::seconds(60));

  Outcome out;
  out.frame_digest = frames.digest();
  out.frames = frames.frames();
  out.frame_bytes = frames.frame_bytes();
  out.commits = protocol.commit_log().size();
  out.generated = generator.generated();
  out.completed = completed;

  Fnv1a64 state;
  for (const core::CommitRecord& record : protocol.commit_log()) {
    state.str(record.agent.to_string());
    state.u64(static_cast<std::uint64_t>(record.committed.as_micros()));
    for (const core::CommitEntry& e : record.entries) {
      state.str(e.key);
      state.u64(e.group);
      state.u64(static_cast<std::uint64_t>(e.version.time_us));
      state.u64(e.version.writer);
    }
  }
  for (net::NodeId node = 0; node < kServers; ++node) {
    const replica::VersionedStore& store = protocol.server(node).store();
    std::vector<std::string> keys = store.keys();
    std::sort(keys.begin(), keys.end());
    for (const std::string& key : keys) {
      const auto value = store.read(key);
      state.u64(node);
      state.str(key);
      state.str(value->value);
      state.u64(static_cast<std::uint64_t>(value->version.time_us));
      state.u64(value->version.writer);
    }
  }
  out.state_digest = state.value();
  return out;
}

TEST(WireIdentity, ContendedScenarioMatchesPinnedDigests) {
  const Outcome out = run_contended(20261019);
  // Sanity: the scenario really ran to completion under contention.
  EXPECT_EQ(out.generated, kServers * 8);
  EXPECT_EQ(out.completed, out.generated);
  EXPECT_GT(out.commits, 0u);
  EXPECT_GT(out.frames, out.commits);

  // Before done-free, dictionary-coded frames: 1882 frames, 1950767 B.
  EXPECT_EQ(out.frames, 1871u);
  EXPECT_EQ(out.frame_bytes, 985936u);
  EXPECT_EQ(out.frame_digest, 0xc5768184075508feULL);
  EXPECT_EQ(out.state_digest, 0x54fac9a84d1a3486ULL);
}

TEST(DoneFree, NoCarriedSnapshotListsAUalMemberAtAnyMigration) {
  std::uint64_t frames = 0;
  std::uint64_t carried_entries = 0;
  std::uint64_t violations = 0;
  const Outcome out = run_contended(20261019, [&](const agent::AgentPlatform& platform,
                                                  const serial::Bytes& frame) {
    const auto agent = platform.decode_frame(frame);
    const auto* update = dynamic_cast<const core::UpdateAgent*>(agent.get());
    if (update == nullptr) return;
    ++frames;
    for (const auto& [group, servers] : update->lock_tables()) {
      for (const auto& [node, snapshot] : servers) {
        for (const agent::AgentId& id : snapshot.agents) {
          ++carried_entries;
          if (update->updated_agents().contains(id)) ++violations;
        }
      }
    }
  });
  EXPECT_EQ(out.completed, out.generated);
  EXPECT_EQ(frames, out.frames);
  EXPECT_GT(carried_entries, frames);  // the tables really were carried
  EXPECT_EQ(violations, 0u);
}

/// Mutants of `frame`: one of a bit flip, a truncation, a length-field lie
/// (a large varint written over a random position) or a splice with
/// `other`. Half of them mutate the agent state inside an honest frame
/// header, so the state decoder sees the damage rather than the framing.
serial::Bytes mutate(const serial::Bytes& frame, const serial::Bytes& other, sim::Rng& rng) {
  serial::Reader header(frame);
  const std::string type = header.str();
  const agent::AgentId id = agent::AgentId::deserialize(header);
  const bool inner = rng.bounded(2) == 0;
  serial::Bytes bytes = inner ? header.raw() : frame;
  if (bytes.empty()) bytes.push_back(0);
  switch (rng.bounded(4)) {
    case 0: {
      const std::size_t flips = 1 + rng.bounded(4);
      for (std::size_t k = 0; k < flips; ++k) {
        bytes[rng.bounded(bytes.size())] ^= static_cast<std::uint8_t>(1u << rng.bounded(8));
      }
      break;
    }
    case 1:
      bytes.resize(rng.bounded(bytes.size()));
      break;
    case 2: {
      serial::Writer lie;
      lie.varint(std::uint64_t{1} << (7 + rng.bounded(57)));
      const std::size_t at = rng.bounded(bytes.size());
      bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at));
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), lie.bytes().begin(),
                   lie.bytes().end());
      break;
    }
    default: {
      const std::size_t keep = rng.bounded(bytes.size());
      const std::size_t from = rng.bounded(other.size());
      bytes.resize(keep);
      bytes.insert(bytes.end(), other.begin() + static_cast<std::ptrdiff_t>(from), other.end());
      break;
    }
  }
  if (!inner) return bytes;
  serial::Writer w;
  w.str(type);
  id.serialize(w);
  w.raw(bytes);
  return w.take();
}

TEST(HostileAgentFrame, SeededMutantsOfContendedFramesAreTypedRejections) {
  // Capture every 16th migration frame of the contended run: agents early
  // and late in their tours, with few and many carried snapshots.
  std::vector<serial::Bytes> captured;
  std::uint64_t seen = 0;
  const Outcome out = run_contended(7, [&](const agent::AgentPlatform&, const serial::Bytes& frame) {
    if (seen++ % 16 == 0) captured.push_back(frame);
  });
  ASSERT_GT(out.commits, 0u);
  ASSERT_GE(captured.size(), 32u);

  // A platform to decode with (the decoder needs only the registry).
  sim::Simulator sim(1);
  net::Topology topology = net::make_lan_mesh(kServers, sim::SimTime::millis(2));
  net::Network network(sim, topology,
                       std::make_unique<net::LanLatency>(topology.delays, 500.0, 12.5));
  agent::AgentPlatform platform(network);
  core::MarpProtocol protocol(network, platform, contended_config());

  sim::Rng rng(0x5EED);
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (int k = 0; k < 4000; ++k) {
    const serial::Bytes& frame = captured[rng.bounded(captured.size())];
    const serial::Bytes& other = captured[rng.bounded(captured.size())];
    const serial::Bytes mutant = mutate(frame, other, rng);
    try {
      const auto agent = platform.decode_frame(mutant);
      // Whatever decodes must also encode again.
      EXPECT_FALSE(platform.encode_frame(*agent).empty());
      ++decoded;
    } catch (const serial::DecodeError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << k << ": untyped rejection: " << e.what();
    }
  }
  EXPECT_EQ(decoded + rejected, 4000u);
  EXPECT_GT(rejected, 1000u);  // the loop reaches the decoder's rejections
}

TEST(WireIdentity, SameSeedReproducesTheDigests) {
  const Outcome a = run_contended(7);
  const Outcome b = run_contended(7);
  EXPECT_EQ(a.frame_digest, b.frame_digest);
  EXPECT_EQ(a.state_digest, b.state_digest);
  EXPECT_EQ(a.frames, b.frames);
}

}  // namespace
}  // namespace marp
