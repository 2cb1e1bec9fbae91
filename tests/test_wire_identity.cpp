// Wire identity of the MARP hot path: a fixed contended scenario (N=16,
// gossip on, 4 lock groups, writes only, fixed seed) must produce exactly
// the same agent migration frames, in the same order and at the same virtual
// times, and the same commit log and final stores as the pinned digests.
//
// The agent-state containers (UAL, Locking Tables, Updated Lists) and the
// frame codec are free to change representation, but not a single serialized
// byte or scheduled event: migration latency is charged per byte, so any
// byte drift would also move the simulated schedule. The pinned values were
// recorded from the std::set/std::map implementation of those containers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "agent/platform.hpp"
#include "marp/protocol.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
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

/// Digests every migration frame with its start time, endpoints and bytes.
class FrameDigest final : public agent::PlatformObserver {
 public:
  explicit FrameDigest(sim::Simulator& sim) : sim_(sim) {}

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
  }

  std::uint64_t digest() const noexcept { return hash_.value(); }
  std::uint64_t frames() const noexcept { return frames_; }
  std::uint64_t frame_bytes() const noexcept { return frame_bytes_; }

 private:
  sim::Simulator& sim_;
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

Outcome run_contended(std::uint64_t seed) {
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
  FrameDigest frames(sim);
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

  EXPECT_EQ(out.frames, 1882u);
  EXPECT_EQ(out.frame_bytes, 1950767u);
  EXPECT_EQ(out.frame_digest, 0x42bd7883979bffcfULL);
  EXPECT_EQ(out.state_digest, 0x75b4f7d5e8d97b70ULL);
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
