#include "workload/generator.hpp"

#include "util/assert.hpp"

namespace marp::workload {

RequestGenerator::RequestGenerator(sim::Simulator& simulator, std::size_t servers,
                                   WorkloadConfig config, SubmitFn submit)
    : sim_(simulator),
      servers_(servers),
      config_(config),
      submit_(std::move(submit)),
      per_server_count_(servers, 0),
      burst_remaining_(servers, 0) {
  MARP_REQUIRE(servers_ >= 1);
  MARP_REQUIRE(config_.mean_interarrival_ms > 0.0);
  MARP_REQUIRE(config_.num_keys >= 1);
  MARP_REQUIRE(config_.writes_per_update >= 1);
  MARP_REQUIRE(submit_ != nullptr);
  arrival_rng_.reserve(servers_);
  mix_rng_.reserve(servers_);
  for (std::size_t s = 0; s < servers_; ++s) {
    arrival_rng_.push_back(sim_.rng_factory().stream("workload-arrival", s));
    mix_rng_.push_back(sim_.rng_factory().stream("workload-mix", s));
  }
  if (config_.zipf_s > 0.0 && config_.num_keys > 1) {
    zipf_ = std::make_unique<sim::ZipfDistribution>(config_.num_keys, config_.zipf_s);
  }
}

void RequestGenerator::start() {
  for (std::uint32_t s = 0; s < servers_; ++s) schedule_next(s);
}

double RequestGenerator::next_gap_ms(std::uint32_t server) {
  const double mean = config_.mean_interarrival_ms;
  switch (config_.arrivals) {
    case ArrivalProcess::Poisson:
      return arrival_rng_[server].exponential(mean);
    case ArrivalProcess::Uniform:
      return arrival_rng_[server].uniform(0.5 * mean, 1.5 * mean);
    case ArrivalProcess::Bursty: {
      const double intra = mean / 10.0;
      if (burst_remaining_[server] > 0) {
        --burst_remaining_[server];
        return arrival_rng_[server].exponential(intra);
      }
      burst_remaining_[server] = config_.burst_size - 1;
      // Inter-burst gap chosen so the long-run mean per request stays at
      // `mean`: B·mean = (B−1)·intra + gap.
      const double burst = static_cast<double>(config_.burst_size);
      const double gap = burst * mean - (burst - 1.0) * intra;
      return arrival_rng_[server].exponential(gap);
    }
  }
  return mean;
}

void RequestGenerator::schedule_next(std::uint32_t server) {
  if (per_server_count_[server] >= config_.max_requests_per_server) return;
  const sim::SimTime at = sim_.now() + sim::SimTime::millis(next_gap_ms(server));
  if (at > config_.duration) return;
  sim_.schedule_at(at, [this, server] { emit(server); });
}

std::string RequestGenerator::pick_key(std::uint32_t server) {
  if (config_.num_keys == 1) return "item";
  std::size_t index;
  if (zipf_) {
    index = (*zipf_)(mix_rng_[server]);
  } else {
    index = static_cast<std::size_t>(mix_rng_[server].bounded(config_.num_keys));
  }
  return "item-" + std::to_string(index);
}

void RequestGenerator::emit(std::uint32_t server) {
  // Draw order (key first, then mix) matches the original single-request
  // emitter so seeded runs with writes_per_update == 1 replay identically.
  const std::string first_key = pick_key(server);
  const bool is_write = mix_rng_[server].bernoulli(config_.write_fraction);
  // A write arrival stands for one logical update; with writes_per_update
  // > 1 it expands into a multi-key write-set submitted at the same instant
  // (keys drawn independently, so they may repeat).
  const std::size_t fan_out = is_write ? config_.writes_per_update : 1;
  // max_requests_per_server caps logical arrivals, not expanded writes:
  // one increment per emit, whatever the fan-out.
  ++per_server_count_[server];
  for (std::size_t i = 0; i < fan_out; ++i) {
    replica::Request request;
    request.id = next_id_++;
    request.origin = server;
    request.submitted = sim_.now();
    request.key = i == 0 ? first_key : pick_key(server);
    if (is_write) {
      request.kind = replica::RequestKind::Write;
      request.value = std::string("v").append(std::to_string(request.id));
      if (request.value.size() < config_.value_bytes) {
        request.value.resize(config_.value_bytes, 'x');
      }
      ++generated_writes_;
    } else {
      request.kind = replica::RequestKind::Read;
    }
    ++generated_;
    submit_(request);
  }
  schedule_next(server);
}

}  // namespace marp::workload
