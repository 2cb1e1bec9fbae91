// The benchmark's workloads. Each runs as many fixed-size episodes as fit
// in --seconds (at least a few), each episode from its own seed derived from
// --seed, and folds them into one Report.
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// Simulator workloads ("contended-full", "partial-readmix"). False when
/// `options.workload` names neither.
bool run_sim_workload(const Options& options, Report& report);

/// Real-cluster workload ("cluster-private"): three RealNodes in this
/// process over Unix-domain SocketTransports.
void run_cluster_workload(const Options& options, Report& report);

}  // namespace perfbench
