// The benchmark's three workloads and the output checks each must pass.
//
// Every input is made from the benchmark's --seed; the program receives
// only the generated Scenario. See README.md for why each workload exists
// and which layer metric should move which end-to-end metric.
#pragma once

#include <string>
#include <vector>

#include "des/simulation.hpp"
#include "experiment/partitioned.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  hce::experiment::Scenario sc;
  std::vector<hce::Rate> rates;
  /// Partition plan of sc (one shard when sc.partitions == 1).
  hce::experiment::PartitionPlan plan;
  /// Normalized per-site load shares (balanced when sc.site_weights is
  /// empty).
  std::vector<double> weights;
};

/// Builds workload `name` ("fig4_sweep", "stateful_faults" or
/// "city_skewed") for `seed`; `workers` sets the partition worker threads
/// of the partitioned workload. Throws std::invalid_argument on an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       int workers);

/// Site popularity of the 1000-site city: the spatial lognormal load
/// field of a 40 x 25 hex grid times the per-site weights of an
/// AzureSynth function->app->site assignment, normalized. A fixed city:
/// the map does not depend on the benchmark seed.
std::vector<double> city_site_weights(int sites);

/// P x the largest shard's share of the total weight: 1.0 for a perfectly
/// balanced plan, P when one shard carries everything.
double partition_imbalance(const hce::experiment::PartitionPlan& plan,
                           const std::vector<double>& weights);

/// Appends one message per identity that `out` violates. `engine` holds
/// the replication's Simulation::stats(), or null where the partitioned
/// engine keeps them.
void check_replication(const Workload& w,
                       const hce::experiment::ReplicationOutput& out,
                       const hce::des::Simulation::Stats* engine,
                       std::vector<std::string>& errors);

/// Appends one message per check that sweep point `p` fails.
void check_point(const Workload& w, const hce::experiment::PointResult& p,
                 std::vector<std::string>& errors);

}  // namespace perfbench
