// Self-tests of the benchmark's own arithmetic: span self time, partition
// imbalance, the statistics digest and the host-speed reference. Exit
// code 0 iff every check holds.
#include <cmath>
#include <cstdio>
#include <vector>

#include "calibrate.hpp"
#include "digest.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "[ok]    " : "[FAILED]", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void self_time_on_a_hand_built_tree() {
  using perfbench::Span;
  // root [0,10): children [1,4) and [3,6) overlap, [9,12) runs past the
  // root's end; grandchild [1,2) belongs to the first child only.
  const std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1, 1}, {"a", 1.0, 4.0, 0, 1},
      {"b", 3.0, 6.0, 0, 1},      {"c", 9.0, 12.0, 0, 1},
      {"a.x", 1.0, 2.0, 1, 1},
  };
  // Children cover [1,6) and [9,10): 6 seconds of the root's 10.
  check(near(perfbench::self_time(spans, 0), 4.0),
        "self time = duration - union of clipped children");
  check(near(perfbench::self_time(spans, 1), 2.0),
        "self time subtracts only direct children");
  check(near(perfbench::self_time(spans, 4), 1.0),
        "a leaf's self time is its duration");

  perfbench::Tracer t;
  const int root = t.add("job", 0.0, 5.0, -1);
  const int rep = t.add("experiment.replication", 0.0, 4.0, root, 7);
  t.add("des.drain", 1.0, 3.0, rep, 7);
  t.add("des.drain", 3.0, 3.5, rep, 7);
  t.add("des.drain", 0.0, 9.0, -1);  // another root: not counted
  const auto totals = t.totals_under(root);
  check(near(totals.at("des.drain"), 2.5) &&
            near(totals.at("experiment.replication"), 4.0),
        "totals_under sums the spans below one root only");
}

void imbalance_on_hand_plans() {
  hce::experiment::PartitionPlan plan;
  plan.partitions = 2;
  plan.site_partition = {0, 0, 1, 1};
  check(near(perfbench::partition_imbalance(plan, {0.1, 0.2, 0.3, 0.4}), 1.4),
        "imbalance of shares 0.3 / 0.7 at P=2 is 1.4");
  check(near(perfbench::partition_imbalance(plan, {1.0, 1.0, 1.0, 1.0}), 1.0),
        "a balanced plan reads 1.0");

  const std::vector<double> city = perfbench::city_site_weights(1000);
  const auto city_plan = hce::experiment::make_partition_plan(1000, 4);
  const double imbalance = perfbench::partition_imbalance(city_plan, city);
  std::printf("         city_skewed imbalance at P=4: %.4f\n", imbalance);
  check(std::round(100.0 * imbalance) == 305.0,
        "city_skewed's contiguous plan at P=4 reads 3.05");
}

void digest_sees_one_ulp() {
  hce::experiment::PointResult p;
  p.rate_per_server = 6.0;
  p.edge.mean = 0.1185;
  p.cloud.mean = 0.1328;
  p.cloud.breakdown.wait.p99 = 0.25;
  const std::string base = perfbench::digest_hex({p});
  check(base == perfbench::digest_hex({p}), "the digest is a pure function");

  hce::experiment::PointResult q = p;
  q.edge.mean = std::nextafter(q.edge.mean, 1.0);
  check(perfbench::digest_hex({q}) != base, "one ulp in a mean moves it");
  q = p;
  q.cloud.breakdown.wait.p99 = std::nextafter(0.25, 0.0);
  check(perfbench::digest_hex({q}) != base,
        "one ulp in a breakdown quantile moves it");
  q = p;
  q.cloud.cost.bill.egress_bytes = std::nextafter(0.0, 1.0);
  check(perfbench::digest_hex({q}) != base, "one ulp in the bill moves it");
  q = p;
  q.edge.timeouts = 1;
  check(perfbench::digest_hex({q}) != base, "a counter moves it");
  q = p;
  std::swap(q.edge, q.cloud);
  check(perfbench::digest_hex({q}) != base, "swapping the sides moves it");
}

void reference_is_fixed_work() {
  const perfbench::Reference a = perfbench::run_reference();
  const perfbench::Reference b = perfbench::run_reference();
  check(a.checksum == b.checksum && a.checksum > 0.0,
        "the reference computation does the same work every run");
}

}  // namespace

int main() {
  self_time_on_a_hand_built_tree();
  imbalance_on_hand_plans();
  digest_sees_one_ulp();
  reference_is_fixed_work();
  std::printf("selftest: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
