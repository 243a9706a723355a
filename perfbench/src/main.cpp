// perfbench: host-time benchmark of the edge/cloud simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Repeats the workload's fixed job for --seconds (at least three times)
// and reports medians. --trace 0 prints the end-to-end metrics; --trace 1
// alternates traced and untraced jobs and prints the per-layer metrics.
// Every replication and merge is checked (workloads.hpp) and every job's
// statistics digest must match the first job's. The last line of stdout
// is one JSON object {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "cost/meter.hpp"
#include "des/simulation.hpp"
#include "digest.hpp"
#include "faults/fault.hpp"
#include "obs/breakdown.hpp"
#include "stats/quantiles.hpp"
#include "support/rng.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using hce::experiment::PointResult;
using hce::experiment::ReplicationOutput;
using hce::experiment::Scenario;
using perfbench::Tracer;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

constexpr int kMinJobs = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string trace_out;
};

Options parse(int argc, char** argv) {
  Options o;
  bool seen[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
      seen[0] = true;
    } else if (flag == "--seed") {
      o.seed = std::stoull(v);
      seen[1] = true;
    } else if (flag == "--seconds") {
      o.seconds = std::stod(v);
      seen[2] = true;
    } else if (flag == "--trace") {
      o.trace = std::stoi(v);
      seen[3] = true;
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(seen[0] && seen[1] && seen[2] && seen[3])) {
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--trace-out <file>]");
  }
  if (o.seconds <= 0.0 || (o.trace != 0 && o.trace != 1)) {
    throw std::invalid_argument("--seconds must be > 0 and --trace 0 or 1");
  }
  return o;
}

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Counts one job makes at the layer boundaries. Identical on every job
/// of a run: the simulation is deterministic in the seed.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::size_t peak_pending = 0;
  std::size_t slab_high_water = 0;
  std::size_t client_pending_high_water = 0;
  hce::cluster::ClientStats client;  ///< both sides summed
  std::size_t pool_high_water = 0;
  hce::state::CacheStats cache;  ///< both sides summed
  std::uint64_t pulls = 0;
  std::uint64_t records = 0;
  std::uint64_t outages = 0;

  void add(const ReplicationOutput& out) {
    events += out.events;
    client += out.edge_client;
    client += out.cloud_client;
    pool_high_water = std::max(
        {pool_high_water, out.edge_pool_high_water, out.cloud_pool_high_water});
    cache += out.edge_cache;
    cache += out.cloud_cache;
    pulls += out.edge_pulls.issued + out.cloud_pulls.issued;
  }
  void add(const hce::des::Simulation::Stats& s) {
    scheduled += s.scheduled;
    cancelled += s.cancelled;
    peak_pending = std::max(peak_pending, s.peak_size);
    slab_high_water = std::max(slab_high_water, s.slab_high_water);
    client_pending_high_water =
        std::max(client_pending_high_water, s.client_pending_high_water);
  }
};

struct Job {
  std::vector<PointResult> points;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  Counts counts;
  std::string digest;
  std::map<std::string, double> layer_s;  ///< traced jobs: seconds per span
  /// Host seconds -> nominal seconds, from the reference runs around it.
  double nominal = 1.0;
};

class Bench {
 public:
  explicit Bench(Workload w) : w_(std::move(w)) {}

  const Workload& workload() const { return w_; }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }
  Tracer& tracer() { return tracer_; }

  /// fig4_sweep's job as the paper's sweep runs it: run_sweep on one
  /// thread. Identical work to replication_job (run_point is the
  /// replication loop followed by the merge).
  Job sweep_job() {
    Job job;
    const double c0 = perfbench::process_cpu_seconds();
    const auto t0 = Clock::now();
    const int ops =
        static_cast<int>(w_.rates.size()) * (w_.sc.replications + 1);
    attempted_ += ops;
    try {
      job.points = hce::experiment::run_sweep(w_.sc, w_.rates, 1);
    } catch (const std::exception& e) {
      failed_ += ops;
      error(std::string("run_sweep threw: ") + e.what());
      return job;
    }
    job.wall_s = perfbench::seconds_since(t0);
    job.cpu_s = perfbench::process_cpu_seconds() - c0;
    for (const PointResult& p : job.points) {
      std::vector<std::string> errs;
      perfbench::check_point(w_, p, errs);
      record(errs);
    }
    job.digest = perfbench::digest_hex(job.points);
    return job;
  }

  /// The replication loop plus merge for every rate, with partition
  /// workers `workers`. With `traced`, spans are recorded around every
  /// call into the simulator and the layer probes run after each merge;
  /// probe time is excluded from the job's wall and CPU seconds.
  Job replication_job(int workers, bool traced) {
    Scenario sc = w_.sc;
    sc.partition_workers = workers;
    Tracer* tr = traced ? &tracer_ : nullptr;
    Job job;
    double probe_wall = 0.0;
    double probe_cpu = 0.0;
    const double c0 = perfbench::process_cpu_seconds();
    const auto t0 = Clock::now();
    const int root = tr != nullptr ? tr->open("job", -1) : -1;
    for (const hce::Rate rate : w_.rates) {
      std::vector<ReplicationOutput> reps;
      reps.reserve(static_cast<std::size_t>(sc.replications));
      for (int r = 0; r < sc.replications; ++r) {
        ++attempted_;
        hce::des::Simulation::Stats engine;
        try {
          reps.push_back(replicate(sc, rate, r, root, engine));
        } catch (const std::exception& e) {
          ++failed_;
          error(std::string("replication threw: ") + e.what());
          return job;
        }
        const bool sequential = sc.partitions == 1;
        std::vector<std::string> errs;
        perfbench::check_replication(w_, reps.back(),
                                     sequential ? &engine : nullptr, errs);
        record(errs);
        job.counts.add(reps.back());
        if (sequential) job.counts.add(engine);
      }
      ++attempted_;
      const int merge_span =
          tr != nullptr ? tr->open("experiment.merge", root) : -1;
      PointResult p;
      try {
        p = hce::experiment::merge_replications(sc, rate, reps);
      } catch (const std::exception& e) {
        ++failed_;
        error(std::string("merge threw: ") + e.what());
        return job;
      }
      if (tr != nullptr) tr->close(merge_span);
      std::vector<std::string> errs;
      perfbench::check_point(w_, p, errs);
      if (tr != nullptr) {
        const double pc0 = perfbench::process_cpu_seconds();
        const double pt0 = tr->now();
        probe(sc, reps, p, root, job.counts, errs);
        probe_wall += tr->now() - pt0;
        probe_cpu += perfbench::process_cpu_seconds() - pc0;
      }
      record(errs);
      job.points.push_back(std::move(p));
    }
    if (tr != nullptr) {
      tr->close(root);
      job.layer_s = tr->totals_under(root);
    }
    job.wall_s = perfbench::seconds_since(t0) - probe_wall;
    job.cpu_s = perfbench::process_cpu_seconds() - c0 - probe_cpu;
    job.digest = perfbench::digest_hex(job.points);
    return job;
  }

  /// Requires every job's digest to equal the first one's; a mismatch
  /// counts as one more attempted and failed operation.
  void expect_digest(const Job& job, const char* what) {
    if (job.digest.empty()) return;  // the job failed and was counted
    if (digest_.empty()) {
      digest_ = job.digest;
    } else if (job.digest != digest_) {
      ++attempted_;
      ++failed_;
      error(std::string("digest of ") + what + " job " + job.digest +
            " differs from " + digest_);
    }
  }
  const std::string& digest() const { return digest_; }

 private:
  /// One replication. On the sequential engine it runs through
  /// run_replication_on with a sim.run() callback (exactly what
  /// run_replication does) and leaves the engine counters in `engine`.
  ReplicationOutput replicate(const Scenario& sc, hce::Rate rate, int r,
                              int root, hce::des::Simulation::Stats& engine) {
    if (sc.partitions != 1) {
      // The partitioned engine exposes no calendar callback: build,
      // drain and collect stay inside one span.
      const int span =
          root < 0 ? -1
                   : tracer_.open("experiment.replication", root,
                                  ++replication_id_);
      ReplicationOutput out = hce::experiment::run_replication(sc, rate, r);
      if (span >= 0) tracer_.close(span);
      return out;
    }
    hce::des::Simulation sim;
    const bool traced = root >= 0;
    const std::uint64_t group = traced ? ++replication_id_ : 0;
    const int span =
        traced ? tracer_.open("experiment.replication", root, group) : -1;
    double drain_start = 0.0;
    double drain_end = 0.0;
    ReplicationOutput out = hce::experiment::detail::run_replication_on(
        sc, rate, r, sim, [&] {
          if (traced) drain_start = tracer_.now();
          sim.run();
          if (traced) drain_end = tracer_.now();
        });
    engine = sim.stats();
    if (!traced) return out;
    tracer_.close(span);
    const perfbench::Span s = tracer_.spans()[static_cast<std::size_t>(span)];
    tracer_.add("experiment.build", s.start, drain_start, span, group);
    tracer_.add("des.drain", drain_start, drain_end, span, group);
    tracer_.add("experiment.collect", drain_end, s.end, span, group);
    return out;
  }

  /// Times the layer calls the merge makes internally, on this point's
  /// replications, and checks each against the merged result.
  void probe(const Scenario& sc, const std::vector<ReplicationOutput>& reps,
             const PointResult& p, int root, Counts& counts,
             std::vector<std::string>& errs) {
    const std::vector<double> qs = {0.50, 0.95, 0.99};
    for (const bool edge : {true, false}) {
      const hce::experiment::SideStats& side = edge ? p.edge : p.cloud;
      std::vector<double> pooled;
      std::vector<const hce::des::RecordColumns*> records;
      hce::cost::Usage usage;
      for (const ReplicationOutput& r : reps) {
        const auto& lat = edge ? r.edge_latencies : r.cloud_latencies;
        pooled.insert(pooled.end(), lat.begin(), lat.end());
        records.push_back(edge ? &r.edge_records : &r.cloud_records);
        usage += edge ? r.edge_usage : r.cloud_usage;
      }
      if (!pooled.empty()) {
        const int s = tracer_.open("stats.quantiles", root);
        const std::vector<double> q = hce::stats::quantiles_nth(pooled, qs);
        tracer_.close(s);
        if (q[0] != side.p50 || q[1] != side.p95 || q[2] != side.p99) {
          errs.emplace_back("quantiles_nth disagrees with merged p50/p95/p99");
        }
      }
      if (sc.observe) {
        int s = tracer_.open("obs.collect", root);
        for (const hce::des::RecordColumns* rc : records) {
          if (rc->size() > 0) (void)hce::obs::collect_breakdown(*rc);
          counts.records += rc->size();
        }
        tracer_.close(s);
        s = tracer_.open("obs.merge", root);
        const hce::obs::LatencyBreakdown b =
            hce::obs::merge_breakdown(records);
        tracer_.close(s);
        perfbench::Digest mine;
        perfbench::Digest merged;
        mine.add(b);
        merged.add(side.breakdown);
        if (mine.value() != merged.value()) {
          errs.emplace_back("merge_breakdown disagrees with the merge");
        }
      }
      const int s = tracer_.open("cost.price", root);
      const hce::cost::Bill bill = hce::cost::price_usage(usage, sc.cost,
                                                          sc.price);
      tracer_.close(s);
      perfbench::Digest mine;
      perfbench::Digest merged;
      mine.add(hce::cost::SideCost{usage, bill});
      merged.add(side.cost);
      if (mine.value() != merged.value()) {
        errs.emplace_back("price_usage disagrees with the merged bill");
      }
    }
    if (!sc.faults.any()) return;
    // The runner draws each replication's trace from this substream.
    const hce::Time horizon = sc.warmup + sc.duration;
    for (std::size_t r = 0; r < reps.size(); ++r) {
      const hce::Rng rng = hce::Rng(sc.seed).stream("replication", r);
      const int s = tracer_.open("faults.generate", root);
      const hce::faults::FaultTrace trace = hce::faults::FaultTrace::generate(
          sc.faults, sc.num_sites, horizon, rng.stream("faults"));
      tracer_.close(s);
      for (int site = 0; site < sc.num_sites; ++site) {
        const auto su = static_cast<std::size_t>(site);
        counts.outages += trace.site_outages[su].size();
        if (trace.site_downtime_fraction(site) != reps[r].site_downtime[su]) {
          errs.emplace_back("regenerated fault trace differs from the run's");
        }
      }
    }
  }

  void record(const std::vector<std::string>& errs) {
    if (errs.empty()) return;
    ++failed_;
    for (const std::string& e : errs) error(e);
  }

  void error(const std::string& e) {
    if (errors_.size() < 20) errors_.push_back(e);
  }

  Workload w_;
  Tracer tracer_;
  std::uint64_t replication_id_ = 0;
  int attempted_ = 0;
  int failed_ = 0;
  std::string digest_;
  std::vector<std::string> errors_;
};

/// Host seconds of one workload set-up (scenario, site weights, plan),
/// timed in batches of at least a millisecond. The set-up takes from
/// microseconds to milliseconds and its host time swings by a third
/// between moments of one process, so an untraced run times one ~50 ms
/// block of set-ups next to every job and reports the median block.
class SetupTimer {
 public:
  SetupTimer(const Options& o, int workers) : o_(o), workers_(workers) {
    while (batch() < 1e-3) batch_ *= 2;
  }

  /// Median per-call host seconds over about 50 ms of batches.
  double block() {
    std::vector<double> per_call;
    const auto begin = Clock::now();
    while (per_call.size() < 3 || perfbench::seconds_since(begin) < 0.05) {
      per_call.push_back(batch() / batch_);
    }
    return median(per_call);
  }

 private:
  double batch() {
    const auto t0 = Clock::now();
    for (int i = 0; i < batch_; ++i) {
      const Workload w =
          perfbench::make_workload(o_.workload, o_.seed, workers_);
      if (w.rates.empty()) throw std::logic_error("workload without rates");
    }
    return perfbench::seconds_since(t0);
  }

  const Options& o_;
  int workers_;
  int batch_ = 1;
};

double measure_site_weights(const Workload& w) {
  if (w.sc.site_weights.empty()) return 0.0;
  std::vector<double> t;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    const std::vector<double> weights =
        perfbench::city_site_weights(w.sc.num_sites);
    t.push_back(perfbench::seconds_since(t0));
    if (weights.size() != w.weights.size()) {
      throw std::logic_error("site weights changed size");
    }
  }
  return median(t);
}

void print_workload(const Workload& w) {
  const Scenario& sc = w.sc;
  std::printf("# workload %s: seed=%" PRIu64
              " sites=%d servers_per_site=%d cloud_rtt=%g warmup=%g "
              "duration=%g replications=%d partitions=%d workers=%d "
              "observe=%d state=%d faults=%d retry=%d rates=",
              w.name.c_str(), sc.seed, sc.num_sites, sc.servers_per_site,
              sc.cloud_rtt, sc.warmup, sc.duration, sc.replications,
              sc.partitions, sc.partition_workers, sc.observe ? 1 : 0,
              sc.state.enabled ? 1 : 0, sc.faults.any() ? 1 : 0,
              sc.retry.enabled ? 1 : 0);
  for (std::size_t i = 0; i < w.rates.size(); ++i) {
    std::printf("%s%g", i == 0 ? "" : ",", w.rates[i]);
  }
  std::printf("\n");
  if (sc.site_weights.empty()) return;
  // Load picture of the skewed city at its single rate.
  const double total = w.rates.front() * sc.cloud_servers();
  int zero = 0;
  int saturated = 0;
  double saturated_share = 0.0;
  for (double x : w.weights) {
    if (x == 0.0) ++zero;
    if (x * total >= sc.mu * sc.servers_per_site) {
      ++saturated;
      saturated_share += x;
    }
  }
  const double hottest = *std::max_element(w.weights.begin(), w.weights.end());
  std::printf("# city: hottest site %.1fx the balanced share, %d zero-weight "
              "sites, %d sites past saturation carrying %.1f%% of the load, "
              "partition imbalance %.2f, shard shares",
              hottest * sc.num_sites, zero, saturated, 100.0 * saturated_share,
              perfbench::partition_imbalance(w.plan, w.weights));
  std::vector<double> shard(static_cast<std::size_t>(w.plan.partitions), 0.0);
  for (std::size_t s = 0; s < w.weights.size(); ++s) {
    shard[static_cast<std::size_t>(w.plan.site_partition[s])] += w.weights[s];
  }
  for (double x : shard) std::printf(" %.3f", x);
  std::printf("\n");
}

void print_job(const char* kind, const Job& j) {
  std::printf("# job %-16s wall %.4f s  cpu %.4f s  events %" PRIu64
              "  digest %s\n",
              kind, j.wall_s, j.cpu_s, j.counts.events, j.digest.c_str());
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, const char*>>>;

void print_result(bool correct, const Bench& b, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", std::max(1, b.attempted()),
              b.failed());
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m[i].first.c_str(), m[i].second.first,
                m[i].second.second);
  }
  std::printf("}}\n");
}

std::vector<double> column(const std::vector<Job>& jobs, double Job::*field) {
  std::vector<double> v;
  for (const Job& j : jobs) v.push_back(j.*field);
  return v;
}

double layer_median(const std::vector<Job>& jobs, const char* span) {
  std::vector<double> v;
  for (const Job& j : jobs) {
    const auto it = j.layer_s.find(span);
    v.push_back(it == j.layer_s.end() ? 0.0 : it->second);
  }
  return median(v);
}

/// True while fewer than kMinJobs rounds have run, or while one more round
/// of the average length so far still ends within `budget` seconds.
bool another_round(int rounds, double elapsed, double budget) {
  return rounds < kMinJobs || elapsed * (rounds + 1) / rounds <= budget;
}

/// The job an untraced run times: run_sweep on fig4_sweep, the
/// replication loop and merge elsewhere.
Job untraced_job(Bench& b, int workers) {
  if (b.workload().name == "fig4_sweep") return b.sweep_job();
  return b.replication_job(workers, false);
}

Metrics untraced_run(Bench& b, const Options& o) {
  const int workers = b.workload().sc.partition_workers;
  SetupTimer setup(o, workers);
  std::vector<double> setup_host;
  std::vector<double> reference;
  std::vector<Job> jobs;
  const auto begin = Clock::now();
  reference.push_back(perfbench::run_reference().seconds);
  while (another_round(static_cast<int>(jobs.size()),
                       perfbench::seconds_since(begin), o.seconds)) {
    setup_host.push_back(setup.block());
    jobs.push_back(untraced_job(b, workers));
    reference.push_back(perfbench::run_reference().seconds);
    jobs.back().nominal = 2.0 * perfbench::kNominalReferenceSeconds /
                          (reference.rbegin()[0] + reference.rbegin()[1]);
    print_job("timed", jobs.back());
    b.expect_digest(jobs.back(), "timed");
    if (b.failed() > 0) break;
  }
  std::uint64_t events = jobs.back().counts.events;
  if (b.workload().name == "fig4_sweep") {
    // Untimed: the replication path gives the event count run_sweep does
    // not report and the per-replication checks, and its digest must
    // equal run_sweep's.
    const Job rep = b.replication_job(workers, false);
    print_job("replication-path", rep);
    b.expect_digest(rep, "replication-path");
    events = rep.counts.events;
  }
  if (b.workload().sc.partitions > 1 && workers != 1) {
    // Untimed: fixed P must give bit-identical output at any worker count.
    const Job one = b.replication_job(1, false);
    print_job("one-worker", one);
    b.expect_digest(one, "one-worker");
  }
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> setup_nominal;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    wall.push_back(jobs[i].wall_s * jobs[i].nominal);
    cpu.push_back(jobs[i].cpu_s * jobs[i].nominal);
    setup_nominal.push_back(setup_host[i] * jobs[i].nominal);
  }
  std::printf("# host medians: setup %.4g s, wall %.4f s, cpu %.4f s, "
              "reference %.4f s; nominal factor %.4f\n",
              median(setup_host), median(column(jobs, &Job::wall_s)),
              median(column(jobs, &Job::cpu_s)), median(reference),
              median(column(jobs, &Job::nominal)));
  const double ok = 1.0 - ratio(b.failed(), std::max(1, b.attempted()));
  return {
      {"setup_s", {median(setup_nominal), "s"}},
      {"wall_s", {median(wall), "s"}},
      {"cpu_s", {median(cpu), "s"}},
      {"events_per_s",
       {ratio(static_cast<double>(events), median(wall)), "1/s"}},
      {"peak_rss_mb", {peak_rss_mb(), "MB"}},
      {"ok_frac", {ok, "frac"}},
  };
}

Metrics traced_run(Bench& b, const Options& o) {
  const Workload& w = b.workload();
  const int workers = w.sc.partition_workers;
  const bool scaling = w.sc.partitions > 1 && workers != 1;
  std::vector<Job> traced;
  std::vector<Job> plain;
  std::vector<Job> one;
  std::vector<double> reference;
  const auto begin = Clock::now();
  while (another_round(static_cast<int>(traced.size()),
                       perfbench::seconds_since(begin), o.seconds)) {
    reference.push_back(perfbench::run_reference().seconds);
    traced.push_back(b.replication_job(workers, true));
    print_job("traced", traced.back());
    b.expect_digest(traced.back(), "traced");
    plain.push_back(untraced_job(b, workers));
    print_job("untraced", plain.back());
    b.expect_digest(plain.back(), "untraced");
    if (scaling) {
      one.push_back(b.replication_job(1, false));
      print_job("one-worker", one.back());
      b.expect_digest(one.back(), "one-worker");
    }
    if (b.failed() > 0) break;
  }
  const Counts& c = traced.back().counts;
  const double traced_wall = median(column(traced, &Job::wall_s));
  const double plain_wall = median(column(plain, &Job::wall_s));
  const double drain = layer_median(traced, "des.drain");
  const double build = layer_median(traced, "experiment.build");
  const double collect = layer_median(traced, "experiment.collect");
  const double merge = layer_median(traced, "experiment.merge");
  std::printf("# accounting: drain %.4f + build %.4f + collect %.4f + "
              "merge %.4f = %.4f s; traced wall %.4f s, untraced wall "
              "%.4f s, tracing overhead %.4f s\n",
              drain, build, collect, merge, drain + build + collect + merge,
              traced_wall, plain_wall, traced_wall - plain_wall);
  const double scaling_value =
      scaling ? ratio(median(column(one, &Job::wall_s)), plain_wall) : 1.0;
  const auto n = [](std::uint64_t x) { return static_cast<double>(x); };
  return {
      {"des.drain_s", {drain, "s"}},
      {"des.ns_per_event", {1e9 * ratio(drain, n(c.events)), "ns"}},
      {"des.events", {n(c.events), "count"}},
      {"des.scheduled", {n(c.scheduled), "count"}},
      {"des.cancelled", {n(c.cancelled), "count"}},
      {"des.cancel_frac", {ratio(n(c.cancelled), n(c.scheduled)), "frac"}},
      {"des.peak_pending", {n(c.peak_pending), "count"}},
      {"des.slab_high_water", {n(c.slab_high_water), "count"}},
      {"experiment.replication_s",
       {layer_median(traced, "experiment.replication"), "s"}},
      {"experiment.build_s", {build, "s"}},
      {"experiment.collect_s", {collect, "s"}},
      {"experiment.merge_s", {merge, "s"}},
      {"experiment.partition_imbalance",
       {perfbench::partition_imbalance(w.plan, w.weights), "ratio"}},
      {"experiment.partition_scaling", {scaling_value, "ratio"}},
      {"stats.quantiles_s", {layer_median(traced, "stats.quantiles"), "s"}},
      {"obs.collect_s", {layer_median(traced, "obs.collect"), "s"}},
      {"obs.merge_s", {layer_median(traced, "obs.merge"), "s"}},
      {"obs.records", {n(c.records), "count"}},
      {"cluster.offered", {n(c.client.offered), "count"}},
      {"cluster.delivered", {n(c.client.delivered), "count"}},
      {"cluster.retries", {n(c.client.retries), "count"}},
      {"cluster.timeouts", {n(c.client.timeouts), "count"}},
      {"cluster.duplicates", {n(c.client.duplicates), "count"}},
      {"cluster.link_drops", {n(c.client.link_drops), "count"}},
      {"cluster.useful_frac",
       {ratio(n(c.client.delivered), n(c.client.offered + c.client.retries)),
        "frac"}},
      {"cluster.pool_high_water", {n(c.pool_high_water), "count"}},
      {"cluster.client_pending_high_water",
       {n(c.client_pending_high_water), "count"}},
      {"state.lookups", {n(c.cache.lookups), "count"}},
      {"state.hit_frac", {ratio(n(c.cache.hits), n(c.cache.lookups)), "frac"}},
      {"state.pulls", {n(c.pulls), "count"}},
      {"state.evictions", {n(c.cache.evictions), "count"}},
      {"faults.generate_s", {layer_median(traced, "faults.generate"), "s"}},
      {"faults.outages", {n(c.outages), "count"}},
      {"cost.price_s", {layer_median(traced, "cost.price"), "s"}},
      {"workload.site_weights_s", {measure_site_weights(w), "s"}},
      {"trace.wall_s", {traced_wall, "s"}},
      {"trace.overhead_s", {traced_wall - plain_wall, "s"}},
      {"host.nominal_factor",
       {perfbench::kNominalReferenceSeconds / median(reference), "ratio"}},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  // Partition workers of city_skewed. Two, not one per vCPU: the workers
  // meet at a barrier every lookahead window, so on a shared 4-vCPU host
  // one preempted vCPU stalls them all, and four workers spread wall_s
  // over five seeds by 0.81 of its median against 0.02 with two.
  const int workers = std::min(2, hardware_threads());
  std::printf("# machine: nproc=%d cpu=\"%s\" compiler=\"%s\" flags=\"%s\" "
              "build_type=%s\n",
              hardware_threads(), cpu_model().c_str(), PERFBENCH_COMPILER,
              PERFBENCH_FLAGS, PERFBENCH_BUILD_TYPE);
  Workload w;
  try {
    w = perfbench::make_workload(o.workload, o.seed, workers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  print_workload(w);
  std::fflush(stdout);

  Bench b(std::move(w));
  const Metrics metrics =
      o.trace == 0 ? untraced_run(b, o) : traced_run(b, o);
  std::printf("# digest %s %s\n", b.workload().name.c_str(),
              b.digest().c_str());
  for (const std::string& e : b.errors()) std::printf("# FAILED: %s\n", e.c_str());
  if (!o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    b.tracer().write_jsonl(out);
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
      return 2;
    }
  }
  print_result(b.failed() == 0, b, metrics);
  return 0;
}
