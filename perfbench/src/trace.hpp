// In-memory span tracer for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around the calls it
// makes into the simulator's public functions; nothing inside src/ reads
// a clock. Spans stay in memory and are written once, when the run ends.
// Single-threaded: only the benchmark's main thread records spans (the
// partitioned engine's worker threads run inside one recorded span).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since `since`.
inline double seconds_since(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

/// Process CPU seconds (all threads).
double process_cpu_seconds();

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's epoch
  double end = 0.0;
  int parent = -1;          ///< index of the causing span; -1 for a root
  std::uint64_t group = 0;  ///< shared by every span of one replication
  double duration() const { return end - start; }
};

/// Self time of spans[i]: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once,
/// children clipped to the parent's interval).
double self_time(const std::vector<Span>& spans, int i);

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// Seconds since the tracer's epoch.
  double now() const { return seconds_since(epoch_); }

  /// Opens a span starting now; close it with close(id).
  int open(std::string name, int parent, std::uint64_t group = 0);
  void close(int id);
  /// Records an already finished span.
  int add(std::string name, double start, double end, int parent,
          std::uint64_t group = 0);

  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration per span name over the spans that descend from
  /// `root` (the root itself included).
  std::map<std::string, double> totals_under(int root) const;

  /// Writes every span, one JSON object per line, with its self time.
  void write_jsonl(std::ostream& os) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
