// Host-speed reference for the benchmark's end-to-end time metrics.
//
// The benchmark runs on shared machines whose speed drifts by tens of
// percent over seconds to minutes, so raw host seconds of the same job
// spread too widely between runs to bound a regression. A run therefore
// interleaves its timed jobs with a fixed reference computation: a small
// M/M/1 event simulation written here (binary-heap calendar, exponential
// draws, a growing latency vector, a sort), which slows down with the
// host the way the simulator does. A job's host seconds are scaled by
// kNominalReferenceSeconds / (the mean of the reference runs just before
// and after it) and read as seconds on a host where the reference takes
// exactly kNominalReferenceSeconds. The reference is the benchmark's own code:
// no change to the simulator can move it.
#pragma once

namespace perfbench {

inline constexpr double kNominalReferenceSeconds = 0.040;

struct Reference {
  double seconds = 0.0;   ///< host seconds of one reference run
  double checksum = 0.0;  ///< median simulated latency; fixed work
};

Reference run_reference();

}  // namespace perfbench
