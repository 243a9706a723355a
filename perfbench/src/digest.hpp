// Digest of simulated statistics: every SideStats field of every sweep
// point, formatted as hexfloat (integers in decimal) and hashed with
// 64-bit FNV-1a. Two runs print the same digest iff every reported bit
// agrees. No expected digest is compiled in anywhere: the tier-1 goldens
// pin values, and a documented model change legitimately moves them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/runner.hpp"
#include "obs/breakdown.hpp"

namespace perfbench {

class Digest {
 public:
  void add(const char* label, double x);
  void add(const char* label, std::uint64_t x);
  void add(const hce::obs::ComponentStats& c);
  void add(const hce::obs::LatencyBreakdown& b);
  void add(const hce::cost::SideCost& c);
  void add(const hce::experiment::SideStats& s);
  void add(const hce::experiment::PointResult& p);

  std::uint64_t value() const { return h_; }
  /// Sixteen lowercase hex digits.
  std::string hex() const;

 private:
  void bytes(const char* s);
  std::uint64_t h_ = 14695981039346656037ull;  // FNV-1a offset basis
};

std::string digest_hex(const std::vector<hce::experiment::PointResult>& pts);

}  // namespace perfbench
