#include "calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "trace.hpp"

namespace perfbench {

Reference run_reference() {
  constexpr long kEvents = 400000;
  constexpr double kArrivalRate = 9.0;
  constexpr double kServiceRate = 13.0;
  const auto t0 = std::chrono::steady_clock::now();

  struct Event {
    double t;
    bool arrival;
    bool operator>(const Event& o) const { return t > o.t; }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> calendar;
  std::uint64_t x = 88172645463325252ull;  // xorshift64 state
  const auto exponential = [&x](double rate) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double u = (static_cast<double>(x >> 11) + 0.5) * 0x1.0p-53;
    return -std::log(u) / rate;
  };
  std::vector<double> arrivals;
  std::vector<double> latencies;
  std::size_t head = 0;
  bool busy = false;
  calendar.push({exponential(kArrivalRate), true});
  for (long n = 0; n < kEvents; ++n) {
    const Event e = calendar.top();
    calendar.pop();
    if (e.arrival) {
      arrivals.push_back(e.t);
      if (!busy) {
        busy = true;
        calendar.push({e.t + exponential(kServiceRate), false});
      }
      calendar.push({e.t + exponential(kArrivalRate), true});
    } else {
      latencies.push_back(e.t - arrivals[head++]);
      busy = head < arrivals.size();
      if (busy) calendar.push({e.t + exponential(kServiceRate), false});
    }
  }
  std::sort(latencies.begin(), latencies.end());
  return {seconds_since(t0), latencies[latencies.size() / 2]};
}

}  // namespace perfbench
