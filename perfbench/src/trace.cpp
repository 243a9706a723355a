#include "trace.hpp"

#include <algorithm>
#include <ctime>
#include <iomanip>
#include <utility>

namespace perfbench {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double self_time(const std::vector<Span>& spans, int i) {
  const Span& p = spans[static_cast<std::size_t>(i)];
  std::vector<std::pair<double, double>> kids;
  for (const Span& s : spans) {
    if (s.parent != i) continue;
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) kids.emplace_back(lo, hi);
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double reach = p.start;
  for (const auto& [lo, hi] : kids) {
    const double from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return p.duration() - covered;
}

int Tracer::open(std::string name, int parent, std::uint64_t group) {
  const double t = now();
  return add(std::move(name), t, t, parent, group);
}

void Tracer::close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

int Tracer::add(std::string name, double start, double end, int parent,
                std::uint64_t group) {
  spans_.push_back(Span{std::move(name), start, end, parent, group});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::totals_under(int root) const {
  // Parents are always recorded before their children, so one forward
  // pass marks every descendant.
  std::vector<char> inside(spans_.size(), 0);
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    inside[i] = static_cast<int>(i) == root ||
                (s.parent >= 0 && inside[static_cast<std::size_t>(s.parent)]);
    if (inside[i]) totals[s.name] += s.duration();
  }
  return totals;
}

void Tracer::write_jsonl(std::ostream& os) const {
  os << std::setprecision(12);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start\":" << s.start << ",\"end\":" << s.end
       << ",\"parent\":" << s.parent << ",\"group\":" << s.group
       << ",\"self\":" << self_time(spans_, static_cast<int>(i)) << "}\n";
  }
}

}  // namespace perfbench
