#include "digest.hpp"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

void Digest::bytes(const char* s) {
  for (; *s != '\0'; ++s) {
    h_ ^= static_cast<unsigned char>(*s);
    h_ *= 1099511628211ull;  // FNV-1a prime
  }
}

void Digest::add(const char* label, double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "=%a;", x);
  bytes(label);
  bytes(buf);
}

void Digest::add(const char* label, std::uint64_t x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "=%" PRIu64 ";", x);
  bytes(label);
  bytes(buf);
}

void Digest::add(const hce::obs::ComponentStats& c) {
  add("n", c.summary.count());
  add("mean", c.summary.mean());
  add("var", c.summary.variance());
  add("min", c.summary.min());
  add("max", c.summary.max());
  add("p50", c.p50);
  add("p95", c.p95);
  add("p99", c.p99);
  add("ci", c.mean_ci_half_width);
}

void Digest::add(const hce::obs::LatencyBreakdown& b) {
  add(b.network);
  add(b.wait);
  add(b.service);
  add(b.retry_penalty);
  add(b.state_pull);
  add("bd_samples", b.samples);
}

void Digest::add(const hce::cost::SideCost& c) {
  const hce::cost::Usage& u = c.usage;
  add("edge_busy", u.edge.busy_seconds);
  add("edge_prov", u.edge.provisioned_seconds);
  add("cloud_busy", u.cloud.busy_seconds);
  add("cloud_prov", u.cloud.provisioned_seconds);
  add("site_s", u.edge_site_seconds);
  add("elapsed", u.elapsed_seconds);
  add("req_sends", u.wan.request_sends);
  add("resp_sends", u.wan.response_sends);
  add("pull_req_sends", u.wan.pull_request_sends);
  add("pull_resp_sends", u.wan.pull_response_sends);
  add("rented", u.rented_server_intervals);
  const hce::cost::Bill& b = c.bill;
  add("edge_usd", b.edge_server_dollars);
  add("cloud_usd", b.cloud_server_dollars);
  add("site_usd", b.site_rental_dollars);
  add("egress_usd", b.egress_dollars);
  add("interval_usd", b.rental_interval_dollars);
  add("total_usd", b.total_dollars);
  add("usd_per_h", b.dollars_per_hour);
  add("egress_bytes", b.egress_bytes);
}

void Digest::add(const hce::experiment::SideStats& s) {
  add("mean", s.mean);
  add("p50", s.p50);
  add("p95", s.p95);
  add("p99", s.p99);
  add("ci", s.mean_ci_half_width);
  add("util", s.utilization);
  add("samples", s.samples);
  add("dead", s.dead_replications);
  add(s.breakdown);
  add("offered", s.offered);
  add("retries", s.retries);
  add("timeouts", s.timeouts);
  add("timeout_rate", s.timeout_rate);
  add("availability", s.availability);
  add("lookups", s.cache_lookups);
  add("hits", s.cache_hits);
  add("misses", s.cache_misses);
  add("pulls", s.state_pulls);
  add("pulls_abandoned", s.pulls_abandoned);
  add("hit_rate", s.cache_hit_rate);
  add(s.cost);
}

void Digest::add(const hce::experiment::PointResult& p) {
  add("rate", p.rate_per_server);
  add("rho", p.rho_offered);
  add("redirects", p.edge_redirects);
  add("failovers", p.edge_failovers);
  bytes("edge:");
  add(p.edge);
  bytes("cloud:");
  add(p.cloud);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

std::string digest_hex(const std::vector<hce::experiment::PointResult>& pts) {
  Digest d;
  for (const hce::experiment::PointResult& p : pts) d.add(p);
  return d.hex();
}

}  // namespace perfbench
