// sqp_perfbench: one run of one benchmark workload (README.md).
//
//   sqp_perfbench --workload knn-disk --seed 7 --seconds 10 --trace 0
//                 --workdir DIR [--rate READS_PER_S]
//
// Prints a readable report on stderr and, as the last line of stdout,
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). A second-to-last stdout line `detail {...}` carries the
// report-only figures and provenance for run.py. Exits 1 when any answer
// was wrong or a conservation identity broke, 2 on bad arguments or a
// failed set-up.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

std::string Quote(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    if (c == '\n') {
      q += "\\n";
      continue;
    }
    q += c;
  }
  return q + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": " +
           Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: sqp_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--rate R]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--workdir") {
      cfg.workdir = value;
    } else if (flag == "--rate") {
      cfg.read_rate = std::atof(value.c_str());
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (cfg.workload.empty() || cfg.workdir.empty() || !(cfg.seconds > 0)) {
    return Usage("--workload, --workdir and a positive --seconds are needed");
  }

  auto run = perfbench::RunWorkload(cfg);
  if (!run.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 run.status().ToString().c_str());
    return 2;
  }
  const perfbench::RunReport& r = run.value();

  std::fprintf(stderr, "workload %s, seed %llu, %.1f s, trace %d\n",
               cfg.workload.c_str(),
               static_cast<unsigned long long>(cfg.seed), cfg.seconds,
               cfg.trace ? 1 : 0);
  for (const auto& [k, v] : r.info) {
    std::fprintf(stderr, "  %-34s %s\n", k.c_str(), v.c_str());
  }
  for (const auto* set : {&r.metrics, &r.extra}) {
    for (const perfbench::Metric& m : *set) {
      std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
  }
  std::fprintf(stderr, "  %-34s %llu of %llu\n", "failed",
               static_cast<unsigned long long>(r.failed),
               static_cast<unsigned long long>(r.attempted));
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "  ! %s\n", p.c_str());
  }

  std::string info = "{";
  for (size_t i = 0; i < r.info.size(); ++i) {
    if (i > 0) info += ", ";
    info += Quote(r.info[i].first) + ": " + Quote(r.info[i].second);
  }
  info += "}";
  std::printf("detail {\"info\": %s, \"extra\": %s}\n", info.c_str(),
              MetricsJson(r.extra).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      MetricsJson(r.metrics).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
