#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>

#include "common/stats.h"

namespace perfbench {
namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

OpSample Record(size_t index, double due_s, double send_s,
                const OpResult& r) {
  OpSample s;
  s.index = index;
  s.due_s = due_s;
  s.send_s = send_s;
  s.first_s = send_s + r.first_s;
  s.end_s = send_s + r.total_s;
  s.ok = r.ok;
  return s;
}

// Runs `lanes` threads of `body(lane, out)` and merges their samples in
// index order.
std::vector<OpSample> RunLanes(
    int lanes, const std::function<void(int, std::vector<OpSample>*)>& body) {
  std::vector<std::vector<OpSample>> per_lane(static_cast<size_t>(lanes));
  std::vector<std::thread> threads;
  threads.reserve(per_lane.size());
  for (int lane = 0; lane < lanes; ++lane) {
    threads.emplace_back(body, lane, &per_lane[static_cast<size_t>(lane)]);
  }
  for (std::thread& t : threads) t.join();
  std::vector<OpSample> all;
  for (auto& v : per_lane) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end(),
            [](const OpSample& a, const OpSample& b) {
              return a.index < b.index;
            });
  return all;
}

}  // namespace

std::vector<double> PoissonSchedule(size_t count, double rate_per_s,
                                    uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double span = static_cast<double>(count) / rate_per_s;
  std::vector<double> due(count);
  for (double& d : due) d = span * u(rng);
  std::sort(due.begin(), due.end());
  return due;
}

std::vector<OpSample> RunOpenLoop(Clock::time_point start,
                                  const std::vector<double>& due, int lanes,
                                  const OpFn& op) {
  std::atomic<size_t> next{0};
  return RunLanes(lanes, [&](int lane, std::vector<OpSample>* out) {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= due.size()) return;
      const bool waited = SecondsSince(start) > due[i];
      // Timer slack (tens of microseconds) shows up as send lag.
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due[i])));
      const double send_s = SecondsSince(start);
      out->push_back(Record(i, due[i], send_s, op(i, lane)));
      out->back().waited_for_lane = waited;
    }
  });
}

std::vector<OpSample> RunClosedLoop(Clock::time_point start, double seconds,
                                    int lanes, const OpFn& op) {
  std::atomic<size_t> next{0};
  return RunLanes(lanes, [&](int lane, std::vector<OpSample>* out) {
    double free_s = SecondsSince(start);
    while (free_s < seconds) {
      const size_t i = next.fetch_add(1);
      const double send_s = SecondsSince(start);
      out->push_back(Record(i, free_s, send_s, op(i, lane)));
      free_s = SecondsSince(start);
    }
  });
}

double Quantile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  sqp::common::SampleSet set;
  for (double v : values) set.Add(v);
  return set.Quantile(q);
}

}  // namespace perfbench
