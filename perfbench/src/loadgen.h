// The benchmark's own load generator (the `loadgen` layer of README.md).
//
// Two loops, one per kind of client population:
//
//   * RunOpenLoop — independent users. Operation i is due at a fixed
//     instant of a seeded Poisson schedule whatever the system is doing;
//     `lanes` sender threads (one connection each) take the next due
//     operation as soon as they are free. Latency is timed from the due
//     instant, so a stall that delays later sends is charged to them
//     (no coordinated omission), and how late each send left is kept as
//     the generator's lag. An operation whose lanes were all busy at
//     its due instant is marked; a generator that often cannot keep up
//     is reported as behind, never silently slowed down.
//   * RunClosedLoop — callers that each wait for their reply: every lane
//     sends its next operation the moment the previous one returns,
//     until the run time is up.
//
// The operation itself is a callback, so the generator knows nothing of
// k-NN, writes or sockets.

#ifndef SQP_PERFBENCH_LOADGEN_H_
#define SQP_PERFBENCH_LOADGEN_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// What one operation reports: whether it succeeded with a correct answer,
// and when (seconds since its send) the first and the last result arrived.
struct OpResult {
  bool ok = false;
  double first_s = 0.0;
  double total_s = 0.0;
};

// One operation as the generator saw it; times in seconds since the run
// start. For a closed loop `due_s` is when the lane became free.
struct OpSample {
  size_t index = 0;
  double due_s = 0.0;
  double send_s = 0.0;
  double first_s = 0.0;
  double end_s = 0.0;
  bool ok = false;
  // Open loop: no lane was free at the due instant, so the send waited
  // for one (lateness beyond timer slack).
  bool waited_for_lane = false;
};

// Runs operation `index` on sender lane `lane` (0 <= lane < lanes).
using OpFn = std::function<OpResult(size_t index, int lane)>;

// `count` due instants of a Poisson process of rate `rate_per_s` over
// [0, count / rate_per_s): sorted uniform draws, i.e. a Poisson process
// conditioned on its count, so every seed offers exactly the same load.
std::vector<double> PoissonSchedule(size_t count, double rate_per_s,
                                    uint64_t seed);

// Sends operation i at start + due[i] on the first free lane. Returns one
// sample per operation, in index order.
std::vector<OpSample> RunOpenLoop(Clock::time_point start,
                                  const std::vector<double>& due, int lanes,
                                  const OpFn& op);

// Each lane runs operations back to back until `seconds` have passed;
// operation indices are handed out in order across lanes. Samples come
// back in index order.
std::vector<OpSample> RunClosedLoop(Clock::time_point start, double seconds,
                                    int lanes, const OpFn& op);

// q-quantile of `values` as common::SampleSet computes it (0 when empty).
double Quantile(const std::vector<double>& values, double q);

}  // namespace perfbench

#endif  // SQP_PERFBENCH_LOADGEN_H_
