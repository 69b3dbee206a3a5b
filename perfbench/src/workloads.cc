#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "core/algorithms.h"
#include "core/exact_knn.h"
#include "core/sequential_executor.h"
#include "exec/parallel_engine.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "parallel/parallel_tree.h"
#include "server/client.h"
#include "server/service.h"
#include "server/tcp_server.h"
#include "storage/generation.h"
#include "storage/index_io.h"
#include "storage/mutable_index.h"
#include "storage/page_store.h"
#include "timing_store.h"
#include "workload/dataset.h"
#include "workload/index_builder.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

namespace core = sqp::core;
namespace exec = sqp::exec;
namespace geometry = sqp::geometry;
namespace obs = sqp::obs;
namespace server = sqp::server;
namespace storage = sqp::storage;
namespace wl = sqp::workload;
using sqp::common::Result;
using sqp::common::Status;

using Answer = std::vector<core::Neighbor>;

constexpr int kPageSize = 4096;  // the response-time experiments' page
constexpr size_t kPeeledQueries = 256;
// Untraced runs set up at least kSetupRepeats times and, while the
// set-ups have taken less than kSetupBudgetS, again (at most kMaxSetups
// times), and report the median set-up. Host slow spells last seconds,
// so a quick set-up needs more samples spread over more time.
constexpr size_t kSetupRepeats = 5;
constexpr double kSetupBudgetS = 20.0;
constexpr size_t kMaxSetups = 15;
constexpr double kBehindFrac = 0.05;  // of reads sent late for want of a lane

// One workload's fixed shape (README.md, "Workloads"). Only the seed
// varies between runs.
struct Spec {
  const char* name;
  // Data set: a mixture of `clusters` Gaussian blobs with 10 % uniform
  // background, or uniform when `clusters` is 0.
  size_t points;
  int dim;
  int clusters;
  int disks;
  size_t pool;  // distinct query points; operations cycle through them
  size_t k;
  size_t cache_pages;
  double throttle_s;  // per media read; 0 = memory speed
  bool file_backed;   // MutableIndex on files, served via CreateMutable
  bool open_loop;
  double read_rate;  // arrivals per second (open loop)
  int lanes;         // client connections (capped at nproc)
  int workers;       // service dispatcher threads = engine query threads
  double batch_frac;  // share of reads sent as kKnnBatch, the rest stream
  size_t warm_reads;  // checked reads before the window
  double write_rate;  // durable writes per second (file-backed only)
  storage::CompactionPolicy compaction;
};

const Spec kSpecs[] = {
    {"knn-disk", 40000, 2, 10, 10, 4096, 20, 64, 0.0005, false, true,
     200.0, 4, 2, 1.0, 256, 0.0, {}},
    {"knn-hot", 20000, 8, 0, 10, 2048, 20, 4096, 0.0, false, false, 0.0, 3,
     3, 0.5, 2048, 0.0, {}},
    {"ingest-mixed", 12000, 2, 10, 10, 1024, 20, 1024, 0.0, true, true,
     200.0, 3, 3, 0.0, 1024, 10.0, {0, 40, 1.0}},
};

double Lap(Clock::time_point* t) {
  const auto now = Clock::now();
  const double s = std::chrono::duration<double>(now - *t).count();
  *t = now;
  return s;
}

uint64_t Mix(uint64_t seed, uint64_t i) {  // splitmix64 of (seed, i)
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + i + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Unit(uint64_t bits) { return static_cast<double>(bits >> 11) * 0x1p-53; }

// User + system CPU time of the whole process so far. Hypervisor steal
// is not in it, which is what makes it steadier than wall time on a
// shared host.
double CpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Attempted/failed operations and the first few failure descriptions.
class Tally {
 public:
  void Ok() { attempted_.fetch_add(1); }
  void Fail(const std::string& why) {
    attempted_.fetch_add(1);
    failed_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    if (notes_.size() < 8) notes_.push_back(why);
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> notes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return notes_;
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> notes_;
};

bool SameAnswer(const Answer& got, const Answer& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].object != want[i].object) return false;
    if (got[i].dist_sq != want[i].dist_sq) return false;  // bit for bit
  }
  return true;
}

bool SortedAnswer(const Answer& got, size_t k) {
  if (got.size() != k) return false;
  for (size_t i = 1; i < got.size(); ++i) {
    if (got[i].dist_sq < got[i - 1].dist_sq) return false;
  }
  return true;
}

struct SetupTimes {
  double build_s = 0.0;  // data set, query pool, index build
  double save_s = 0.0;   // index image onto its store
  double truth_s = 0.0;  // exact k-NN of every pool query
  double serve_s = 0.0;  // open for serving, engine, service, TCP, connect
  double total() const { return build_s + save_s + truth_s + serve_s; }
};

// Everything one set-up builds. Members are declared in dependency
// order; Teardown() takes them down in reverse.
struct Stack {
  const Spec* spec = nullptr;
  wl::Dataset data;
  std::vector<geometry::Point> queries;
  std::vector<Answer> truth;  // per pool query, on the initial data
  std::unique_ptr<sqp::parallel::ParallelRStarTree> index;
  std::unique_ptr<storage::MemPageStore> mem;
  std::unique_ptr<storage::ThrottledPageStore> throttled;
  std::unique_ptr<TimingPageStore> timed;
  std::string dir;
  std::unique_ptr<storage::FileGenerationEnv> file_env;
  std::unique_ptr<TimingGenerationEnv> timed_env;
  std::unique_ptr<storage::MutableIndex> mindex;
  std::unique_ptr<exec::ParallelQueryEngine> engine;
  std::unique_ptr<server::QueryService> service;
  std::unique_ptr<server::TcpServer> tcp;
  std::vector<std::unique_ptr<server::Client>> clients;
  SetupTimes times;

  const sqp::parallel::ParallelRStarTree& served() const {
    return mindex != nullptr ? mindex->index() : *index;
  }
};

int Lanes(const Spec& spec) {
  const int nproc = std::max(1u, std::thread::hardware_concurrency());
  // knn-hot keeps one core for the server (nproc - 1 connections); the
  // writer of ingest-mixed is a sender too.
  const int cap = spec.open_loop ? nproc - (spec.write_rate > 0 ? 1 : 0)
                                 : nproc - 1;
  return std::max(1, std::min(spec.lanes, cap));
}

// Builds the whole stack from `seed`. With `stats` the stores are wrapped
// in timing decorators (the traced pass).
Result<std::unique_ptr<Stack>> Setup(const Spec& spec, uint64_t seed,
                                     const std::string& dir,
                                     StoreStats* stats) {
  auto st = std::make_unique<Stack>();
  st->spec = &spec;
  auto t = Clock::now();
  st->data = spec.clusters > 0
                 ? wl::MakeClustered(spec.points, spec.dim, spec.clusters,
                                     0.1, seed)
                 : wl::MakeUniform(spec.points, spec.dim, seed);
  st->queries = wl::MakeQueryPoints(
      st->data, spec.pool, wl::QueryDistribution::kDataDistributed, seed + 1);
  sqp::rstar::TreeConfig tree_cfg;
  tree_cfg.dim = spec.dim;
  tree_cfg.page_size_bytes = kPageSize;
  sqp::parallel::DeclusterConfig dc;
  dc.num_disks = spec.disks;
  dc.policy = sqp::parallel::DeclusterPolicy::kProximityIndex;
  dc.seed = seed;
  st->index = wl::BuildParallelIndex(st->data, tree_cfg, dc);
  st->times.build_s = Lap(&t);

  storage::GenerationEnv* env = nullptr;
  if (!spec.file_backed) {
    st->mem = std::make_unique<storage::MemPageStore>(spec.disks);
    storage::PageStore* sink = st->mem.get();
    std::unique_ptr<TimingPageStore> save_timer;
    if (stats != nullptr) {
      save_timer = std::make_unique<TimingPageStore>(sink, stats);
      sink = save_timer.get();
    }
    if (Status s = storage::SaveIndex(*st->index, sink); !s.ok()) return s;
  } else {
    st->dir = dir;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    if (ec) return Status::Internal("cannot create " + dir);
    st->file_env = std::make_unique<storage::FileGenerationEnv>(dir);
    env = st->file_env.get();
    if (stats != nullptr) {
      st->timed_env = std::make_unique<TimingGenerationEnv>(env, stats);
      env = st->timed_env.get();
    }
    if (Status s = storage::InitializeGenerations(env, *st->index); !s.ok()) {
      return s;
    }
  }
  st->times.save_s = Lap(&t);

  st->truth.reserve(st->queries.size());
  for (const geometry::Point& q : st->queries) {
    st->truth.push_back(
        core::ExactKnn(st->index->tree(), q, spec.k).result.Sorted());
  }
  st->times.truth_s = Lap(&t);

  // Default engine options but for the cache size and thread count.
  exec::EngineOptions eopts;
  eopts.cache_pages = spec.cache_pages;
  eopts.query_threads = spec.workers;
  Result<std::unique_ptr<exec::ParallelQueryEngine>> engine =
      Status::Internal("no engine");
  if (!spec.file_backed) {
    storage::PageStore* store = st->mem.get();
    if (spec.throttle_s > 0) {
      st->throttled =
          std::make_unique<storage::ThrottledPageStore>(store, spec.throttle_s);
      store = st->throttled.get();
    }
    if (stats != nullptr) {
      st->timed = std::make_unique<TimingPageStore>(store, stats);
      store = st->timed.get();
    }
    engine = exec::ParallelQueryEngine::Create(*st->index, store, eopts);
  } else {
    auto opened = storage::MutableIndex::Open(env);
    if (!opened.ok()) return opened.status();
    st->mindex = std::move(opened.value());
    st->index.reset();  // served from the reopened image from here on
    engine = exec::ParallelQueryEngine::CreateMutable(st->mindex.get(), eopts);
  }
  if (!engine.ok()) return engine.status();
  st->engine = std::move(engine.value());
  if (st->mindex != nullptr) st->mindex->StartCompaction(spec.compaction);

  server::ServiceOptions sopts;
  sopts.workers = spec.workers;
  st->service = std::make_unique<server::QueryService>(
      st->served(), st->engine.get(), sopts);
  auto tcp = server::TcpServer::Start(st->service.get(), {});
  if (!tcp.ok()) return tcp.status();
  st->tcp = std::move(tcp.value());
  for (int lane = 0; lane < Lanes(spec); ++lane) {
    auto client = server::Client::Connect("127.0.0.1", st->tcp->port());
    if (!client.ok()) return client.status();
    st->clients.push_back(std::move(client.value()));
  }
  st->times.serve_s = Lap(&t);
  return st;
}

// Stops the stack and checks the registry's conservation identities at
// rest (docs/OBSERVABILITY.md). Returns the violations found.
std::vector<std::string> Teardown(std::unique_ptr<Stack> st) {
  std::vector<std::string> broken;
  st->clients.clear();
  if (st->tcp != nullptr) st->tcp->Stop();
  st->tcp.reset();
  st->service.reset();  // joins the dispatchers: counters are at rest
  if (st->mindex != nullptr) st->mindex->StopCompaction();
  if (st->engine != nullptr && st->engine->metrics() != nullptr) {
    const obs::MetricsSnapshot snap = st->engine->metrics()->Snapshot();
    const exec::PageCacheStats cache = st->engine->cache().GetStats();
    const uint64_t requests =
        snap.CounterValue("sqp_engine_page_requests_total");
    if (cache.hits + cache.misses != requests) {
      broken.push_back("cache hits " + std::to_string(cache.hits) +
                       " + misses " + std::to_string(cache.misses) +
                       " != page requests " + std::to_string(requests));
    }
    const uint64_t submitted = snap.CounterValue("sqp_server_submitted_total");
    const uint64_t completed = snap.CounterValue("sqp_server_completed_total");
    const uint64_t shed = snap.CounterValue("sqp_server_shed_total");
    if (submitted != completed + shed) {
      broken.push_back("server submitted " + std::to_string(submitted) +
                       " != completed " + std::to_string(completed) +
                       " + shed " + std::to_string(shed));
    }
  }
  st->engine.reset();
  st->mindex.reset();
  if (!st->dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(st->dir, ec);
  }
  return broken;
}

// Which pool query and which mode operation i of a run uses.
size_t PoolIndex(const Stack& st, uint64_t seed, size_t i) {
  return static_cast<size_t>(Mix(seed, i) % st.queries.size());
}
server::QueryMode ModeOf(const Spec& spec, uint64_t seed, size_t i) {
  return Unit(Mix(seed ^ 0x5bd1e995ULL, i)) < spec.batch_frac
             ? server::QueryMode::kKnnBatch
             : server::QueryMode::kKnnStream;
}

server::QuerySpec ReadSpec(const geometry::Point& q, size_t k,
                           server::QueryMode mode) {
  server::QuerySpec spec;
  spec.mode = mode;
  spec.algo = core::AlgorithmKind::kCrss;
  spec.point = q;
  spec.k = k;
  return spec;
}

// One k-NN read over the wire. With `want` the answer must match it bit
// for bit; without (reads racing the writer) it must be k neighbours in
// ascending distance.
OpResult Read(server::Client* client, const server::QuerySpec& spec,
              const Answer* want, Tally* tally, std::atomic<uint64_t>* chunks) {
  const auto sent = Clock::now();
  double first_s = -1.0;
  const server::StreamOutcome out =
      client->Run(spec, [&](const std::vector<core::Neighbor>&) {
        if (first_s < 0) {
          first_s = std::chrono::duration<double>(Clock::now() - sent).count();
        }
      });
  OpResult r;
  r.total_s = std::chrono::duration<double>(Clock::now() - sent).count();
  r.first_s = first_s < 0 ? r.total_s : first_s;
  if (chunks != nullptr) chunks->fetch_add(out.chunks);
  if (!out.status.ok()) {
    tally->Fail(std::string(server::QueryModeName(spec.mode)) +
                " failed: " + out.status.ToString());
  } else if (want != nullptr ? !SameAnswer(out.neighbors, *want)
                             : !SortedAnswer(out.neighbors, spec.k)) {
    tally->Fail(std::string(server::QueryModeName(spec.mode)) +
                " answer differs from the exact k-NN");
  } else {
    tally->Ok();
    r.ok = true;
  }
  return r;
}

// The live object set of ingest-mixed as the writer believes it to be.
struct Model {
  std::vector<std::pair<sqp::rstar::ObjectId, geometry::Point>> live;
  size_t initial = 0;  // ids below this came with the data set
};

// What one measured window produced.
struct Window {
  double seconds = 0.0;  // from the start to the last completion
  std::vector<OpSample> reads;
  std::vector<OpSample> writes;
  uint64_t chunks = 0;
  uint64_t write_ops_ok = 0;
};

// Checked reads before the window: fill the cache, finish lazy set-up.
void Warm(Stack* st, Tally* tally) {
  const Spec& spec = *st->spec;
  const size_t n = std::min(spec.warm_reads, st->queries.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> lanes;
  for (size_t lane = 0; lane < st->clients.size(); ++lane) {
    lanes.emplace_back([&, lane] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        const server::QueryMode mode = i % 2 == 0 || spec.batch_frac >= 1.0
                                           ? server::QueryMode::kKnnBatch
                                           : server::QueryMode::kKnnStream;
        Read(st->clients[lane].get(), ReadSpec(st->queries[i], spec.k, mode),
             &st->truth[i], tally, nullptr);
      }
    });
  }
  for (std::thread& t : lanes) t.join();
}

Window Measure(Stack* st, uint64_t seed, double seconds, Model* model,
               Tally* tally) {
  const Spec& spec = *st->spec;
  Window w;
  std::atomic<uint64_t> chunks{0};
  const int lanes = static_cast<int>(st->clients.size());
  const bool racing_writer = spec.write_rate > 0;
  auto read_op = [&](size_t i, int lane) {
    const size_t qi = PoolIndex(*st, seed, i);
    return Read(st->clients[static_cast<size_t>(lane)].get(),
                ReadSpec(st->queries[qi], spec.k, ModeOf(spec, seed, i)),
                racing_writer ? nullptr : &st->truth[qi], tally, &chunks);
  };
  const auto start = Clock::now() + std::chrono::milliseconds(20);

  std::thread writer;
  if (racing_writer) {
    const size_t n = static_cast<size_t>(spec.write_rate * seconds);
    const std::vector<geometry::Point> fresh = wl::MakeQueryPoints(
        st->data, n, wl::QueryDistribution::kDataDistributed, seed + 3);
    writer = std::thread([&, n, fresh] {
      sqp::rstar::ObjectId next_id = model->initial;
      auto write_op = [&](size_t i, int) {
        const auto sent = Clock::now();
        Status s;
        const bool remove = Unit(Mix(seed ^ 0xde1e7eULL, i)) < 1.0 / 3.0 &&
                            !model->live.empty();
        if (remove) {
          const size_t victim = Mix(seed ^ 0xfeedULL, i) % model->live.size();
          const auto [id, p] = model->live[victim];
          s = st->mindex->Delete(p, id);
          if (s.ok()) {
            model->live[victim] = model->live.back();
            model->live.pop_back();
          }
        } else {
          const sqp::rstar::ObjectId id = next_id++;
          s = st->mindex->Insert(fresh[i], id);
          if (s.ok()) model->live.emplace_back(id, fresh[i]);
        }
        OpResult r;
        r.total_s = std::chrono::duration<double>(Clock::now() - sent).count();
        r.first_s = r.total_s;
        r.ok = s.ok();
        if (s.ok()) {
          tally->Ok();
        } else {
          tally->Fail(std::string(remove ? "delete" : "insert") +
                      " failed: " + s.ToString());
        }
        return r;
      };
      w.writes = RunOpenLoop(start, PoissonSchedule(n, spec.write_rate,
                                                    seed ^ 0x7717eULL),
                             1, write_op);
    });
  }

  if (spec.open_loop) {
    const size_t n = static_cast<size_t>(spec.read_rate * seconds);
    w.reads = RunOpenLoop(start, PoissonSchedule(n, spec.read_rate, seed),
                          lanes, read_op);
  } else {
    w.reads = RunClosedLoop(start, seconds, lanes, read_op);
  }
  if (writer.joinable()) writer.join();

  w.chunks = chunks.load();
  for (const auto* v : {&w.reads, &w.writes}) {
    for (const OpSample& s : *v) w.seconds = std::max(w.seconds, s.end_s);
  }
  for (const OpSample& s : w.writes) w.write_ops_ok += s.ok ? 1 : 0;
  return w;
}

// After the writer stops: answers must equal the exact k-NN over the
// final live set, and every acknowledged insert still live must be found.
void VerifyFinal(Stack* st, const Model& model, size_t sample,
                 std::vector<Answer>* final_truth, Tally* tally) {
  const Spec& spec = *st->spec;
  st->mindex->StopCompaction();
  const sqp::rstar::RStarTree& tree = st->served().tree();
  if (tree.size() != model.live.size()) {
    tally->Fail("index holds " + std::to_string(tree.size()) +
                " objects, the writer acknowledged " +
                std::to_string(model.live.size()));
  }
  wl::Dataset live;
  live.dim = spec.dim;
  for (const auto& [id, p] : model.live) live.points.push_back(p);
  server::Client* client = st->clients[0].get();
  final_truth->clear();
  for (size_t i = 0; i < sample; ++i) {
    const geometry::Point& q = st->queries[i];
    Answer exact = core::ExactKnn(tree, q, spec.k).result.Sorted();
    const auto brute = wl::BruteForceKnn(live, q, spec.k);
    bool same_ids = brute.size() == exact.size();
    for (size_t j = 0; same_ids && j < exact.size(); ++j) {
      same_ids = model.live[brute[j].first].first == exact[j].object;
    }
    if (!same_ids) {
      tally->Fail("exact k-NN over the index differs from the live set");
    }
    for (server::QueryMode mode :
         {server::QueryMode::kKnnBatch, server::QueryMode::kKnnStream}) {
      Read(client, ReadSpec(q, spec.k, mode), &exact, tally, nullptr);
    }
    final_truth->push_back(std::move(exact));
  }
  for (const auto& [id, p] : model.live) {
    if (id < model.initial) continue;
    const Answer want = {core::Neighbor{id, 0.0}};
    Read(client, ReadSpec(p, 1, server::QueryMode::kKnnBatch), &want, tally,
         nullptr);
  }
}

double Ms(double s) { return 1e3 * s; }

// The medians are computed per slice of the window (kSlices equal slices
// by due time) and the median over the slices is reported: a host stall
// that ruins one slice moves the result by one rank, not by its own size.
// Tails are taken over the whole window so that enough samples lie
// beyond them.
constexpr int kSlices = 5;

// q-quantile of the latency (to the first result, or to the end) of the
// successful operations of `v`, from their due time, in ms.
double LatencyMs(const std::vector<OpSample>& v, bool first, double q) {
  std::vector<double> lat;
  for (const OpSample& s : v) {
    if (s.ok) lat.push_back((first ? s.first_s : s.end_s) - s.due_s);
  }
  return Ms(Quantile(lat, q));
}

double SliceMedianMs(const std::vector<OpSample>& v, double seconds,
                     bool first) {
  std::vector<double> per_slice;
  for (int k = 0; k < kSlices; ++k) {
    const double from = seconds * k / kSlices;
    const double to = seconds * (k + 1) / kSlices;
    std::vector<OpSample> in;
    for (const OpSample& s : v) {
      if (s.due_s >= from && (s.due_s < to || k == kSlices - 1)) {
        in.push_back(s);
      }
    }
    per_slice.push_back(LatencyMs(in, first, 0.5));
  }
  return Quantile(per_slice, 0.5);
}

struct EndToEnd {
  // CRSS batch k-NN reads (kKnnBatch), to the reply. A workload that
  // sends only streams (ingest-mixed) is timed on its streams instead.
  double knn_p50_ms = 0, knn_p90_ms = 0, knn_p95_ms = 0, knn_p99_ms = 0;
  // Streamed reads (kKnnStream): to the first chunk, and to the last.
  double stream_first_p50_ms = 0, stream_p50_ms = 0, stream_p99_ms = 0;
  double qps = 0;
  double write_p50_ms = 0, write_p99_ms = 0;
  size_t reads = 0, streams = 0, writes = 0;
};

// Batch and stream latencies are timed apart: on a mix they form two
// clusters, and a median over both sits in the gap between them, where
// it jumps with the share of each.
EndToEnd Summarize(const Window& w, const Spec& spec, uint64_t seed,
                   double seconds) {
  EndToEnd e;
  std::vector<OpSample> batch, stream;
  for (const OpSample& s : w.reads) {
    (ModeOf(spec, seed, s.index) == server::QueryMode::kKnnBatch ? batch
                                                                  : stream)
        .push_back(s);
  }
  const std::vector<OpSample>& knn = batch.empty() ? stream : batch;
  e.knn_p50_ms = SliceMedianMs(knn, seconds, false);
  e.knn_p90_ms = LatencyMs(knn, false, 0.90);
  e.knn_p95_ms = LatencyMs(knn, false, 0.95);
  e.knn_p99_ms = LatencyMs(knn, false, 0.99);
  if (!stream.empty()) {
    e.stream_first_p50_ms = SliceMedianMs(stream, seconds, true);
    e.stream_p50_ms = SliceMedianMs(stream, seconds, false);
    e.stream_p99_ms = LatencyMs(stream, false, 0.99);
  }
  e.streams = stream.size();
  for (const OpSample& s : w.reads) e.reads += s.ok ? 1 : 0;
  e.qps = static_cast<double>(e.reads) / w.seconds;  // whole window
  e.write_p50_ms = LatencyMs(w.writes, false, 0.5);
  e.write_p99_ms = LatencyMs(w.writes, false, 0.99);
  for (const OpSample& s : w.writes) e.writes += s.ok ? 1 : 0;
  return e;
}

// Everything the traced pass reads from the stack's own instruments at
// the window's edges.
struct Probe {
  obs::MetricsSnapshot registry;
  exec::PageCacheStats cache;
  storage::MutationStats mutation;
  StoreStats::Totals store;
};

Probe TakeProbe(const Stack& st, const StoreStats& stats) {
  Probe p;
  if (st.engine->metrics() != nullptr) p.registry = st.engine->metrics()->Snapshot();
  p.cache = st.engine->cache().GetStats();
  if (st.mindex != nullptr) p.mutation = st.mindex->mutation_stats();
  p.store = stats.Snapshot();
  return p;
}

// Bucket-wise sum of every histogram whose name starts with `prefix`,
// minus the same at `before` (when given).
obs::HistogramSnapshot HistogramDelta(const obs::MetricsSnapshot& after,
                                      const obs::MetricsSnapshot* before,
                                      const std::string& prefix) {
  obs::HistogramSnapshot sum;
  auto add = [&](const obs::MetricsSnapshot& snap, int64_t sign) {
    for (const obs::HistogramSnapshot& h : snap.histograms) {
      if (h.name.rfind(prefix, 0) != 0) continue;
      if (sum.counts.empty()) {
        sum.bounds = h.bounds;
        sum.counts.assign(h.counts.size(), 0);
      }
      for (size_t i = 0; i < h.counts.size() && i < sum.counts.size(); ++i) {
        sum.counts[i] += static_cast<uint64_t>(sign) * h.counts[i];
      }
      sum.sum += static_cast<double>(sign) * h.sum;
    }
  };
  add(after, 1);
  if (before != nullptr) add(*before, -1);
  return sum;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Share of the window's reads that found every lane busy at their due
// instant.
double LaneWaitFrac(const Window& w) {
  double waited = 0;
  for (const OpSample& s : w.reads) waited += s.waited_for_lane ? 1 : 0;
  return Ratio(waited, static_cast<double>(w.reads.size()));
}

struct Peeled {
  std::vector<double> server_self_s, engine_s, core_s;
};

// The same queries, one at a time, through each layer's own entry point:
// the client over TCP, the service in process, the engine, and the bare
// state machine on the in-memory tree. Each query is run once through
// the client first so every layer sees the same warm cache.
Peeled PeelLayers(Stack* st, const std::vector<Answer>& truth, Tally* tally) {
  const Spec& spec = *st->spec;
  Peeled p;
  server::Client* client = st->clients[0].get();
  const sqp::rstar::RStarTree& tree = st->served().tree();
  // One source for all queries, so nodes are converted to the flat layout
  // once and the timed part is the state machine and its kernels.
  core::TreePageSource source(tree);
  for (size_t i = 0; i < truth.size(); ++i) {
    const geometry::Point& q = st->queries[i];
    const server::QuerySpec batch =
        ReadSpec(q, spec.k, server::QueryMode::kKnnBatch);
    Read(client, batch, &truth[i], tally, nullptr);
    const double client_s = Read(client, batch, &truth[i], tally, nullptr).total_s;

    auto t = Clock::now();
    const exec::QueryOutcome blocking = st->service->RunBlocking(batch);
    const double blocking_s = Lap(&t);
    exec::EngineQuery eq;
    eq.point = q;
    eq.k = spec.k;
    eq.algo = core::AlgorithmKind::kCrss;
    const exec::QueryOutcome engine = st->engine->RunQuery(eq);
    const double engine_s = Lap(&t);
    auto algo = core::MakeAlgorithm(core::AlgorithmKind::kCrss, tree, q,
                                    spec.k, spec.disks);
    core::RunToCompletion(source, algo.get());
    p.core_s.push_back(Lap(&t));

    for (const exec::QueryOutcome* o : {&blocking, &engine}) {
      if (o->status.ok() && SameAnswer(o->neighbors, truth[i])) {
        tally->Ok();
      } else {
        tally->Fail("peeled pass answer differs from the exact k-NN");
      }
    }
    p.server_self_s.push_back(client_s - blocking_s);
    p.engine_s.push_back(engine_s);
  }
  return p;
}

// CRSS pages per query and the share of them WOPTSS (which is handed the
// exact k-th distance) does not need: the paper's useful-work ratio.
// Sequential executor on the in-memory tree, so the counts are exact.
std::pair<double, double> CorePages(const Stack& st, size_t sample) {
  const Spec& spec = *st.spec;
  const sqp::rstar::RStarTree& tree = st.served().tree();
  double crss = 0, woptss = 0;
  for (size_t i = 0; i < sample; ++i) {
    for (auto kind : {core::AlgorithmKind::kCrss, core::AlgorithmKind::kWoptss}) {
      auto algo = core::MakeAlgorithm(kind, tree, st.queries[i], spec.k,
                                      spec.disks);
      const double pages =
          static_cast<double>(core::RunToCompletion(tree, algo.get()).pages_fetched);
      (kind == core::AlgorithmKind::kCrss ? crss : woptss) += pages;
    }
  }
  return {crss / static_cast<double>(sample), 1.0 - woptss / crss};
}

Model InitialModel(const Stack& st) {
  Model m;
  m.initial = st.data.points.size();
  m.live.reserve(m.initial);
  for (size_t i = 0; i < st.data.points.size(); ++i) {
    m.live.emplace_back(static_cast<sqp::rstar::ObjectId>(i), st.data.points[i]);
  }
  return m;
}

void AddInfo(RunReport* r, const std::string& k, const std::string& v) {
  r->info.emplace_back(k, v);
}

void Absorb(RunReport* report, const std::vector<std::string>& broken) {
  for (const std::string& b : broken) {
    report->correct = false;
    report->problems.push_back("identity violated: " + b);
  }
}

}  // namespace

Result<RunReport> RunWorkload(const RunConfig& cfg) {
  Spec chosen{};
  for (const Spec& s : kSpecs) {
    if (cfg.workload == s.name) chosen = s;
  }
  if (chosen.name == nullptr) {
    return Status::InvalidArgument("unknown workload " + cfg.workload);
  }
  if (cfg.read_rate > 0) {
    if (!chosen.open_loop) {
      return Status::InvalidArgument(cfg.workload + " is closed loop");
    }
    chosen.read_rate = cfg.read_rate;
  }
  const Spec* spec = &chosen;
  RunReport report;
  Tally tally;
  const std::string dir = cfg.workdir + "/index";
  const size_t sample = std::min(kPeeledQueries, spec->pool);

  // Untraced: the stack exactly as a user runs it.
  std::vector<double> setups;
  std::unique_ptr<Stack> st;
  double setup_total_s = 0;
  auto more_setups = [&] {
    if (cfg.trace) return setups.empty();
    return setups.size() < kSetupRepeats ||
           (setup_total_s < kSetupBudgetS && setups.size() < kMaxSetups);
  };
  while (more_setups()) {
    if (st != nullptr) Absorb(&report, Teardown(std::move(st)));
    auto made = Setup(*spec, cfg.seed, dir, nullptr);
    if (!made.ok()) return made.status();
    st = std::move(made.value());
    setups.push_back(st->times.total());
    setup_total_s += setups.back();
  }
  AddInfo(&report, "io_backend", st->engine->io_backend_name());
  AddInfo(&report, "io_backend_fallback",
          st->engine->io_backend_fallback_reason().empty()
              ? "none"
              : st->engine->io_backend_fallback_reason());
  AddInfo(&report, "index_pages",
          std::to_string(st->served().tree().LiveNodeIds().size()));
  AddInfo(&report, "lanes", std::to_string(st->clients.size()));
  const SetupTimes untraced_setup = st->times;
  Model model = InitialModel(*st);
  Warm(st.get(), &tally);
  const double cpu_before = CpuSeconds();
  const Window w = Measure(st.get(), cfg.seed, cfg.seconds, &model, &tally);
  const double cpu_s = CpuSeconds() - cpu_before;
  const EndToEnd e = Summarize(w, *spec, cfg.seed, cfg.seconds);
  const double cpu_ms_per_op =
      1e3 * cpu_s / static_cast<double>(std::max<size_t>(1, e.reads + e.writes));
  std::vector<Answer> final_truth;
  if (spec->file_backed) {
    const storage::MutationStats ms = st->mindex->mutation_stats();
    report.extra.push_back({"checkpoints", "count",
                            static_cast<double>(ms.checkpoints)});
    VerifyFinal(st.get(), model, sample, &final_truth, &tally);
  }
  Absorb(&report, Teardown(std::move(st)));

  // The open-loop generator's own account of how late it ran.
  auto lag_p99_ms = [](const Window& win) {
    std::vector<double> lag;
    for (const OpSample& s : win.reads) lag.push_back(s.send_s - s.due_s);
    return Ms(Quantile(lag, 0.99));
  };
  // Behind: more than kBehindFrac of the reads found every lane busy at
  // their due instant. Lag from timer and wake-up slack alone does not
  // count; README.md, "Open-loop lateness".
  const double lag_ms = lag_p99_ms(w);
  const double waited_frac = LaneWaitFrac(w);
  if (spec->open_loop && waited_frac > kBehindFrac) {
    report.problems.push_back(
        "generator behind: " + std::to_string(100 * waited_frac) +
        " % of reads waited for a free lane (latencies still count from due "
        "times)");
    AddInfo(&report, "generator_behind", "true");
  }

  std::string each;
  for (double v : setups) each += (each.empty() ? "" : " ") + std::to_string(v);
  AddInfo(&report, "setup_s_each", each);
  std::sort(setups.begin(), setups.end());
  if (!cfg.trace) {
    report.metrics = {
        {"knn_p50_ms", "ms", e.knn_p50_ms},
        {"peak_rss_mb", "MB", PeakRssMb()},
        {"setup_s", "s", setups[setups.size() / 2]},
    };
  }
  report.extra.push_back({"cpu_ms_per_op", "ms", cpu_ms_per_op});
  report.extra.push_back({"throughput_qps", "1/s", e.qps});
  report.extra.push_back({"reads", "count", static_cast<double>(e.reads)});
  report.extra.push_back({"knn_p90_ms", "ms", e.knn_p90_ms});
  report.extra.push_back({"knn_p95_ms", "ms", e.knn_p95_ms});
  report.extra.push_back({"knn_p99_ms", "ms", e.knn_p99_ms});
  if (e.streams > 0) {
    report.extra.push_back(
        {"stream_first_p50_ms", "ms", e.stream_first_p50_ms});
    report.extra.push_back({"stream_p50_ms", "ms", e.stream_p50_ms});
    report.extra.push_back({"stream_p99_ms", "ms", e.stream_p99_ms});
  }
  if (spec->open_loop) {
    report.extra.push_back({"send_lag_p99_ms", "ms", lag_ms});
    report.extra.push_back({"lane_wait_frac", "ratio", waited_frac});
  }
  if (e.writes > 0) {
    report.extra.push_back({"insert_p50_ms", "ms", e.write_p50_ms});
    report.extra.push_back({"insert_p99_ms", "ms", e.write_p99_ms});
    report.extra.push_back({"writes", "count", static_cast<double>(e.writes)});
  }

  if (cfg.trace) {
    // Traced: the same seed on a stack whose stores are timed, with the
    // instruments read at the window's edges.
    StoreStats stats;
    auto made = Setup(*spec, cfg.seed, dir, &stats);
    if (!made.ok()) return made.status();
    st = std::move(made.value());
    const auto [pages_per_query, wasted] = CorePages(*st, sample);
    Model tmodel = InitialModel(*st);
    Warm(st.get(), &tally);
    const Probe before = TakeProbe(*st, stats);
    const Window tw = Measure(st.get(), cfg.seed, cfg.seconds, &tmodel, &tally);
    const Probe after = TakeProbe(*st, stats);
    const EndToEnd te = Summarize(tw, *spec, cfg.seed, cfg.seconds);
    std::vector<Answer> peel_truth(st->truth.begin(),
                                   st->truth.begin() + static_cast<long>(sample));
    if (spec->file_backed) {
      VerifyFinal(st.get(), tmodel, sample, &peel_truth, &tally);
    }
    const Peeled peeled = PeelLayers(st.get(), peel_truth, &tally);

    auto counter = [&](const char* name) {
      return static_cast<double>(after.registry.CounterValue(name) -
                                 before.registry.CounterValue(name));
    };
    const double queries = counter("sqp_engine_queries_total");
    const double steps = counter("sqp_engine_steps_total");
    const obs::HistogramSnapshot qwait = HistogramDelta(
        after.registry, &before.registry, "sqp_server_queue_wait_seconds");
    obs::HistogramSnapshot iowait =
        HistogramDelta(after.registry, &before.registry, "sqp_io_wait_seconds");
    if (iowait.TotalCount() == 0) {  // no I/O in the window: whole pass
      iowait = HistogramDelta(after.registry, nullptr, "sqp_io_wait_seconds");
    }
    const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
    const double misses =
        static_cast<double>(after.cache.misses - before.cache.misses);
    const StoreStats::Totals io = Since(before.store, after.store);
    const StoreStats::Totals whole = after.store;  // set-up save included
    std::vector<double> read_s = io.read_s.empty() ? whole.read_s : io.read_s;
    double busy_max = 0, busy_sum = 0;
    for (double b : io.disk_busy_s) {
      busy_max = std::max(busy_max, b / tw.seconds);
      busy_sum += b / tw.seconds;
    }
    const double ops = static_cast<double>(tw.write_ops_ok);
    const double user_bytes =
        ops * static_cast<double>(spec->dim * sizeof(geometry::Coord) +
                                  sizeof(sqp::rstar::ObjectId));
    const auto wal_total = [](const storage::MutationStats& m) {
      return static_cast<double>(m.wal_bytes + m.wal_bytes_reclaimed);
    };
    std::vector<double> offered;
    for (const OpSample& s : tw.reads) offered.push_back(s.send_s);
    const double last_send = offered.empty() ? 0.0 : offered.back();

    report.metrics = {
        {"loadgen.offered_qps", "1/s",
         Ratio(static_cast<double>(tw.reads.size()),
               std::max(last_send, 1e-9))},
        {"loadgen.lag_p99_ms", "ms", lag_p99_ms(tw)},
        {"loadgen.lane_wait_frac", "ratio", LaneWaitFrac(tw)},
        {"server.queue_wait_p50_ms", "ms", Ms(qwait.Quantile(0.5))},
        {"server.queue_wait_p99_ms", "ms", Ms(qwait.Quantile(0.99))},
        {"server.self_p50_us", "us", 1e6 * Quantile(peeled.server_self_s, 0.5)},
        {"server.chunks_per_stream", "count",
         Ratio(static_cast<double>(tw.chunks),
               static_cast<double>(tw.reads.size()))},
        {"server.shed_frac", "ratio",
         Ratio(counter("sqp_server_shed_total"),
               counter("sqp_server_submitted_total"))},
        {"exec.engine_p50_ms", "ms", Ms(Quantile(peeled.engine_s, 0.5))},
        {"exec.steps_per_query", "count", Ratio(steps, queries)},
        {"exec.batch_pages_mean", "pages",
         Ratio(counter("sqp_engine_page_requests_total"), steps)},
        {"exec.cache_hit_rate", "ratio", Ratio(hits, hits + misses)},
        {"exec.cache_evictions_per_query", "count",
         Ratio(static_cast<double>(after.cache.evictions -
                                   before.cache.evictions),
               queries)},
        {"exec.coalesced_per_query", "count",
         Ratio(counter("sqp_engine_coalesced_reads_total"), queries)},
        {"exec.io_wait_p50_ms", "ms", Ms(iowait.Quantile(0.5))},
        {"storage.media_reads_per_query", "count",
         Ratio(static_cast<double>(io.media_reads), queries)},
        {"storage.pages_per_media_read", "pages",
         Ratio(static_cast<double>(io.pages_read),
               static_cast<double>(io.media_reads))},
        {"storage.read_p50_ms", "ms", Ms(Quantile(read_s, 0.5))},
        {"storage.read_p99_ms", "ms", Ms(Quantile(read_s, 0.99))},
        {"storage.disk_busy_frac_mean", "ratio",
         Ratio(busy_sum, static_cast<double>(spec->disks))},
        {"storage.disk_busy_frac_max", "ratio", busy_max},
        {"storage.wal_bytes_per_op", "B",
         Ratio(wal_total(after.mutation) - wal_total(before.mutation), ops)},
        {"storage.cow_pages_per_op", "pages",
         Ratio(static_cast<double>(after.mutation.cow_pages -
                                   before.mutation.cow_pages),
               ops)},
        {"storage.checkpoints", "count",
         static_cast<double>(after.mutation.checkpoints -
                             before.mutation.checkpoints)},
        {"storage.bytes_written_per_user_byte", "ratio",
         Ratio(static_cast<double>(io.bytes_written), user_bytes)},
        {"storage.sync_p50_ms", "ms", Ms(Quantile(whole.sync_s, 0.5))},
        {"core.cpu_p50_us", "us", 1e6 * Quantile(peeled.core_s, 0.5)},
        {"core.pages_per_query", "pages", pages_per_query},
        {"core.wasted_page_frac", "ratio", wasted},
        {"setup.build_s", "s", untraced_setup.build_s},
        {"setup.save_s", "s", untraced_setup.save_s},
        {"setup.truth_s", "s", untraced_setup.truth_s},
        {"setup.serve_s", "s", untraced_setup.serve_s},
        {"trace.overhead_frac", "ratio",
         Ratio(te.knn_p50_ms - e.knn_p50_ms, e.knn_p50_ms)},
    };
    report.extra.push_back({"traced.knn_p50_ms", "ms", te.knn_p50_ms});
    report.extra.push_back({"untraced.knn_p50_ms", "ms", e.knn_p50_ms});
    Absorb(&report, Teardown(std::move(st)));
  }

  report.attempted = tally.attempted();
  report.failed = tally.failed();
  for (const std::string& n : tally.notes()) report.problems.push_back(n);
  if (report.failed > 0) report.correct = false;
  return report;
}

}  // namespace perfbench
