// perfbench — the end-to-end benchmark of the write and serve paths.
//
//   perfbench --workload <snapshot-roundtrip|explore-cold>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--extent <edge>] [--git <describe>] [--trace-out <path>]
//
// One process drives the library only through its public entry points
// (api::*, serve::Server, serve::wire::Client and the tiled / progressive /
// pyramid / grid / roi / core functions), generates every input from the
// seed, checks every output outside the timed windows, and prints one metric
// per line followed by a final JSON line. --trace 0 measures the end-to-end
// metrics with obs off (the process default); --trace 1 replays the same
// seeded operations with obs on and reports the per-layer metrics instead.
// NOTES.md records why each workload exists and which end-to-end metric
// each layer metric should move.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/mrc_api.h"
#include "common/rng.h"
#include "compressors/simd_kernels.h"
#include "core/sz3mr.h"
#include "exec/thread_pool.h"
#include "grid/field_ops.h"
#include "obs/obs.h"
#include "progressive/progressive.h"
#include "pyramid/pyramid.h"
#include "roi/roi_extract.h"
#include "serve/wire.h"
#include "simdata/generators.h"
#include "tiled/tiled.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mrc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A correctness check failed: the run reports correct=false.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

// ------------------------------------------------------------------ args --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  index_t extent = 256;  ///< field edge; fixed, never read from MRC_SCALE
  std::string git = "unknown";
  std::string trace_out = "perfbench_trace.json";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v) != 0;
    else if (k == "--extent") a.extent = std::stoll(v);
    else if (k == "--git") a.git = v;
    else if (k == "--trace-out") a.trace_out = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload != "snapshot-roundtrip" && a.workload != "explore-cold")
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  // Extents must split into 16-cell ROI blocks and hold a 64-cell window.
  if (a.extent < 64 || a.extent % 16 != 0)
    throw std::invalid_argument("--extent must be a multiple of 16, >= 64");
  return a;
}

// ----------------------------------------------------------------- stats --

/// Nearest-rank quantile: the smallest sample with at least q*n samples at
/// or below it. Failed operations are recorded as +inf, so they miss every
/// latency limit.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

// --------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count / definition, printed beside the value
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ----------------------------------------------------------- environment --

/// Seconds one lane takes for a fixed integer spin, run on `lanes` threads
/// at once; effective parallelism = lanes * t(1) / t(lanes).
double spin_seconds(int lanes, std::uint64_t iters) {
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> ts;
  const auto t0 = Clock::now();
  for (int l = 0; l < lanes; ++l)
    ts.emplace_back([&sink, iters, l] {
      std::uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(l);
      for (std::uint64_t i = 0; i < iters; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  for (auto& t : ts) t.join();
  return seconds_since(t0);
}

double effective_parallelism(int lanes) {
  // Calibrate the spin to ~20 ms on one lane, wake every lane with a longer
  // spin, then take the best of five single-lane and multi-lane runs so one
  // preemption does not decide it.
  std::uint64_t iters = 1u << 20;
  while (spin_seconds(1, iters) < 0.02 && iters < (1ull << 34)) iters *= 2;
  (void)spin_seconds(lanes, 5 * iters);
  double t1 = 1e30, tn = 1e30;
  for (int r = 0; r < 5; ++r) {
    t1 = std::min(t1, spin_seconds(1, iters));
    tn = std::min(tn, spin_seconds(lanes, iters));
  }
  return static_cast<double>(lanes) * t1 / tn;
}

// ---------------------------------------------------------------- checks --

/// |got - ref| <= bound, with 4 float ulps of slack for the final float
/// rounding of the reconstruction. That rounding happens at the magnitude of
/// the reconstructed value, which next to a spike can be far above the
/// reference's (a reconstruction exactly at the bound in double can round
/// past it in float), so the ulps are of the larger of the two.
bool within(float ref, float got, double bound) {
  const double mag = std::max(std::abs(static_cast<double>(ref)), std::abs(static_cast<double>(got)));
  const double slack = 4.0 * mag * std::numeric_limits<float>::epsilon();
  return std::abs(static_cast<double>(ref) - static_cast<double>(got)) <= bound + slack;
}

void check_within(const FieldF& ref, const FieldF& got, double bound, const std::string& what) {
  check(ref.dims() == got.dims(), what + ": extents differ");
  for (index_t i = 0; i < ref.size(); ++i) {
    if (!within(ref[i], got[i], bound)) {
      const double err = std::abs(static_cast<double>(ref[i]) - static_cast<double>(got[i]));
      char buf[256];
      std::snprintf(buf, sizeof(buf), ": |err| %.6g > bound %.6g at sample %lld", err,
                    bound, static_cast<long long>(i));
      throw CheckFailure(what + buf);
    }
  }
}

bool identical(const FieldF& a, const FieldF& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

/// `got` equals the `box` window of `full`, compared row by row in place.
bool equals_window(const FieldF& full, const tiled::Box& box, const FieldF& got) {
  const Dim3 e = box.extent();
  if (got.dims() != e) return false;
  const auto row = static_cast<std::size_t>(e.nx) * sizeof(float);
  for (index_t z = 0; z < e.nz; ++z)
    for (index_t y = 0; y < e.ny; ++y)
      if (std::memcmp(&got.at(0, y, z), &full.at(box.lo.x, box.lo.y + y, box.lo.z + z), row) != 0)
        return false;
  return true;
}

// ---------------------------------------------------------------- layers --

/// Registry counters the per-layer metrics read, in kCounterNames order.
enum Ctr : std::size_t {
  kPredictNs, kEntropyNs, kLzssNs, kRunNs, kWaitNs, kTasks, kLookups,
  kHits, kMisses, kEvictions, kPrefetched, kCoalesced, kRejected, kNumCtr
};
constexpr const char* kCounterNames[kNumCtr] = {
    "mrc.codec.predict_quant_ns", "mrc.codec.entropy_ns", "mrc.codec.lossless_ns",
    "mrc.exec.run_ns",            "mrc.exec.wait_ns",     "mrc.exec.tasks",
    "mrc.cache.lookups",          "mrc.cache.hits",       "mrc.cache.misses",
    "mrc.cache.evictions",        "mrc.cache.prefetched", "mrc.cache.coalesced",
    "mrc.serve.rejected"};

/// A snapshot of those counters plus the server-side read time (the sum of
/// the mrc.serve.read_us histogram, microseconds). The difference of two
/// snapshots brackets one operation.
struct Counters {
  std::array<std::uint64_t, kNumCtr> v{};
  std::uint64_t serve_us = 0;

  static Counters now() {
    auto& r = obs::Registry::global();
    Counters c;
    for (std::size_t i = 0; i < kNumCtr; ++i) c.v[i] = r.counter_value(kCounterNames[i]);
    c.serve_us = r.histogram("mrc.serve.read_us").sum();
    return c;
  }

  Counters operator-(const Counters& o) const {
    Counters d;
    for (std::size_t i = 0; i < kNumCtr; ++i) d.v[i] = v[i] - o.v[i];
    d.serve_us = serve_us - o.serve_us;
    return d;
  }

  Counters& operator+=(const Counters& o) {
    for (std::size_t i = 0; i < kNumCtr; ++i) v[i] += o.v[i];
    serve_us += o.serve_us;
    return *this;
  }

  [[nodiscard]] double get(Ctr c) const { return static_cast<double>(v[c]); }
  [[nodiscard]] double seconds(Ctr c) const { return get(c) * 1e-9; }
  [[nodiscard]] double codec_s() const {
    return seconds(kPredictNs) + seconds(kEntropyNs) + seconds(kLzssNs);
  }
};

/// The operation types a workload runs; each gets its own wall, unattributed
/// and obs-overhead rows in the traced run.
const char* const kOpTypes[] = {"write_tiled", "write_progressive", "write_workflow",
                                "read_all",    "region_mrct",       "progressive_mrcr"};

/// Per-layer accumulators of one traced pass. Layer seconds are summed over
/// every traced operation; the report divides by the operation count.
struct LayerTotals {
  Counters sum;  ///< counter deltas inside the traced operations
  double op_wall = 0.0;
  double grid_restrict = 0.0, grid_prolong = 0.0, prolong_error = 0.0;
  double roi_extract = 0.0, compress_multires = 0.0;
  double decode_tile = 0.0, gather = 0.0;
  std::uint64_t mrct_reads = 0, mrct_bricks = 0;
  double refine = 0.0;
  std::uint64_t progressive_reads = 0, chain_bricks = 0;
  double serve_read = 0.0, serve_wire = 0.0;
  std::uint64_t served_reads = 0, reply_bytes = 0;
  std::uint64_t ops = 0;
  std::map<std::string, std::vector<double>> traced_wall, untraced_wall;
  std::map<std::string, double> unattributed;
};

/// Wall-time equivalent of CPU seconds spread over the pool: CPU seconds /
/// measured parallelism (exec run time over op wall, at least 1).
double wall_share(double cpu_s, const Counters& d, double wall) {
  const double par = wall > 0.0 ? std::max(1.0, d.seconds(kRunNs) / wall) : 1.0;
  return cpu_s / par;
}

// ---------------------------------------------------------------- report --

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::string error;

  void add(const std::string& name, double v, const std::string& unit,
           const std::string& note = {}) {
    metrics.push_back({name, v, unit, note});
  }
};

// ---------------------------------------------------------------- inputs --

/// The benchmark's write configuration: rel eb 1e-4, every hardware lane.
api::Options write_options() {
  api::Options o;
  o.eb = 1e-4;
  o.eb_mode = api::EbMode::relative;
  o.threads = exec::hardware_threads();
  return o;
}

/// The workflow snapshot's stated guarantee: every level's valid samples
/// decode within the bound of the ROI extraction that was compressed, and
/// api::restore's uniform field keeps the fine (ROI) samples within the bound
/// of the original. Coarse regions are prolonged, so they carry LOD error by
/// design and are not held to the codec bound.
void check_workflow(const FieldF& f, const Bytes& snapshot, const api::Options& o,
                    const MultiResField& ref) {
  const double eb = o.absolute_eb(f);
  const MultiResField dec = api::restore_adaptive(snapshot);
  check(dec.levels.size() == ref.levels.size(), "workflow snapshot: level count differs");
  for (std::size_t l = 0; l < ref.levels.size(); ++l) {
    const LevelData& r = ref.levels[l];
    const LevelData& d = dec.levels[l];
    check(r.data.dims() == d.data.dims(), "workflow snapshot: level extents differ");
    for (index_t i = 0; i < r.data.size(); ++i)
      if (r.mask[i]) check(within(r.data[i], d.data[i], eb), "workflow snapshot: level " +
                                                             std::to_string(l) + " exceeds the bound");
  }
  const FieldF back = api::restore(snapshot);
  check(back.dims() == f.dims(), "workflow snapshot (api::restore): extents differ");
  const MaskField& fine = ref.levels.front().mask;
  for (index_t i = 0; i < f.size(); ++i)
    if (fine[i]) check(within(f[i], back[i], eb), "workflow snapshot (api::restore): ROI sample exceeds the bound");
}

MultiResField workflow_reference(const FieldF& f, const api::Options& o) {
  return roi::extract_adaptive(f, o.roi_block, o.roi_fraction);
}

/// Set-ups per run (setup_s is their median): snapshot-roundtrip makes its
/// two fields, explore-cold writes and opens its streams.
constexpr int kSnapshotSetups = 3;
constexpr int kServingSetups = 3;
/// Share of explore-cold's --seconds spent on further write steps (its write
/// metrics pool them with the set-ups' writes); the rest serves reads, in
/// blocks between the write steps.
constexpr double kServingWriteShare = 0.4;
/// Closed-loop wire clients of explore-cold.
constexpr int kClients = 2;

/// Tail windows per timed loop. A burst of interference from outside the
/// process (this benchmark shares its host) lands in one window and moves
/// that window's p99 only.
constexpr int kTailWindows = 5;

/// `<kind>_p50_us` over every sample and `<kind>_p99_us` as the median of the
/// p99s of kTailWindows equal time windows; the whole-run p99 goes in the
/// note. Samples are (completion time, latency us).
void add_latency(Report& rep, const std::string& kind,
                 const std::vector<std::pair<double, double>>& samples, double seconds,
                 const std::string& what) {
  std::vector<double> all;
  std::vector<std::vector<double>> win(kTailWindows);
  for (const auto& [t, us] : samples) {
    all.push_back(us);
    const int w = std::min(kTailWindows - 1, static_cast<int>(t / seconds * kTailWindows));
    win[static_cast<std::size_t>(w)].push_back(us);
  }
  std::vector<double> p99s;
  std::size_t fewest = all.size();
  for (const auto& w : win) {
    p99s.push_back(quantile(w, 0.99));
    fewest = std::min(fewest, w.size());
  }
  const std::string n = "n=" + std::to_string(all.size()) + " " + what;
  char note[200];
  std::snprintf(note, sizeof(note), "%s; median of %d window p99s (each n>=%zu); whole-run p99 %.0f",
                n.c_str(), kTailWindows, fewest, quantile(all, 0.99));
  rep.add(kind + "_p50_us", quantile(all, 0.50), "us", n);
  rep.add(kind + "_p99_us", median(p99s), "us", note);
}

// ============================================================ snapshot ===

/// The Nyx-like input: one fixed realization of sim::nyx_density, shifted
/// periodically (the generator's GRF is FFT-built, so the shift adds no seam)
/// by a seed-derived offset. Under a relative bound the absolute bound
/// follows the field's single largest spike, whose height varies ~2.4x
/// between realizations (tiled ratio 14.6-34.9 over seeds 1-8), so fresh
/// realizations would make every metric track that one sample. The shift
/// keeps the value distribution and moves every brick's content and every
/// request's window.
constexpr std::uint64_t kNyxRealization = 1;

FieldF nyx_field(Dim3 d, std::uint64_t seed) {
  const FieldF base = sim::nyx_density(d, kNyxRealization);
  Rng rng(seed);
  const index_t ox = static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(d.nx)));
  const index_t oy = static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(d.ny)));
  const index_t oz = static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(d.nz)));
  FieldF f(d);
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x)
        f.at(x, y, z) = base.at((x + ox) % d.nx, (y + oy) % d.ny, (z + oz) % d.nz);
  return f;
}

/// Repeats per write step of the operations shorter than build_progressive,
/// so that their quantiles get more samples.
constexpr int kTiledWrites = 3;
constexpr int kWorkflowWrites = 2;
constexpr int kReadBacks = 3;
/// Timed operations per write step.
constexpr int kStepOps = kTiledWrites + 1 + kWorkflowWrites + kReadBacks;
/// Whole-field decodes of the progressive stream per snapshot-roundtrip step.
constexpr int kProgressiveDecodes = 2;

/// The write and read-back throughputs are taken at this quantile of each
/// operation's time. Interference from outside the process (this benchmark shares
/// its host) only ever adds time and comes in bursts of seconds, so a run's
/// fast tail is a far steadier estimate of the path's own cost than its
/// median; the median-based figure is printed beside it.
constexpr double kFastQuantile = 0.10;

/// Every timed write-path sample of one input field (seconds), its size and
/// its stored bytes (writes are deterministic, so one size per stream).
struct WriteTimes {
  double mb = 0;  ///< input megabytes
  std::vector<double> tiled, progressive, workflow, read;
  double b_tiled = 0, b_progressive = 0, b_workflow = 0;
};

/// One in-situ output step: the field written tiled (kTiledWrites times),
/// progressive and workflow (kWorkflowWrites times), then the tiled stream
/// read back whole kReadBacks times. Timings go to `times`; a repeated write
/// must give the same bytes.
struct WriteStep {
  Bytes tiled, progressive, workflow;
  FieldF back;
};

WriteStep write_step(const FieldF& f, const api::Options& o, WriteTimes& times) {
  WriteStep s;
  times.mb = static_cast<double>(f.size()) * sizeof(float) / 1e6;
  auto write = [&](int repeats, std::vector<double>& samples, const char* what, auto&& fn) {
    Bytes first;
    for (int i = 0; i < repeats; ++i) {
      const auto t0 = Clock::now();
      Bytes b = fn();
      samples.push_back(seconds_since(t0));
      if (i == 0) {
        first = std::move(b);
      } else {
        check(b == first, std::string("a repeated ") + what + " write differs");
      }
    }
    return first;
  };
  s.tiled = write(kTiledWrites, times.tiled, "tiled", [&] { return api::compress_tiled(f, o); });
  s.progressive = write(1, times.progressive, "progressive", [&] { return api::build_progressive(f, o); });
  s.workflow = write(kWorkflowWrites, times.workflow, "workflow", [&] { return api::compress_adaptive(f, o); });
  for (int i = 0; i < kReadBacks; ++i) {
    const auto t0 = Clock::now();
    s.back = api::decompress(s.tiled);
    times.read.push_back(seconds_since(t0));
  }
  times.b_tiled = static_cast<double>(s.tiled.size());
  times.b_progressive = static_cast<double>(s.progressive.size());
  times.b_workflow = static_cast<double>(s.workflow.size());
  return s;
}

/// The write metrics over every field's samples. A throughput is the input
/// of one operation per field over the sum of the fields' operation times at
/// kFastQuantile, so each field weighs the same however many samples it has.
void report_writes(Report& rep, const std::vector<WriteTimes>& fields, const std::string& what) {
  double mb = 0, b_t = 0, b_p = 0, b_w = 0;
  for (const WriteTimes& x : fields) {
    mb += x.mb;
    b_t += x.b_tiled;
    b_p += x.b_progressive;
    b_w += x.b_workflow;
  }
  auto rate = [&](const char* name, std::vector<double> WriteTimes::*samples) {
    double fast = 0, mid = 0;
    std::size_t n = 0;
    for (const WriteTimes& x : fields) {
      fast += quantile(x.*samples, kFastQuantile);
      mid += median(x.*samples);
      n += (x.*samples).size();
    }
    char note[200];
    std::snprintf(note, sizeof(note), "p%.0f of op time, n=%zu %s; at the median %.1f MB/s",
                  100.0 * kFastQuantile, n, what.c_str(), mb / mid);
    rep.add(name, mb / fast, "MB/s", note);
  };
  rate("tiled_write_mb_s", &WriteTimes::tiled);
  rate("progressive_write_mb_s", &WriteTimes::progressive);
  rate("workflow_write_mb_s", &WriteTimes::workflow);
  rate("tiled_read_all_mb_s", &WriteTimes::read);
  rep.add("tiled_ratio", mb * 1e6 / b_t, "x", "input/stored bytes");
  rep.add("progressive_ratio", mb * 1e6 / b_p, "x", "input/stored bytes");
  rep.add("workflow_ratio", mb * 1e6 / b_w, "x", "input/stored bytes");
}

struct SnapshotInputs {
  FieldF nyx, ez;
};

SnapshotInputs make_snapshot_inputs(const Args& a) {
  const Dim3 d{a.extent, a.extent, a.extent};
  return {nyx_field(d, a.seed), sim::warpx_ez(d, a.seed ^ 0x5eedull)};
}

void run_snapshot(const Args& a, Report& rep) {
  const api::Options o = write_options();
  // Set-up: the two input fields, made kSnapshotSetups times (the same seed
  // must give the same fields each time).
  std::vector<double> setups;
  SnapshotInputs in;
  for (int i = 0; i < kSnapshotSetups; ++i) {
    const auto t0 = Clock::now();
    SnapshotInputs again = make_snapshot_inputs(a);
    setups.push_back(seconds_since(t0));
    if (i == 0) {
      in = std::move(again);
    } else {
      check(identical(in.nyx, again.nyx) && identical(in.ez, again.ez),
            "the same seed made different input fields");
    }
  }
  const FieldF* fields[2] = {&in.nyx, &in.ez};
  Bytes checked_snapshot[2];

  // Whole (Nyx, WarpX) pairs, so both fields have the same sample counts.
  std::vector<WriteTimes> times(2);
  std::vector<std::pair<double, double>> read_lat, prog_lat;  // (completion s, us)
  double read_time = 0.0;
  const auto t_start = Clock::now();
  for (int pair = 0;; ++pair) {
    for (int which = 0; which < 2; ++which) {
      const FieldF& f = *fields[which];
      const double eb = o.absolute_eb(f);
      WriteTimes& wt = times[static_cast<std::size_t>(which)];
      const std::size_t first_read = wt.read.size();
      rep.attempted += kStepOps + kProgressiveDecodes;
      WriteStep s = write_step(f, o, wt);
      for (std::size_t i = first_read; i < wt.read.size(); ++i) {
        read_lat.emplace_back(seconds_since(t_start), wt.read[i] * 1e6);
        read_time += wt.read[i];
      }
      // Checks, outside the write/read windows. The progressive stream's
      // whole-field decodes are timed as this workload's progressive reads.
      check_within(f, s.back, eb, "tiled stream (api::decompress)");
      FieldF pback;
      for (int i = 0; i < kProgressiveDecodes; ++i) {
        const auto tp0 = Clock::now();
        FieldF again = api::decompress(s.progressive);
        prog_lat.emplace_back(seconds_since(t_start), seconds_since(tp0) * 1e6);
        if (i == 0) {
          pback = std::move(again);
        } else {
          check(identical(pback, again), "a repeated progressive decode differs");
        }
      }
      check_within(f, pback, eb, "progressive stream (api::decompress)");
      // Writes are deterministic, so a later pair's snapshot only has to
      // match the bytes the first pair checked.
      if (pair == 0) {
        check_workflow(f, s.workflow, o, workflow_reference(f, o));
        checked_snapshot[which] = std::move(s.workflow);
      } else {
        check(s.workflow == checked_snapshot[which], "a repeated workflow write differs");
      }
    }
    if (seconds_since(t_start) >= a.seconds && pair >= 1) break;
  }
  const double loop_seconds = seconds_since(t_start);
  rep.add("setup_s", median(setups), "s", "median of " + std::to_string(kSnapshotSetups) + " set-ups");
  report_writes(rep, times, "samples, Nyx and WarpX");
  add_latency(rep, "read", read_lat, loop_seconds, "whole-field reads");
  add_latency(rep, "progressive", prog_lat, loop_seconds, "whole-field progressive decodes");
  rep.add("reads_per_s", static_cast<double>(read_lat.size()) / read_time, "1/s",
          "whole-field read-backs per second of read time");
}

// ============================================================== serving ===

enum OpKind : int { kRegionMrct = 0, kProgressiveMrcr = 1, kNumKinds = 2 };
const char* op_name(int k) { return k == kRegionMrct ? "region_mrct" : "progressive_mrcr"; }

struct Op {
  int kind = kRegionMrct;
  tiled::Box box;
};

/// The streams explore-cold serves, written in set-up, plus full-field
/// decodes that every served read is compared against.
struct Served {
  Dim3 dims;
  Bytes mrct, mrcr;                ///< stream copies kept for checks and replays
  Bytes snapshot;                  ///< the workflow snapshot (written, not served)
  FieldF ref_t, ref_r;             ///< full decodes (references)
  std::size_t working_set = 0;     ///< decoded bytes of every brick served
  std::unique_ptr<serve::Server> srv;
  std::uint32_t id_t = 0, id_r = 0;
  tiled::Index idx_t;
  progressive::Index idx_r;
  std::vector<tiled::Index> idx_r_levels;  ///< nested tiled index per MRCR level
  double bits_per_value = 0.0;
};

std::size_t decoded_bytes(const tiled::Index& idx) {
  std::size_t b = 0;
  for (const auto& t : idx.tiles) b += static_cast<std::size_t>(t.stored.size()) * sizeof(float);
  return b;
}

/// (Re)opens the served streams behind a fresh Server with an empty cache.
void open_server(Served& sv) {
  sv.srv.reset();
  serve::ServerConfig sc;
  sc.threads = 3;  // 3 lanes (2 workers) + 2 client threads fit 4 hardware threads
  sc.cache_bytes = sv.working_set / 8;
  sv.srv = std::make_unique<serve::Server>(sc);
  sv.id_t = sv.srv->open(sv.mrct, "mrct");
  sv.id_r = sv.srv->open(sv.mrcr, "mrcr");
}

/// explore-cold's set-up (timed): write the field three ways (the in-situ
/// output that precedes any viewing), read the tiled stream back, and open
/// the served streams behind one Server.
Served setup_serving(const FieldF& f, WriteTimes& w) {
  const api::Options o = write_options();
  Served sv;
  sv.dims = f.dims();
  WriteStep s = write_step(f, o, w);
  sv.mrct = std::move(s.tiled);
  sv.mrcr = std::move(s.progressive);
  sv.snapshot = std::move(s.workflow);
  sv.ref_t = std::move(s.back);

  sv.idx_t = tiled::read_index(sv.mrct);
  sv.idx_r = progressive::read_index(sv.mrcr);
  sv.working_set = decoded_bytes(sv.idx_t);
  for (std::size_t l = 0; l < sv.idx_r.levels.size(); ++l) {
    sv.idx_r_levels.push_back(tiled::read_index(sv.idx_r.level_stream(sv.mrcr, l)));
    sv.working_set += decoded_bytes(sv.idx_r_levels.back());
  }
  open_server(sv);
  return sv;
}

/// Checks every stream of a set-up (untimed) and decodes the references the
/// served reads are compared against.
void check_served(const Args& a, const FieldF& f, Served& sv) {
  const api::Options o = write_options();
  const double eb = o.absolute_eb(f);
  check_within(f, sv.ref_t, eb, "tiled stream (api::decompress)");
  check_workflow(f, sv.snapshot, o, workflow_reference(f, o));
  sv.ref_r = api::decompress(sv.mrcr);
  check_within(f, sv.ref_r, eb, "progressive stream (api::decompress)");
  const std::size_t stored = sv.mrct.size() + sv.mrcr.size() + sv.snapshot.size();
  sv.bits_per_value = 8.0 * static_cast<double>(stored) / (3.0 * static_cast<double>(f.size()));

  // The containers' own region reads equal the windows of their full
  // decodes, so served reads are checked against those windows.
  Rng rng(a.seed * 7919 + 3);
  const index_t win = std::min<index_t>(64, a.extent / 4);
  const auto span = static_cast<std::uint64_t>(a.extent - win + 1);
  for (int i = 0; i < 4; ++i) {
    const Coord3 lo{static_cast<index_t>(rng.uniform_index(span)),
                    static_cast<index_t>(rng.uniform_index(span)),
                    static_cast<index_t>(rng.uniform_index(span))};
    const tiled::Box box{lo, {lo.x + win, lo.y + win, lo.z + win}};
    check(equals_window(sv.ref_t, box, api::read_region(sv.mrct, box)),
          "tiled::read_region differs from the full decode window");
    check(equals_window(sv.ref_r, box, progressive::read_region(sv.mrcr, 0, box)),
          "progressive::read_region differs from the full decode window");
  }
}

/// A repeated set-up must write the same bytes as the checked one.
void check_same_streams(const Served& checked, const Served& again) {
  check(checked.mrct == again.mrct && checked.mrcr == again.mrcr &&
            checked.snapshot == again.snapshot,
        "a repeated set-up wrote different stream bytes");
}

/// Seeded request stream of one client: uniform random windows, alternating
/// MRCT region reads and MRCR progressive reads.
class OpStream {
 public:
  OpStream(index_t extent, std::uint64_t seed)
      : extent_(extent), win_(std::min<index_t>(64, extent / 4)), rng_(seed) {}

  Op next() {
    Op op;
    op.kind = k_ % 2 == 0 ? kRegionMrct : kProgressiveMrcr;
    const auto span = static_cast<std::uint64_t>(extent_ - win_ + 1);
    const Coord3 lo{static_cast<index_t>(rng_.uniform_index(span)),
                    static_cast<index_t>(rng_.uniform_index(span)),
                    static_cast<index_t>(rng_.uniform_index(span))};
    op.box = {lo, {lo.x + win_, lo.y + win_, lo.z + win_}};
    ++k_;
    return op;
  }

 private:
  index_t extent_, win_;
  Rng rng_;
  std::uint64_t k_ = 0;
};

/// A wire client over the in-process loopback transport that remembers the
/// size of the last reply frame.
struct WireClient {
  std::size_t last_reply = 0;
  serve::wire::Client client;
  explicit WireClient(serve::Server& srv)
      : client([this, &srv](std::span<const std::byte> frame) {
          Bytes reply = srv.handle_frame(frame);
          last_reply = reply.size();
          return reply;
        }) {}
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;
};

/// Outcome of one served operation.
struct OpResult {
  double seconds = 0.0;
  bool failed = false;
};

/// Issues one operation and checks its answer outside the timed window.
OpResult issue(WireClient& wc, const Served& sv, const Op& op) {
  OpResult r;
  const auto t0 = Clock::now();
  try {
    if (op.kind == kProgressiveMrcr) {
      const serve::wire::ProgressiveResult pr = wc.client.read_progressive(sv.id_r, 0, op.box);
      r.seconds = seconds_since(t0);
      if (!pr.complete()) {
        r.failed = true;
        return r;
      }
      check(pr.box == op.box && equals_window(sv.ref_r, op.box, pr.data),
            "progressive read differs from the plain region read");
    } else {
      const FieldF got = wc.client.region(sv.id_t, 0, op.box);
      r.seconds = seconds_since(t0);
      check(equals_window(sv.ref_t, op.box, got),
            "served region_mrct read differs from the container's read_region");
    }
  } catch (const CheckFailure&) {
    throw;
  } catch (const std::exception&) {
    // ServerError (overloaded sheds included), CodecError, anything else.
    r.seconds = seconds_since(t0);
    r.failed = true;
  }
  return r;
}

/// Runs a short untimed prefix of random reads so the small cache reaches
/// steady state before timing.
void warm(const Args& a, Served& sv) {
  WireClient wc(*sv.srv);
  OpStream ops(a.extent, a.seed * 31 + 17);
  for (int i = 0; i < 40; ++i) (void)issue(wc, sv, ops.next());
  sv.srv->wait_idle();
}

void run_serving(const Args& a, Report& rep) {
  const FieldF f = nyx_field({a.extent, a.extent, a.extent}, a.seed);
  std::vector<WriteTimes> writes(1);
  std::vector<double> setups;
  Served sv;
  for (int i = 0; i < kServingSetups; ++i) {
    const auto t0 = Clock::now();
    Served again = setup_serving(f, writes[0]);
    setups.push_back(seconds_since(t0));
    if (i == 0) {
      sv = std::move(again);
      check_served(a, f, sv);
    } else {
      check_same_streams(sv, again);
    }
  }
  // Timed loop: rounds of one write step of the field, then the clients
  // serving reads for as long as kServingWriteShare leaves them, until
  // --seconds. Interleaving spreads both kinds of metric over the whole run,
  // so a stretch of interference from outside the process weighs on each
  // alike. Write steps do not touch the server, so its cache stays warm.
  const api::Options o = write_options();
  warm(a, sv);

  // Samples are (serving time so far, latency us): the latency windows cut
  // serving time only. Each client also sums the time it spent inside
  // operations, so the per-read check (outside the timed window) does not
  // count towards reads_per_s.
  using Sample = std::pair<double, double>;
  std::atomic<std::uint64_t> attempted{0}, failed{0};
  std::vector<std::string> errors(kClients);
  std::vector<double> busy(kClients, 0.0);
  std::vector<std::vector<Sample>> client_lat(kClients * kNumKinds);
  std::vector<std::unique_ptr<WireClient>> clients;
  std::vector<OpStream> streams;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<WireClient>(*sv.srv));
    streams.emplace_back(a.extent, a.seed * 1000003ull + static_cast<std::uint64_t>(c));
  }
  double served = 0.0;
  const auto t_start = Clock::now();
  while (seconds_since(t_start) < a.seconds) {
    const auto tw = Clock::now();
    rep.attempted += kStepOps;
    const WriteStep s = write_step(f, o, writes[0]);
    const double write_s = seconds_since(tw);
    check(s.tiled == sv.mrct && s.progressive == sv.mrcr && s.workflow == sv.snapshot,
          "a repeated write differs from the checked set-up streams");
    check(identical(s.back, sv.ref_t), "a repeated read-back differs from the checked one");

    const double left = a.seconds - seconds_since(t_start);
    const double block =
        std::min(write_s * (1.0 - kServingWriteShare) / kServingWriteShare, std::max(left, 0.5));
    const auto t_block = Clock::now();
    const auto deadline = t_block + std::chrono::duration<double>(block);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] {
        const auto ci = static_cast<std::size_t>(c);
        try {
          while (Clock::now() < deadline) {
            const Op op = streams[ci].next();
            const OpResult r = issue(*clients[ci], sv, op);
            attempted.fetch_add(1, std::memory_order_relaxed);
            if (r.failed) failed.fetch_add(1, std::memory_order_relaxed);
            busy[ci] += r.seconds;
            client_lat[ci * kNumKinds + static_cast<std::size_t>(op.kind)].emplace_back(
                served + seconds_since(t_block),
                r.failed ? std::numeric_limits<double>::infinity() : r.seconds * 1e6);
          }
        } catch (const std::exception& e) {
          errors[ci] = e.what();
        }
      });
    for (auto& t : threads) t.join();
    served += seconds_since(t_block);
    for (const auto& e : errors)
      if (!e.empty()) throw CheckFailure(e);
  }
  std::vector<Sample> lat[kNumKinds];
  for (int c = 0; c < kClients; ++c)
    for (int k = 0; k < kNumKinds; ++k) {
      const auto& src = client_lat[static_cast<std::size_t>(c * kNumKinds + k)];
      lat[k].insert(lat[k].end(), src.begin(), src.end());
    }
  rep.attempted += attempted.load();
  rep.failed += failed.load();
  const std::uint64_t completed = attempted.load() - failed.load();
  double busy_sum = 0.0;
  for (const double b : busy) busy_sum += b;
  const double busy_mean = busy_sum / kClients;
  const serve::ServerStats st = sv.srv->stats();

  rep.add("setup_s", median(setups), "s", "median of " + std::to_string(kServingSetups) + " set-ups");
  report_writes(rep, writes, "Nyx samples, set-ups included");
  add_latency(rep, "read", lat[kRegionMrct], served, "region reads");
  add_latency(rep, "progressive", lat[kProgressiveMrcr], served, "progressive reads");
  char note[200];
  std::snprintf(note, sizeof(note),
                "%d closed-loop clients; per mean client busy %.3f s; cache hit ratio %.3f, %llu shed",
                kClients, busy_mean, st.cache.hit_ratio(), static_cast<unsigned long long>(st.rejected));
  rep.add("reads_per_s", static_cast<double>(completed) / busy_mean, "1/s", note);
}

// ============================================================ traced run ===

/// snapshot-roundtrip, traced: one untraced and one traced pass over the
/// same write/read steps; the traced pass replays the sub-steps that the
/// public write calls hide (restrict/prolong chains, prolong error, ROI
/// extraction, per-level SZ3MR compression).
void trace_snapshot(const Args& a, LayerTotals& L, Report& rep) {
  const api::Options o = write_options();
  SnapshotInputs in = make_snapshot_inputs(a);
  const FieldF* fields[2] = {&in.nyx, &in.ez};
  exec::ThreadPool pool(o.threads);
  std::size_t stored = 0, values = 0;
  Bytes checked[2][3];  // per field: tiled, progressive, workflow

  auto pass = [&](bool traced, double budget) {
    const auto t0 = Clock::now();
    for (int step = 0;; ++step) {
      const FieldF& f = *fields[step % 2];
      const double eb = o.absolute_eb(f);
      auto& walls = traced ? L.traced_wall : L.untraced_wall;
      rep.attempted += 4;
      auto timed = [&](const char* op, auto&& fn) {
        const Counters c0 = Counters::now();
        obs::ScopedTimer span(op);
        auto out = fn();
        const double w = span.seconds();
        const Counters d = Counters::now() - c0;
        walls[op].push_back(w);
        if (traced) {
          L.sum += d;
          L.op_wall += w;
          ++L.ops;
          L.unattributed[op] += w - wall_share(d.codec_s(), d, w);
        }
        return out;
      };
      Bytes t = timed("write_tiled", [&] { return api::compress_tiled(f, o); });
      Bytes p = timed("write_progressive", [&] { return api::build_progressive(f, o); });
      Bytes w = timed("write_workflow", [&] { return api::compress_adaptive(f, o); });
      FieldF back = timed("read_all", [&] { return api::decompress(t); });
      check_within(f, back, eb, "tiled stream (api::decompress)");
      // Each field's streams are decoded and checked once; writes are
      // deterministic, so later steps only have to match those bytes.
      Bytes* seen = checked[step % 2];
      if (seen[0].empty()) {
        check_within(f, api::decompress(p), eb, "progressive stream (api::decompress)");
        check_workflow(f, w, o, workflow_reference(f, o));
        seen[0] = t;
        seen[1] = p;
        seen[2] = w;
      } else {
        check(t == seen[0] && p == seen[1] && w == seen[2], "a repeated write differs");
      }
      if (traced) {
        stored += t.size() + p.size() + w.size();
        values += 3 * static_cast<std::size_t>(f.size());
        // Replays of what build_progressive hides.
        const int n_levels = static_cast<int>(progressive::read_index(p).levels.size());
        std::vector<FieldF> chain(static_cast<std::size_t>(n_levels));
        double restrict_s = 0.0;
        {
          obs::ScopedTimer span("replay.grid_restrict");
          for (int l = 1; l < n_levels; ++l)
            chain[static_cast<std::size_t>(l)] =
                restrict_half(l == 1 ? f : chain[static_cast<std::size_t>(l - 1)]);
          restrict_s = span.seconds();
        }
        auto level = [&](int l) -> const FieldF& { return l == 0 ? f : chain[static_cast<std::size_t>(l)]; };
        double prolong_s = 0.0, err_s = 0.0;
        {
          obs::ScopedTimer span("replay.grid_prolong");
          for (int l = n_levels - 2; l >= 0; --l)
            (void)prolong_trilinear(level(l + 1), level(l).dims());
          prolong_s = span.seconds();
        }
        {
          obs::ScopedTimer span("replay.prolong_error");
          for (int l = 1; l < n_levels; ++l) (void)pyramid::prolong_error(level(l), f, pool);
          err_s = span.seconds();
        }
        L.grid_restrict += restrict_s;
        L.grid_prolong += prolong_s;
        L.prolong_error += err_s;
        L.unattributed["write_progressive"] -= restrict_s + prolong_s + err_s;
        // Replays of what compress_adaptive hides.
        double roi_s = 0.0, cm_self = 0.0;
        MultiResField mr;
        {
          obs::ScopedTimer span("replay.roi_extract");
          mr = roi::extract_adaptive(f, o.roi_block, o.roi_fraction);
          roi_s = span.seconds();
        }
        {
          const Counters c0 = Counters::now();
          obs::ScopedTimer span("replay.compress_multires");
          (void)sz3mr::compress_multires(mr, eb, o.pipeline());
          const double cw = span.seconds();
          const Counters d = Counters::now() - c0;
          cm_self = cw - wall_share(d.codec_s(), d, cw);
        }
        L.roi_extract += roi_s;
        L.compress_multires += cm_self;
        L.unattributed["write_workflow"] -= roi_s + cm_self;
      }
      if (seconds_since(t0) >= budget && step % 2 == 1) break;
    }
  };
  pass(false, a.seconds / 2);
  obs::set_enabled(true);
  pass(true, a.seconds / 2);
  obs::set_enabled(false);
  rep.add("compressors.bits_per_value", 8.0 * static_cast<double>(stored) / static_cast<double>(values),
          "bits", "stored bits per input value, traced writes");
}

/// explore-cold, traced: one client issues the seeded request stream
/// untraced, then the same stream traced, each pass on a freshly opened and
/// identically warmed server. After each traced request the benchmark replays
/// decode_tile on the request's bricks, tiled::read_region on its box, and
/// progressive::refine over its support chain.
void trace_serving(const Args& a, LayerTotals& L, Report& rep) {
  const FieldF f = nyx_field({a.extent, a.extent, a.extent}, a.seed);
  WriteTimes w;
  Served sv = setup_serving(f, w);
  check_served(a, f, sv);
  const CodecRegistry& reg = registry();
  const auto codec_t = reg.make_for_magic(sv.idx_t.codec_magic);

  auto pass = [&](bool traced, double budget) {
    open_server(sv);
    warm(a, sv);
    WireClient wc(*sv.srv);
    OpStream ops(a.extent, a.seed * 1000003ull);
    const auto t0 = Clock::now();
    std::uint64_t trace_id = 1;
    while (seconds_since(t0) < budget) {
      const Op op = ops.next();
      const char* name = op_name(op.kind);
      if (traced) wc.client.set_trace(trace_id++);
      const Counters c0 = Counters::now();
      OpResult r;
      {
        obs::ScopedTimer span(name);
        r = issue(wc, sv, op);
      }
      const Counters d = Counters::now() - c0;
      ++rep.attempted;
      if (r.failed) {
        ++rep.failed;
        continue;
      }
      (traced ? L.traced_wall : L.untraced_wall)[name].push_back(r.seconds);
      if (!traced) continue;
      wc.client.set_trace(0);
      ++L.ops;
      L.op_wall += r.seconds;
      L.sum += d;
      const double serve_s = static_cast<double>(d.serve_us) * 1e-6;
      const double miss = d.v[kLookups] == 0 ? 0.0 : d.get(kMisses) / d.get(kLookups);
      L.serve_read += serve_s;
      ++L.served_reads;
      L.reply_bytes += wc.last_reply;
      double wire = r.seconds - serve_s;
      double unattributed = serve_s;
      // Demand decodes of the op's missed bricks, spread over the lanes the
      // op kept busy.
      auto missed_decode = [&](double replayed) { return wall_share(miss * replayed, d, r.seconds); };
      if (op.kind == kRegionMrct) {
        const auto bricks = tiled::tiles_in_region(sv.idx_t, op.box);
        double dec = 0.0;
        {
          obs::ScopedTimer span("replay.decode_tile");
          for (const index_t t : bricks)
            (void)tiled::decode_tile(sv.idx_t, *codec_t, sv.mrct, static_cast<std::size_t>(t));
          dec = span.seconds();
        }
        double rr = 0.0;
        {
          obs::ScopedTimer span("replay.tiled_read_region");
          (void)tiled::read_region(sv.mrct, op.box, 1);
          rr = span.seconds();
        }
        const double gather = std::max(0.0, rr - dec);
        L.decode_tile += dec;
        L.gather += gather;
        ++L.mrct_reads;
        L.mrct_bricks += bricks.size();
        unattributed = serve_s - gather - missed_decode(dec);
      } else if (op.kind == kProgressiveMrcr) {
        const auto chain = progressive::support_chain(sv.idx_r, 0, op.box);
        double dec = 0.0;
        std::uint64_t nb = 0;
        {
          obs::ScopedTimer span("replay.chain_decode");
          for (std::size_t l = 0; l < chain.size(); ++l) {
            const auto bricks = tiled::tiles_in_region(sv.idx_r_levels[l], chain[l]);
            nb += bricks.size();
            const auto codec = reg.make_for_magic(sv.idx_r_levels[l].codec_magic);
            const auto stream = sv.idx_r.level_stream(sv.mrcr, l);
            for (const index_t t : bricks)
              (void)tiled::decode_tile(sv.idx_r_levels[l], *codec, stream, static_cast<std::size_t>(t));
          }
          dec = span.seconds();
        }
        // Client-side refinement: the layers a progressive reply carries
        // (coarsest data window, then one residual window per finer level)
        // read straight from the level streams, folded with refine.
        const std::size_t top = chain.size() - 1;
        std::vector<FieldF> layer(chain.size());
        for (std::size_t l = 0; l < chain.size(); ++l)
          layer[l] = tiled::read_region(sv.idx_r.level_stream(sv.mrcr, l), chain[l], 1).data;
        double refine_s = 0.0;
        {
          obs::ScopedTimer span("replay.refine");
          FieldF acc = std::move(layer[top]);
          for (std::size_t l = top; l-- > 0;)
            acc = progressive::refine(acc, chain[l + 1], sv.idx_r.levels[l + 1].dims, layer[l],
                                      chain[l], sv.idx_r.levels[l].dims);
          refine_s = span.seconds();
          check(equals_window(sv.ref_r, op.box, acc), "refine replay differs from the read");
        }
        L.refine += refine_s;
        ++L.progressive_reads;
        L.chain_bricks += nb;
        wire -= refine_s;
        unattributed = serve_s - missed_decode(dec);
      }
      L.serve_wire += wire;
      L.unattributed[name] += unattributed;
    }
    sv.srv->wait_idle();
  };
  pass(false, a.seconds / 2);
  obs::set_enabled(true);
  pass(true, a.seconds / 2);
  obs::set_enabled(false);
  rep.add("compressors.bits_per_value", sv.bits_per_value, "bits",
          "stored bits per input value of the streams written in set-up");
}

void report_layers(const LayerTotals& L, Report& rep) {
  const double ops = std::max<double>(1.0, static_cast<double>(L.ops));
  const Counters& s = L.sum;
  const std::string per = "per traced op, n=" + std::to_string(L.ops);
  auto per_op = [&](double v) { return v / ops; };
  rep.add("compressors.predict_quant_s", per_op(s.seconds(kPredictNs)), "s", per);
  rep.add("lossless.entropy_s", per_op(s.seconds(kEntropyNs)), "s", per);
  rep.add("lossless.lzss_s", per_op(s.seconds(kLzssNs)), "s", per);
  rep.add("exec.run_s", per_op(s.seconds(kRunNs)), "s", per);
  rep.add("exec.wait_s", per_op(s.seconds(kWaitNs)), "s", per);
  rep.add("exec.tasks", per_op(s.get(kTasks)), "count", per);
  rep.add("exec.effective_parallelism",
          L.op_wall > 0.0 ? s.seconds(kRunNs) / L.op_wall : 0.0, "ratio",
          "exec run time / op wall");
  rep.add("grid.restrict_s", per_op(L.grid_restrict), "s", per);
  rep.add("grid.prolong_s", per_op(L.grid_prolong), "s", per);
  rep.add("pyramid.prolong_error_s", per_op(L.prolong_error), "s", per);
  rep.add("roi.extract_s", per_op(L.roi_extract), "s", per);
  rep.add("core.compress_multires_s", per_op(L.compress_multires), "s", per + " (self)");
  const double mr = std::max<double>(1.0, static_cast<double>(L.mrct_reads));
  const double pr = std::max<double>(1.0, static_cast<double>(L.progressive_reads));
  const double sr = std::max<double>(1.0, static_cast<double>(L.served_reads));
  rep.add("tiled.decode_tile_s", L.decode_tile / mr, "s", "per MRCT read, n=" + std::to_string(L.mrct_reads));
  rep.add("tiled.bricks_per_read", static_cast<double>(L.mrct_bricks) / mr, "count",
          "n=" + std::to_string(L.mrct_reads));
  rep.add("tiled.gather_s", L.gather / mr, "s", "per MRCT read (self)");
  rep.add("progressive.refine_s", L.refine / pr, "s",
          "per progressive read, n=" + std::to_string(L.progressive_reads));
  rep.add("progressive.chain_bricks", static_cast<double>(L.chain_bricks) / pr, "count",
          "per progressive read");
  rep.add("serve.read_s", L.serve_read / sr, "s", "per served read, n=" + std::to_string(L.served_reads));
  rep.add("serve.wire_s", L.serve_wire / sr, "s", "per served read (self)");
  rep.add("wire.reply_bytes", static_cast<double>(L.reply_bytes) / sr, "bytes", "per served read");
  rep.add("serve.cache_hit_ratio",
          s.v[kLookups] == 0 ? 0.0 : s.get(kHits) / s.get(kLookups), "ratio",
          "lookups=" + std::to_string(s.v[kLookups]));
  rep.add("serve.cache_evictions", per_op(s.get(kEvictions)), "count", per);
  rep.add("serve.cache_coalesced", per_op(s.get(kCoalesced)), "count", per);
  rep.add("serve.prefetched", per_op(s.get(kPrefetched)), "count", per);
  rep.add("serve.rejected", per_op(s.get(kRejected)), "count", per);
  for (const char* op : kOpTypes) {
    const auto tw = L.traced_wall.find(op);
    const auto uw = L.untraced_wall.find(op);
    const std::size_t n = tw == L.traced_wall.end() ? 0 : tw->second.size();
    const auto un = L.unattributed.find(op);
    const std::string name = op;
    rep.add(name + ".ops", static_cast<double>(n), "count", "traced ops of this type");
    rep.add(name + ".wall_s", n == 0 ? 0.0 : median(tw->second), "s", "median traced wall");
    rep.add(name + ".unattributed_s", n == 0 ? 0.0 : un->second / static_cast<double>(n), "s",
            "op wall minus its layers, mean");
    // Both passes issue the same seeded sequence, so their first m operations
    // of this type are the same operations.
    const std::size_t m = uw == L.untraced_wall.end() ? 0 : std::min(n, uw->second.size());
    auto head = [m](const std::vector<double>& v) {
      return median(std::vector<double>(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(m)));
    };
    rep.add(name + ".obs.overhead_s", m == 0 ? 0.0 : head(tw->second) - head(uw->second), "s",
            "median traced minus median untraced wall, same " + std::to_string(m) + " ops");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  const bool snapshot = a.workload == "snapshot-roundtrip";
  const int lanes = snapshot ? exec::hardware_threads() : kClients + 2;

  Report rep;
  try {
    if (!a.trace) {
      if (snapshot) {
        run_snapshot(a, rep);
      } else {
        run_serving(a, rep);
      }
    } else {
      LayerTotals L;
      if (snapshot)
        trace_snapshot(a, L, rep);
      else
        trace_serving(a, L, rep);
      report_layers(L, rep);
      obs::write_trace_json(a.trace_out);
      const obs::TraceStats ts = obs::trace_stats();
      std::printf("trace %s: %llu spans held, %llu dropped by ring wraparound\n",
                  a.trace_out.c_str(), static_cast<unsigned long long>(ts.recorded),
                  static_cast<unsigned long long>(ts.dropped));
    }
  } catch (const std::exception& e) {
    // A failed check, or an error the library raised outside any counted
    // operation (set-up, replays): either way the run is not correct.
    rep.correct = false;
    rep.error = e.what();
  }

  // Probed after the workload: a vCPU left idle before the run can take a
  // moment to come back, and the block should describe the machine the
  // workload ran on.
  const double eff_par = effective_parallelism(lanes);
  std::printf("environment {\"hardware_threads\": %d, \"lanes\": %d, \"effective_parallelism\": %.3f, "
              "\"isa\": \"%s\", \"build_type\": \"%s\", \"obs\": \"%s\", \"git\": \"%s\", "
              "\"seed\": %llu, \"extents\": [%lld, %lld, %lld], \"workload\": \"%s\", "
              "\"seconds\": %g}\n",
              exec::hardware_threads(), lanes, eff_par, simd::isa_name(simd::active_isa()),
              PERFBENCH_BUILD_TYPE,
              !obs::kCompiledIn ? "compiled-out" : a.trace ? "traced" : "runtime-off",
              json_escape(a.git).c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<long long>(a.extent), static_cast<long long>(a.extent),
              static_cast<long long>(a.extent), a.workload.c_str(), a.seconds);

  if (!rep.correct) std::printf("CHECK FAILED: %s\n", rep.error.c_str());
  for (const Metric& m : rep.metrics)
    std::printf("%-36s %18.6f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(), m.note.c_str());
  std::string js = "{\"correct\": ";
  js += rep.correct ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(rep.attempted, 1));
  js += ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    if (i) js += ", ";
    js += "\"" + json_escape(m.name) + "\": {\"value\": " + fmt_num(m.value) +
          ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  return 0;
}
