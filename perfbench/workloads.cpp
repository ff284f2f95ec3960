// perfbench_workloads: runs one benchmark workload against the EPRONS
// libraries and writes its raw measurements as one JSON object.
//
//   perfbench_workloads --workload NAME --seed N --seconds S --trace 0|1
//                       --out RESULT.json [--trace-dir DIR]
//
// A run is a sequence of passes. Each pass builds the workload's program
// state from scratch (timed as set-up) and then runs the workload's fixed
// unit of work on inputs generated from --seed (timed as the pass's wall
// time). Passes repeat until the next one would end after --seconds, and
// every pass must reproduce the first pass's output fingerprint and work
// counters exactly.
//
// Between a pass's units of work (a serving report window, a planning
// epoch, one solve, one cluster cell) the pass runs a fixed reference
// burst (HostSpeed) about every 20 ms, outside the timed work, and records
// the burst's mean time; set-up is preceded by bursts the same way.
// perfbench/run.py divides each time by the bursts' to take out the
// slowdown that other tenants of a shared host cause.
//
// With --trace 1 the run alternates untraced and traced passes (the
// difference is the tracing overhead), writes each traced pass's Chrome
// trace to DIR/trace_<pass>.json, and finishes with micro-probes that time
// single public calls of the layers the workload exercises, on the
// workload's own plan and inputs. perfbench/run.py turns the raw record
// into metrics and checks it against the committed fingerprints.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "consolidate/arc_lp.h"
#include "consolidate/greedy_consolidator.h"
#include "consolidate/milp_consolidator.h"
#include "core/scenario.h"
#include "dvfs/policies.h"
#include "dvfs/vp_table.h"
#include "flow/timed_flow.h"
#include "net/path_latency.h"
#include "obs/jsonl.h"
#include "obs/telemetry.h"
#include "schedule/temporal_scheduler.h"
#include "serve/arrivals.h"
#include "serve/serving_harness.h"
#include "sim/event_queue.h"
#include "sim/search_cluster.h"
#include "trace/diurnal.h"

using namespace eprons;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Planner thread count for every workload: fixed, so a run's work split
/// never depends on the host, and 1, so all of a pass's work runs on the
/// thread whose speed the HostSpeed bursts measure. The planner's output
/// is the same for any thread count.
constexpr int kPlannerThreads = 1;

// ---------------------------------------------------------------------------
// Output

/// Minimal JSON writer for the flat records this program emits.
class Json {
 public:
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }
  Json& key(const std::string& name) {
    comma();
    out_ << quote(name) << ':';
    fresh_ = true;
    return *this;
  }
  Json& value(double v) {
    comma();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ << buf;
    return *this;
  }
  Json& value(long long v) {
    comma();
    out_ << v;
    return *this;
  }
  Json& value(bool v) {
    comma();
    out_ << (v ? "true" : "false");
    return *this;
  }
  Json& value(const std::string& v) {
    comma();
    out_ << quote(v);
    return *this;
  }
  template <typename T>
  Json& field(const std::string& name, T v) {
    key(name);
    return value(v);
  }
  std::string str() const { return out_.str(); }

 private:
  Json& open(char c) {
    comma();
    out_ << c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ << c;
    fresh_ = false;
    return *this;
  }
  void comma() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  static std::string quote(const std::string& s) {
    std::string q = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return q + "\"";
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

/// FNV-1a over text: the fingerprint of a pass's outputs.
class Fingerprint {
 public:
  void mix(const std::string& text) {
    for (const char c : text) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ULL;
    }
  }
  /// Exact (hex float) rendering, so any bit change in a modeled output
  /// changes the fingerprint.
  void mix(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a|", v);
    mix(std::string(buf));
  }
  void mix(long long v) { mix(std::to_string(v) + "|"); }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Consumes a timed computation's result so it is not optimized away.
volatile double probe_sink = 0.0;
void keep(double v) { probe_sink = v; }

/// A fixed reference burst, independent of the program: four short
/// kernels shaped like the program's hot loops (exponential draws, dense
/// row updates, streaming FP, a binary heap), about 0.15 ms in all. Other
/// tenants of a shared host slow the program by up to 2x, by a share that
/// changes within seconds; a burst run between a pass's units of work is
/// slowed by about the same share at that moment.
class HostSpeed {
 public:
  HostSpeed() : fp_(2048, 1.0), tableau_(32 * 64, 1.0) {}

  /// Runs the burst once; returns its host seconds.
  double burst() {
    const auto start = Clock::now();
    // Exponential draws, like per-hop latency sampling.
    std::uint64_t x = acc_ | 1;
    for (int i = 0; i < 1500; ++i) {
      x = xorshift(x);
      sum_ -= std::log(static_cast<double>((x >> 11) + 1) * 0x1.0p-53);
    }
    // Dense row updates on a 32 x 64 tableau, like simplex pivots.
    for (std::size_t i = 0; i < tableau_.size(); ++i) {
      tableau_[i] = 1.0 + 0.1 * static_cast<double>(i % 7);
    }
    for (int r = 0; r < 32; ++r) {
      const double* pivot = &tableau_[static_cast<std::size_t>(r) * 64];
      for (int i = 0; i < 32; ++i) {
        if (i == r) continue;
        double* row = &tableau_[static_cast<std::size_t>(i) * 64];
        const double f = row[r] * 1e-3;
        for (int j = 0; j < 64; ++j) row[j] -= f * pivot[j];
      }
    }
    // Streaming FP over 16 KB.
    for (int r = 0; r < 16; ++r) {
      for (double& v : fp_) v = v * 0.999 + 0.001;
    }
    // A bounded binary heap, like an event queue.
    heap_.clear();
    for (int i = 0; i < 1500; ++i) {
      x = xorshift(x);
      heap_.push_back(x >> 40);
      std::push_heap(heap_.begin(), heap_.end());
      if (heap_.size() > 256) {
        std::pop_heap(heap_.begin(), heap_.end());
        heap_.pop_back();
      }
    }
    acc_ = x + heap_.front();
    keep(sum_ + fp_[7] + tableau_[9] + static_cast<double>(acc_));
    return seconds_since(start);
  }

 private:
  static std::uint64_t xorshift(std::uint64_t x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
  std::vector<double> fp_;
  std::vector<double> tableau_;
  std::vector<std::uint64_t> heap_;
  double sum_ = 0.0;
  std::uint64_t acc_ = 1;
};

/// Times one pass: the host seconds of its work, and the host's speed
/// while it ran. A workload calls mark() after each unit of work; once
/// 20 ms of work have passed since the last HostSpeed bursts, mark() runs
/// one burst per 20 ms of that work (at most 8), outside the work time.
/// The pass's burst time is the mean over its bursts, each weighted by
/// the share of the work it follows.
class PassClock {
 public:
  void start() {
    running_ = true;
    work_s_ = since_burst_s_ = weighted_burst_s_ = 0.0;
    bursts_ = 0;
    last_ = Clock::now();
  }
  void mark() { close(false); }
  /// Ends the pass: closes its last unit of work and times the bursts
  /// that follow it.
  void stop() {
    close(true);
    running_ = false;
  }
  /// Mean of `n` bursts run now, seconds (the host speed around set-up).
  double sample(int n) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += speed_.burst();
    return total / n;
  }
  double work_s() const { return work_s_; }
  /// Work-weighted mean burst seconds over the pass (0 if no work).
  double mean_burst_s() const {
    return work_s_ > 0.0 ? weighted_burst_s_ / work_s_ : 0.0;
  }
  long long bursts() const { return bursts_; }

 private:
  static constexpr double kBurstEveryS = 0.02;
  static constexpr int kMaxBursts = 8;

  void close(bool last) {
    if (!running_) return;
    const double s = seconds_since(last_);
    work_s_ += s;
    since_burst_s_ += s;
    if (since_burst_s_ >= kBurstEveryS || (last && since_burst_s_ > 0.0)) {
      const obs::ScopedSpan span(obs::tracer(), "bench.host_speed", "bench");
      const int n = std::clamp(
          static_cast<int>(since_burst_s_ / kBurstEveryS + 0.5), 1,
          kMaxBursts);
      weighted_burst_s_ += since_burst_s_ * sample(n);
      bursts_ += n;
      since_burst_s_ = 0.0;
    }
    last_ = Clock::now();
  }

  HostSpeed speed_;
  bool running_ = false;
  double work_s_ = 0.0;
  double since_burst_s_ = 0.0;
  double weighted_burst_s_ = 0.0;
  long long bursts_ = 0;
  Clock::time_point last_;
};

PassClock& pass_clock() {
  static PassClock clock;
  return clock;
}

/// What one pass produced.
struct PassOutput {
  long long attempted = 0;   // operations attempted
  long long ops = 0;         // operations completed
  long long ops_failed = 0;  // operations that failed (workload-defined)
  std::string fingerprint;
  /// Host latency of each timed operation in the pass, ms (workloads with
  /// per-operation calls only).
  std::map<std::string, std::vector<double>> op_ms;
  /// Modeled outputs and per-pass work figures (exact for a seed).
  std::map<std::string, double> values;
  /// Invariants: name -> held.
  std::vector<std::pair<std::string, bool>> checks;
};

/// Layer micro-probe results, ns per call unless named otherwise.
using Probes = std::map<std::string, double>;

/// Times `calls` invocations of `body` (which receives the call index),
/// repeated `reps` times; returns the median ns per call.
double time_per_call_ns(long long calls, int reps,
                        const std::function<void(long long)>& body) {
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    for (long long i = 0; i < calls; ++i) body(i);
    per_call.push_back(seconds_since(start) * 1e9 /
                       static_cast<double>(std::max(1LL, calls)));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

// ---------------------------------------------------------------------------
// Shared substrate and probes

/// The benches' substrate (bench/bench_common.h): 4-ary fat tree,
/// 50K-sample synthetic search workload, default power calibration. The
/// substrate is fixed; only workload inputs vary with --seed.
Scenario make_substrate() {
  SyntheticWorkloadConfig workload;
  workload.samples = 50000;
  workload.bins = 256;
  return ScenarioBuilder()
      .seed(1)
      .fat_tree(4)
      .workload(workload)
      .threads(kPlannerThreads)
      .build();
}

/// Request and reply paths of a plan's query flows.
std::vector<Path> query_paths(const ConsolidationResult& placement,
                              const std::vector<FlowId>& request_flow,
                              const std::vector<FlowId>& reply_flow) {
  std::vector<Path> paths;
  for (const auto* ids : {&request_flow, &reply_flow}) {
    for (const FlowId f : *ids) {
      if (f == kInvalidFlow) continue;
      paths.push_back(placement.flow_paths[static_cast<std::size_t>(f)]);
    }
  }
  return paths;
}

/// net + topo probes on the workload's own query paths and offered load.
void probe_network(const Graph& graph, const std::vector<Path>& paths,
                   const LinkUtilization& load, std::uint64_t seed,
                   Probes* out) {
  const PathLatencyEstimator estimator(&load, LinkLatencyModel{});
  const long long draws = 200000;
  const auto n = static_cast<long long>(paths.size());
  double sink = 0.0;
  Rng rng(seed);
  (*out)["net.sample_ns"] = time_per_call_ns(draws, 3, [&](long long i) {
    sink += estimator.sample_latency(paths[static_cast<std::size_t>(i % n)],
                                     rng);
  });
  Rng rng2(seed);
  std::vector<std::vector<PreparedHop>> prepared(paths.size());
  (*out)["net.sample_prepared_ns"] =
      time_per_call_ns(draws, 3, [&](long long i) {
        const auto p = static_cast<std::size_t>(i % n);
        if (i < n) estimator.prepare(paths[p], &prepared[p]);
        sink += estimator.sample_prepared(prepared[p], rng2);
      });
  std::vector<std::pair<NodeId, NodeId>> hops;
  for (const Path& path : paths) {
    for (std::size_t h = 1; h < path.size(); ++h) {
      hops.emplace_back(path[h - 1], path[h]);
    }
  }
  const auto nh = static_cast<long long>(hops.size());
  long long found = 0;
  (*out)["topo.find_link_ns"] = time_per_call_ns(1000000, 3, [&](long long i) {
    const auto& hop = hops[static_cast<std::size_t>(i % nh)];
    found += graph.find_link(hop.first, hop.second) != kInvalidLink;
  });
  keep(sink + static_cast<double>(found));
}

/// dvfs probes: EPRONS-Server frequency selection at fixed queue depths,
/// and one CCDF-table lookup, on seed-drawn queues.
void probe_dvfs(const Scenario& scn, std::uint64_t seed, Probes* out) {
  const ServiceModel& model = scn.service_model();
  EpronsServerPolicy policy(&model);
  Rng rng(seed);
  double sink = 0.0;
  for (const int depth : {1, 4, 16}) {
    // 64 distinct queues of this depth: arrivals in the last 20 ms,
    // deadlines at the 25 ms server budget plus up to 3 ms network slack.
    std::vector<std::vector<QueuedRequest>> queues(64);
    const SimTime now = sec(10.0);
    for (auto& queue : queues) {
      for (int i = 0; i < depth; ++i) {
        QueuedRequest q;
        q.id = static_cast<RequestId>(i);
        q.arrival = now - rng.uniform(0.0, ms(20.0));
        q.deadline_server = q.arrival + ms(25.0);
        q.deadline_with_slack = q.deadline_server + rng.uniform(0.0, ms(3.0));
        queue.push_back(q);
      }
      std::sort(queue.begin(), queue.end(),
                [](const QueuedRequest& a, const QueuedRequest& b) {
                  return a.arrival < b.arrival;
                });
    }
    const long long calls = depth >= 16 ? 4000 : 20000;
    const std::string name = "dvfs.select_ns_d" + std::to_string(depth);
    (*out)[name] = time_per_call_ns(calls, 3, [&](long long i) {
      sink += policy.select_frequency(
          now, queues[static_cast<std::size_t>(i % 64)], 0.0);
    });
  }
  const VpTable table(&model, 16);
  const std::size_t freqs = model.frequency_grid().size();
  std::vector<std::size_t> depth(4096);
  std::vector<SimTime> budget(4096);
  std::vector<std::size_t> freq(4096);
  for (std::size_t i = 0; i < depth.size(); ++i) {
    depth[i] = 1 + static_cast<std::size_t>(rng.uniform_int(0, 15));
    budget[i] = rng.uniform(ms(1.0), ms(30.0));
    freq[i] = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(freqs) - 1));
  }
  out->emplace("dvfs.vp_table_ns",
               time_per_call_ns(1000000, 3, [&](long long i) {
                 const auto j = static_cast<std::size_t>(i & 4095);
                 sink += table.violation_probability(depth[j], budget[j],
                                                     freq[j]);
               }));
  keep(sink);
}

/// sim probe: EventQueue schedule + step per event in a hold model with a
/// DES-sized pending set.
void probe_events(std::uint64_t seed, Probes* out) {
  Rng rng(seed);
  std::vector<double> delays(4096);
  for (double& d : delays) d = rng.uniform(1.0, ms(10.0));
  long long fired = 0;
  (*out)["sim.event_ns"] = time_per_call_ns(1, 3, [&](long long) {
    EventQueue events;
    std::size_t next = 0;
    std::function<void()> fire = [&] {
      ++fired;
      events.schedule_in(delays[next++ & 4095], fire);
    };
    for (int i = 0; i < 256; ++i) {
      events.schedule_in(delays[next++ & 4095], fire);
    }
    for (int i = 0; i < 400000; ++i) events.step();
  }) / 400000.0;
  keep(static_cast<double>(fired));
}

// ---------------------------------------------------------------------------
// Workloads

/// Output buffer that discards what is written to it and records the host
/// time of every flush. JsonlWriter flushes once per record, so the flushes
/// of a serving run mark the ends of its report windows and epochs.
class FlushClock final : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
  int sync() override {
    pass_clock().mark();
    return 0;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the program state a pass runs on (timed as set-up).
  virtual void setup() = 0;
  /// Runs the workload's unit of work once (timed as the pass).
  virtual PassOutput run() = 0;
  /// Per-layer micro-probes (trace runs only).
  virtual Probes probes() = 0;
};

// serve-diurnal: open-loop serving of a mid-morning diurnal half hour.
class ServeDiurnal final : public Workload {
 public:
  explicit ServeDiurnal(std::uint64_t seed) : seed_(seed) {}

  ServingHarnessConfig config(const Scenario& scn) const {
    ServingHarnessConfig c;
    c.arrivals.horizon = sec(kHorizonS);
    c.arrivals.peak_rate_qps = 80.0;
    c.arrivals.seed = seed_;
    c.arrivals.diurnal_start = sec(9.0 * 3600.0);
    // Flash crowds are off: their Poisson count (mean 0.5 per half hour,
    // 3-8x magnitude) changed the arrival count by up to 46% between
    // seeds, which no run length in the time budget averages out. Burst
    // noise stays on.
    c.arrivals.flash.events_per_hour = 0.0;
    c.epoch.transition.epoch_length = sec(600.0);
    c.epoch.joint.slack.samples_per_pair = 150;
    c.flow_gen = scn.flow_gen();
    // 10 s windows: a record, and so a chance for a HostSpeed burst, about
    // every 10 ms of host time.
    c.report_window = sec(10.0);
    c.admission = "sla-aware";
    c.seed = seed_ + 1;
    return c;
  }

  void setup() override {
    harness_.reset();
    scn_ = std::make_unique<Scenario>(make_substrate());
    ServingHarnessConfig c = config(*scn_);
    c.sink = &writer_;
    // Harness construction is dominated by the EpochController it builds.
    const obs::ScopedSpan span(obs::tracer(), "bench.core_setup", "bench");
    const auto start = Clock::now();
    harness_ = std::make_unique<ServingHarness>(
        &scn_->topology(), &scn_->service_model(), &scn_->power_model(), c);
    core_setup_ms_ = 1e3 * seconds_since(start);
  }

  PassOutput run() override {
    PassOutput out;
    pass_clock().start();
    const ServingReport r = harness_->run();
    pass_clock().stop();
    Fingerprint fp;
    for (const auto& window : r.windows) fp.mix(obs::to_jsonl(window));
    fp.mix(r.arrivals);
    fp.mix(r.completed);
    fp.mix(r.subqueries_completed);
    fp.mix(r.sla_misses);
    fp.mix(r.total_energy_j);
    out.fingerprint = fp.hex();
    const long long refused = r.shed + r.dropped + r.late_shed;
    const long long fanout = scn_->topology().num_hosts() - 1;
    const double attempted_sub =
        static_cast<double>(r.subqueries_completed + refused * fanout);
    out.attempted = r.arrivals;
    out.ops = r.completed;
    out.ops_failed = refused;
    out.values = {
        {"arrivals", static_cast<double>(r.arrivals)},
        {"admitted", static_cast<double>(r.admitted)},
        {"subqueries", static_cast<double>(r.subqueries_completed)},
        {"modeled_p99_ms", to_ms(r.latency.p99)},
        {"modeled_p99_count", static_cast<double>(r.latency.count)},
        {"modeled_miss_pct",
         100.0 * static_cast<double>(r.sla_misses + refused * fanout) /
             std::max(1.0, attempted_sub)},
        {"modeled_energy_per_query_j",
         r.total_energy_j / std::max(1.0, static_cast<double>(r.completed))},
        {"modeled_power_w", r.total_energy_j / kHorizonS},
        {"core_setup_ms", core_setup_ms_},
    };
    out.checks = {
        {"arrivals == admitted + shed + dropped",
         r.arrivals == r.admitted + r.shed + r.dropped},
        {"completed <= admitted", r.completed <= r.admitted},
        {"served every query window", !r.windows.empty()},
    };
    return out;
  }

  Probes probes() override {
    Probes p;
    // ArrivalGenerator::next drained over this workload's own stream.
    const ServingHarnessConfig c = config(*scn_);
    long long n = 0;
    double sum = 0.0;
    p["serve.arrival_next_ns"] = time_per_call_ns(1, 3, [&](long long) {
      ArrivalGenerator gen(c.arrivals);
      n = 0;
      for (SimTime t = gen.next(); t < c.arrivals.horizon; t = gen.next()) {
        sum += t;
        ++n;
      }
    }) / static_cast<double>(std::max(1LL, n));
    // A plan for the horizon's middle ten minutes at their mean arrival
    // rate, over 20% background: its query paths and offered load drive
    // the network probes.
    ArrivalGenerator gen(c.arrivals);
    const SimTime mid = 0.5 * c.arrivals.horizon;
    const double lambda =
        gen.integrated_rate(mid - sec(300.0), mid + sec(300.0)) / sec(600.0);
    const double utilization =
        std::clamp(lambda * scn_->service_model().mean_service_time(
                                scn_->service_model().config().f_max) /
                       scn_->power_model().num_cores(),
                   c.min_utilization, c.max_utilization);
    Rng bg_rng(seed_ + 2);
    const FlowSet background =
        make_background_flows(c.flow_gen, c.background_flows, 0.2,
                              c.background_jitter, bg_rng);
    EpochController ctrl = scn_->epoch_controller(c.epoch);
    Rng ctrl_rng(seed_ + 3);
    ctrl.run_epoch(background, utilization, ctrl_rng);
    const JointPlan& plan = ctrl.last_plan();
    const LinkUtilization load = scenario_offered_load(
        scn_->topology().graph(), plan.placement, plan.flows,
        plan.request_flow, plan.reply_flow,
        query_stream_rate(lambda, c.request_bytes),
        query_stream_rate(lambda, c.reply_bytes));
    probe_network(scn_->topology().graph(),
                  query_paths(plan.placement, plan.request_flow,
                              plan.reply_flow),
                  load, seed_, &p);
    probe_dvfs(*scn_, seed_, &p);
    probe_events(seed_, &p);
    keep(sum);
    return p;
  }

 private:
  static constexpr double kHorizonS = 1800.0;
  std::uint64_t seed_;
  std::unique_ptr<Scenario> scn_;
  std::unique_ptr<ServingHarness> harness_;
  double core_setup_ms_ = 0.0;
  // The harness's record sink: times every record, keeps no text.
  FlushClock clock_;
  std::ostream stream_{&clock_};
  obs::JsonlWriter writer_{&stream_};
};

// cluster-deep: the closed-rate SearchCluster at deep ISN queues.
class ClusterDeep final : public Workload {
 public:
  explicit ClusterDeep(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    scn_ = std::make_unique<Scenario>(make_substrate());
    Rng bg_rng(seed_);
    // Six elephants at exactly 20% of link capacity: no demand jitter, so
    // every seed gets the same placement and the seed drives only the
    // DES streams (arrivals, service work, hop latencies).
    background_ = make_background_flows(scn_->flow_gen(), 6, 0.20, 0.0, bg_rng);
  }

  ScenarioConfig config(const std::string& policy, double util,
                        int replica) const {
    ScenarioConfig c;
    c.cluster.policy = policy;
    c.cluster.target_utilization = util;
    c.cluster.warmup = sec(kWarmupS);
    c.cluster.duration = sec(kDurationS);
    c.cluster.seed = seed_ + 1 + 7919 * static_cast<std::uint64_t>(replica);
    c.consolidation.scale_factor_k = 2.0;
    return c;
  }

  PassOutput run() override {
    PassOutput out;
    Fingerprint fp;
    double energy_j = 0.0;
    double power_w = 0.0;
    double sub_miss = 0.0;
    long long subqueries = 0;
    int cells = 0;
    bool feasible = true;
    pass_clock().start();
    // The worst cell's query p99, with that cell's query count.
    double p99_ms = 0.0;
    long long p99_count = 0;
    // Cells in replica-major order: policy x utilisation, then the next
    // replica's DES seeds.
    for (int cell = 0; cell < kReplicas * 4; ++cell) {
      const int replica = cell / 4;
      const char* policy = kPolicies[cell / 2 % 2];
      const double util = kUtilizations[cell % 2];
      const ScenarioResult r =
          scn_->run(background_, config(policy, util, replica));
      pass_clock().mark();
      const ClusterMetrics& m = r.metrics;
      fp.mix(static_cast<long long>(replica));
      fp.mix(std::string(policy));
      fp.mix(util);
      fp.mix(static_cast<long long>(placement_fingerprint(r.placement)));
      fp.mix(m.query_latency.p99);
      fp.mix(m.subquery_latency.p99);
      fp.mix(m.subquery_miss_rate);
      fp.mix(m.total_system_power);
      fp.mix(static_cast<long long>(m.queries_completed));
      fp.mix(static_cast<long long>(m.subqueries_completed));
      out.ops += static_cast<long long>(m.queries_completed);
      out.ops_failed += static_cast<long long>(m.queries_overflowed);
      out.attempted += static_cast<long long>(m.queries_completed +
                                              m.queries_overflowed);
      subqueries += static_cast<long long>(m.subqueries_completed);
      energy_j += m.total_system_power * kDurationS;
      power_w += m.total_system_power;
      if (to_ms(m.query_latency.p99) > p99_ms) {
        p99_ms = to_ms(m.query_latency.p99);
        p99_count = static_cast<long long>(m.query_latency.count);
      }
      sub_miss += m.subquery_miss_rate *
                  static_cast<double>(m.subqueries_completed);
      feasible = feasible && r.placement_feasible;
      if (cells++ == 0) placement_ = r.placement;
    }
    pass_clock().stop();
    out.fingerprint = fp.hex();
    out.values = {
        {"subqueries", static_cast<double>(subqueries)},
        {"modeled_p99_ms", p99_ms},
        {"modeled_p99_count", static_cast<double>(p99_count)},
        {"modeled_miss_pct",
         100.0 * sub_miss / std::max(1.0, static_cast<double>(subqueries))},
        {"modeled_energy_per_query_j",
         energy_j / std::max(1.0, static_cast<double>(out.ops))},
        {"modeled_power_w", power_w / cells},
    };
    out.checks = {
        {"every placement feasible", feasible},
        {"every query fanned out to all 15 ISNs",
         subqueries >= (scn_->topology().num_hosts() - 1) * out.ops},
    };
    return out;
  }

  Probes probes() override {
    Probes p;
    // Rebuild the first cell's flow ids and offered load exactly as
    // run_search_scenario does, on the placement that cell chose.
    const ScenarioConfig c = config(kPolicies[0], kUtilizations[0], 0);
    FlowSet flows;
    for (const Flow& f : background_.flows()) {
      flows.add(f.src_host, f.dst_host, f.demand, f.cls);
    }
    const int hosts = scn_->topology().num_hosts();
    std::vector<FlowId> request(static_cast<std::size_t>(hosts), kInvalidFlow);
    std::vector<FlowId> reply(static_cast<std::size_t>(hosts), kInvalidFlow);
    for (int h = 1; h < hosts; ++h) {
      request[static_cast<std::size_t>(h)] = flows.add(
          0, h, c.query_request_demand, FlowClass::LatencySensitive);
      reply[static_cast<std::size_t>(h)] = flows.add(
          h, 0, c.query_reply_demand, FlowClass::LatencySensitive);
    }
    const double lambda = query_arrival_rate_per_us(
        scn_->service_model(), scn_->power_model().num_cores(),
        c.cluster.target_utilization);
    const LinkUtilization load = scenario_offered_load(
        scn_->topology().graph(), placement_, flows, request, reply,
        query_stream_rate(lambda, c.cluster.request_bytes),
        query_stream_rate(lambda, c.cluster.reply_bytes));
    probe_network(scn_->topology().graph(),
                  query_paths(placement_, request, reply), load, seed_, &p);
    probe_dvfs(*scn_, seed_, &p);
    probe_events(seed_, &p);
    return p;
  }

 private:
  // Each (policy, utilisation) cell runs as four replicas with their own
  // DES seeds, 0.25 s warm-up + 0.75 s measured each. How deep the queues
  // get in one window sets a pass's cost apart by seed (spread 0.078 with
  // one 2 s window per cell); four independent windows average that out,
  // and 16 short cells let a pass sample the host's speed 16 times.
  static constexpr int kReplicas = 4;
  static constexpr double kWarmupS = 0.25;
  static constexpr double kDurationS = 0.75;
  static constexpr const char* kPolicies[] = {"eprons", "rubik"};
  // u = 0.7 made a pass's cost depend on the seed by up to 30% (how far
  // the queues build up in a short window), so the deep end is 0.6.
  static constexpr double kUtilizations[] = {0.5, 0.6};
  std::uint64_t seed_;
  std::unique_ptr<Scenario> scn_;
  FlowSet background_;
  ConsolidationResult placement_;  // the first cell's, for the probes
};

// plan-diurnal: one epoch per minute of the Fig. 14 day, with a
// deadline-bound background layer scheduled into the diurnal troughs.
class PlanDiurnal final : public Workload {
 public:
  explicit PlanDiurnal(std::uint64_t seed) : seed_(seed) {
    // Inputs are generated once, from the seed, outside every timed phase.
    const Scenario scn = make_substrate();
    DiurnalTraceConfig diurnal;
    diurnal.seed = seed_;
    // Fig. 14 peaks background traffic at 55% of link capacity; with the
    // elastic layer on top, peak minutes then have no latency-feasible
    // plan, which would count as failed operations. 45% keeps every epoch
    // feasible on every seed tried.
    diurnal.background_peak = 0.45;
    trace_ = make_diurnal_trace(diurnal);
    Rng bg_rng(seed_ + 1);
    for (const TracePoint& point : trace_) {
      background_.push_back(make_background_flows(
          scn.flow_gen(), 6, point.background_util, 0.1, bg_rng));
    }
    TimedFlowGenConfig gen = scn.timed_flow_gen();
    gen.epochs = kMinutes;
    gen.min_window_epochs = 120;
    gen.max_window_epochs = 600;
    // Two uplink-minutes of volume per transfer on average.
    gen.mean_volume_mbit =
        static_cast<long long>(2.0 * scn.topology().link_capacity() * 60.0);
    Rng timed_rng(seed_ + 2);
    timed_ = make_timed_background_flows(gen, 12, timed_rng);
    cost_ = TemporalScheduler::diurnal_epoch_cost(diurnal, kMinutes, 60.0);
  }

  void setup() override {
    ctrl_.reset();
    scn_ = std::make_unique<Scenario>(make_substrate());
    EpochControllerConfig c;
    c.transition.epoch_length = sec(60.0);
    c.joint.slack.samples_per_pair = 150;
    {
      const obs::ScopedSpan span(obs::tracer(), "bench.core_setup", "bench");
      const auto start = Clock::now();
      ctrl_ = std::make_unique<EpochController>(scn_->epoch_controller(c));
      core_setup_ms_ = 1e3 * seconds_since(start);
    }
    TemporalSchedulerConfig s;
    s.epochs = kMinutes;
    s.epoch_seconds = 60.0;
    s.epoch_cost = cost_;
    // Elastic volume per minute: at most 0.3 uplink-minutes in total and
    // 0.15 per flow, so the packed minutes stay placeable next to the
    // inelastic background.
    const double uplink_minute = scn_->topology().link_capacity() * 60.0;
    s.epoch_cap_mbit = static_cast<long long>(0.3 * uplink_minute);
    s.flow_rate_cap_mbit = static_cast<long long>(0.15 * uplink_minute);
    scheduler_ =
        std::make_unique<TemporalScheduler>(scn_->temporal_scheduler(s));
  }

  PassOutput run() override {
    PassOutput out;
    Fingerprint fp;
    std::vector<double>& epoch_ms = out.op_ms["run_epoch"];
    std::vector<double>& append_us = out.op_ms["append_epoch_flows_us"];
    pass_clock().start();
    auto start = Clock::now();
    TemporalSchedule schedule;
    {
      const obs::ScopedSpan span(obs::tracer(), "bench.schedule", "bench");
      schedule = scheduler_->schedule(timed_);
    }
    out.values["schedule_ms"] = 1e3 * seconds_since(start);
    pass_clock().mark();
    fp.mix(static_cast<long long>(schedule.fingerprint()));
    Rng rng(seed_ + 3);
    double total_w = 0.0;
    for (int m = 0; m < kMinutes; ++m) {
      const auto i = static_cast<std::size_t>(m);
      FlowSet flows = background_[i];
      start = Clock::now();
      schedule.append_epoch_flows(m, &flows);
      append_us.push_back(1e6 * seconds_since(start));
      const double utilization = kPeakUtilization * trace_[i].search_load;
      start = Clock::now();
      EpochReport report;
      {
        const obs::ScopedSpan span(obs::tracer(), "bench.run_epoch", "bench");
        report = ctrl_->run_epoch(flows, utilization, rng);
      }
      epoch_ms.push_back(1e3 * seconds_since(start));
      const JointPlan& plan = ctrl_->last_plan();
      fp.mix(report.chosen_k);
      fp.mix(static_cast<long long>(report.feasible));
      fp.mix(static_cast<long long>(report.actual_switches));
      fp.mix(report.network_power);
      fp.mix(plan.total_power);
      fp.mix(static_cast<long long>(placement_fingerprint(plan.placement)));
      total_w += plan.total_power;
      ++out.attempted;
      ++out.ops;
      if (!report.feasible) ++out.ops_failed;
      pass_clock().mark();
    }
    pass_clock().stop();
    out.fingerprint = fp.hex();
    out.values["core_setup_ms"] = core_setup_ms_;
    out.values["modeled_power_w"] = total_w / kMinutes;
    out.values["schedule_carried_mbit"] =
        static_cast<double>(schedule.carried_total_mbit);
    out.values["schedule_total_mbit"] =
        static_cast<double>(schedule.total_volume_mbit);
    out.checks = {
        {"carried + missed == total",
         schedule.carried_total_mbit + schedule.missed_total_mbit ==
             schedule.total_volume_mbit},
        {"no hard-deadline misses", schedule.deadline_misses == 0},
    };
    return out;
  }

  Probes probes() override { return {}; }

 private:
  static constexpr int kMinutes = 1440;
  static constexpr double kPeakUtilization = 0.3;
  std::uint64_t seed_;
  std::vector<TracePoint> trace_;
  std::vector<FlowSet> background_;
  TimedFlowSet timed_;
  std::vector<double> cost_;
  std::unique_ptr<Scenario> scn_;
  std::unique_ptr<EpochController> ctrl_;
  std::unique_ptr<TemporalScheduler> scheduler_;
  double core_setup_ms_ = 0.0;
};

// plan-exact: exact MILP consolidation and the arc-LP bound on small
// seeded instances.
class PlanExact final : public Workload {
 public:
  explicit PlanExact(std::uint64_t seed) {
    Rng rng(seed);
    for (int i = 0; i < kInstances; ++i) {
      FlowSet flows;
      for (int f = 0; f < kFlows; ++f) {
        const int src = static_cast<int>(rng.uniform_int(0, 15));
        int dst = src;
        while (dst == src) dst = static_cast<int>(rng.uniform_int(0, 15));
        flows.add(src, dst, rng.uniform(50.0, 400.0),
                  rng.bernoulli(0.5) ? FlowClass::LatencySensitive
                                     : FlowClass::LatencyTolerant);
      }
      instances_.push_back(std::move(flows));
    }
    config_.scale_factor_k = 1.0;
    config_.safety_margin = 50.0;
    config_.switch_power = 36.0;
  }

  void setup() override {
    milp_.reset();
    scn_ = std::make_unique<Scenario>(make_substrate());
    milp_ = std::make_unique<MilpConsolidator>(&scn_->topology());
    arc_ = std::make_unique<ArcLpRelaxation>(&scn_->topology());
    greedy_ = std::make_unique<GreedyConsolidator>(&scn_->topology());
  }

  PassOutput run() override {
    PassOutput out;
    Fingerprint fp;
    std::vector<double>& milp_ms = out.op_ms["milp"];
    std::vector<double>& lp_ms = out.op_ms["arc_lp"];
    bool greedy_ok = true;
    bool bound_ok = true;
    bool capacity_ok = true;
    long long nodes = 0;
    double power_w = 0.0;
    pass_clock().start();
    for (const FlowSet& flows : instances_) {
      auto start = Clock::now();
      ConsolidationResult exact;
      {
        const obs::ScopedSpan span(obs::tracer(), "bench.milp", "bench");
        exact = milp_->consolidate(flows, config_);
      }
      milp_ms.push_back(1e3 * seconds_since(start));
      pass_clock().mark();
      nodes += milp_->last_node_count();
      start = Clock::now();
      ArcLpResult bound;
      {
        const obs::ScopedSpan span(obs::tracer(), "bench.arc_lp", "bench");
        bound = arc_->solve(flows, config_);
      }
      lp_ms.push_back(1e3 * seconds_since(start));
      pass_clock().mark();
      const ConsolidationResult heur = greedy_->consolidate(flows, config_);
      pass_clock().mark();

      // Finished below the node limit: the optimum is proven.
      const bool proven =
          exact.feasible &&
          milp_->last_node_count() < lp::MilpOptions{}.max_nodes;
      ++out.attempted;
      ++out.ops;
      if (!proven) ++out.ops_failed;
      fp.mix(static_cast<long long>(exact.feasible));
      fp.mix(exact.network_power);
      fp.mix(static_cast<long long>(exact.active_switches));
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.6f|", bound.network_power_bound);
      fp.mix(std::string(buf));
      power_w += exact.network_power;
      if (exact.feasible && heur.feasible) {
        greedy_ok = greedy_ok && heur.active_switches >= exact.active_switches;
      }
      if (exact.feasible && bound.status == lp::SolveStatus::Optimal) {
        bound_ok = bound_ok &&
                   bound.network_power_bound <= exact.network_power + 1e-6;
      }
      if (exact.feasible) {
        capacity_ok = capacity_ok && within_capacity(flows, exact);
      }
    }
    pass_clock().stop();
    out.fingerprint = fp.hex();
    out.values = {
        {"milp_nodes", static_cast<double>(nodes)},
        {"modeled_power_w", power_w / kInstances},
    };
    out.checks = {
        {"greedy switches >= MILP switches", greedy_ok},
        {"arc-LP bound <= MILP objective", bound_ok},
        {"MILP placement within link capacity", capacity_ok},
    };
    return out;
  }

  Probes probes() override { return {}; }

 private:
  /// Independent check of an exact placement: every directed arc carries
  /// at most capacity - margin of K-scaled demand.
  bool within_capacity(const FlowSet& flows,
                       const ConsolidationResult& r) const {
    const Graph& graph = scn_->topology().graph();
    std::map<std::pair<NodeId, NodeId>, double> arc_load;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      const Path& path = r.flow_paths[f];
      const Flow& flow = flows.flows()[f];
      const double demand = flow.cls == FlowClass::LatencySensitive
                                ? config_.scale_factor_k * flow.demand
                                : flow.demand;
      for (std::size_t h = 1; h < path.size(); ++h) {
        if (graph.find_link(path[h - 1], path[h]) == kInvalidLink) return false;
        arc_load[{path[h - 1], path[h]}] += demand;
      }
    }
    const double usable =
        scn_->topology().link_capacity() - config_.safety_margin;
    for (const auto& [arc, load] : arc_load) {
      if (load > usable + 1e-9) return false;
    }
    return true;
  }

  // Two flows per instance: a 3-flow instance needs 3-10x the B&B nodes
  // of a 2-flow one, with a tail that made a pass's time vary by 35%
  // between seeds. Two-flow instances still need 3 to 4,000 nodes each:
  // 48 of them sum to 10.6k-13.8k nodes over seeds 0-20 (spread 0.10),
  // and 96 did not spread less (0.115), so a pass keeps 48.
  static constexpr int kInstances = 48;
  static constexpr int kFlows = 2;
  std::vector<FlowSet> instances_;
  ConsolidationConfig config_;
  std::unique_ptr<Scenario> scn_;
  std::unique_ptr<MilpConsolidator> milp_;
  std::unique_ptr<ArcLpRelaxation> arc_;
  std::unique_ptr<GreedyConsolidator> greedy_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "serve-diurnal") return std::make_unique<ServeDiurnal>(seed);
  if (name == "cluster-deep") return std::make_unique<ClusterDeep>(seed);
  if (name == "plan-diurnal") return std::make_unique<PlanDiurnal>(seed);
  if (name == "plan-exact") return std::make_unique<PlanExact>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------------
// Command line and pass loop

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
  std::string trace_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--trace-dir") {
      a.trace_dir = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || !(a.seconds > 0.0) || a.out.empty()) {
    throw std::invalid_argument(
        "usage: perfbench_workloads --workload NAME --seed N --seconds S "
        "--trace 0|1 --out FILE [--trace-dir DIR]");
  }
  return a;
}

void write_map(Json& j, const std::string& name,
               const std::map<std::string, double>& values) {
  j.key(name).begin_object();
  for (const auto& [k, v] : values) j.field(k, v);
  j.end_object();
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);
  // Untraced runs need three passes for a median; trace runs alternate
  // untraced and traced passes and need two of each.
  const int min_passes = args.trace ? 4 : 3;
  const int max_passes = 64;
  // Set-up is cheap next to a pass, so it is repeated on its own before
  // the passes to give its median more samples. Each set-up is preceded
  // by HostSpeed bursts that give the host's speed around it.
  const int setup_reps = 7;
  const int setup_bursts = 3;
  const auto run_start = Clock::now();

  Json j;
  j.begin_object();
  j.field("workload", args.workload);
  j.field("seed", static_cast<long long>(args.seed));
  j.field("planner_threads", static_cast<long long>(kPlannerThreads));
  std::vector<double> setups;
  std::vector<double> setup_bursts_s;
  for (int i = 0; i < setup_reps; ++i) {
    setup_bursts_s.push_back(pass_clock().sample(setup_bursts));
    const auto t0 = Clock::now();
    workload->setup();
    setups.push_back(seconds_since(t0));
  }
  j.key("setup_s").begin_array();
  for (const double v : setups) j.value(v);
  j.end_array();
  j.key("setup_burst_s").begin_array();
  for (const double v : setup_bursts_s) j.value(v);
  j.end_array();
  j.key("passes").begin_array();
  double last_pass_s = 0.0;
  for (int pass = 0; pass < max_passes; ++pass) {
    // Stop once the next pass would end past the run's time budget.
    if (pass >= min_passes &&
        seconds_since(run_start) + last_pass_s > args.seconds) {
      break;
    }
    const auto pass_start = Clock::now();
    const bool traced = args.trace && pass % 2 == 1;
    obs::metrics().reset();
    obs::tracer().clear();
    obs::tracer().set_enabled(traced);
    const double setup_burst = pass_clock().sample(setup_bursts);
    const auto t0 = Clock::now();
    {
      const obs::ScopedSpan span(obs::tracer(), "bench.setup", "bench");
      workload->setup();
    }
    const double setup_s = seconds_since(t0);
    PassOutput out;
    {
      const obs::ScopedSpan span(obs::tracer(), "bench.pass", "bench");
      out = workload->run();
    }
    obs::tracer().set_enabled(false);
    if (traced) {
      std::ofstream trace(args.trace_dir + "/trace_" + std::to_string(pass) +
                          ".json");
      obs::tracer().write_json(trace);
    }
    const obs::MetricsSnapshot snap = obs::metrics().snapshot();

    j.begin_object();
    j.field("traced", traced);
    j.field("setup_s", setup_s);
    j.field("setup_burst_s", setup_burst);
    j.field("wall_s", pass_clock().work_s());
    j.field("burst_s", pass_clock().mean_burst_s());
    j.field("bursts", pass_clock().bursts());
    j.field("attempted", out.attempted);
    j.field("ops", out.ops);
    j.field("ops_failed", out.ops_failed);
    j.field("fingerprint", out.fingerprint);
    write_map(j, "values", out.values);
    j.key("op_ms").begin_object();
    for (const auto& [name, samples] : out.op_ms) {
      j.key(name).begin_array();
      for (const double v : samples) j.value(v);
      j.end_array();
    }
    j.end_object();
    j.key("counters").begin_object();
    for (const auto& [name, v] : snap.counters) {
      j.field(name, static_cast<long long>(v));
    }
    j.end_object();
    j.key("checks").begin_object();
    for (const auto& [name, ok] : out.checks) j.field(name, ok);
    j.end_object();
    j.end_object();
    last_pass_s = seconds_since(pass_start);
  }
  j.end_array();
  if (args.trace) write_map(j, "probes", workload->probes());
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  j.field("peak_rss_kb", static_cast<long long>(usage.ru_maxrss));
  j.end_object();

  std::ofstream out(args.out);
  out << j.str() << "\n";
  if (!out) throw std::runtime_error("cannot write " + args.out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workloads: %s\n", e.what());
    return 2;
  }
}
