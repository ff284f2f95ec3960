// Microbenchmark: the cold joint-optimizer K sweep, serial vs parallel.
//
// The cold sweep is the planner's hot path — every diurnal epoch without a
// usable previous plan pays one full optimize() (per-K consolidation,
// placement-deduplicated batch Monte-Carlo slack estimation, server power
// prediction). This bench times optimize() at 1/2/4 worker threads. Every
// row must produce a byte-identical plan (the determinism contract: results
// are a function of seed and shard count, never of worker count), which
// the bench checks through one 64-bit fingerprint of the plan per row.
//
// It also prints the exact work one serial cold sweep does: the deltas of
// the planner.k_candidates, slack.estimates and slack.samples counters over
// one optimize(). They are machine-independent, so CI gates them exactly
// against bench/trajectories/BENCH_7.json (tools/check_trajectory.py
// --perf); wall-clock is printed but never gated. A flag the bench does not
// read is an error (exit 2), so a misspelled or retired flag never runs the
// default configuration silently.
//
//   ./bench_micro_parallel_planner [--reps=5] [--samples=400] [--csv|--json]
//       [--no-timing] [--threads=N]
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/joint_optimizer.h"
#include "obs/telemetry.h"

using namespace eprons;

namespace {

double time_optimize(const JointOptimizer& optimizer,
                     const PlanRequest& request, int reps, JointPlan* out) {
  double best_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    JointPlan plan = optimizer.optimize(request);
    const auto stop = std::chrono::steady_clock::now();
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    best_ms = std::min(best_ms, elapsed_ms);
    *out = std::move(plan);
  }
  return best_ms;
}

// FNV-1a over the plan's decision-relevant state: one line of output CI can
// diff across thread counts and commits.
std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t fnv1a(std::uint64_t hash, double value) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  __builtin_memcpy(&bits, &value, sizeof(bits));
  return fnv1a(hash, bits);
}

std::uint64_t plan_fingerprint(const JointPlan& plan) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  hash = fnv1a(hash, static_cast<std::uint64_t>(plan.feasible));
  hash = fnv1a(hash, plan.k);
  hash = fnv1a(hash, plan.slack.request_mean);
  hash = fnv1a(hash, plan.slack.request_p95);
  hash = fnv1a(hash, plan.slack.total_mean);
  hash = fnv1a(hash, plan.slack.total_p95);
  hash = fnv1a(hash, plan.slack.total_p99);
  hash = fnv1a(hash, plan.server.frequency);
  hash = fnv1a(hash, plan.server.busy_fraction);
  hash = fnv1a(hash, plan.server.server_power);
  hash = fnv1a(hash, plan.effective_server_budget);
  hash = fnv1a(hash, plan.network_power);
  hash = fnv1a(hash, plan.total_power);
  for (std::size_t i = 0; i < plan.placement.switch_on.size(); ++i) {
    if (plan.placement.switch_on[i]) hash = fnv1a(hash, i);
  }
  for (const Path& path : plan.placement.flow_paths) {
    hash = fnv1a(hash, static_cast<std::uint64_t>(path.size()));
    for (NodeId node : path) {
      hash = fnv1a(hash, static_cast<std::uint64_t>(node));
    }
  }
  return hash;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const TableFormat fmt = table_format_from_cli(cli);
  const int reps = static_cast<int>(cli.get_int("reps", 5));
  const bool no_timing = cli.has_flag("no-timing");
  JointOptimizerConfig config;
  config.slack.samples_per_pair =
      static_cast<int>(cli.get_int("samples", 400));
  const Scenario scn = bench::make_scenario(cli);
  for (const std::string& name : cli.unused()) {
    std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
  }
  if (!cli.unused().empty()) return 2;

  bench::print_header(
      "Micro — cold K sweep, serial vs parallel",
      "n/a (implementation microbenchmark: byte-identical plans at any "
      "thread count; speedup from evaluating the K candidates and the slack "
      "shards concurrently)");

  Rng bg_rng(42);
  const FlowSet background =
      make_background_flows(scn.flow_gen(), 6, 0.2, 0.1, bg_rng);
  PlanRequest request;
  request.background = &background;
  request.utilization = 0.3;

  Table table({"threads", "runtime_threads", "best_ms", "speedup", "K",
               "total_W", "fingerprint", "plan_identical"});
  table.set_precision(2);

  double serial_ms = 0.0;
  std::uint64_t serial_fp = 0;
  bool all_identical = true;
  obs::Counter* const work_counters[] = {
      &obs::metrics().counter("planner.k_candidates"),
      &obs::metrics().counter("slack.estimates"),
      &obs::metrics().counter("slack.samples"),
  };
  std::uint64_t sweep_work[3] = {0, 0, 0};

  for (const int threads : {1, 2, 4}) {
    JointOptimizerConfig cfg = config;
    cfg.runtime = scn.runtime();
    cfg.runtime.threads = threads;
    // Built directly: Scenario::optimizer() gives a 1-thread config the
    // CLI runtime, which would run the serial row on --threads workers.
    const JointOptimizer optimizer(&scn.topology(), &scn.service_model(),
                                   &scn.power_model(), cfg);

    if (threads == 1) {
      // The counters are logical work, identical for any worker count.
      for (int c = 0; c < 3; ++c) sweep_work[c] = work_counters[c]->value();
      optimizer.optimize(request);
      for (int c = 0; c < 3; ++c) {
        sweep_work[c] = work_counters[c]->value() - sweep_work[c];
      }
    }

    JointPlan plan;
    const double best_ms = time_optimize(optimizer, request, reps, &plan);
    const std::uint64_t fp = plan_fingerprint(plan);
    if (threads == 1) {
      serial_ms = best_ms;
      serial_fp = fp;
    }
    const bool identical = fp == serial_fp;
    all_identical = all_identical && identical;
    table.add_row({static_cast<long long>(threads),
                   static_cast<long long>(optimizer.config().runtime.threads),
                   no_timing ? 0.0 : best_ms,
                   no_timing ? 0.0 : serial_ms / best_ms, plan.k,
                   plan.total_power, strformat("%016llx",
                       static_cast<unsigned long long>(fp)),
                   std::string(identical ? "yes" : "NO")});
  }
  table.print(std::cout, fmt);

  std::printf("\nserial cold sweep work: k_candidates=%llu "
              "slack_estimates=%llu slack_samples=%llu\n",
              static_cast<unsigned long long>(sweep_work[0]),
              static_cast<unsigned long long>(sweep_work[1]),
              static_cast<unsigned long long>(sweep_work[2]));
  std::printf("fingerprint %016llx identical=%s\n",
              static_cast<unsigned long long>(serial_fp),
              all_identical ? "yes" : "NO");
  if (!all_identical) {
    std::printf("FAIL: plans differ across thread counts\n");
    return EXIT_FAILURE;
  }
  if (!no_timing) {
    std::printf("serial cold sweep: %.2f ms\n", serial_ms);
  }
  std::printf("all thread counts produced byte-identical plans\n");
  return EXIT_SUCCESS;
}
