// Open-loop serving demo: a 2-hour modeled diurnal serving run with burst
// noise and flash crowds, re-planned by the EpochController every epoch,
// with a selectable admission policy.
//
//   ./serving_demo [--peak-qps=40] [--horizon=7200] [--epoch-len=600]
//       [--window=120] [--admission=sla-aware] [--shed=deadline]
//       [--threads=4] [--epoch-log=serving.jsonl] [--temporal]
//       [--temporal-flows=8] [--temporal-cap=MBIT] [--temporal-volume=MBIT]
//
// With --epoch-log the run streams one JSONL record per planner epoch
// (epoch_controller / attribution / plan_explain) interleaved with one
// serving_window record per report window — feed the file to
// tools/eprons_report.py for the serving section. A config the harness
// rejects (e.g. --horizon=-5) prints `error: <reason>` and exits 2.
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "core/scenario.h"
#include "serve/serving_harness.h"
#include "util/cli.h"
#include "util/table.h"

using namespace eprons;

namespace {

int run_demo(int argc, char** argv) {
  const Cli cli(argc, argv);
  const TableFormat fmt = table_format_from_cli(cli);
  const ServingFlags serve = serving_flags_from_cli(cli);
  const double horizon_s = cli.get_double("horizon", 7200.0);

  const Scenario scn = ScenarioBuilder()
                           .seed(static_cast<std::uint64_t>(
                               cli.get_int("seed", 1)))
                           .fat_tree(4)
                           .runtime(runtime_from_cli(cli))
                           .build();

  ServingHarnessConfig config;
  config.arrivals.horizon = sec(horizon_s);
  config.arrivals.peak_rate_qps = serve.peak_qps;
  config.arrivals.seed = static_cast<std::uint64_t>(serve.seed);
  config.arrivals.flash.events_per_hour = serve.flash_per_hour;
  config.arrivals.burst.enabled = !serve.no_burst;
  config.arrivals.diurnal_start = 9.0 * 3600.0 * 1.0e6;  // start 09:00
  config.epoch.transition.epoch_length = sec(serve.epoch_s);
  config.epoch.joint.slack.samples_per_pair = 150;
  config.epoch.runtime = runtime_from_cli(cli);
  config.flow_gen = scn.flow_gen();
  config.report_window = sec(serve.window_s);
  config.admission = serve.admission;
  config.shed = serve.shed;
  config.seed = static_cast<std::uint64_t>(serve.seed);
  // Optional deadline-bound background layer (--temporal*): timed flows
  // are drawn over the horizon, trough-filled against the diurnal curve,
  // and journaled as schedule_epoch / schedule_summary JSONL records.
  config.temporal.enabled = serve.temporal;
  config.temporal.flows = static_cast<int>(serve.temporal_flows);
  config.temporal.scheduler.epoch_cap_mbit = serve.temporal_cap;
  config.temporal.gen.mean_volume_mbit = serve.temporal_volume;

  ServingHarness harness(&scn.topology(), &scn.service_model(),
                         &scn.power_model(), config);
  const ServingReport report = harness.run();

  std::printf("open-loop serving: %.0f s modeled, admission=%s shed=%s\n\n",
              horizon_s, serve.admission.c_str(), serve.shed.c_str());

  Table table({"window", "epoch", "offered_qps", "arrivals", "admitted",
               "shed", "dropped", "p50_ms", "p99_ms", "J/query"});
  table.set_precision(2);
  for (const auto& w : report.windows) {
    table.add_row({static_cast<long long>(w.window),
                   static_cast<long long>(w.epoch), w.offered_qps,
                   static_cast<long long>(w.arrivals),
                   static_cast<long long>(w.admitted),
                   static_cast<long long>(w.shed),
                   static_cast<long long>(w.dropped + w.late_shed),
                   w.latency_p50_us / 1000.0, w.latency_p99_us / 1000.0,
                   w.energy_per_admitted_j});
  }
  table.print(std::cout, fmt);

  std::printf(
      "\ntotals: %lld arrivals, %lld admitted, %lld shed, %lld dropped, "
      "%lld late-shed, %lld completed over %d epochs\n",
      report.arrivals, report.admitted, report.shed, report.dropped,
      report.late_shed, report.completed, report.epochs);
  std::printf("subquery SLA miss rate: %.2f%% (%lld of %lld)\n",
              report.subqueries_completed > 0
                  ? 100.0 * static_cast<double>(report.sla_misses) /
                        static_cast<double>(report.subqueries_completed)
                  : 0.0,
              report.sla_misses, report.subqueries_completed);
  std::printf("latency p50/p95/p99: %.2f / %.2f / %.2f ms\n",
              to_ms(report.latency.p50), to_ms(report.latency.p95),
              to_ms(report.latency.p99));
  std::printf("energy: %.1f J total, %.3f J per admitted query\n",
              report.total_energy_j, report.energy_per_admitted_j);
  std::printf("sustainable rate at f_max: %.1f qps\n",
              harness.sustainable_rate_qps());
  if (report.temporal) {
    std::printf(
        "temporal schedule: %lld of %lld Mbit carried over %d flows, "
        "%d hard-deadline misses%s\n",
        report.schedule.carried_total_mbit, report.schedule.total_volume_mbit,
        report.schedule.flows, report.schedule.deadline_misses,
        report.schedule.used_edf_fallback ? " (EDF fallback)" : "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_demo(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
