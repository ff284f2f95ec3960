// Differential tests for the planner's fast paths.
//
// The cold K sweep runs three optimized subsystems — batched antithetic
// Monte-Carlo slack estimation, per-frequency CCDF tables (VpTable), and
// the memoized PathCatalog — plus placement deduplication across the K
// candidates. Each is checked here against its oracle in its own layer:
//   * the sweep against the cheapest feasible per-candidate plan_for_k
//     (no deduplication), across seeds 1/42/99 and threads 1/4/8;
//   * ServerPowerPredictor with a VpTable against the convolution scan;
//   * greedy and MILP consolidation with the PathCatalog against per-call
//     path enumeration, with and without subnet/fault constraints;
//   * the slack estimator's output bits, pinned for three seeds, plus the
//     two parities the sampler rests on (vectorized block logs == scalar
//     logs; prepared-hop pair sampler == per-sample walk).
// Doubles are compared with ==, not a tolerance: the fast paths reproduce
// the oracles' arithmetic bit for bit or they are wrong.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "consolidate/greedy_consolidator.h"
#include "consolidate/milp_consolidator.h"
#include "core/joint_optimizer.h"
#include "core/server_power_predictor.h"
#include "dvfs/synthetic_workload.h"
#include "dvfs/vp_table.h"
#include "net/path_latency.h"
#include "stats/fast_log.h"
#include "topo/path_catalog.h"

namespace eprons {
namespace {

ServiceModel fastpath_model() {
  Rng rng(31);
  SyntheticWorkloadConfig config;
  config.samples = 20000;
  config.bins = 256;
  return make_search_service_model(config, rng);
}

// Every field of each record, so one EXPECT_EQ compares (and on failure
// prints) the whole record.
auto fields(const ServerPowerPrediction& p) {
  return std::tie(p.frequency, p.busy_fraction, p.achieved_vp, p.idle_w,
                  p.dynamic_w, p.dvfs_residual_w, p.server_power,
                  p.budget_infeasible);
}

auto fields(const ConsolidationResult& r) {
  return std::tie(r.feasible, r.switch_on, r.link_on, r.flow_paths,
                  r.active_switches, r.active_links, r.edge_switches,
                  r.agg_switches, r.core_switches, r.edge_power_w,
                  r.agg_power_w, r.core_power_w, r.link_power_w,
                  r.network_power, r.warm_started);
}

auto fields(const SlackEstimate& e) {
  return std::tie(e.request_mean, e.request_p95, e.total_mean, e.total_p95,
                  e.total_p99);
}

auto fields(const Flow& f) {
  return std::tie(f.id, f.src_host, f.dst_host, f.demand, f.cls);
}

void expect_plans_identical(const JointPlan& a, const JointPlan& b,
                            const std::string& label) {
  EXPECT_EQ(std::tie(a.feasible, a.reject, a.k, a.request_flow, a.reply_flow,
                     a.effective_server_budget, a.network_power,
                     a.server_idle_w, a.server_dynamic_w,
                     a.server_dvfs_residual_w, a.server_power_w,
                     a.total_power),
            std::tie(b.feasible, b.reject, b.k, b.request_flow, b.reply_flow,
                     b.effective_server_budget, b.network_power,
                     b.server_idle_w, b.server_dynamic_w,
                     b.server_dvfs_residual_w, b.server_power_w,
                     b.total_power))
      << label;
  EXPECT_EQ(fields(a.placement), fields(b.placement)) << label;
  EXPECT_EQ(fields(a.slack), fields(b.slack)) << label;
  EXPECT_EQ(fields(a.server), fields(b.server)) << label;
  ASSERT_EQ(a.flows.size(), b.flows.size()) << label;
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(fields(a.flows[i]), fields(b.flows[i])) << label;
  }
}

TEST(FastPath, SweepMatchesCheapestFeasiblePlanForK) {
  // optimize()'s cold sweep consolidates every K, estimates slack once per
  // unique routing, then picks the cheapest feasible candidate (the first
  // one on a tie). plan_for_k runs the whole pipeline per candidate with
  // no sharing, so every candidate row of the sweep's explain table must
  // match plan_for_k at that K, and the cheapest feasible plan_for_k must
  // equal the sweep's plan bit for bit, at every thread count.
  const FatTree topo(4);
  const ServiceModel model = fastpath_model();
  const ServerPowerModel power;
  for (const std::uint64_t seed : {1ull, 42ull, 99ull}) {
    for (const int threads : {1, 4, 8}) {
      JointOptimizerConfig config;
      config.slack.samples_per_pair = 150;
      config.slack.seed = seed;
      config.runtime.threads = threads;
      const JointOptimizer optimizer(&topo, &model, &power, config);

      Rng rng(seed);
      const FlowSet background =
          make_background_flows(FlowGenConfig{}, 6, 0.2, 0.1, rng);
      obs::PlanExplainRecord explain;
      PlanRequest request;
      request.background = &background;
      request.utilization = 0.3;
      request.explain = &explain;
      const JointPlan swept = optimizer.optimize(request);
      ASSERT_TRUE(swept.feasible);
      const std::string label = "seed=" + std::to_string(seed) +
                                " threads=" + std::to_string(threads);

      JointPlan cheapest;
      std::size_t row = 0;
      for (double k = config.k_min; k <= config.k_max + 1e-9;
           k += config.k_step, ++row) {
        JointPlan plan = optimizer.plan_for_k(background, 0.3, k);
        ASSERT_LT(row, explain.candidates.size()) << label;
        const obs::PlanCandidateExplain& r = explain.candidates[row];
        EXPECT_EQ(std::make_tuple(r.k, r.feasible, r.reject_reason, r.total_w,
                                  r.network_w, r.server_w,
                                  r.violation_probability, r.slack_p95_us,
                                  r.server_budget_us, r.active_switches),
                  std::make_tuple(plan.k, plan.feasible,
                                  std::string(plan_reject_name(plan.reject)),
                                  plan.total_power, plan.network_power,
                                  plan.server_power_w, plan.server.achieved_vp,
                                  plan.slack.total_p95,
                                  plan.effective_server_budget,
                                  plan.placement.active_switches))
            << label << " K=" << k;
        if (plan.feasible &&
            (!cheapest.feasible || plan.total_power < cheapest.total_power)) {
          cheapest = std::move(plan);
        }
      }
      EXPECT_EQ(row, explain.candidates.size()) << label;
      expect_plans_identical(swept, cheapest, label);
    }
  }
}

TEST(FastPath, ThreadCountNeverChangesThePlan) {
  // The worker count is an execution detail; seed and shard count are the
  // only sampling inputs. threads=1 vs 4 vs 8 must agree bit for bit.
  const FatTree topo(4);
  const ServiceModel model = fastpath_model();
  const ServerPowerModel power;
  Rng rng(7);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 8, 0.25, 0.1, rng);

  JointPlan serial_plan;
  for (const int threads : {1, 4, 8}) {
    JointOptimizerConfig config;
    config.slack.samples_per_pair = 150;
    config.runtime.threads = threads;
    const JointOptimizer optimizer(&topo, &model, &power, config);
    PlanRequest request;
    request.background = &background;
    request.utilization = 0.3;
    const JointPlan plan = optimizer.optimize(request);
    if (threads == 1) {
      serial_plan = plan;
    } else {
      expect_plans_identical(serial_plan, plan,
                             "threads=" + std::to_string(threads));
    }
  }
}

TEST(FastPath, VpTableMatchesConvolutionScan) {
  // The predictor's frequency scan through precomputed CCDF tables must
  // pick the same frequency, with the same achieved violation probability,
  // as the per-decision convolution scan — over every queue depth the
  // utilization grid reaches, and over budgets from unreachable even at
  // f_max to loose. A table shallower than the predictor's depth cap
  // exercises the hand-over between the two scans.
  const ServiceModel model = fastpath_model();
  const ServerPowerModel power;
  const ServerPowerPredictorConfig config;
  const VpTable full_table(&model, config.max_queue_depth);
  const VpTable shallow_table(&model, 3);
  const ServerPowerPredictor scan(&model, &power, config);
  const ServerPowerPredictor full(&model, &power, config, &full_table);
  const ServerPowerPredictor shallow(&model, &power, config, &shallow_table);

  int infeasible = 0;
  int feasible = 0;
  for (int u = 0; u <= 20; ++u) {
    const double utilization = std::min(0.99, 0.05 * u);
    for (const double budget_ms : {-1.0, 0.0, 0.05, 0.5, 1.0, 2.0, 3.5, 5.0,
                                   8.0, 12.0, 18.0, 25.0, 40.0, 80.0}) {
      const ServerPowerPrediction expected =
          scan.predict(utilization, ms(budget_ms));
      EXPECT_EQ(fields(full.predict(utilization, ms(budget_ms))),
                fields(expected))
          << "u=" << utilization << " budget_ms=" << budget_ms;
      EXPECT_EQ(fields(shallow.predict(utilization, ms(budget_ms))),
                fields(expected))
          << "u=" << utilization << " budget_ms=" << budget_ms << " shallow";
      (expected.budget_infeasible ? infeasible : feasible) += 1;
    }
  }
  // The grid must cover both outcomes, or it checks only half the scan.
  EXPECT_GT(infeasible, 0);
  EXPECT_GT(feasible, 0);
}

TEST(FastPath, PathCatalogNeverChangesPlacement) {
  // The catalog memoizes exactly the candidate paths, in the same order, a
  // consolidator would enumerate per call, so wiring it in must never
  // change a placement. One catalog serves every call, as in the planner,
  // so later calls read entries earlier calls filled.
  const FatTree topo(4);
  const Graph& g = topo.graph();
  const PathCatalog catalog(&topo);
  const GreedyConsolidator greedy(&topo);
  const MilpConsolidator milp(&topo);
  std::vector<NodeId> fabric_switches;  // aggregation and core
  for (const Node& node : g.nodes()) {
    if (node.type == NodeType::AggSwitch || node.type == NodeType::CoreSwitch) {
      fabric_switches.push_back(node.id);
    }
  }
  int compared_feasible = 0;
  for (const std::uint64_t seed : {1ull, 42ull, 99ull}) {
    Rng rng(seed);
    // Greedy on the planner's instance: background elephants plus one
    // request/reply query flow per host.
    FlowSet planner_flows =
        make_background_flows(FlowGenConfig{}, 6, 0.2, 0.1, rng);
    add_query_flows(planner_flows, 0, topo.num_hosts(), 10.0, 20.0);
    // MILP on a small random instance it solves exactly in milliseconds.
    FlowSet milp_flows;
    for (int i = 0; i < 4; ++i) {
      const int src = static_cast<int>(rng.uniform_int(0, 15));
      int dst = src;
      while (dst == src) dst = static_cast<int>(rng.uniform_int(0, 15));
      milp_flows.add(src, dst, rng.uniform(20.0, 250.0),
                     rng.bernoulli(0.5) ? FlowClass::LatencySensitive
                                        : FlowClass::LatencyTolerant);
    }
    // A subnet/fault restriction: one fabric switch pinned off and one
    // switch-to-switch link down.
    ConsolidationConfig restricted;
    restricted.allowed_switches.assign(g.num_nodes(), true);
    restricted.allowed_switches[static_cast<std::size_t>(
        fabric_switches[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<int>(fabric_switches.size()) - 1))])] = false;
    LinkId down;
    do {
      down = static_cast<LinkId>(rng.uniform_int(0, g.num_links() - 1));
    } while (!g.is_switch(g.link(down).a) || !g.is_switch(g.link(down).b));
    restricted.blocked_links.assign(g.num_links(), false);
    restricted.blocked_links[static_cast<std::size_t>(down)] = true;

    for (const bool constrained : {false, true}) {
      for (int k = 1; k <= 5; ++k) {
        ConsolidationConfig config =
            constrained ? restricted : ConsolidationConfig{};
        config.scale_factor_k = k;
        ConsolidationConfig cataloged = config;
        cataloged.path_catalog = &catalog;
        const std::string label = "seed=" + std::to_string(seed) +
                                  " K=" + std::to_string(k) +
                                  (constrained ? " constrained" : "");

        const ConsolidationResult greedy_plain =
            greedy.consolidate(topo, planner_flows, config);
        EXPECT_EQ(fields(greedy.consolidate(topo, planner_flows, cataloged)),
                  fields(greedy_plain))
            << label << " greedy";
        const ConsolidationResult milp_plain =
            milp.consolidate(topo, milp_flows, config);
        ASSERT_TRUE(milp.last_proven_optimal()) << label;
        EXPECT_EQ(fields(milp.consolidate(topo, milp_flows, cataloged)),
                  fields(milp_plain))
            << label << " milp";
        compared_feasible += greedy_plain.feasible + milp_plain.feasible;
      }
    }
  }
  // Infeasible placements compare trivially; most of the 60 must be
  // feasible.
  EXPECT_GE(compared_feasible, 50);
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(FastPath, SlackEstimateBitsPinned) {
  // The estimate is a pure function of (routing, load, seed, shards,
  // samples_per_pair); these bits were taken from a build that also ran a
  // per-sample reference walk with scalar logs and asserted it agreed.
  // Any change to the sampling scheme — draw order, block size, antithetic
  // pairing, the log kernel, the merge — fails here. An odd
  // samples_per_pair exercises the discarded odd half and a partial final
  // block (76 iterations = 32 + 32 + 12).
  const std::uint64_t pinned[][6] = {
      // seed, request_mean, request_p95, total_mean, total_p95, total_p99
      {1, 0x40abd42788c03bbbull, 0x40c14438477eaba7ull, 0x40b9e6917b006a36ull,
       0x40ce59f552eb5e25ull, 0x40d33e91f4454da6ull},
      {42, 0x40afc3c248cced42ull, 0x40c39e64f6c198f1ull, 0x40bac62fe6dc8840ull,
       0x40ce9cdc9807ff40ull, 0x40d3a8526909dfaeull},
      {99, 0x40ac68c485f4a2f2ull, 0x40c15a2092962dfeull, 0x40b9ac583823959full,
       0x40cd6d049ec22a7aull, 0x40d3038bcb31d341ull},
  };
  const FatTree topo(4);
  const GreedyConsolidator greedy(&topo);
  ThreadPool pool(4);
  for (const auto& pin : pinned) {
    Rng rng(pin[0]);
    FlowSet flows = make_background_flows(FlowGenConfig{}, 8, 0.4, 0.1, rng);
    std::vector<FlowId> request_flows;
    std::vector<FlowId> reply_flows;
    for (int host = 1; host < topo.num_hosts(); ++host) {
      request_flows.push_back(
          flows.add(0, host, 10.0, FlowClass::LatencySensitive));
      reply_flows.push_back(
          flows.add(host, 0, 20.0, FlowClass::LatencySensitive));
    }
    ConsolidationConfig consolidation;
    consolidation.scale_factor_k = 2.0;
    const auto placement = greedy.consolidate(flows, consolidation);
    ASSERT_TRUE(placement.feasible);
    const LinkUtilization load = placement.offered_load(topo.graph(), flows);

    SlackEstimatorConfig config;
    config.samples_per_pair = 151;
    config.seed = pin[0];
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const SlackEstimate est = SlackEstimator(config).estimate(
          {&placement, &load, &request_flows, &reply_flows}, p);
      EXPECT_EQ(std::make_tuple(bits_of(est.request_mean),
                                bits_of(est.request_p95),
                                bits_of(est.total_mean),
                                bits_of(est.total_p95), bits_of(est.total_p99)),
                std::make_tuple(pin[1], pin[2], pin[3], pin[4], pin[5]))
          << "seed=" << pin[0] << (p ? " pool" : " serial");
    }
  }
}

TEST(FastPath, BlockLogBitIdenticalToScalarLog) {
  // The slack estimator's vectorized block logs must match the scalar
  // fast_log lane for lane — SIMD lanes run the same IEEE op sequence.
  Rng rng(12345);
  std::vector<double> x(1024);
  for (double& v : x) {
    do {
      v = rng.uniform();
    } while (v == 0.0);
  }

  std::vector<double> block(x);
  fast_log_block(block.data(), block.data(), block.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(block[i], fast_log(x[i])) << "i=" << i << " x=" << x[i];
  }

  std::vector<double> even(x);
  std::vector<double> odd(x.size());
  fast_log_block_antithetic(even.data(), even.data(), odd.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(even[i], fast_log(x[i])) << "i=" << i;
    EXPECT_EQ(odd[i], fast_log(1.0 - x[i])) << "i=" << i;
  }

  // And fast_log itself must agree with libm to within 1 ulp (it is the
  // fdlibm algorithm; measured max relative error is 2.2e-16).
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double exact = std::log(x[i]);
    EXPECT_NEAR(fast_log(x[i]), exact, std::abs(exact) * 4.5e-16 + 1e-300)
        << "x=" << x[i];
  }
}

TEST(FastPath, PreparedPairSamplerMatchesReferenceWalk) {
  // sample_prepared_pair (prepared-hop constants) and sample_pair (per-draw
  // re-derivation) must consume the RNG identically and return identical
  // bits — the parity behind the slack estimator's prepared pairs.
  const FatTree topo(4);
  FlowSet flows;
  const FlowId req = flows.add(0, 15, 10.0, FlowClass::LatencySensitive);
  const FlowId rep = flows.add(15, 0, 40.0, FlowClass::LatencySensitive);
  const GreedyConsolidator greedy(&topo);
  const auto placement = greedy.consolidate(flows, ConsolidationConfig{});
  ASSERT_TRUE(placement.feasible);

  LinkUtilization load(&topo.graph());
  load.add_path_load(placement.flow_paths[static_cast<std::size_t>(req)],
                     500.0);
  const PathLatencyEstimator estimator(&load, LinkLatencyModel{});

  for (const FlowId flow : {req, rep}) {
    const Path& path = placement.flow_paths[static_cast<std::size_t>(flow)];
    std::vector<PreparedHop> hops;
    estimator.prepare(path, &hops);

    Rng fast_rng(99);
    Rng reference_rng(99);
    for (int draw = 0; draw < 256; ++draw) {
      SimTime fast_even, fast_odd, reference_even, reference_odd;
      estimator.sample_prepared_pair(hops, fast_rng, &fast_even, &fast_odd);
      estimator.sample_pair(path, reference_rng, &reference_even,
                            &reference_odd);
      ASSERT_EQ(fast_even, reference_even) << "draw=" << draw;
      ASSERT_EQ(fast_odd, reference_odd) << "draw=" << draw;
    }
  }
}

TEST(FastPath, BatchEstimateMatchesSingleShot) {
  // estimate_many(queries)[i] must be bit-identical to estimate(queries[i])
  // — the batch seam adds parallelism, never different numbers.
  const FatTree topo(4);
  Rng rng(5);
  FlowSet flows;
  std::vector<FlowId> request_flows;
  std::vector<FlowId> reply_flows;
  for (int host = 1; host <= 4; ++host) {
    request_flows.push_back(
        flows.add(0, host, 10.0, FlowClass::LatencySensitive));
    reply_flows.push_back(
        flows.add(host, 0, 20.0, FlowClass::LatencySensitive));
  }
  const GreedyConsolidator greedy(&topo);
  const auto placement = greedy.consolidate(flows, ConsolidationConfig{});
  ASSERT_TRUE(placement.feasible);
  const LinkUtilization load = placement.offered_load(topo.graph(), flows);

  SlackEstimatorConfig config;
  config.samples_per_pair = 200;
  const SlackEstimator estimator(config);
  SlackEstimator::Query query;
  query.placement = &placement;
  query.offered_load = &load;
  query.request_flows = &request_flows;
  query.reply_flows = &reply_flows;

  const std::vector<SlackEstimate> batch =
      estimator.estimate_many({query, query});
  const SlackEstimate single = estimator.estimate(query);
  for (const SlackEstimate& est : batch) {
    EXPECT_EQ(est.request_mean, single.request_mean);
    EXPECT_EQ(est.request_p95, single.request_p95);
    EXPECT_EQ(est.total_mean, single.total_mean);
    EXPECT_EQ(est.total_p95, single.total_p95);
    EXPECT_EQ(est.total_p99, single.total_p99);
  }
}

}  // namespace
}  // namespace eprons
