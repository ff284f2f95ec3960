// Unit + property tests for src/net: the Fig. 1 utilization-latency knee,
// directed link load accounting, and path latency composition.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/link_latency.h"
#include "net/link_utilization.h"
#include "net/path_latency.h"
#include "topo/fattree.h"
#include "util/rng.h"

namespace eprons {
namespace {

TEST(LinkLatency, PacketServiceTime) {
  LinkLatencyConfig config;  // 1 Gbps, 1500 B
  const LinkLatencyModel model(config);
  EXPECT_NEAR(model.packet_service_time(), 12.0, 1e-9);  // 12000 bits / 1000 Mbps
}

TEST(LinkLatency, FlatAtLowUtilization) {
  const LinkLatencyModel model;
  // The paper's observation: moving from light to medium utilization barely
  // changes latency.
  const SimTime l20 = model.mean_latency(0.20);
  const SimTime l50 = model.mean_latency(0.50);
  EXPECT_LT((l50 - l20) / l20, 0.5);
}

TEST(LinkLatency, KneeBeyondHighUtilization) {
  const LinkLatencyModel model;
  // Past the knee, latency explodes by orders of magnitude (139 us -> ~12 ms
  // in Fig. 1).
  const SimTime low = model.mean_latency(0.20);
  const SimTime saturated = model.mean_latency(0.999);
  EXPECT_GT(saturated / low, 50.0);
}

TEST(LinkLatency, MonotoneInUtilization) {
  const LinkLatencyModel model;
  SimTime prev = 0.0;
  for (double u = 0.0; u <= 1.0; u += 0.01) {
    const SimTime l = model.mean_latency(u);
    EXPECT_GE(l, prev - 1e-12) << "u=" << u;
    prev = l;
  }
}

TEST(LinkLatency, BufferCapsLatency) {
  const LinkLatencyModel model;
  EXPECT_LE(model.mean_latency(1.0), model.max_latency());
  EXPECT_NEAR(model.max_latency(),
              model.config().base_latency_us + 12.0 * 1000.0, 1e-9);
}

TEST(LinkLatency, SamplesBoundedAndMeanConsistent) {
  const LinkLatencyModel model;
  Rng rng(41);
  double total = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const SimTime s = model.sample_latency(0.5, rng);
    EXPECT_GE(s, model.config().base_latency_us);
    EXPECT_LE(s, model.max_latency() + 1e-9);
    total += s;
  }
  EXPECT_NEAR(total / n, model.mean_latency(0.5), 1.0);
}

TEST(LinkLatency, RejectsBadConfig) {
  LinkLatencyConfig bad;
  bad.capacity_mbps = 0.0;
  EXPECT_THROW(LinkLatencyModel{bad}, std::invalid_argument);
}

// Property sweep: sampling never under-runs base latency at any utilization.
class LinkLatencySample : public ::testing::TestWithParam<double> {};

TEST_P(LinkLatencySample, AlwaysAtLeastBase) {
  const LinkLatencyModel model;
  Rng rng(43);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(model.sample_latency(GetParam(), rng),
              model.config().base_latency_us);
  }
}

INSTANTIATE_TEST_SUITE_P(Utilizations, LinkLatencySample,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 0.95, 1.0,
                                           1.5));

TEST(LinkUtilization, DirectedAccounting) {
  const FatTree ft(4);
  LinkUtilization load(&ft.graph());
  const Path path = ft.all_paths(0, 1)[0];  // h0 -> e -> h1
  load.add_path_load(path, 500.0);
  EXPECT_DOUBLE_EQ(load.directed_load(path[0], path[1]), 500.0);
  // Reverse direction untouched.
  EXPECT_DOUBLE_EQ(load.directed_load(path[1], path[0]), 0.0);
  EXPECT_DOUBLE_EQ(load.directed_utilization(path[0], path[1]), 0.5);
}

TEST(LinkUtilization, RemoveRestoresZero) {
  const FatTree ft(4);
  LinkUtilization load(&ft.graph());
  const Path path = ft.all_paths(0, 15)[0];
  load.add_path_load(path, 100.0);
  load.remove_path_load(path, 100.0);
  EXPECT_DOUBLE_EQ(load.max_utilization(), 0.0);
  EXPECT_EQ(load.active_directed_links(), 0);
}

TEST(LinkUtilization, MaxPathUtilization) {
  const FatTree ft(4);
  LinkUtilization load(&ft.graph());
  const Path a = ft.all_paths(0, 15)[0];
  load.add_path_load(a, 900.0);
  EXPECT_DOUBLE_EQ(load.max_path_utilization(a), 0.9);
  // A disjoint path should be clean.
  const Path b = ft.all_paths(2, 3)[0];
  EXPECT_DOUBLE_EQ(load.max_path_utilization(b), 0.0);
}

TEST(LinkUtilization, AccumulatesMultipleFlows) {
  const FatTree ft(4);
  LinkUtilization load(&ft.graph());
  const Path path = ft.all_paths(0, 1)[0];
  load.add_path_load(path, 300.0);
  load.add_path_load(path, 200.0);
  EXPECT_DOUBLE_EQ(load.directed_load(path[0], path[1]), 500.0);
}

TEST(LinkUtilization, ThrowsOnNonAdjacent) {
  const FatTree ft(4);
  LinkUtilization load(&ft.graph());
  EXPECT_THROW(load.directed_load(ft.host(0), ft.host(1)),
               std::invalid_argument);
}

TEST(PathLatency, SumsPerHopMeans) {
  const FatTree ft(4);
  LinkUtilization load(&ft.graph());
  const LinkLatencyModel link_model;
  PathLatencyEstimator est(&load, link_model);
  const Path path = ft.all_paths(0, 15)[0];  // 6 hops
  const SimTime idle = est.mean_latency(path);
  EXPECT_NEAR(idle, 6.0 * link_model.mean_latency(0.0), 1e-9);
}

TEST(PathLatency, HotPathSlowerThanColdPath) {
  const FatTree ft(4);
  LinkUtilization load(&ft.graph());
  const auto paths = ft.all_paths(0, 15);
  load.add_path_load(paths[0], 940.0);
  PathLatencyEstimator est(&load, LinkLatencyModel{});
  EXPECT_GT(est.mean_latency(paths[0]), est.mean_latency(paths[3]));
}

TEST(PathLatency, SamplesBoundedByMax) {
  const FatTree ft(4);
  LinkUtilization load(&ft.graph());
  PathLatencyEstimator est(&load, LinkLatencyModel{});
  const Path path = ft.all_paths(0, 2)[0];
  Rng rng(47);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(est.sample_latency(path, rng), est.max_latency(path) + 1e-9);
  }
}

// The DES draws every request and reply latency through prepared hops; this
// pins that the prepared sampler is the path sampler bit for bit, RNG
// stream included, on every branch of the hop model.
TEST(PathLatency, PreparedSamplerBitIdenticalToPathSampler) {
  const FatTree ft(4);
  const Graph& graph = ft.graph();
  const Path path = ft.all_paths(0, 15)[0];  // 6 hops
  ASSERT_EQ(path.size(), 7u);
  const Bandwidth capacity =
      graph.link(graph.find_link(path[0], path[1])).capacity;
  // Per hop (utilization, bursty utilization): utilization 0, below the
  // knee, above it, and >= 1 (clamped); bursty 0, 0.3 and > 1 (clamped).
  // Bursty load counts toward utilization, so bursty <= utilization.
  const std::vector<std::vector<std::pair<double, double>>> layouts = {
      {{0.0, 0.0}, {0.5, 0.0}, {0.5, 0.3}, {0.85, 0.3}, {1.0, 0.0},
       {1.6, 1.2}},
      {{0.85, 0.0}, {1.3, 0.3}, {0.3, 0.3}, {1.0, 1.0}, {0.0, 0.0},
       {2.0, 1.5}},
  };
  for (const auto& layout : layouts) {
    LinkUtilization load(&graph);
    for (std::size_t h = 0; h < layout.size(); ++h) {
      const Path hop = {path[h], path[h + 1]};
      const auto [util, bursty] = layout[h];
      load.add_path_load(hop, (util - bursty) * capacity, /*bursty=*/false);
      load.add_path_load(hop, bursty * capacity, /*bursty=*/true);
    }
    const PathLatencyEstimator est(&load, LinkLatencyModel{});
    std::vector<PreparedHop> hops;
    est.prepare(path, &hops);
    ASSERT_EQ(hops.size(), layout.size());
    // The layout reaches the clamps and the burst-mixture branch.
    EXPECT_EQ(hops.back().bursty, 1.0);
    EXPECT_GT(hops[3].p_burst, 0.0);

    Rng path_rng(91);
    Rng prepared_rng(91);
    for (int draw = 0; draw < 2000; ++draw) {
      const SimTime a = est.sample_latency(path, path_rng);
      const SimTime b = est.sample_prepared(hops, prepared_rng);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a),
                std::bit_cast<std::uint64_t>(b))
          << "draw " << draw;
      // Equal RNG state: four outputs of xoshiro256 fix its whole state.
      Rng path_next = path_rng;
      Rng prepared_next = prepared_rng;
      for (int k = 0; k < 4; ++k) {
        ASSERT_EQ(path_next.next(), prepared_next.next()) << "draw " << draw;
      }
    }
  }
}

}  // namespace
}  // namespace eprons
