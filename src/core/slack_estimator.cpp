#include "core/slack_estimator.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "obs/telemetry.h"
#include "stats/fast_log.h"

namespace eprons {

namespace {

// Antithetic iterations per draw block. Each block pre-draws its
// exponential uniforms, batch-evaluates their logs (vectorized), then
// combines — so this constant is part of the RNG-consumption order and
// therefore of the result definition. 32 iterations keep the block's
// scratch L1-resident for the path lengths we see.
constexpr std::size_t kIterChunk = 32;

// Mean over the buffer's insertion order (shard order, draw order within a
// shard). Runs BEFORE any quantile call below permutes the buffer, so the
// floating-point summation order is pinned.
double insertion_order_mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// PercentileEstimator's nearest-rank quantile — rank = ceil(p*n) clamped
// to [1, n], value = rank-th smallest — evaluated with nth_element instead
// of a full sort: O(n) per quantile, and the selected element is the same
// under any partial permutation, so sequential p95-then-p99 calls on one
// buffer are both exact.
std::size_t nearest_rank(std::size_t n, double p) {
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return rank;
}

double nearest_rank_quantile(std::vector<double>& v, double p) {
  const std::size_t rank = nearest_rank(v.size(), p);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

// p95 and p99 with one full selection and one tail selection: after the
// p95 nth_element, everything at or past the p95 rank is >= the p95
// value, so the p99 rank — which ranks at or beyond it — can be selected
// inside that small tail instead of re-partitioning the whole buffer. The
// selected values equal a full sort's exactly.
void tail_quantiles(std::vector<double>& v, double* p95, double* p99) {
  const std::size_t r95 = nearest_rank(v.size(), 0.95);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(r95 - 1),
                   v.end());
  *p95 = v[r95 - 1];
  const std::size_t r99 = nearest_rank(v.size(), 0.99);
  if (r99 == r95) {
    *p99 = v[r95 - 1];
    return;
  }
  std::nth_element(v.begin() + static_cast<std::ptrdiff_t>(r95),
                   v.begin() + static_cast<std::ptrdiff_t>(r99 - 1), v.end());
  *p99 = v[r99 - 1];
}

}  // namespace

SlackEstimator::SlackEstimator(SlackEstimatorConfig config)
    : config_(std::move(config)) {}

SlackEstimate SlackEstimator::estimate(const Query& query,
                                       ThreadPool* pool) const {
  return estimate_many({query}, pool).front();
}

std::vector<SlackEstimate> SlackEstimator::estimate_many(
    const std::vector<Query>& queries, ThreadPool* pool) const {
  std::vector<SlackEstimate> out(queries.size());
  if (queries.empty()) return out;
  const obs::ScopedSpan span(obs::tracer(), "slack_estimate", "planner",
                             "queries", static_cast<double>(queries.size()));
  static obs::Counter& estimate_calls =
      obs::metrics().counter("slack.estimates");
  static obs::Counter& sample_count = obs::metrics().counter("slack.samples");
  estimate_calls.add(static_cast<std::uint64_t>(queries.size()));

  // Routed (request, reply) pairs per query, in flow order; shard s owns
  // every `shards`-th pair starting at s, so the pair->shard mapping is
  // fixed.
  struct QueryPairs {
    std::vector<std::pair<const Path*, const Path*>> pairs;
  };
  std::vector<QueryPairs> routed_pairs(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const Query& query = queries[q];
    const auto routed = [&](FlowId id) -> const Path* {
      if (id < 0 || static_cast<std::size_t>(id) >=
                        query.placement->flow_paths.size()) {
        return nullptr;
      }
      const Path& p = query.placement->flow_paths[static_cast<std::size_t>(id)];
      return p.size() >= 2 ? &p : nullptr;
    };
    auto& pairs = routed_pairs[q].pairs;
    for (std::size_t i = 0; i < query.request_flows->size() &&
                            i < query.reply_flows->size();
         ++i) {
      const Path* req = routed((*query.request_flows)[i]);
      const Path* rep = routed((*query.reply_flows)[i]);
      if (req && rep) pairs.emplace_back(req, rep);
    }
  }

  const std::size_t shards =
      static_cast<std::size_t>(config_.shards < 1 ? 1 : config_.shards);
  // Every shard draws from its own split() stream of the experiment seed,
  // and every query reseeds from scratch (exactly as a standalone
  // estimate), so the streams — and therefore the estimates — are
  // independent of which worker runs which (query, shard) unit.
  std::vector<Rng> shard_rng;
  shard_rng.reserve(shards);
  Rng base(config_.seed);
  for (std::size_t s = 0; s < shards; ++s) shard_rng.push_back(base.split());

  std::unique_ptr<ThreadPool> local_pool;
  if (!pool && config_.runtime.threads > 1) {
    local_pool = std::make_unique<ThreadPool>(config_.runtime.threads);
    pool = local_pool.get();
  }

  // Each query's samples live in one flat buffer, laid out in shard order
  // with per-shard slices precomputed here: shard s owns pairs s, s+shards,
  // ... and writes its (pair, draw)-ordered samples directly into its
  // slice, so the buffer's final order is a pure function of (pairs,
  // shards, samples_per_pair) no matter which worker fills which slice —
  // and the merge below touches no intermediate per-shard vectors.
  const std::size_t samples_per_pair =
      config_.samples_per_pair < 0
          ? 0
          : static_cast<std::size_t>(config_.samples_per_pair);
  struct QueryBuffers {
    std::vector<double> request;
    std::vector<double> total;
    std::vector<std::size_t> shard_offset;  // shards + 1 entries
  };
  std::vector<QueryBuffers> buffers(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    QueryBuffers& buf = buffers[q];
    const std::size_t num_pairs = routed_pairs[q].pairs.size();
    buf.shard_offset.resize(shards + 1);
    std::size_t offset = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      buf.shard_offset[s] = offset;
      const std::size_t owned =
          num_pairs > s ? (num_pairs - s + shards - 1) / shards : 0;
      offset += owned * samples_per_pair;
    }
    buf.shard_offset[shards] = offset;
    buf.request.resize(offset);
    buf.total.resize(offset);
  }

  parallel_for(pool, queries.size() * shards, [&](std::size_t task) {
    const std::size_t q = task / shards;
    const std::size_t s = task % shards;
    const auto& pairs = routed_pairs[q].pairs;
    if (pairs.empty() || samples_per_pair == 0) return;
    const obs::ScopedSpan shard_span(obs::tracer(), "slack_shard", "planner",
                                     "shard", static_cast<double>(s));
    Rng rng = shard_rng[s];
    const PathLatencyEstimator estimator(queries[q].offered_load,
                                         config_.link_model);
    const LinkLatencyModel& model = estimator.model();
    double* req_out = buffers[q].request.data() + buffers[q].shard_offset[s];
    double* tot_out = buffers[q].total.data() + buffers[q].shard_offset[s];
    // Per-shard scratch, reused across pairs and blocks; each pair's hop
    // constants are prepared once.
    std::vector<PreparedHop> request_hops;
    std::vector<PreparedHop> reply_hops;
    std::vector<double> log_e;
    std::vector<double> log_o;
    // Samples come in antithetic pairs: iteration `it` yields samples 2it
    // (even partner) and 2it+1 (odd partner; an odd samples_per_pair
    // draws the final full pair — fixed RNG consumption — and discards
    // the odd half). Iterations proceed in blocks of kIterChunk: phase 1
    // pre-draws the block's exponential uniforms in (iteration, hop)
    // order — request hops then reply hops — phase 2 batch-evaluates
    // their logs (vectorized fast_log_block_antithetic, bit-identical to
    // scalar fast_log), and phase 3 combines per hop, drawing the
    // burst/collision uniforms in the same (iteration, hop) order (see
    // LinkLatencyModel::combine_hop_pair).
    const std::size_t iters_total = (samples_per_pair + 1) / 2;
    for (std::size_t i = s; i < pairs.size(); i += shards) {
      const auto& [req, rep] = pairs[i];
      const std::size_t request_len = req->size() - 1;
      const std::size_t reply_len = rep->size() - 1;
      const std::size_t hops = request_len + reply_len;
      estimator.prepare(*req, &request_hops);
      estimator.prepare(*rep, &reply_hops);
      for (std::size_t it0 = 0; it0 < iters_total; it0 += kIterChunk) {
        const std::size_t block =
            std::min(kIterChunk, iters_total - it0);
        const std::size_t n = block * hops;
        log_e.resize(n);
        for (std::size_t j = 0; j < n; ++j) {
          double u = rng.uniform();
          while (u == 0.0) u = rng.uniform();
          // u in (0,1), 1-u in (0,1]; log(1) == 0 is a valid Exp draw.
          log_e[j] = u;
        }
        log_o.resize(n);
        fast_log_block_antithetic(log_e.data(), log_e.data(), log_o.data(),
                                  n);
        for (std::size_t j = 0; j < block; ++j) {
          const double* le = log_e.data() + j * hops;
          const double* lo = log_o.data() + j * hops;
          SimTime req_e = 0.0;
          SimTime req_o = 0.0;
          SimTime rep_e = 0.0;
          SimTime rep_o = 0.0;
          SimTime hop_e;
          SimTime hop_o;
          for (std::size_t h = 0; h < request_len; ++h) {
            model.combine_hop_pair(request_hops[h], le[h], lo[h], rng, &hop_e,
                                   &hop_o);
            req_e += hop_e;
            req_o += hop_o;
          }
          for (std::size_t h = 0; h < reply_len; ++h) {
            model.combine_hop_pair(reply_hops[h], le[request_len + h],
                                   lo[request_len + h], rng, &hop_e, &hop_o);
            rep_e += hop_e;
            rep_o += hop_o;
          }
          *req_out++ = req_e;
          *tot_out++ = req_e + rep_e;
          if (2 * (it0 + j) + 1 < samples_per_pair) {
            *req_out++ = req_o;
            *tot_out++ = req_o + rep_o;
          }
        }
      }
    }
    sample_count.add(static_cast<std::uint64_t>(
        buffers[q].shard_offset[s + 1] - buffers[q].shard_offset[s]));
  });

  // Merge in shard order — fixed regardless of execution interleaving.
  // Means run first, over the buffer's insertion order; quantiles then
  // select via nth_element, which permutes the buffers but never changes
  // which value sits at a given rank.
  for (std::size_t q = 0; q < queries.size(); ++q) {
    QueryBuffers& buf = buffers[q];
    if (buf.request.empty()) continue;
    out[q].request_mean = insertion_order_mean(buf.request);
    out[q].total_mean = insertion_order_mean(buf.total);
    out[q].request_p95 = nearest_rank_quantile(buf.request, 0.95);
    tail_quantiles(buf.total, &out[q].total_p95, &out[q].total_p99);
  }
  return out;
}

}  // namespace eprons
