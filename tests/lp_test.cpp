// Unit tests for the LP/MILP solver substrate (src/lp).
//
// The simplex underpins the paper's consolidation model (eqs. (2)-(9));
// these tests pin it against hand-solved LPs, degenerate/unbounded cases,
// randomized feasibility property checks, warm dual re-optimization
// against cold solves, and branch-and-bound against brute force.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "lp/branch_and_bound.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "lp/tableau.h"
#include "util/rng.h"

namespace eprons::lp {
namespace {

TEST(Simplex, SolvesTextbookMaximize) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> (2, 6), z = 36.
  Model m(Sense::Maximize);
  const int x = m.add_variable("x", 0, kInfinity, 3.0);
  const int y = m.add_variable("y", 0, kInfinity, 5.0);
  m.add_row("r1", RowType::LessEqual, 4, {{x, 1.0}});
  m.add_row("r2", RowType::LessEqual, 12, {{y, 2.0}});
  m.add_row("r3", RowType::LessEqual, 18, {{x, 3.0}, {y, 2.0}});

  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 2.0, 1e-8);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 6.0, 1e-8);
  EXPECT_NEAR(s.objective, 36.0, 1e-8);
}

TEST(Simplex, SolvesMinimizeWithGreaterEqual) {
  // min 2x + 3y  s.t. x + y >= 10, x >= 2, y >= 3  -> y=3? check:
  // cost favors x (2 < 3), so x = 7, y = 3, z = 14 + 9 = 23.
  Model m(Sense::Minimize);
  const int x = m.add_variable("x", 2, kInfinity, 2.0);
  const int y = m.add_variable("y", 3, kInfinity, 3.0);
  m.add_row("cover", RowType::GreaterEqual, 10, {{x, 1.0}, {y, 1.0}});
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 7.0, 1e-8);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 3.0, 1e-8);
  EXPECT_NEAR(s.objective, 23.0, 1e-8);
}

TEST(Simplex, HandlesEqualityRows) {
  // min x + y  s.t. x + 2y = 8, x - y = 2  -> x = 4, y = 2.
  Model m(Sense::Minimize);
  const int x = m.add_variable("x", 0, kInfinity, 1.0);
  const int y = m.add_variable("y", 0, kInfinity, 1.0);
  m.add_row("e1", RowType::Equal, 8, {{x, 1.0}, {y, 2.0}});
  m.add_row("e2", RowType::Equal, 2, {{x, 1.0}, {y, -1.0}});
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 4.0, 1e-8);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 2.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  Model m(Sense::Minimize);
  const int x = m.add_variable("x", 0, kInfinity, 1.0);
  m.add_row("a", RowType::LessEqual, 1, {{x, 1.0}});
  m.add_row("b", RowType::GreaterEqual, 2, {{x, 1.0}});
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model m(Sense::Maximize);
  const int x = m.add_variable("x", 0, kInfinity, 1.0);
  const int y = m.add_variable("y", 0, kInfinity, 0.0);
  m.add_row("r", RowType::GreaterEqual, 1, {{x, 1.0}, {y, 1.0}});
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::Unbounded);
}

TEST(Simplex, RespectsUpperBounds) {
  Model m(Sense::Maximize);
  m.add_variable("x", 0, 3.0, 1.0);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-9);
}

TEST(Simplex, HandlesFreeVariables) {
  // min x  s.t. x >= -5 via a row (x itself declared free).
  Model m(Sense::Minimize);
  const int x = m.add_variable("x", -kInfinity, kInfinity, 1.0);
  m.add_row("lb", RowType::GreaterEqual, -5, {{x, 1.0}});
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.x[0], -5.0, 1e-8);
}

TEST(Simplex, ObjectiveOffsetIncluded) {
  Model m(Sense::Minimize);
  m.add_variable("x", 1.0, 1.0, 2.0);
  m.set_objective_offset(100.0);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 102.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degeneracy: multiple rows binding at the origin.
  Model m(Sense::Maximize);
  const int x = m.add_variable("x", 0, kInfinity, 0.75);
  const int y = m.add_variable("y", 0, kInfinity, -150.0);
  const int z = m.add_variable("z", 0, kInfinity, 0.02);
  const int w = m.add_variable("w", 0, kInfinity, -6.0);
  m.add_row("r1", RowType::LessEqual, 0,
            {{x, 0.25}, {y, -60.0}, {z, -0.04}, {w, 9.0}});
  m.add_row("r2", RowType::LessEqual, 0,
            {{x, 0.5}, {y, -90.0}, {z, -0.02}, {w, 3.0}});
  m.add_row("r3", RowType::LessEqual, 1, {{z, 1.0}});
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);  // Beale's example: z* = 0.05
  EXPECT_NEAR(s.objective, 0.05, 1e-6);
}

TEST(Simplex, RandomFeasibleProblemsReturnFeasiblePoints) {
  Rng rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    Model m(Sense::Minimize);
    const int n = 6;
    for (int v = 0; v < n; ++v) {
      m.add_variable("v", 0.0, rng.uniform(1.0, 10.0), rng.uniform(-2.0, 2.0));
    }
    // Random <= rows with nonnegative coefficients are always feasible at 0.
    for (int r = 0; r < 5; ++r) {
      std::vector<RowEntry> entries;
      for (int v = 0; v < n; ++v) {
        entries.push_back({v, rng.uniform(0.0, 1.0)});
      }
      m.add_row("r", RowType::LessEqual, rng.uniform(1.0, 20.0),
                std::move(entries));
    }
    const Solution s = SimplexSolver().solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal) << "trial " << trial;
    EXPECT_TRUE(m.is_feasible(s.x, 1e-6)) << "trial " << trial;
  }
}

// ---- MILP ----

TEST(Milp, SolvesKnapsack) {
  // max 10a + 13b + 7c  s.t. 3a + 4b + 2c <= 6, binaries.
  // Best: a + c (weight 5, value 17) vs b + c (6, 20) -> b + c.
  Model m(Sense::Maximize);
  const int a = m.add_binary("a", 10);
  const int b = m.add_binary("b", 13);
  const int c = m.add_binary("c", 7);
  m.add_row("w", RowType::LessEqual, 6, {{a, 3.0}, {b, 4.0}, {c, 2.0}});
  const Solution s = MilpSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 20.0, 1e-6);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(b)], 1.0, 1e-6);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(c)], 1.0, 1e-6);
}

TEST(Milp, IntegerRounding) {
  // max x  s.t. 2x <= 7, x integer -> 3.
  Model m(Sense::Maximize);
  const int x = m.add_variable("x", 0, kInfinity, 1.0, /*is_integer=*/true);
  m.add_row("r", RowType::LessEqual, 7, {{x, 2.0}});
  const Solution s = MilpSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-9);
}

TEST(Milp, MixedIntegerContinuous) {
  // min 5y + x  s.t. x >= 2.5 - 10y, x >= 0, y binary.
  // y=0 -> x=2.5 cost 2.5; y=1 -> x=0 cost 5. Optimal 2.5.
  Model m(Sense::Minimize);
  const int x = m.add_variable("x", 0, kInfinity, 1.0);
  const int y = m.add_binary("y", 5.0);
  m.add_row("r", RowType::GreaterEqual, 2.5, {{x, 1.0}, {y, 10.0}});
  const Solution s = MilpSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 2.5, 1e-6);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 0.0, 1e-9);
}

TEST(Milp, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6, x integer: LP feasible, no integer point.
  Model m(Sense::Minimize);
  m.add_variable("x", 0.4, 0.6, 1.0, /*is_integer=*/true);
  const Solution s = MilpSolver().solve(m);
  EXPECT_EQ(s.status, SolveStatus::Infeasible);
}

TEST(Milp, PureLpPassesThrough) {
  Model m(Sense::Minimize);
  const int x = m.add_variable("x", 1.5, 4.0, 1.0);
  (void)x;
  const Solution s = MilpSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.x[0], 1.5, 1e-9);
}

TEST(Milp, SetCoverSmall) {
  // Cover 4 elements with 3 sets; optimal cover = sets {0, 2} cost 2+3=5
  // vs set 1 alone cannot cover. Check exact optimum.
  Model m(Sense::Minimize);
  const int s0 = m.add_binary("s0", 2.0);  // covers e0, e1
  const int s1 = m.add_binary("s1", 4.0);  // covers e1, e2, e3
  const int s2 = m.add_binary("s2", 3.0);  // covers e2, e3
  m.add_row("e0", RowType::GreaterEqual, 1, {{s0, 1.0}});
  m.add_row("e1", RowType::GreaterEqual, 1, {{s0, 1.0}, {s1, 1.0}});
  m.add_row("e2", RowType::GreaterEqual, 1, {{s1, 1.0}, {s2, 1.0}});
  m.add_row("e3", RowType::GreaterEqual, 1, {{s1, 1.0}, {s2, 1.0}});
  const Solution s = MilpSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-6);
}

// Random 8-item 0/1 knapsack (maximize value within capacity) and its
// brute-force optimum over all 256 subsets.
Model random_knapsack(Rng& rng, double* best) {
  Model m(Sense::Maximize);
  const int n = 8;
  std::vector<double> value(n), weight(n);
  std::vector<RowEntry> entries;
  for (int v = 0; v < n; ++v) {
    value[static_cast<std::size_t>(v)] = rng.uniform(1.0, 10.0);
    weight[static_cast<std::size_t>(v)] = rng.uniform(1.0, 5.0);
    m.add_binary("b", value[static_cast<std::size_t>(v)]);
    entries.push_back({v, weight[static_cast<std::size_t>(v)]});
  }
  const double cap = rng.uniform(5.0, 15.0);
  m.add_row("w", RowType::LessEqual, cap, std::move(entries));
  *best = 0.0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    double w = 0.0, val = 0.0;
    for (int v = 0; v < n; ++v) {
      if (mask & (1 << v)) {
        w += weight[static_cast<std::size_t>(v)];
        val += value[static_cast<std::size_t>(v)];
      }
    }
    if (w <= cap + 1e-9) *best = std::max(*best, val);
  }
  return m;
}

TEST(Milp, RandomProblemsMatchBruteForce) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    double best = 0.0;
    const Model m = random_knapsack(rng, &best);
    const Solution s = MilpSolver().solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal) << "trial " << trial;
    EXPECT_NEAR(s.objective, best, 1e-6) << "trial " << trial;
  }
}

TEST(Milp, NodeLimitReturnsIncumbentStatus) {
  // A problem big enough to need branching, with a tiny node budget.
  Model m(Sense::Maximize);
  Rng rng(29);
  std::vector<RowEntry> entries;
  for (int v = 0; v < 20; ++v) {
    m.add_binary("b", rng.uniform(1.0, 10.0));
    entries.push_back({v, rng.uniform(1.0, 5.0)});
  }
  m.add_row("w", RowType::LessEqual, 20.0, std::move(entries));
  MilpOptions opt;
  opt.max_nodes = 5;
  const Solution s = MilpSolver(opt).solve(m);
  // Either it got lucky and proved optimality in <=5 nodes, or it reports
  // an incumbent / node-limit status. It must not claim optimal falsely
  // with unexplored nodes; we can only check the status is sane.
  EXPECT_TRUE(s.status == SolveStatus::Optimal ||
              s.status == SolveStatus::FeasibleIncumbent ||
              s.status == SolveStatus::NodeLimit);
  if (s.ok()) {
    EXPECT_TRUE(m.is_feasible(s.x, 1e-6));
  }
}

TEST(Milp, IterationCapNeverFakesOptimalityOrInfeasibility) {
  // A node LP stopped by the iteration cap leaves its subtree unsearched:
  // the result must then be unproven, never a wrong `Optimal` and never
  // `Infeasible` (every knapsack admits the empty set).
  Rng rng(23);
  int unproven = 0;
  for (int trial = 0; trial < 40; ++trial) {
    double best = 0.0;
    const Model m = random_knapsack(rng, &best);
    for (int cap = 1; cap <= 12; ++cap) {
      MilpOptions opt;
      opt.simplex.max_iterations = cap;
      const Solution s = MilpSolver(opt).solve(m);
      EXPECT_NE(s.status, SolveStatus::Infeasible)
          << "trial " << trial << " cap " << cap;
      if (s.status == SolveStatus::Optimal) {
        EXPECT_NEAR(s.objective, best, 1e-6)
            << "trial " << trial << " cap " << cap;
        continue;
      }
      ++unproven;
      EXPECT_TRUE(s.status == SolveStatus::FeasibleIncumbent ||
                  s.status == SolveStatus::IterationLimit)
          << "trial " << trial << " cap " << cap << ": "
          << solve_status_name(s.status);
      if (s.ok()) {
        EXPECT_TRUE(m.is_feasible(s.x, 1e-6));
        EXPECT_LE(s.objective, best + 1e-6);
      }
    }
  }
  EXPECT_GT(unproven, 0);  // the sweep does reach the cap
}

TEST(Milp, PivotCountIsRepeatable) {
  Rng rng(5);
  double best = 0.0;
  const Model m = random_knapsack(rng, &best);
  const MilpSolver solver;
  ASSERT_EQ(solver.solve(m).status, SolveStatus::Optimal);
  const long long pivots = solver.last_pivot_count();
  EXPECT_GT(pivots, 0);
  ASSERT_EQ(solver.solve(m).status, SolveStatus::Optimal);
  EXPECT_EQ(solver.last_pivot_count(), pivots);
}

// Random LP with <=, >= and = rows over small integer data (so vertices are
// degenerate and ratio tests tie), variables boxed with nonzero lower
// bounds, bounded on one side only, or free. Each row passes through a
// random point within the bounds, so the LP is feasible.
Model random_bounded_lp(Rng& rng) {
  Model m(rng.bernoulli(0.5) ? Sense::Minimize : Sense::Maximize);
  const int n = static_cast<int>(rng.uniform_int(4, 8));
  std::vector<double> point;
  for (int v = 0; v < n; ++v) {
    const double cost = static_cast<double>(rng.uniform_int(-2, 2));
    const double base = static_cast<double>(rng.uniform_int(-3, 3));
    const double width = static_cast<double>(rng.uniform_int(1, 4));
    const auto off = static_cast<double>(rng.uniform_int(0, 3));
    switch (rng.uniform_int(0, 3)) {
      case 0:  // boxed
        m.add_variable("box", base, base + width, cost);
        point.push_back(base + std::min(off, width));
        break;
      case 1:  // lower bound only
        m.add_variable("lo", base, kInfinity, cost);
        point.push_back(base + off);
        break;
      case 2:  // upper bound only
        m.add_variable("up", -kInfinity, base, cost);
        point.push_back(base - off);
        break;
      default:  // free
        m.add_variable("free", -kInfinity, kInfinity, cost);
        point.push_back(base);
        break;
    }
  }
  auto add_row_through_point = [&](std::vector<RowEntry> entries) {
    double lhs = 0.0;
    for (const RowEntry& e : entries) {
      lhs += e.coeff * point[static_cast<std::size_t>(e.var)];
    }
    const double slack = static_cast<double>(rng.uniform_int(0, 1));
    switch (rng.uniform_int(0, 2)) {
      case 0: m.add_row("le", RowType::LessEqual, lhs + slack, entries); break;
      case 1: m.add_row("ge", RowType::GreaterEqual, lhs - slack, entries); break;
      default: m.add_row("eq", RowType::Equal, lhs, entries); break;
    }
  };
  const int rows = static_cast<int>(rng.uniform_int(2, 6));
  for (int r = 0; r < rows; ++r) {
    std::vector<RowEntry> entries;
    for (int v = 0; v < n; ++v) {
      const auto coeff = static_cast<double>(rng.uniform_int(-2, 2));
      if (coeff != 0.0 && rng.bernoulli(0.6)) entries.push_back({v, coeff});
    }
    if (!entries.empty()) add_row_through_point(std::move(entries));
  }
  // Box most unbounded directions with rows (not bounds), so most LPs have
  // an optimum while their variables stay free in the bounds.
  for (int v = 0; v < n; ++v) {
    if (rng.bernoulli(0.8)) {
      const double p = point[static_cast<std::size_t>(v)];
      m.add_row("cap", RowType::LessEqual, p + 3.0, {{v, 1.0}});
      m.add_row("floor", RowType::GreaterEqual, p - 3.0, {{v, 1.0}});
    }
  }
  return m;
}

// One warm tableau follows a random walk of bound changes (tighten a side,
// fix a variable as branching does, or restore the root bounds as a jump
// to another subtree does). After every change its dual re-optimization
// must agree with a cold solve of the same bounds: same status, infeasible
// children included, and the same objective.
TEST(Tableau, WarmDualMatchesColdSolveAfterEachBoundChange) {
  Rng rng(41);
  int compared = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Model current = random_bounded_lp(rng);
    const Model root = current;
    Tableau warm(current, SimplexOptions{});
    if (warm.solve_primal() != SolveStatus::Optimal) continue;  // unbounded
    for (int step = 0; step < 40; ++step) {
      const int v = static_cast<int>(
          rng.uniform_int(0, current.num_variables() - 1));
      Variable& var = current.variable(v);
      if (rng.bernoulli(0.25)) {
        // Back to the root bounds, as when the search jumps to another
        // subtree.
        var.lower = root.variable(v).lower;
        var.upper = root.variable(v).upper;
      } else if (rng.bernoulli(0.25) && var.lower > -kInfinity / 2 &&
                 var.upper < kInfinity / 2) {
        // Fix, as branching fixes a binary.
        var.lower = var.upper = rng.bernoulli(0.5) ? var.lower : var.upper;
      } else {
        // Tighten one side by 0-3 within the other (a side that had no
        // bound gets one near the other bound, or near the origin).
        const bool has_lower = var.lower > -kInfinity / 2;
        const bool has_upper = var.upper < kInfinity / 2;
        const auto shift = static_cast<double>(rng.uniform_int(0, 3));
        const auto origin = static_cast<double>(rng.uniform_int(-3, 3));
        if (rng.bernoulli(0.5)) {
          double lower = has_lower ? var.lower
                                   : (has_upper ? var.upper - 4.0 : origin);
          lower += shift;
          var.lower = has_upper ? std::min(lower, var.upper) : lower;
        } else {
          double upper = has_upper ? var.upper
                                   : (has_lower ? var.lower + 4.0 : origin);
          upper -= shift;
          var.upper = has_lower ? std::max(upper, var.lower) : upper;
        }
      }
      warm.set_bounds(v, var.lower, var.upper);
      const Solution cold = SimplexSolver().solve(current);
      const Reopt reopt = warm.reoptimize();
      ASSERT_TRUE(cold.status == SolveStatus::Optimal ||
                  cold.status == SolveStatus::Infeasible)
          << "trial " << trial << " step " << step;
      if (cold.status == SolveStatus::Infeasible) {
        EXPECT_EQ(reopt, Reopt::Infeasible)
            << "trial " << trial << " step " << step;
        ++infeasible;
        continue;
      }
      ASSERT_EQ(reopt, Reopt::Optimal) << "trial " << trial << " step " << step;
      EXPECT_NEAR(warm.objective(), cold.objective, 1e-9)
          << "trial " << trial << " step " << step;
      EXPECT_TRUE(current.is_feasible(warm.solution(), 1e-7))
          << "trial " << trial << " step " << step;
      ++compared;
    }
  }
  // The battery must exercise both outcomes in earnest.
  EXPECT_GT(compared, 1000);
  EXPECT_GT(infeasible, 100);
}

TEST(Tableau, LongWarmWalkStaysAccurate) {
  // Thousands of warm re-optimizations on one tableau with real-valued
  // data: round-off accumulates over the pivots (without the accuracy
  // check and its cold fallback this walk drifts by 2e-3 from the cold
  // objective within 2,100 pivots), yet every result still agrees with a
  // cold solve.
  Rng rng(43);
  Model current(Sense::Minimize);
  const int n = 30;
  for (int v = 0; v < n; ++v) {
    current.add_variable("x", 0.0, 1.0, rng.uniform(-3.0, 3.0));
  }
  for (int r = 0; r < 20; ++r) {
    std::vector<RowEntry> entries;
    for (int v = 0; v < n; ++v) {
      if (rng.bernoulli(0.5)) entries.push_back({v, rng.uniform(-2.0, 3.0)});
    }
    if (!entries.empty()) {
      current.add_row("r", RowType::LessEqual, rng.uniform(2.0, 6.0),
                      std::move(entries));
    }
  }
  Tableau warm(current, SimplexOptions{});
  ASSERT_EQ(warm.solve_primal(), SolveStatus::Optimal);
  for (int step = 0; step < 4000; ++step) {
    const int v = static_cast<int>(rng.uniform_int(0, n - 1));
    Variable& var = current.variable(v);
    // Free, fixed at 0 or fixed at 1, as a binary moves through a search.
    const auto kind = rng.uniform_int(0, 2);
    var.lower = kind == 2 ? 1.0 : 0.0;
    var.upper = kind == 1 ? 0.0 : 1.0;
    warm.set_bounds(v, var.lower, var.upper);
    const Solution cold = SimplexSolver().solve(current);
    const Reopt reopt = warm.reoptimize();
    if (cold.status == SolveStatus::Infeasible) {
      ASSERT_EQ(reopt, Reopt::Infeasible) << "step " << step;
      continue;
    }
    ASSERT_EQ(cold.status, SolveStatus::Optimal) << "step " << step;
    ASSERT_EQ(reopt, Reopt::Optimal) << "step " << step;
    ASSERT_NEAR(warm.objective(), cold.objective, 1e-9) << "step " << step;
  }
  EXPECT_GT(warm.pivots(), 2000);
}

TEST(Tableau, LoosenedBoundCanMakeTheLpUnbounded) {
  // max x  s.t. x - y <= 1, y in [0, 2]: optimum 3 with y at its upper
  // bound. Dropping that bound leaves x unbounded above, which a cold solve
  // must report as such, not as an iteration cap.
  Model m(Sense::Maximize);
  const int x = m.add_variable("x", 0.0, kInfinity, 1.0);
  const int y = m.add_variable("y", 0.0, 2.0, 0.0);
  m.add_row("gap", RowType::LessEqual, 1.0, {{x, 1.0}, {y, -1.0}});
  Tableau tableau(m, SimplexOptions{});
  ASSERT_EQ(tableau.solve_primal(), SolveStatus::Optimal);
  EXPECT_NEAR(tableau.objective(), 3.0, 1e-12);
  tableau.set_bounds(y, 0.0, 5.0);
  ASSERT_EQ(tableau.reoptimize(), Reopt::Optimal);
  EXPECT_NEAR(tableau.objective(), 6.0, 1e-12);
  tableau.set_bounds(y, 0.0, kInfinity);
  EXPECT_EQ(tableau.reoptimize(), Reopt::Unbounded);
  m.variable(y).upper = kInfinity;
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::Unbounded);
}

TEST(Tableau, CutoffStopsOnlyWhenTheOptimumCannotBeatIt) {
  // min x + y  s.t. x + y >= 2: optimum 2. Tightening x >= 3 moves it to 3.
  Model m(Sense::Minimize);
  const int x = m.add_variable("x", 0.0, 10.0, 1.0);
  const int y = m.add_variable("y", 0.0, 10.0, 1.0);
  m.add_row("cover", RowType::GreaterEqual, 2.0, {{x, 1.0}, {y, 1.0}});
  Tableau tableau(m, SimplexOptions{});
  ASSERT_EQ(tableau.solve_primal(), SolveStatus::Optimal);
  EXPECT_NEAR(tableau.objective(), 2.0, 1e-12);
  tableau.set_bounds(x, 3.0, 10.0);
  EXPECT_EQ(tableau.reoptimize(2.5), Reopt::CutOff);
  EXPECT_EQ(tableau.reoptimize(3.5), Reopt::Optimal);
  EXPECT_NEAR(tableau.objective(), 3.0, 1e-12);
}

// Mixed-integer models with equality rows: integers in {0, 1} or
// {0, 1, 2}, boxed continuous variables with nonzero lower bounds. The
// reference enumerates every integer assignment and solves the continuous
// rest cold.
TEST(Milp, EqualityAndMixedModelsMatchBruteForce) {
  Rng rng(37);
  int feasible_models = 0;
  int infeasible_models = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Model m(rng.bernoulli(0.5) ? Sense::Minimize : Sense::Maximize);
    const int ints = static_cast<int>(rng.uniform_int(2, 5));
    const int conts = static_cast<int>(rng.uniform_int(0, 3));
    std::vector<double> point;
    for (int v = 0; v < ints; ++v) {
      const auto hi = static_cast<double>(rng.uniform_int(1, 2));
      m.add_variable("z", 0.0, hi, rng.uniform(-5.0, 5.0), /*is_integer=*/true);
      point.push_back(static_cast<double>(rng.uniform_int(0, 1)));
    }
    for (int v = 0; v < conts; ++v) {
      const double lo = rng.uniform(-2.0, 1.0);
      m.add_variable("c", lo, lo + rng.uniform(0.5, 3.0), rng.uniform(-5.0, 5.0));
      point.push_back(lo);
    }
    const int n = ints + conts;
    auto random_entries = [&] {
      std::vector<RowEntry> entries;
      for (int v = 0; v < n; ++v) {
        const auto coeff = static_cast<double>(rng.uniform_int(-3, 3));
        if (coeff != 0.0) entries.push_back({v, coeff});
      }
      return entries;
    };
    auto lhs_at_point = [&](const std::vector<RowEntry>& entries) {
      double lhs = 0.0;
      for (const RowEntry& e : entries) {
        lhs += e.coeff * point[static_cast<std::size_t>(e.var)];
      }
      return lhs;
    };
    // Equality rows; one in four gets an odd shift that may leave no
    // integer point.
    const int equalities = static_cast<int>(rng.uniform_int(1, 2));
    for (int r = 0; r < equalities; ++r) {
      auto entries = random_entries();
      if (entries.empty()) continue;
      const double shift = rng.bernoulli(0.25) ? 1.0 : 0.0;
      m.add_row("eq", RowType::Equal, lhs_at_point(entries) + shift, entries);
    }
    for (int r = 0; r < 2; ++r) {
      auto entries = random_entries();
      if (entries.empty()) continue;
      const double lhs = lhs_at_point(entries);
      if (rng.bernoulli(0.5)) {
        m.add_row("le", RowType::LessEqual, lhs + rng.uniform(0.0, 2.0), entries);
      } else {
        m.add_row("ge", RowType::GreaterEqual, lhs - rng.uniform(0.0, 2.0), entries);
      }
    }

    // Brute force over the integer box.
    const bool minimize = m.sense() == Sense::Minimize;
    bool found = false;
    double best = 0.0;
    std::vector<int> assign(static_cast<std::size_t>(ints), 0);
    for (;;) {
      Model fixed = m;
      for (int v = 0; v < ints; ++v) {
        fixed.variable(v).lower = assign[static_cast<std::size_t>(v)];
        fixed.variable(v).upper = assign[static_cast<std::size_t>(v)];
      }
      const Solution s = SimplexSolver().solve(fixed);
      if (s.status == SolveStatus::Optimal &&
          (!found || (minimize ? s.objective < best : s.objective > best))) {
        found = true;
        best = s.objective;
      }
      int v = 0;
      while (v < ints && ++assign[static_cast<std::size_t>(v)] >
                             m.variable(v).upper) {
        assign[static_cast<std::size_t>(v)] = 0;
        ++v;
      }
      if (v == ints) break;
    }

    const Solution s = MilpSolver().solve(m);
    if (!found) {
      EXPECT_EQ(s.status, SolveStatus::Infeasible) << "trial " << trial;
      ++infeasible_models;
      continue;
    }
    ++feasible_models;
    ASSERT_EQ(s.status, SolveStatus::Optimal) << "trial " << trial;
    EXPECT_NEAR(s.objective, best, 1e-6) << "trial " << trial;
    EXPECT_TRUE(is_feasible_assignment(m, s.x, 1e-6)) << "trial " << trial;
  }
  EXPECT_GT(feasible_models, 30);
  EXPECT_GT(infeasible_models, 3);
}

TEST(Model, WritesLpFormat) {
  Model m(Sense::Minimize);
  const int x = m.add_variable("x", 0, 4.0, 2.0);
  const int y = m.add_binary("y", -1.0);
  m.add_row("cap", RowType::LessEqual, 7, {{x, 3.0}, {y, -1.0}});
  std::ostringstream os;
  m.write_lp(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("Minimize"), std::string::npos);
  EXPECT_NE(text.find("cap:"), std::string::npos);
  EXPECT_NE(text.find("+ 3 x"), std::string::npos);
  EXPECT_NE(text.find("<= 7"), std::string::npos);
  EXPECT_NE(text.find("General"), std::string::npos);
  EXPECT_NE(text.find("End"), std::string::npos);
}

TEST(Model, WriteLpHandlesFreeAndUnboundedVars) {
  Model m(Sense::Maximize);
  m.add_variable("free", -kInfinity, kInfinity, 1.0);
  std::ostringstream os;
  m.write_lp(os);
  EXPECT_NE(os.str().find("-inf <= free <= +inf"), std::string::npos);
}

}  // namespace
}  // namespace eprons::lp
