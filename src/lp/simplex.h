// Cold LP solve on the bounded dense tableau (`lp/tableau.h`).
//
// Solves the continuous relaxation of a `Model` (integrality flags are
// ignored here; `MilpSolver` layers branch-and-bound on top). Variable
// bounds live in the tableau, not in extra rows: a nonbasic variable sits
// at its lower or upper bound. The solve is the bounded primal simplex,
// phase 1 on artificials for the rows the starting slack basis cannot
// satisfy, then phase 2, with Dantzig pricing, a bound-flip ratio test and
// a Bland anti-cycling fallback. `MilpSolver` runs the same tableau warm:
// after a bound change it re-optimizes with the bounded dual simplex from
// the previous optimal basis, which stays dual feasible (see
// `lp/tableau.h`). The consolidation LPs this library generates are small
// (about a hundred rows for a k=4 fat-tree), so a dense tableau is both
// simple and fast enough; the paper itself resorts to a heuristic for
// large instances.
#pragma once

#include "lp/model.h"

namespace eprons::lp {

struct SimplexOptions {
  /// Hard cap on iterations (pivots and bound flips) of one cold solve
  /// across both phases, or on the dual pivots of one warm
  /// re-optimization.
  int max_iterations = 200000;
  /// Numeric tolerance for reduced costs / feasibility.
  double tol = 1e-9;
  /// Switch from Dantzig to Bland's rule after this many consecutive
  /// degenerate pivots, primal or dual (guards against cycling).
  int degenerate_pivot_threshold = 200;
};

class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {});

  /// Solves min/max c'x subject to the model's rows and bounds, treating
  /// every variable as continuous. On success `Solution::x` has one value
  /// per model variable, in order.
  Solution solve(const Model& model) const;

 private:
  SimplexOptions options_;
};

}  // namespace eprons::lp
