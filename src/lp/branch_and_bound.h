// Branch-and-bound mixed-integer solver over the simplex relaxation.
//
// The consolidation MILP has binary switch/link ON-OFF variables (Y, X) and
// binary unsplittable-path choices (Z); everything else is continuous.
// Depth-first search with most-fractional branching, rounding direction
// first, is enough for the instance sizes we solve exactly (the paper,
// like us, falls back to a greedy heuristic beyond that — see
// consolidate/greedy_consolidator.h).
//
// Like CPLEX, which the paper used, the search keeps one LP for all its
// nodes: the root is solved cold on a bounded tableau (`lp/tableau.h`), and
// each later node only changes integer bounds and re-optimizes with the
// bounded dual simplex from the basis the previous node left, which stays
// dual feasible under any bound change. A stack node stores only its
// integer bounds. The dual simplex stops as soon as a node's bound cannot
// beat the incumbent.
#pragma once

#include "lp/model.h"
#include "lp/simplex.h"

namespace eprons::lp {

struct MilpOptions {
  SimplexOptions simplex;
  /// Max branch-and-bound nodes before giving up (returns incumbent if any).
  int max_nodes = 200000;
  /// Integrality tolerance.
  double int_tol = 1e-6;
  /// Stop when (upper - lower) / max(1, |upper|) falls below this gap.
  double rel_gap = 1e-9;
};

class MilpSolver {
 public:
  explicit MilpSolver(MilpOptions options = {});

  /// Solves the model honoring `Variable::is_integer`. Status is:
  ///   Optimal            — proven optimal integer solution
  ///   FeasibleIncumbent  — an integer solution, but the node limit or a
  ///                        node LP's iteration cap left part of the tree
  ///                        unsearched
  ///   NodeLimit          — node limit hit with no integer solution
  ///   IterationLimit     — a node LP (or the root) hit the iteration cap
  ///                        and no integer solution was found
  ///   Infeasible         — the whole tree was searched: no integer point
  ///   Unbounded          — per the root relaxation
  Solution solve(const Model& model) const;

  /// Warm-started solve: `incumbent_hint` (one value per model variable,
  /// e.g. the previous epoch's integer assignment) is validated against
  /// the model's bounds, integrality, and rows; when valid it seeds the
  /// branch-and-bound incumbent, so every node whose relaxation bound
  /// cannot beat the hint is pruned immediately. An invalid or null hint
  /// degrades to the cold solve — warm-starting never changes the
  /// reported objective, only the nodes explored to prove it.
  Solution solve(const Model& model,
                 const std::vector<double>* incumbent_hint) const;

  /// Nodes explored by the most recent solve (diagnostics / benches).
  long long last_node_count() const { return last_nodes_; }

  /// Tableau pivots of the most recent solve, root included (see
  /// `Tableau::pivots`): the solver's exact unit of work.
  long long last_pivot_count() const { return last_pivots_; }

  /// True when the most recent solve() accepted a warm-start incumbent.
  bool last_warm_start_used() const { return last_warm_used_; }

 private:
  MilpOptions options_;
  mutable long long last_nodes_ = 0;
  mutable long long last_pivots_ = 0;
  mutable bool last_warm_used_ = false;
};

/// True when `x` satisfies every bound, integrality requirement, and row
/// of `model` within `tol`. The warm-start validity check, exposed for
/// tests and for callers that construct incumbents by hand.
bool is_feasible_assignment(const Model& model, const std::vector<double>& x,
                            double tol);

}  // namespace eprons::lp
