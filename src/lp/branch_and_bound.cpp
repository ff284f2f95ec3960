#include "lp/branch_and_bound.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <vector>

#include "lp/tableau.h"

namespace eprons::lp {

MilpSolver::MilpSolver(MilpOptions options) : options_(options) {}

bool is_feasible_assignment(const Model& model, const std::vector<double>& x,
                            double tol) {
  if (static_cast<int>(x.size()) != model.num_variables()) return false;
  for (int v = 0; v < model.num_variables(); ++v) {
    const Variable& var = model.variable(v);
    const double value = x[static_cast<std::size_t>(v)];
    if (var.is_integer &&
        std::abs(value - std::round(value)) > tol) {
      return false;
    }
  }
  return model.is_feasible(x, tol);
}

Solution MilpSolver::solve(const Model& model) const {
  return solve(model, nullptr);
}

Solution MilpSolver::solve(const Model& model,
                           const std::vector<double>* incumbent_hint) const {
  last_nodes_ = 0;
  last_pivots_ = 0;
  last_warm_used_ = false;

  // Collect integer variables.
  std::vector<int> int_vars;
  for (int v = 0; v < model.num_variables(); ++v) {
    if (model.variable(v).is_integer) int_vars.push_back(v);
  }

  // One tableau for the whole search: each node changes integer bounds and
  // re-optimizes from the basis the previous node left.
  Tableau tableau(model, options_.simplex);
  Solution root;
  root.status = tableau.solve_primal();
  last_pivots_ = tableau.pivots();
  if (root.status != SolveStatus::Optimal) return root;
  root.x = tableau.solution();
  root.objective = model.objective_value(root.x);
  if (int_vars.empty()) return root;

  const bool minimize = model.sense() == Sense::Minimize;
  auto better = [&](double a, double b) { return minimize ? a < b : a > b; };

  Solution incumbent;
  incumbent.status = SolveStatus::NodeLimit;  // none yet

  // Warm start: a validated hint becomes the initial incumbent, so the
  // search starts with an upper bound and prunes from node one. The
  // branching order is untouched — only subtrees that provably cannot
  // beat the hint are skipped.
  if (incumbent_hint != nullptr &&
      is_feasible_assignment(model, *incumbent_hint, options_.int_tol)) {
    incumbent.x = *incumbent_hint;
    for (int v : int_vars) {
      incumbent.x[static_cast<std::size_t>(v)] =
          std::round(incumbent.x[static_cast<std::size_t>(v)]);
    }
    incumbent.objective = model.objective_value(incumbent.x);
    incumbent.status = SolveStatus::FeasibleIncumbent;
    last_warm_used_ = true;
  }

  struct StackNode {
    std::vector<std::array<double, 2>> bounds;  // per int var: {lo, hi}
    double bound;                               // parent relaxation objective
  };
  std::vector<StackNode> stack;
  {
    StackNode start;
    start.bounds.reserve(int_vars.size());
    for (int v : int_vars) {
      start.bounds.push_back(
          {model.variable(v).lower, model.variable(v).upper});
    }
    start.bound = root.objective;
    stack.push_back(std::move(start));
  }
  // Integer bounds the tableau currently holds.
  std::vector<std::array<double, 2>> applied = stack.back().bounds;
  // Set when a node's LP stopped at the iteration cap: its subtree was
  // never searched, so neither optimality nor infeasibility is proven.
  bool unexplored = false;

  while (!stack.empty()) {
    if (last_nodes_ >= options_.max_nodes) break;
    ++last_nodes_;

    // Depth-first with best-bound tie-break: take the most recently pushed
    // node (children are pushed better-bound last, popped first).
    StackNode node = std::move(stack.back());
    stack.pop_back();

    // Bound pruning against the incumbent.
    if (incumbent.ok() && !better(node.bound, incumbent.objective) &&
        std::abs(node.bound - incumbent.objective) > options_.rel_gap) {
      continue;
    }

    // Apply the node's bounds and re-optimize with the dual simplex; stop
    // as soon as the relaxation cannot beat the incumbent.
    for (std::size_t i = 0; i < int_vars.size(); ++i) {
      if (node.bounds[i] == applied[i]) continue;
      tableau.set_bounds(int_vars[i], node.bounds[i][0], node.bounds[i][1]);
      applied[i] = node.bounds[i];
    }
    const Reopt reopt = tableau.reoptimize(
        incumbent.ok() ? std::optional<double>(incumbent.objective)
                       : std::nullopt);
    // Children only tighten the bounded root, so Unbounded cannot occur;
    // were it to, the subtree would count as unsearched, like a capped LP.
    if (reopt == Reopt::IterationLimit || reopt == Reopt::Unbounded) {
      unexplored = true;
      continue;
    }
    if (reopt != Reopt::Optimal) continue;  // infeasible or cut off
    Solution relax;
    relax.x = tableau.solution();
    relax.objective = model.objective_value(relax.x);
    if (incumbent.ok() && !better(relax.objective, incumbent.objective)) {
      continue;
    }

    // Find the most fractional integer variable.
    std::size_t branch_slot = int_vars.size();
    double worst_frac = options_.int_tol;
    for (std::size_t i = 0; i < int_vars.size(); ++i) {
      const double value = relax.x[static_cast<std::size_t>(int_vars[i])];
      const double frac = std::abs(value - std::round(value));
      if (frac > worst_frac) {
        worst_frac = frac;
        branch_slot = i;
      }
    }

    if (branch_slot == int_vars.size()) {
      // Integral: candidate incumbent (round to kill tolerance dust).
      Solution candidate = relax;
      for (int v : int_vars) {
        candidate.x[static_cast<std::size_t>(v)] =
            std::round(candidate.x[static_cast<std::size_t>(v)]);
      }
      candidate.objective = model.objective_value(candidate.x);
      if (!incumbent.ok() || better(candidate.objective, incumbent.objective)) {
        incumbent = candidate;
        incumbent.status = SolveStatus::FeasibleIncumbent;
      }
      continue;
    }

    // Branch: floor child and ceil child.
    const double value =
        relax.x[static_cast<std::size_t>(int_vars[branch_slot])];
    const double floor_v = std::floor(value);
    const double ceil_v = std::ceil(value);

    StackNode down;
    down.bounds = node.bounds;
    down.bounds[branch_slot][1] = std::min(down.bounds[branch_slot][1], floor_v);
    down.bound = relax.objective;

    StackNode up;
    up.bounds = std::move(node.bounds);
    up.bounds[branch_slot][0] = std::max(up.bounds[branch_slot][0], ceil_v);
    up.bound = relax.objective;

    const bool feasible_down = down.bounds[branch_slot][0] <=
                               down.bounds[branch_slot][1] + 1e-12;
    const bool feasible_up =
        up.bounds[branch_slot][0] <= up.bounds[branch_slot][1] + 1e-12;
    // Push the child closer to the fractional value last so DFS explores the
    // "rounding" direction first — finds incumbents quickly.
    const bool prefer_up = (value - floor_v) > 0.5;
    if (prefer_up) {
      if (feasible_down) stack.push_back(std::move(down));
      if (feasible_up) stack.push_back(std::move(up));
    } else {
      if (feasible_up) stack.push_back(std::move(up));
      if (feasible_down) stack.push_back(std::move(down));
    }
  }
  last_pivots_ = tableau.pivots();

  const bool exhausted = stack.empty() && !unexplored;
  if (incumbent.ok()) {
    // Proven optimal only if the search exhausted every node.
    if (exhausted && last_nodes_ < options_.max_nodes) {
      incumbent.status = SolveStatus::Optimal;
    }
    return incumbent;
  }
  Solution none;
  if (exhausted) {
    none.status = SolveStatus::Infeasible;
  } else {
    none.status = stack.empty() ? SolveStatus::IterationLimit
                                : SolveStatus::NodeLimit;
  }
  return none;
}

}  // namespace eprons::lp
