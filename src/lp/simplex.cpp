#include "lp/simplex.h"

#include "lp/tableau.h"

namespace eprons::lp {

SimplexSolver::SimplexSolver(SimplexOptions options) : options_(options) {}

Solution SimplexSolver::solve(const Model& model) const {
  Solution sol;
  Tableau tableau(model, options_);
  sol.status = tableau.solve_primal();
  if (sol.status != SolveStatus::Optimal) return sol;
  sol.x = tableau.solution();
  sol.objective = model.objective_value(sol.x);
  return sol;
}

}  // namespace eprons::lp
