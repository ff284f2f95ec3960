// Bounded dense simplex tableau: the one simplex implementation behind
// `SimplexSolver` (cold primal phases 1/2) and `MilpSolver` (warm dual
// re-optimization after a bound change).
//
// Every model row i gets a slack s_i with  a_i'x + s_i = b_i  whose bounds
// encode the row type (<=: s >= 0, >=: s <= 0, =: s = 0). Variable bounds
// live in the tableau rather than in extra rows: a nonbasic variable sits
// at its lower or its upper bound (a free one at 0), so a binary's upper
// bound costs no row. The tableau is condensed: it stores B^-1 N for the
// nonbasic columns only (m x n doubles for m rows and n structural
// variables), and a pivot swaps the entering column with the leaving row's
// variable.
//
// A cold solve starts from the slack basis with every variable at a finite
// bound. Rows whose slack would then break its bounds get an artificial
// variable; phase 1 drives their sum to zero, phase 2 minimizes the model's
// objective, both with the bounded primal simplex (Dantzig pricing, a
// bound-flip ratio test, Bland's rule after a run of degenerate pivots).
//
// After an optimal solve the basis is dual feasible, and stays so when a
// variable's bounds change: reduced costs depend only on the basis, and a
// nonbasic variable follows its bound. `reoptimize` then restores primal
// feasibility with the bounded dual simplex (largest-infeasibility row,
// Harris two-pass ratio test, Bland's rule after a run of dual-degenerate
// pivots). Branch-and-bound therefore keeps one tableau for its whole
// search. Pivoting accumulates round-off, so each re-optimization ends with
// a check of the solution against the model's rows and of the reduced costs
// against the duals; when it fails, the node is solved cold instead.
#pragma once

#include <optional>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"

namespace eprons::lp {

/// Outcome of a warm dual re-optimization.
enum class Reopt {
  Optimal,
  Infeasible,
  /// The objective reached the cutoff: no point of these bounds beats it.
  CutOff,
  /// Only from a cold fallback after bounds were loosened: a dual feasible
  /// basis bounds the objective, so the dual simplex itself never ends here.
  Unbounded,
  IterationLimit,
};

class Tableau {
 public:
  /// Copies the model's rows, objective and bounds; solve with
  /// `solve_primal()` before anything else.
  Tableau(const Model& model, SimplexOptions options);

  /// Cold solve from the slack basis under the current bounds: primal
  /// phase 1 then phase 2. `max_iterations` caps pivots plus bound flips
  /// across both phases.
  SolveStatus solve_primal();

  /// Sets structural variable `var`'s bounds. A nonbasic variable moves
  /// with its bound (a boxed one to the side its reduced cost favours), so
  /// the basis stays dual feasible.
  void set_bounds(int var, double lower, double upper);

  /// Re-optimizes under the current bounds with the dual simplex from the
  /// current basis. With a `cutoff` (model terms) it stops as soon as the
  /// objective is no better than the cutoff: the dual simplex only worsens
  /// the objective, so the final one could not beat it either. Falls back
  /// to `solve_primal()` when no dual feasible basis is at hand (the last
  /// cold solve failed, or a nonbasic variable lost the only bound its
  /// reduced cost allows). `max_iterations` caps the pivots of one call.
  Reopt reoptimize(std::optional<double> cutoff = std::nullopt);

  /// Objective of the current basic solution, model terms.
  double objective() const;
  /// Structural variable values of the current basic solution.
  std::vector<double> solution() const;
  /// Tableau pivots since construction: basis changes of both simplex
  /// methods and artificial drive-out. Bound flips are not pivots.
  long long pivots() const { return pivots_; }

 private:
  bool load();
  SolveStatus run_primal();
  void drive_out_artificials();
  void drop_artificial_columns();
  bool accurate();
  bool place_nonbasic(int col);
  Reopt run_dual(std::optional<double> cutoff);
  Reopt solve_cold(std::optional<double> cutoff);
  bool cut_off(std::optional<double> cutoff) const;
  void compute_reduced_costs();
  void recompute_basic_values();
  void move_along_column(int col, double delta);
  void pivot(int row, int col);
  double nonbasic_value(int var) const;
  double* row(int r) { return t_.data() + static_cast<std::size_t>(r) * nc_; }
  const double* row(int r) const {
    return t_.data() + static_cast<std::size_t>(r) * nc_;
  }
  bool is_basic(int var) const { return loc_[var] >= 0; }
  int column_of(int var) const { return -1 - loc_[var]; }

  SimplexOptions opt_;
  int n_ = 0;  // structural variables
  int m_ = 0;  // rows
  Sense sense_ = Sense::Minimize;
  double offset_ = 0.0;

  // The model's rows (CSR) and right-hand sides, kept for cold reloads and
  // the accuracy check.
  std::vector<int> row_start_;
  std::vector<int> row_var_;
  std::vector<double> row_coeff_;
  std::vector<double> rhs_;

  // Variables: [0, n) structural, [n, n+m) slacks, [n+m, n+2m) artificials
  // (one per row, used only while that row needs one).
  // cost_ holds the current phase's costs, minimized; obj_ the model's.
  std::vector<double> lo_, up_, cost_, obj_, x_;
  std::vector<char> at_upper_;
  std::vector<int> loc_;  // row r >= 0 when basic, else -1 - column

  int nc_ = 0;                 // nonbasic columns
  std::vector<double> t_;      // m x nc, row-major: B^-1 N
  std::vector<double> beta_;   // B^-1 b
  std::vector<double> d_;      // reduced cost per column
  std::vector<int> head_;      // column -> variable
  std::vector<int> basis_;     // row -> variable
  std::vector<double> work_;   // scratch: nonbasic values
  std::vector<double> check_;  // scratch for accurate()

  bool dual_ready_ = false;
  int iterations_ = 0;
  long long pivots_ = 0;
};

}  // namespace eprons::lp
