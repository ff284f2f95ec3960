#include "lp/tableau.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace eprons::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Phase 1 declares the model infeasible above this sum of artificials.
constexpr double kPhase1Tol = 1e-7;
// Smallest entry an artificial is driven out of the basis on.
constexpr double kDriveOutPivot = 1e-8;
// Relative round-off the accuracy check tolerates in a row or a reduced
// cost before the tableau is solved again from scratch.
constexpr double kAccuracyTol = 1e-9;

bool has_lower(double lo) { return lo > -kInf; }
bool has_upper(double up) { return up < kInf; }

}  // namespace

Tableau::Tableau(const Model& model, SimplexOptions options)
    : opt_(options),
      n_(model.num_variables()),
      m_(model.num_rows()),
      sense_(model.sense()),
      offset_(model.objective_offset()) {
  const int total = n_ + 2 * m_;
  lo_.assign(total, 0.0);
  up_.assign(total, 0.0);
  cost_.assign(total, 0.0);
  obj_.assign(n_, 0.0);
  x_.assign(total, 0.0);
  at_upper_.assign(total, 0);
  loc_.assign(total, 0);
  for (int v = 0; v < n_; ++v) {
    const Variable& var = model.variable(v);
    lo_[v] = var.lower <= -kInfinity / 2 ? -kInf : var.lower;
    up_[v] = var.upper >= kInfinity / 2 ? kInf : var.upper;
    obj_[v] = var.objective;
  }
  row_start_.reserve(m_ + 1);
  row_start_.push_back(0);
  rhs_.reserve(m_);
  for (int r = 0; r < m_; ++r) {
    const Row& row = model.row(r);
    for (const RowEntry& e : row.entries) {
      row_var_.push_back(e.var);
      row_coeff_.push_back(e.coeff);
    }
    row_start_.push_back(static_cast<int>(row_var_.size()));
    rhs_.push_back(row.rhs);
    const int s = n_ + r;
    lo_[s] = row.type == RowType::GreaterEqual ? -kInf : 0.0;
    up_[s] = row.type == RowType::LessEqual ? kInf : 0.0;
  }
  basis_.assign(m_, 0);
  beta_.assign(m_, 0.0);
  work_.assign(total, 0.0);
  check_.assign(2 * n_, 0.0);
}

double Tableau::nonbasic_value(int var) const {
  if (at_upper_[var]) return up_[var];
  return has_lower(lo_[var]) ? lo_[var] : 0.0;
}

double Tableau::objective() const {
  // Same summation order as Model::objective_value.
  double value = offset_;
  for (std::size_t v = 0; v < obj_.size(); ++v) value += obj_[v] * x_[v];
  return value;
}

std::vector<double> Tableau::solution() const {
  return std::vector<double>(x_.begin(), x_.begin() + n_);
}

// Slack basis with every structural variable at a finite bound (0 when
// free); a row whose slack would break its own bounds gets a basic
// artificial instead, and its slack becomes a nonbasic column. Returns
// whether any artificial was needed.
bool Tableau::load() {
  for (int v = 0; v < n_; ++v) {
    at_upper_[v] = !has_lower(lo_[v]) && has_upper(up_[v]);
    x_[v] = nonbasic_value(v);
  }
  std::vector<int> art_rows;
  std::vector<double> sign(m_, 1.0);
  for (int r = 0; r < m_; ++r) {
    double resid = rhs_[r];
    for (int k = row_start_[r]; k < row_start_[r + 1]; ++k) {
      resid -= row_coeff_[k] * x_[row_var_[k]];
    }
    const int s = n_ + r;
    const int a = n_ + m_ + r;
    lo_[a] = 0.0;
    up_[a] = 0.0;
    if (resid >= lo_[s] - opt_.tol && resid <= up_[s] + opt_.tol) {
      basis_[r] = s;
      x_[s] = resid;
      continue;
    }
    // a_r'x + s + e*art = b with the slack at the bound it broke, so
    // art = e * (resid - s) >= 0.
    at_upper_[s] = resid > up_[s];
    x_[s] = nonbasic_value(s);
    sign[r] = resid > x_[s] ? 1.0 : -1.0;
    up_[a] = kInf;
    x_[a] = std::abs(resid - x_[s]);
    at_upper_[a] = 0;
    basis_[r] = a;
    art_rows.push_back(r);
  }

  nc_ = n_ + static_cast<int>(art_rows.size());
  head_.resize(nc_);
  d_.assign(nc_, 0.0);
  t_.assign(static_cast<std::size_t>(m_) * nc_, 0.0);
  for (int c = 0; c < n_; ++c) {
    head_[c] = c;
    loc_[c] = -1 - c;
  }
  for (std::size_t k = 0; k < art_rows.size(); ++k) {
    const int c = n_ + static_cast<int>(k);
    const int s = n_ + art_rows[k];
    head_[c] = s;
    loc_[s] = -1 - c;
    row(art_rows[k])[c] = sign[art_rows[k]];
  }
  for (int r = 0; r < m_; ++r) {
    const double e = sign[r];
    double* tr = row(r);
    for (int k = row_start_[r]; k < row_start_[r + 1]; ++k) {
      tr[row_var_[k]] += e * row_coeff_[k];
    }
    beta_[r] = e * rhs_[r];
    loc_[basis_[r]] = r;
  }
  return !art_rows.empty();
}

void Tableau::compute_reduced_costs() {
  for (int c = 0; c < nc_; ++c) d_[c] = cost_[head_[c]];
  for (int r = 0; r < m_; ++r) {
    const double cb = cost_[basis_[r]];
    if (cb == 0.0) continue;
    const double* tr = row(r);
    for (int c = 0; c < nc_; ++c) d_[c] -= cb * tr[c];
  }
}

// x_B = B^-1 b - B^-1 N x_N from scratch.
void Tableau::recompute_basic_values() {
  for (int c = 0; c < nc_; ++c) work_[c] = x_[head_[c]];
  for (int r = 0; r < m_; ++r) {
    const double* tr = row(r);
    double value = beta_[r];
    for (int c = 0; c < nc_; ++c) value -= tr[c] * work_[c];
    x_[basis_[r]] = value;
  }
}

// Moves the nonbasic variable of column `col` by `delta`; the basic
// variables follow so every row stays satisfied.
void Tableau::move_along_column(int col, double delta) {
  for (int r = 0; r < m_; ++r) x_[basis_[r]] -= row(r)[col] * delta;
  x_[head_[col]] += delta;
}

// Condensed (Tucker) pivot: the variable of column `col` enters the basis
// in row `row_index`, whose variable takes over the column. With p the
// pivot, the new column holds -T[i][col] / p and the pivot row 1 / p.
void Tableau::pivot(int row_index, int col) {
  double* prow = row(row_index);
  const double inv = 1.0 / prow[col];
  for (int c = 0; c < nc_; ++c) prow[c] *= inv;
  prow[col] = inv;
  beta_[row_index] *= inv;

  const double dc = d_[col];
  if (dc != 0.0) {
    d_[col] = 0.0;
    for (int c = 0; c < nc_; ++c) d_[c] -= dc * prow[c];
  }
  const int nc = nc_;
  for (int r = 0; r < m_; ++r) {
    if (r == row_index) continue;
    double* __restrict target = row(r);
    const double factor = target[col];
    if (factor == 0.0) continue;
    target[col] = 0.0;
    const double* __restrict source = prow;
    for (int c = 0; c < nc; ++c) target[c] -= factor * source[c];
    beta_[r] -= factor * beta_[row_index];
  }

  const int entering = head_[col];
  const int leaving = basis_[row_index];
  head_[col] = leaving;
  basis_[row_index] = entering;
  loc_[entering] = row_index;
  loc_[leaving] = -1 - col;
  ++pivots_;
}

// Bounded primal simplex on cost_ from a primal feasible basis.
SolveStatus Tableau::run_primal() {
  const double tol = opt_.tol;
  int degenerate_streak = 0;
  for (;;) {
    const bool bland = degenerate_streak > opt_.degenerate_pivot_threshold;

    // Pricing: Dantzig's largest |d_j|, or the lowest eligible variable.
    int enter = -1;
    double dir = 0.0;
    double best = 0.0;
    for (int c = 0; c < nc_; ++c) {
      const int v = head_[c];
      if (lo_[v] == up_[v]) continue;
      const double dj = d_[c];
      double dir_c;
      if (at_upper_[v]) {
        if (dj <= tol) continue;
        dir_c = -1.0;
      } else if (has_lower(lo_[v])) {
        if (dj >= -tol) continue;
        dir_c = 1.0;
      } else {  // free, at 0
        if (std::abs(dj) <= tol) continue;
        dir_c = dj < 0.0 ? 1.0 : -1.0;
      }
      if (bland) {
        if (enter < 0 || v < head_[enter]) {
          enter = c;
          dir = dir_c;
        }
      } else if (std::abs(dj) > best) {
        best = std::abs(dj);
        enter = c;
        dir = dir_c;
      }
    }
    if (enter < 0) return SolveStatus::Optimal;
    if (iterations_ >= opt_.max_iterations) return SolveStatus::IterationLimit;
    ++iterations_;

    // Ratio test: the first basic variable to reach a bound, or the
    // entering variable's own opposite bound (a bound flip).
    const int q = head_[enter];
    const double flip = up_[q] - lo_[q];
    int leave = -1;
    bool leave_to_upper = false;
    double best_step = kInf;
    double best_alpha = 0.0;
    for (int r = 0; r < m_; ++r) {
      const double alpha = row(r)[enter] * dir;  // basic moves by -alpha * t
      if (std::abs(alpha) <= tol) continue;
      const int b = basis_[r];
      double step;
      bool to_upper;
      if (alpha > 0.0) {
        if (!has_lower(lo_[b])) continue;
        step = (x_[b] - lo_[b]) / alpha;
        to_upper = false;
      } else {
        if (!has_upper(up_[b])) continue;
        step = (up_[b] - x_[b]) / -alpha;
        to_upper = true;
      }
      step = std::max(step, 0.0);
      bool take = leave < 0 || step < best_step - tol;
      if (!take && step <= best_step + tol) {
        take = bland ? b < basis_[leave] : std::abs(alpha) > best_alpha;
      }
      if (take) {
        leave = r;
        leave_to_upper = to_upper;
        best_step = step;
        best_alpha = std::abs(alpha);
      }
    }

    if (flip <= best_step) {
      if (flip == kInf) return SolveStatus::Unbounded;
      move_along_column(enter, dir * flip);
      at_upper_[q] = dir > 0.0;
      x_[q] = nonbasic_value(q);
      degenerate_streak = 0;
      continue;
    }
    move_along_column(enter, dir * best_step);
    const int p = basis_[leave];
    x_[p] = leave_to_upper ? up_[p] : lo_[p];
    at_upper_[p] = leave_to_upper;
    // An artificial that leaves has done its job and never re-enters.
    if (p >= n_ + m_) up_[p] = 0.0;
    pivot(leave, enter);
    degenerate_streak = best_step <= tol ? degenerate_streak + 1 : 0;
  }
}

// After phase 1 every artificial is at zero. A basic one is swapped out
// on its row's largest entry; a row with no usable entry is redundant and
// keeps its artificial, fixed at zero.
void Tableau::drive_out_artificials() {
  for (int r = 0; r < m_; ++r) {
    const int a = basis_[r];
    if (a < n_ + m_) continue;
    const double* tr = row(r);
    int best = -1;
    double best_abs = kDriveOutPivot;
    for (int c = 0; c < nc_; ++c) {
      if (head_[c] >= n_ + m_) continue;
      if (std::abs(tr[c]) > best_abs) {
        best_abs = std::abs(tr[c]);
        best = c;
      }
    }
    if (best < 0) continue;
    x_[a] = 0.0;
    at_upper_[a] = 0;
    pivot(r, best);
  }
}

// Nonbasic artificials are fixed at zero for good; their columns go.
void Tableau::drop_artificial_columns() {
  std::vector<int> keep;
  for (int c = 0; c < nc_; ++c) {
    if (head_[c] < n_ + m_) keep.push_back(c);
  }
  const int kept = static_cast<int>(keep.size());
  // Rows compact in place: no entry moves to a later index.
  for (int r = 0; r < m_; ++r) {
    const double* from = row(r);
    double* to = t_.data() + static_cast<std::size_t>(r) * kept;
    for (int k = 0; k < kept; ++k) to[k] = from[keep[k]];
  }
  for (int k = 0; k < kept; ++k) {
    const int c = keep[k];
    const int v = head_[c];
    head_[k] = v;
    d_[k] = d_[c];
    loc_[v] = -1 - k;
  }
  nc_ = kept;
  head_.resize(nc_);
  d_.resize(nc_);
  t_.resize(static_cast<std::size_t>(m_) * nc_);
}

SolveStatus Tableau::solve_primal() {
  dual_ready_ = false;
  iterations_ = 0;
  std::fill(cost_.begin(), cost_.end(), 0.0);
  if (load()) {
    // Phase 1: minimize the sum of the artificials.
    for (int r = 0; r < m_; ++r) cost_[n_ + m_ + r] = 1.0;
    compute_reduced_costs();
    const SolveStatus phase1 = run_primal();
    if (phase1 != SolveStatus::Optimal) return phase1;
    double infeasibility = 0.0;
    for (int r = 0; r < m_; ++r) {
      const int b = basis_[r];
      if (b >= n_ + m_) infeasibility += x_[b];
    }
    if (infeasibility > kPhase1Tol) return SolveStatus::Infeasible;
    for (int r = 0; r < m_; ++r) {
      up_[n_ + m_ + r] = 0.0;
      cost_[n_ + m_ + r] = 0.0;
    }
    drive_out_artificials();
    drop_artificial_columns();
    recompute_basic_values();
  }
  // Phase 2: the model's objective, as a minimization.
  const double sign = sense_ == Sense::Minimize ? 1.0 : -1.0;
  for (int v = 0; v < n_; ++v) cost_[v] = sign * obj_[v];
  compute_reduced_costs();
  const SolveStatus status = run_primal();
  dual_ready_ = status == SolveStatus::Optimal;
  return status;
}

// Puts the nonbasic variable of column `col` on the side of its bounds
// that its reduced cost favours (a boxed one may switch sides). Returns
// false when no finite side keeps the reduced cost dual feasible.
bool Tableau::place_nonbasic(int col) {
  const int v = head_[col];
  const double dj = d_[col];
  const bool lower_ok = has_lower(lo_[v]);
  const bool upper_ok = has_upper(up_[v]);
  if (lower_ok && upper_ok) {
    // A fixed variable's reduced cost may have drifted to either sign.
    if (at_upper_[v] ? dj > opt_.tol : dj < -opt_.tol) {
      at_upper_[v] = !at_upper_[v];
    }
    return true;
  }
  at_upper_[v] = upper_ok;
  if (lower_ok) return dj >= -opt_.tol;
  if (upper_ok) return dj <= opt_.tol;
  return std::abs(dj) <= opt_.tol;
}

void Tableau::set_bounds(int var, double lower, double upper) {
  lo_[var] = lower <= -kInfinity / 2 ? -kInf : lower;
  up_[var] = upper >= kInfinity / 2 ? kInf : upper;
  if (is_basic(var)) return;  // the dual simplex repairs its feasibility
  const int col = column_of(var);
  if (!place_nonbasic(col)) dual_ready_ = false;
  const double value = nonbasic_value(var);
  const double delta = value - x_[var];
  if (delta != 0.0) move_along_column(col, delta);
  x_[var] = value;
}

// Pivoting accumulates round-off in the tableau. The basic solution must
// still satisfy the model's rows, and the reduced costs must agree with
// the duals the slack columns carry (y_i = -d of a nonbasic slack, 0 for a
// basic one), each within kAccuracyTol of its scale.
bool Tableau::accurate() {
  for (int r = 0; r < m_; ++r) {
    double resid = rhs_[r] - x_[n_ + r];
    double scale = 1.0 + std::abs(rhs_[r]) + std::abs(x_[n_ + r]);
    for (int k = row_start_[r]; k < row_start_[r + 1]; ++k) {
      const double term = row_coeff_[k] * x_[row_var_[k]];
      resid -= term;
      scale += std::abs(term);
    }
    if (std::abs(resid) > kAccuracyTol * scale) return false;
  }
  // check_ holds y'A_v, then the sum of |y_i a_iv|, per structural v.
  std::fill(check_.begin(), check_.end(), 0.0);
  for (int r = 0; r < m_; ++r) {
    const int s = n_ + r;
    const double y = is_basic(s) ? 0.0 : -d_[column_of(s)];
    if (y == 0.0) continue;
    for (int k = row_start_[r]; k < row_start_[r + 1]; ++k) {
      check_[row_var_[k]] += y * row_coeff_[k];
      check_[n_ + row_var_[k]] += std::abs(y * row_coeff_[k]);
    }
  }
  for (int v = 0; v < n_; ++v) {
    const double exact = cost_[v] - check_[v];
    const double held = is_basic(v) ? 0.0 : d_[column_of(v)];
    const double scale = 1.0 + std::abs(cost_[v]) + check_[n_ + v];
    if (std::abs(exact - held) > kAccuracyTol * scale) return false;
  }
  return true;
}

Reopt Tableau::reoptimize(std::optional<double> cutoff) {
  iterations_ = 0;
  Reopt outcome = dual_ready_ ? run_dual(cutoff) : solve_cold(cutoff);
  if (dual_ready_ && outcome != Reopt::IterationLimit && !accurate()) {
    outcome = solve_cold(cutoff);
  }
  return outcome;
}

Reopt Tableau::solve_cold(std::optional<double> cutoff) {
  switch (solve_primal()) {
    case SolveStatus::Optimal:
      return cut_off(cutoff) ? Reopt::CutOff : Reopt::Optimal;
    case SolveStatus::Infeasible:
      return Reopt::Infeasible;
    case SolveStatus::Unbounded:
      return Reopt::Unbounded;
    default:
      return Reopt::IterationLimit;
  }
}

bool Tableau::cut_off(std::optional<double> cutoff) const {
  if (!cutoff) return false;
  const double z = objective();
  return sense_ == Sense::Minimize ? z >= *cutoff : z <= *cutoff;
}

// Bounded dual simplex from a dual feasible basis.
Reopt Tableau::run_dual(std::optional<double> cutoff) {
  const double tol = opt_.tol;
  int degenerate_streak = 0;
  for (;;) {
    if (cut_off(cutoff)) return Reopt::CutOff;
    const bool bland = degenerate_streak > opt_.degenerate_pivot_threshold;

    // Leaving row: the largest bound violation, or the lowest violating
    // variable.
    int leave = -1;
    double worst = 0.0;
    for (int r = 0; r < m_; ++r) {
      const int b = basis_[r];
      double violation;
      if (x_[b] < lo_[b] - tol) {
        violation = lo_[b] - x_[b];
      } else if (x_[b] > up_[b] + tol) {
        violation = x_[b] - up_[b];
      } else {
        continue;
      }
      if (bland) {
        if (leave < 0 || b < basis_[leave]) leave = r;
      } else if (violation > worst) {
        worst = violation;
        leave = r;
      }
    }
    if (leave < 0) return Reopt::Optimal;
    if (iterations_ >= opt_.max_iterations) return Reopt::IterationLimit;
    ++iterations_;

    const int p = basis_[leave];
    const bool to_lower = x_[p] < lo_[p];
    const double sigma = to_lower ? 1.0 : -1.0;
    const double* prow = row(leave);

    // Column j may enter when moving it off its bound pushes the leaving
    // variable toward the violated bound; `slack` is how far its reduced
    // cost is from changing sign, per unit of |alpha|.
    auto eligible = [&](int c, double* abs_alpha, double* slack) {
      const int v = head_[c];
      if (lo_[v] == up_[v]) return false;
      const double alpha = sigma * prow[c];
      const double dj = d_[c];
      if (at_upper_[v]) {
        if (alpha <= tol) return false;
        *slack = std::max(-dj, 0.0);
      } else if (has_lower(lo_[v])) {
        if (alpha >= -tol) return false;
        *slack = std::max(dj, 0.0);
      } else {
        if (std::abs(alpha) <= tol) return false;
        *slack = std::abs(dj);
      }
      *abs_alpha = std::abs(alpha);
      return true;
    };

    // Harris pass 1: the largest step that keeps every reduced cost within
    // tol of its sign (the exact smallest ratio under Bland's rule).
    double bound_ratio = kInf;
    for (int c = 0; c < nc_; ++c) {
      double abs_alpha = 0.0;
      double slack = 0.0;
      if (!eligible(c, &abs_alpha, &slack)) continue;
      const double ratio = bland ? slack / abs_alpha : (slack + tol) / abs_alpha;
      bound_ratio = std::min(bound_ratio, ratio);
    }
    if (bound_ratio == kInf) return Reopt::Infeasible;
    // Pass 2: within that step, the largest pivot (Bland: lowest index).
    int enter = -1;
    double enter_abs = 0.0;
    double enter_ratio = 0.0;
    for (int c = 0; c < nc_; ++c) {
      double abs_alpha = 0.0;
      double slack = 0.0;
      if (!eligible(c, &abs_alpha, &slack)) continue;
      const double ratio = slack / abs_alpha;
      if (ratio > bound_ratio) continue;
      const bool take = enter < 0 || (bland ? head_[c] < head_[enter]
                                            : abs_alpha > enter_abs);
      if (take) {
        enter = c;
        enter_abs = abs_alpha;
        enter_ratio = ratio;
      }
    }

    const double target = to_lower ? lo_[p] : up_[p];
    move_along_column(enter, (x_[p] - target) / prow[enter]);
    x_[p] = target;
    at_upper_[p] = !to_lower;
    pivot(leave, enter);
    degenerate_streak = enter_ratio <= tol ? degenerate_streak + 1 : 0;
  }
}

}  // namespace eprons::lp
