#include "la/cg.h"

#include <cmath>

#include "common/error.h"
#include "common/log.h"
#include "telemetry/telemetry.h"

namespace vstack::la {

namespace {

const telemetry::Counter t_calls("la.cg.calls");
const telemetry::Counter t_iters("la.cg.iterations");

// The stopping rules of CG, shared by the single-vector loop and the
// lockstep groups: each rule has this one definition.

/// A zero right-hand side: x = 0 solves it exactly.
bool zero_rhs(double b_norm, Vector& x, SolveReport& report) {
  if (b_norm != 0.0) return false;
  fill(x, 0.0);
  report.converged = true;
  return true;
}

/// A warm start already inside tolerance (a re-solve of the same system)
/// ends converged at zero iterations: iterating from a zero residual breaks
/// down as non-positive curvature.
bool starts_converged(double initial_res, const IterativeOptions& options,
                      SolveReport& report) {
  if (!(initial_res < options.relative_tolerance)) return false;
  report.converged = true;
  report.residual_norm = initial_res;
  return true;
}

/// Deadline poll every 8 iterations: the expired() clock read is noise next
/// to a large SpMV but not next to a tiny one.
bool deadline_fired(std::size_t it, const IterativeOptions& options) {
  if ((it & 7u) != 0u || !options.deadline.expired()) return false;
  VS_LOG_WARN("CG: deadline expired at iteration " << it);
  return true;
}

/// False when p^T A p is not positive: A is not SPD along this direction
/// (or NaN from a broken preconditioner), so the run stops.
bool curvature_ok(double pap, std::size_t it) {
  if (pap > 0.0) return true;
  VS_LOG_WARN("CG: non-positive curvature at iteration " << it);
  return false;
}

/// One right-hand side's stagnation window: the best residual seen and the
/// iterations since it improved by stagnation_factor.
struct Progress {
  double best_res = 0.0;
  std::size_t since_best = 0;
};

enum class Verdict { Continue, Converged, Stop };

/// Records residual `res` of iteration `it` in `report` and decides: stop on
/// a non-finite residual, converged inside tolerance, stop when the best
/// residual has not improved within the stagnation window, else go on.
Verdict judge(double res, std::size_t it, const IterativeOptions& options,
              Progress& progress, SolveReport& report) {
  report.iterations = it + 1;
  report.residual_norm = res;
  if (!std::isfinite(res)) {
    VS_LOG_WARN("CG: non-finite residual at iteration " << it);
    return Verdict::Stop;
  }
  if (res < options.relative_tolerance) {
    report.converged = true;
    t_iters.add(static_cast<double>(report.iterations));
    return Verdict::Converged;
  }
  if (options.stagnation_window > 0) {
    if (res <= options.stagnation_factor * progress.best_res) {
      progress.best_res = res;
      progress.since_best = 0;
    } else if (++progress.since_best >= options.stagnation_window) {
      VS_LOG_WARN("CG: stagnated (residual " << res << ") at iteration "
                  << it);
      return Verdict::Stop;
    }
  }
  return Verdict::Continue;
}

/// A run that stopped without converging (a break or the budget) reports
/// the true residual of the x it reached, computed in `scratch`, and counts
/// as converged when that is inside tolerance.
void end_unconverged(const Backend& bk, const BackendMatrix& pm,
                     const Vector& b, const Vector& x, double b_norm,
                     const IterativeOptions& options, Vector& scratch,
                     SolveReport& report) {
  bk.residual(pm, b, x, scratch);
  report.residual_norm = bk.norm2(scratch) / b_norm;
  report.converged = report.residual_norm < options.relative_tolerance;
  t_iters.add(static_cast<double>(report.iterations));
}

// Row-interleaved block kernels over W right-hand sides (la/vector_ops.h).
// Lane j of each performs the reference backend's single-vector operations
// in the same order, so every lane keeps the bits of a single solve.

/// y = A x, per lane CsrMatrix::multiply.
template <std::size_t W>
void block_spmv(const CsrMatrix& a, const double* x, double* y) {
  const std::size_t* row_ptr = a.row_ptr().data();
  const std::size_t* col = a.col_idx().data();
  const double* val = a.values().data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    double s[W] = {};
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const double v = val[k];
      const double* xc = x + col[k] * W;
      for (std::size_t j = 0; j < W; ++j) s[j] += v * xc[j];
    }
    for (std::size_t j = 0; j < W; ++j) y[i * W + j] = s[j];
  }
}

/// out[j] = la::dot of lane j of u and v.
template <std::size_t W>
void block_dot(std::size_t n, const double* u, const double* v,
               double* out) {
  double s[W] = {};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < W; ++j) s[j] += u[i * W + j] * v[i * W + j];
  }
  for (std::size_t j = 0; j < W; ++j) out[j] = s[j];
}

/// One right-hand side of a lockstep group.
struct Lane {
  std::size_t rhs = 0;  // index into the caller's b, x and reports
  double b_norm = 0.0;
  double rz = 0.0;
  Progress progress;
  bool done = false;
};

/// conjugate_gradient()'s loop over a group of lanes, one iteration index
/// for all.  Lane j of the blocks r_, p_ and zap_ (z, then A p: never live
/// at once) is slot j of lanes_; its iterate is the caller's x itself.
class LockstepGroup {
 public:
  LockstepGroup(const CsrMatrix& a, const BackendMatrix& prepared,
                const Preconditioner& precond, const IterativeOptions& options,
                std::span<const Vector> b, std::span<Vector> x,
                std::vector<SolveReport>& reports)
      : a_(a), prepared_(prepared), precond_(precond), options_(options),
        b_(b), x_(x), reports_(reports) {}

  void run(std::vector<Lane> lanes) {
    lanes_ = std::move(lanes);
    const std::size_t n = a_.size();
    const std::size_t w = lanes_.size();
    r_.resize(n * w);
    p_.resize(n * w);
    zap_.resize(n * w);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < w; ++j) {
        p_[i * w + j] = x_[lanes_[j].rhs][i];
        r_[i * w + j] = b_[lanes_[j].rhs][i];
      }
    }
    it_ = 0;
    first_ = true;
    with_block_width(w, [&](auto width) { start<decltype(width)::value>(); });
    compact();
    while (!lanes_.empty()) {
      with_block_width(lanes_.size(), [&](auto width) {
        iterate<decltype(width)::value>();
      });
      compact();
    }
  }

 private:
  /// r = b - A x0 (r_ holds b and p_ the guesses x0 on entry); lanes
  /// whose guess is already inside tolerance leave converged at zero
  /// iterations.
  template <std::size_t W>
  void start() {
    const std::size_t n = a_.size();
    block_spmv<W>(a_, p_.data(), zap_.data());
    for (std::size_t i = 0; i < n * W; ++i) r_[i] = r_[i] - zap_[i];
    double rr[W];
    block_dot<W>(n, r_.data(), r_.data(), rr);
    for (std::size_t j = 0; j < W; ++j) {
      Lane& lane = lanes_[j];
      const double initial_res = std::sqrt(rr[j]) / lane.b_norm;
      // x still holds the caller's guess when the lane leaves here.
      lane.done =
          starts_converged(initial_res, options_, reports_[lane.rhs]);
      lane.progress.best_res = initial_res;
    }
  }

  /// z = M^{-1} r, then p = z on the first pass and p = z + beta p after.
  template <std::size_t W>
  void precondition() {
    const std::size_t n = a_.size();
    precond_.apply_block(r_, zap_, W);
    double rz[W];
    block_dot<W>(n, r_.data(), zap_.data(), rz);
    if (first_) {
      first_ = false;
      for (std::size_t j = 0; j < W; ++j) lanes_[j].rz = rz[j];
      for (std::size_t i = 0; i < n * W; ++i) p_[i] = zap_[i];
      return;
    }
    double beta[W];
    for (std::size_t j = 0; j < W; ++j) {
      beta[j] = rz[j] / lanes_[j].rz;
      lanes_[j].rz = rz[j];
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < W; ++j) {
        p_[i * W + j] = zap_[i * W + j] + beta[j] * p_[i * W + j];
      }
    }
  }

  /// Iterates until a lane leaves (the caller then narrows the group) or
  /// the budget or the deadline ends every lane.
  template <std::size_t W>
  void iterate() {
    const std::size_t n = a_.size();
    precondition<W>();
    for (; it_ < options_.max_iterations; ++it_) {
      if (deadline_fired(it_, options_)) {
        for (std::size_t j = 0; j < W; ++j) {
          reports_[lanes_[j].rhs].deadline_expired = true;
          stop(j);
        }
        return;
      }
      block_spmv<W>(a_, p_.data(), zap_.data());
      double pap[W];
      block_dot<W>(n, p_.data(), zap_.data(), pap);
      double alpha[W];
      for (std::size_t j = 0; j < W; ++j) {
        alpha[j] = 0.0;
        if (curvature_ok(pap[j], it_)) {
          alpha[j] = lanes_[j].rz / pap[j];
        } else {
          stop(j);
        }
      }
      // A lane stopped here keeps its x: its update goes to scratch_.
      double* x[W];
      for (std::size_t j = 0; j < W; ++j) {
        x[j] = lanes_[j].done ? scratch_.data() : x_[lanes_[j].rhs].data();
      }
      double rr[W] = {};
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < W; ++j) {
          x[j][i] += alpha[j] * p_[i * W + j];
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < W; ++j) {
          const double r = r_[i * W + j] + (-alpha[j]) * zap_[i * W + j];
          r_[i * W + j] = r;
          rr[j] += r * r;
        }
      }
      bool left = false;
      for (std::size_t j = 0; j < W; ++j) {
        Lane& lane = lanes_[j];
        if (!lane.done) {
          const double res = std::sqrt(rr[j]) / lane.b_norm;
          switch (judge(res, it_, options_, lane.progress,
                        reports_[lane.rhs])) {
            case Verdict::Continue:
              break;
            case Verdict::Converged:
              lane.done = true;
              break;
            case Verdict::Stop:
              stop(j);
              break;
          }
        }
        left = left || lane.done;
      }
      if (left) {
        ++it_;
        return;
      }
      precondition<W>();
    }
    for (std::size_t j = 0; j < W; ++j) stop(j);  // budget spent
  }

  /// Ends lane j without convergence inside the loop: what the
  /// single-vector loop does after it breaks or runs out of budget.
  void stop(std::size_t j) {
    Lane& lane = lanes_[j];
    end_unconverged(reference_backend(), prepared_, b_[lane.rhs],
                    x_[lane.rhs], lane.b_norm, options_, scratch_,
                    reports_[lane.rhs]);
    lane.done = true;
  }

  /// Drops finished lanes, repacking r_ and p_ at the narrower width
  /// (in place: no entry moves to a higher index).
  void compact() {
    const std::size_t w = lanes_.size();
    std::vector<std::size_t> keep;
    for (std::size_t j = 0; j < w; ++j) {
      if (!lanes_[j].done) keep.push_back(j);
    }
    if (keep.size() == w) return;
    const std::size_t n = a_.size();
    const std::size_t v = keep.size();
    for (Vector* block : {&r_, &p_}) {
      double* d = block->data();
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < v; ++k) d[i * v + k] = d[i * w + keep[k]];
      }
      block->resize(n * v);
    }
    zap_.resize(n * v);
    std::vector<Lane> lanes;
    for (const std::size_t j : keep) lanes.push_back(lanes_[j]);
    lanes_ = std::move(lanes);
  }

  const CsrMatrix& a_;
  const BackendMatrix& prepared_;
  const Preconditioner& precond_;
  const IterativeOptions& options_;
  std::span<const Vector> b_;
  std::span<Vector> x_;
  std::vector<SolveReport>& reports_;
  Vector scratch_;  // stop()'s residual; sized only when a lane stops
  std::vector<Lane> lanes_;
  Vector r_, p_, zap_;
  std::size_t it_ = 0;
  bool first_ = true;
};

}  // namespace

SolveReport conjugate_gradient(const CsrMatrix& a, const Vector& b, Vector& x,
                               const Preconditioner& precond,
                               const IterativeOptions& options) {
  return conjugate_gradient(a, b, x, precond, options, KrylovContext{});
}

SolveReport conjugate_gradient(const CsrMatrix& a, const Vector& b, Vector& x,
                               const Preconditioner& precond,
                               const IterativeOptions& options,
                               const KrylovContext& ctx) {
  VS_SPAN("la.cg.solve");
  t_calls.add();
  const std::size_t n = a.size();
  VS_REQUIRE(b.size() == n, "cg: rhs size mismatch");
  if (x.size() != n) x.assign(n, 0.0);

  const Backend& bk = ctx.backend != nullptr ? *ctx.backend
                                             : default_backend();
  std::unique_ptr<BackendMatrix> local_prepared;
  const BackendMatrix* pm = ctx.prepared;
  if (pm == nullptr) {
    local_prepared = bk.prepare(a);
    pm = local_prepared.get();
  }
  KrylovWorkspace local_ws;
  KrylovWorkspace& w = ctx.workspace != nullptr ? *ctx.workspace : local_ws;
  w.ensure(n);

  SolveReport report;
  const double b_norm = bk.norm2(b);
  if (zero_rhs(b_norm, x, report)) return report;

  bk.residual(*pm, b, x, w.r);
  const double initial_res = bk.norm2(w.r) / b_norm;
  if (starts_converged(initial_res, options, report)) return report;
  precond.apply(w.r, w.z);
  w.p = w.z;
  double rz = bk.dot(w.r, w.z);

  Progress progress{.best_res = initial_res};
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    if (deadline_fired(it, options)) {
      report.deadline_expired = true;
      break;
    }
    bk.spmv(*pm, w.p, w.ap);
    const double pap = bk.dot(w.p, w.ap);
    if (!curvature_ok(pap, it)) break;
    const double alpha = rz / pap;
    bk.axpy(alpha, w.p, x);
    const double res = bk.axpy_norm2(-alpha, w.ap, w.r) / b_norm;
    const Verdict verdict = judge(res, it, options, progress, report);
    if (verdict == Verdict::Converged) return report;
    if (verdict == Verdict::Stop) break;

    precond.apply(w.r, w.z);
    const double rz_new = bk.dot(w.r, w.z);
    const double beta = rz_new / rz;
    rz = rz_new;
    bk.xpby(w.z, beta, w.p);
  }

  end_unconverged(bk, *pm, b, x, b_norm, options, w.r, report);
  return report;
}

namespace detail {

std::vector<SolveReport> lockstep_cg(const CsrMatrix& a,
                                     const BackendMatrix& prepared,
                                     const Preconditioner& precond,
                                     std::span<const Vector> b,
                                     std::span<Vector> x,
                                     const IterativeOptions& options) {
  VS_SPAN("la.cg.lockstep");
  const Backend& bk = reference_backend();
  std::vector<SolveReport> reports(b.size());
  std::vector<Lane> lanes;
  for (std::size_t i = 0; i < b.size(); ++i) {
    t_calls.add();
    const double b_norm = bk.norm2(b[i]);
    if (zero_rhs(b_norm, x[i], reports[i])) continue;
    Lane lane;
    lane.rhs = i;
    lane.b_norm = b_norm;
    lanes.push_back(lane);
  }

  // Groups of near-equal width: 11 right-hand sides run as 6 + 5.
  LockstepGroup group(a, prepared, precond, options, b, x, reports);
  const std::size_t groups = (lanes.size() + kBlockWidth - 1) / kBlockWidth;
  for (std::size_t g = 0, begin = 0; g < groups; ++g) {
    const std::size_t end = begin + (lanes.size() - begin) / (groups - g);
    group.run(std::vector<Lane>(
        lanes.begin() + static_cast<std::ptrdiff_t>(begin),
        lanes.begin() + static_cast<std::ptrdiff_t>(end)));
    begin = end;
  }
  return reports;
}

}  // namespace detail

}  // namespace vstack::la
