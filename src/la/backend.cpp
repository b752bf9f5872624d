#include "la/backend.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>

#include "common/error.h"
#include "common/log.h"
#include "telemetry/telemetry.h"

namespace vstack::la {

namespace {

// Kernel-shape telemetry: row counts of matrices entering each backend's
// prepared form.  Cheap (once per Solver bind, not per SpMV).
const telemetry::Histogram t_prepared_rows(
    "la.backend.prepared_rows",
    {64.0, 512.0, 4096.0, 32768.0, 262144.0, 2097152.0});

// ---------------------------------------------------------------------------
// Reference backend: today's scalar kernels, untouched operation order.

class ReferencePrepared final : public BackendMatrix {
 public:
  explicit ReferencePrepared(const CsrMatrix& a) : a_(&a) {}
  const CsrMatrix& matrix() const { return *a_; }

 private:
  const CsrMatrix* a_;
};

class ReferenceBackend final : public Backend {
 public:
  const char* name() const override { return "reference"; }

  std::unique_ptr<BackendMatrix> prepare(const CsrMatrix& a) const override {
    t_prepared_rows.record(static_cast<double>(a.size()));
    return std::make_unique<ReferencePrepared>(a);
  }

  void spmv(const BackendMatrix& m, const Vector& x,
            Vector& y) const override {
    static_cast<const ReferencePrepared&>(m).matrix().multiply(x, y);
  }

  double dot(const Vector& a, const Vector& b) const override {
    return la::dot(a, b);
  }
  double norm2(const Vector& a) const override { return la::norm2(a); }
  void axpy(double alpha, const Vector& x, Vector& y) const override {
    la::axpy(alpha, x, y);
  }
  void xpby(const Vector& x, double beta, Vector& y) const override {
    la::xpby(x, beta, y);
  }
  // axpy_norm2 / residual: the base-class unfused sequences are exactly the
  // historic call pairs -- keep them.
};

// ---------------------------------------------------------------------------
// Optimized backend: 32-bit-index CSR, unrolled multi-accumulator
// reductions, fused update+reduce passes.  Elementwise kernels (axpy, xpby)
// keep the reference arithmetic -- vectorizing them cannot change results --
// so only reductions and the fused forms diverge from bitwise identity.

class OptimizedPrepared final : public BackendMatrix {
 public:
  explicit OptimizedPrepared(const CsrMatrix& a) : a_(&a) {
    const std::size_t n = a.size();
    const std::size_t nnz = a.nnz();
    narrow_ = nnz < std::numeric_limits<std::uint32_t>::max() &&
              n < std::numeric_limits<std::uint32_t>::max();
    if (!narrow_) return;  // million-billion-node guard: scalar fallback
    if (try_build_dia(a)) return;
    row_ptr_.resize(n + 1);
    col_.resize(nnz);
    for (std::size_t i = 0; i <= n; ++i) {
      row_ptr_[i] = static_cast<std::uint32_t>(a.row_ptr()[i]);
    }
    for (std::size_t k = 0; k < nnz; ++k) {
      col_[k] = static_cast<std::uint32_t>(a.col_idx()[k]);
    }
  }

  const CsrMatrix& matrix() const { return *a_; }
  bool narrow() const { return narrow_; }
  const std::uint32_t* row_ptr() const { return row_ptr_.data(); }
  const std::uint32_t* col() const { return col_.data(); }

  bool diagonal_form() const { return !offsets_.empty(); }
  const std::vector<std::ptrdiff_t>& offsets() const { return offsets_; }
  /// Band j (offset offsets()[j]) starts at dia()[j * size()]; entry i is
  /// A[i][i + offset] (zero-padded where absent or out of range).
  const double* dia() const { return dia_.data(); }

 private:
  /// DIA detection: grid-stamped PDN/thermal matrices concentrate their
  /// nonzeros on a handful of diagonals (5 for a 2D 5-point stencil).
  /// Storing those as dense bands turns SpMV's per-row gather loop into a
  /// few contiguous fused-multiply streams with no index loads at all --
  /// the autovectorizer's best case.  The zero padding is admitted only
  /// while total band storage stays within 2x the CSR value storage, so
  /// unstructured matrices keep the narrow-CSR form.
  bool try_build_dia(const CsrMatrix& a) {
    constexpr std::size_t kMaxDiagonals = 12;
    const std::size_t n = a.size();
    std::vector<std::ptrdiff_t> offsets;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
        const std::ptrdiff_t d = static_cast<std::ptrdiff_t>(a.col_idx()[k]) -
                                 static_cast<std::ptrdiff_t>(r);
        const auto it = std::lower_bound(offsets.begin(), offsets.end(), d);
        if (it != offsets.end() && *it == d) continue;
        if (offsets.size() >= kMaxDiagonals) return false;
        offsets.insert(it, d);
      }
    }
    if (offsets.empty() || offsets.size() * n > 2 * a.nnz()) return false;
    dia_.assign(offsets.size() * n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
        const std::ptrdiff_t d = static_cast<std::ptrdiff_t>(a.col_idx()[k]) -
                                 static_cast<std::ptrdiff_t>(r);
        const std::size_t j = static_cast<std::size_t>(
            std::lower_bound(offsets.begin(), offsets.end(), d) -
            offsets.begin());
        dia_[j * n + r] = a.values()[k];
      }
    }
    offsets_ = std::move(offsets);
    return true;
  }

  const CsrMatrix* a_;
  bool narrow_ = false;
  std::vector<std::uint32_t> row_ptr_;
  std::vector<std::uint32_t> col_;
  std::vector<std::ptrdiff_t> offsets_;
  std::vector<double> dia_;
};

/// Fused DIA interior: rows where every diagonal is in range.  K is the
/// compile-time diagonal count, so the inner sum unrolls completely and
/// the autovectorizer turns the row loop into shifted contiguous FMA
/// streams -- no index loads, no gathers, one pass over the output.
/// Sub selects out = bsrc - A x (the fused residual) vs out = A x.
template <std::size_t K, bool Sub>
void dia_fused(const double* const* bands, const std::size_t* shift,
               const double* xd, const double* bsrc, double* out,
               std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < K; ++j) s += bands[j][i] * xd[i + shift[j]];
    out[i] = Sub ? bsrc[i] - s : s;
  }
}

/// out = A x (Sub = false) or out = bsrc - A x (Sub = true) over the DIA
/// bands.  Boundary rows (where some diagonal runs off the matrix) take
/// clipped per-diagonal accumulation; the interior takes the fused
/// single-pass kernel above.
template <bool Sub>
void dia_compute(const OptimizedPrepared& p, const double* xd,
                 const double* bsrc, double* out, std::size_t n) {
  const auto& offsets = p.offsets();
  const std::size_t nd = offsets.size();
  const double* bands[12];
  std::size_t shift[12];   // two's-complement offset: i + shift[j] == i + d
  std::size_t lo_j[12], hi_j[12];
  std::size_t lo_all = 0, hi_all = n;
  for (std::size_t j = 0; j < nd; ++j) {
    const std::ptrdiff_t d = offsets[j];
    bands[j] = p.dia() + j * n;
    shift[j] = static_cast<std::size_t>(d);
    lo_j[j] = d < 0 ? static_cast<std::size_t>(-d) : 0;
    hi_j[j] = d > 0 ? n - static_cast<std::size_t>(d) : n;
    lo_all = std::max(lo_all, lo_j[j]);
    hi_all = std::min(hi_all, hi_j[j]);
  }
  if (hi_all < lo_all) hi_all = lo_all;  // huge offsets: no fused interior

  // Boundary head/tail: initialize, then accumulate each diagonal over its
  // clipped range (ascending-offset order == ascending-column order).
  for (std::size_t i = 0; i < lo_all; ++i) out[i] = Sub ? bsrc[i] : 0.0;
  for (std::size_t i = hi_all; i < n; ++i) out[i] = Sub ? bsrc[i] : 0.0;
  for (std::size_t j = 0; j < nd; ++j) {
    const double* band = bands[j];
    const std::size_t d = shift[j];
    const std::size_t head_hi = std::min(hi_j[j], lo_all);
    for (std::size_t i = lo_j[j]; i < head_hi; ++i) {
      out[i] += (Sub ? -band[i] : band[i]) * xd[i + d];
    }
    const std::size_t tail_lo = std::max(lo_j[j], hi_all);
    for (std::size_t i = tail_lo; i < hi_j[j]; ++i) {
      out[i] += (Sub ? -band[i] : band[i]) * xd[i + d];
    }
  }

  switch (nd) {
    case 1: dia_fused<1, Sub>(bands, shift, xd, bsrc, out, lo_all, hi_all); break;
    case 2: dia_fused<2, Sub>(bands, shift, xd, bsrc, out, lo_all, hi_all); break;
    case 3: dia_fused<3, Sub>(bands, shift, xd, bsrc, out, lo_all, hi_all); break;
    case 4: dia_fused<4, Sub>(bands, shift, xd, bsrc, out, lo_all, hi_all); break;
    case 5: dia_fused<5, Sub>(bands, shift, xd, bsrc, out, lo_all, hi_all); break;
    case 6: dia_fused<6, Sub>(bands, shift, xd, bsrc, out, lo_all, hi_all); break;
    case 7: dia_fused<7, Sub>(bands, shift, xd, bsrc, out, lo_all, hi_all); break;
    case 8: dia_fused<8, Sub>(bands, shift, xd, bsrc, out, lo_all, hi_all); break;
    case 9: dia_fused<9, Sub>(bands, shift, xd, bsrc, out, lo_all, hi_all); break;
    case 10: dia_fused<10, Sub>(bands, shift, xd, bsrc, out, lo_all, hi_all); break;
    case 11: dia_fused<11, Sub>(bands, shift, xd, bsrc, out, lo_all, hi_all); break;
    case 12: dia_fused<12, Sub>(bands, shift, xd, bsrc, out, lo_all, hi_all); break;
    default: break;  // try_build_dia caps nd at 12
  }
}

class OptimizedBackend final : public Backend {
 public:
  const char* name() const override { return "optimized"; }

  std::unique_ptr<BackendMatrix> prepare(const CsrMatrix& a) const override {
    t_prepared_rows.record(static_cast<double>(a.size()));
    return std::make_unique<OptimizedPrepared>(a);
  }

  void spmv(const BackendMatrix& m, const Vector& x,
            Vector& y) const override {
    const auto& p = static_cast<const OptimizedPrepared&>(m);
    const CsrMatrix& a = p.matrix();
    const std::size_t n = a.size();
    VS_REQUIRE(x.size() == n, "spmv: dimension mismatch");
    y.resize(n);  // no zero-fill: every row is fully overwritten below
    if (!p.narrow()) {
      a.multiply(x, y);
      return;
    }
    if (p.diagonal_form()) {
      dia_compute<false>(p, x.data(), nullptr, y.data(), n);
      return;
    }
    const std::uint32_t* rp = p.row_ptr();
    const std::uint32_t* col = p.col();
    const double* val = a.values().data();
    const double* xd = x.data();
    double* yd = y.data();
    for (std::size_t r = 0; r < n; ++r) {
      const std::uint32_t begin = rp[r];
      const std::uint32_t end = rp[r + 1];
      // 4-way unrolled gather with two accumulators; PDN rows are short
      // (5-9 nnz) so the scalar tail matters as much as the unrolled body.
      double s0 = 0.0, s1 = 0.0;
      std::uint32_t k = begin;
      for (; k + 4 <= end; k += 4) {
        s0 += val[k] * xd[col[k]] + val[k + 2] * xd[col[k + 2]];
        s1 += val[k + 1] * xd[col[k + 1]] + val[k + 3] * xd[col[k + 3]];
      }
      for (; k < end; ++k) s0 += val[k] * xd[col[k]];
      yd[r] = s0 + s1;
    }
  }

  double dot(const Vector& a, const Vector& b) const override {
    VS_REQUIRE(a.size() == b.size(), "dot: size mismatch");
    const double* ad = a.data();
    const double* bd = b.data();
    const std::size_t n = a.size();
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      s0 += ad[i] * bd[i];
      s1 += ad[i + 1] * bd[i + 1];
      s2 += ad[i + 2] * bd[i + 2];
      s3 += ad[i + 3] * bd[i + 3];
    }
    for (; i < n; ++i) s0 += ad[i] * bd[i];
    return (s0 + s1) + (s2 + s3);
  }

  double norm2(const Vector& a) const override {
    return std::sqrt(dot(a, a));
  }

  void axpy(double alpha, const Vector& x, Vector& y) const override {
    la::axpy(alpha, x, y);  // elementwise: vectorization-safe as-is
  }
  void xpby(const Vector& x, double beta, Vector& y) const override {
    la::xpby(x, beta, y);
  }

  double axpy_norm2(double alpha, const Vector& x, Vector& y) const override {
    VS_REQUIRE(x.size() == y.size(), "axpy_norm2: size mismatch");
    const double* xd = x.data();
    double* yd = y.data();
    const std::size_t n = x.size();
    double s0 = 0.0, s1 = 0.0;
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const double y0 = yd[i] + alpha * xd[i];
      const double y1 = yd[i + 1] + alpha * xd[i + 1];
      yd[i] = y0;
      yd[i + 1] = y1;
      s0 += y0 * y0;
      s1 += y1 * y1;
    }
    for (; i < n; ++i) {
      const double y0 = yd[i] + alpha * xd[i];
      yd[i] = y0;
      s0 += y0 * y0;
    }
    return std::sqrt(s0 + s1);
  }

  void residual(const BackendMatrix& m, const Vector& b, const Vector& x,
                Vector& r) const override {
    const auto& p = static_cast<const OptimizedPrepared&>(m);
    const CsrMatrix& a = p.matrix();
    const std::size_t n = a.size();
    VS_REQUIRE(b.size() == n && x.size() == n, "residual: size mismatch");
    if (!p.narrow()) {
      Backend::residual(m, b, x, r);
      return;
    }
    r.resize(n);
    if (p.diagonal_form()) {
      dia_compute<true>(p, x.data(), b.data(), r.data(), n);
      return;
    }
    const std::uint32_t* rp = p.row_ptr();
    const std::uint32_t* col = p.col();
    const double* val = a.values().data();
    const double* xd = x.data();
    for (std::size_t row = 0; row < n; ++row) {
      double s0 = 0.0, s1 = 0.0;
      std::uint32_t k = rp[row];
      const std::uint32_t end = rp[row + 1];
      for (; k + 4 <= end; k += 4) {
        s0 += val[k] * xd[col[k]] + val[k + 2] * xd[col[k + 2]];
        s1 += val[k + 1] * xd[col[k + 1]] + val[k + 3] * xd[col[k + 3]];
      }
      for (; k < end; ++k) s0 += val[k] * xd[col[k]];
      r[row] = b[row] - (s0 + s1);
    }
  }
};

std::atomic<const Backend*> g_default_override{nullptr};

const Backend* env_backend() {
  // Resolved once; the warning for an unknown value fires once too.
  static const Backend* resolved = [] {
    const char* env = std::getenv("VSTACK_LA_BACKEND");
    if (env == nullptr || *env == '\0') return &reference_backend();
    if (const Backend* b = backend_by_name(env)) return b;
    VS_LOG_WARN("unknown VSTACK_LA_BACKEND '" << env
                << "'; using the reference backend");
    return &reference_backend();
  }();
  return resolved;
}

}  // namespace

double Backend::axpy_norm2(double alpha, const Vector& x, Vector& y) const {
  axpy(alpha, x, y);
  return norm2(y);
}

void Backend::residual(const BackendMatrix& m, const Vector& b,
                       const Vector& x, Vector& r) const {
  // Unfused reference sequence: r = A x, then r = b - r elementwise.  The
  // subtraction order matches the historic subtract(b, a.multiply(x)).
  spmv(m, x, r);
  VS_REQUIRE(b.size() == r.size(), "residual: size mismatch");
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
}

const Backend& reference_backend() {
  static const ReferenceBackend instance;
  return instance;
}

const Backend& optimized_backend() {
  static const OptimizedBackend instance;
  return instance;
}

const Backend* backend_by_name(const std::string& name) {
  if (name == "reference") return &reference_backend();
  if (name == "optimized") return &optimized_backend();
  return nullptr;
}

std::vector<const Backend*> all_backends() {
  return {&reference_backend(), &optimized_backend()};
}

const Backend& default_backend() {
  if (const Backend* b = g_default_override.load(std::memory_order_acquire)) {
    return *b;
  }
  return *env_backend();
}

void set_default_backend(const std::string& name) {
  const Backend* b = backend_by_name(name);
  VS_REQUIRE(b != nullptr, "unknown linear-algebra backend '" + name +
                               "' (available: reference, optimized)");
  g_default_override.store(b, std::memory_order_release);
}

const Backend& resolve_backend(BackendChoice choice) {
  switch (choice) {
    case BackendChoice::Reference: return reference_backend();
    case BackendChoice::Optimized: return optimized_backend();
    case BackendChoice::Auto: break;
  }
  return default_backend();
}

}  // namespace vstack::la
