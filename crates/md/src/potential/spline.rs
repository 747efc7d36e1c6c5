//! Natural cubic spline tables in LAMMPS's coefficient-row layout.
//!
//! LAMMPS's `pair_style eam` reads tabulated rho(r), phi(r), F(rho) from a
//! potential file (the paper uses `Cu_u3.eam`) and evaluates them through
//! cubic spline interpolation. We reproduce that machinery: the tables here
//! are filled from analytic generating functions (see `eam.rs`) since the
//! proprietary-format file is not shipped, but evaluation goes through the
//! same tabulate-then-spline path.
//!
//! The spline is the natural cubic through the samples (tridiagonal solve
//! for the knot second derivatives), *stored* the way `pair_eam.cpp`'s
//! `array2spline` stores its tables: one row of seven polynomial
//! coefficients per interval, in the interval's own coordinate
//! `b ∈ [0, 1)`, the derivative's three already divided by `dx`. A lookup
//! is one [`Spline::locate`] — shared by value and derivative and by every
//! table on the same grid — then one Horner chain per quantity over one
//! cache line: no division. The serial oracle passes and the slab row
//! kernels of `eam.rs` call the same three `#[inline]` functions, which is
//! what keeps them bit-identical.

/// One interval's coefficients, a cache line: `[c0, c1, c2]` the
/// derivative's (pre-divided by `dx`), `[c3..=c6]` the value's, one pad.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Row([f64; 8]);

/// A natural cubic spline over uniformly spaced samples of f on
/// `[x0, x0 + (n-1)*dx]`.
#[derive(Debug, Clone)]
pub struct Spline {
    x0: f64,
    inv_dx: f64,
    /// Upper clamp of the grid coordinate: just inside the last interval.
    t_max: f64,
    /// One row per interval (`n - 1` of them).
    rows: Vec<Row>,
}

impl Spline {
    /// Tabulate `f` at `n >= 4` uniform points starting at `x0` with
    /// spacing `dx`, and precompute the coefficient rows.
    #[must_use]
    pub fn tabulate(x0: f64, dx: f64, n: usize, f: impl Fn(f64) -> f64) -> Self {
        assert!(n >= 4, "need at least 4 knots");
        assert!(dx > 0.0);
        let y: Vec<f64> = (0..n).map(|i| f(x0 + i as f64 * dx)).collect();
        let y2 = Self::second_derivatives(&y, dx);
        // On interval i with a = 1 - b the natural spline is
        //   a y[i] + b y[i+1] + ((a³ - a) y2[i] + (b³ - b) y2[i+1]) dx²/6;
        // expanded in powers of b, with p = y2[i] dx²/6, q = y2[i+1] dx²/6:
        let s = dx * dx / 6.0;
        let rows = (0..n - 1)
            .map(|i| {
                let (p, q) = (y2[i] * s, y2[i + 1] * s);
                let c3 = q - p;
                let c4 = 3.0 * p;
                let c5 = (y[i + 1] - y[i]) - 2.0 * p - q;
                Row([3.0 * c3 / dx, 2.0 * c4 / dx, c5 / dx, c3, c4, c5, y[i], 0.0])
            })
            .collect();
        Spline {
            x0,
            inv_dx: 1.0 / dx,
            t_max: (n - 1) as f64 - 1e-12,
            rows,
        }
    }

    /// Tridiagonal solve for natural-spline second derivatives.
    fn second_derivatives(y: &[f64], dx: f64) -> Vec<f64> {
        let n = y.len();
        let mut y2 = vec![0.0; n];
        let mut u = vec![0.0; n];
        // Natural boundary: y2[0] = y2[n-1] = 0.
        for i in 1..n - 1 {
            let sig = 0.5;
            let p = sig * y2[i - 1] + 2.0;
            y2[i] = (sig - 1.0) / p;
            let d2 = (y[i + 1] - 2.0 * y[i] + y[i - 1]) / dx;
            u[i] = (6.0 * d2 / (2.0 * dx) - sig * u[i - 1]) / p;
        }
        for i in (1..n - 1).rev() {
            y2[i] = y2[i] * y2[i + 1] + u[i];
        }
        y2
    }

    /// Interval row containing `x` and the position `b ∈ [0, 1)` inside
    /// it, `x` clamped to the table domain (matching LAMMPS behaviour for
    /// out-of-range densities). `clamp`, not `max().min()`: a NaN `x` must
    /// come out as a NaN `b` (row 0), so a poisoned distance or density
    /// poisons the result instead of reading as a table end.
    #[inline]
    #[must_use]
    pub fn locate(&self, x: f64) -> (usize, f64) {
        let t = ((x - self.x0) * self.inv_dx).clamp(0.0, self.t_max);
        let row = (t as usize).min(self.rows.len() - 1);
        (row, t - row as f64)
    }

    /// Interpolated value at a [`Spline::locate`]d position.
    #[inline]
    #[must_use]
    pub fn value_at(&self, row: usize, b: f64) -> f64 {
        let c = &self.rows[row].0;
        ((c[3] * b + c[4]) * b + c[5]) * b + c[6]
    }

    /// Interpolated derivative df/dx at a [`Spline::locate`]d position.
    #[inline]
    #[must_use]
    pub fn deriv_at(&self, row: usize, b: f64) -> f64 {
        let c = &self.rows[row].0;
        (c[0] * b + c[1]) * b + c[2]
    }

    /// Interpolated value at `x` (clamped to the table domain).
    #[inline]
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        let (row, b) = self.locate(x);
        self.value_at(row, b)
    }

    /// Interpolated derivative df/dx at `x`.
    #[must_use]
    pub fn eval_deriv(&self, x: f64) -> f64 {
        let (row, b) = self.locate(x);
        self.deriv_at(row, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::potential::eam::EamParams;

    /// The natural spline in its closed form over the knot values and
    /// second derivatives (`a·y[i] + b·y[i+1] + …`, with the divisions the
    /// coefficient rows pre-apply): the reference the rows are held to.
    struct ClosedForm {
        x0: f64,
        dx: f64,
        y: Vec<f64>,
        y2: Vec<f64>,
    }

    impl ClosedForm {
        fn tabulate(x0: f64, dx: f64, n: usize, f: impl Fn(f64) -> f64) -> Self {
            let y: Vec<f64> = (0..n).map(|i| f(x0 + i as f64 * dx)).collect();
            let y2 = Spline::second_derivatives(&y, dx);
            ClosedForm { x0, dx, y, y2 }
        }

        fn locate(&self, x: f64) -> (usize, f64, f64) {
            let n = self.y.len();
            let t = ((x - self.x0) * (1.0 / self.dx)).clamp(0.0, (n - 1) as f64 - 1e-12);
            let i = (t.floor() as usize).min(n - 2);
            let b = t - i as f64;
            (i, 1.0 - b, b)
        }

        fn eval(&self, x: f64) -> f64 {
            let (i, a, b) = self.locate(x);
            let h = self.dx;
            a * self.y[i]
                + b * self.y[i + 1]
                + ((a * a * a - a) * self.y2[i] + (b * b * b - b) * self.y2[i + 1]) * (h * h) / 6.0
        }

        fn eval_deriv(&self, x: f64) -> f64 {
            let (i, a, b) = self.locate(x);
            let h = self.dx;
            (self.y[i + 1] - self.y[i]) / h
                + ((3.0 * b * b - 1.0) * self.y2[i + 1] - (3.0 * a * a - 1.0) * self.y2[i]) * h
                    / 6.0
        }
    }

    /// `(x0, dx, n, f)` of one tabulation.
    type Table = (f64, f64, usize, Box<dyn Fn(f64) -> f64>);

    /// The tables the reference tests run over: two textbook functions
    /// and the three `EamParams::cu()` forms on the grids
    /// `EamCu::from_params` tabulates them on.
    fn tables() -> Vec<Table> {
        let p = EamParams::cu();
        let dr = (p.cutoff - 0.5) / 1999.0;
        vec![
            (1.0, 0.05, 101, Box::new(|x: f64| (-x).exp())),
            (0.5, 0.01, 451, Box::new(|x: f64| (x * 1.3).sin() / x)),
            (0.5, dr, 2000, Box::new(move |r| p.rho(r))),
            (0.5, dr, 2000, Box::new(move |r| p.phi(r))),
            (
                0.0,
                4.0 * p.rho_e / 1999.0,
                2000,
                Box::new(move |rho| p.embed(rho)),
            ),
        ]
    }

    /// `(value, derivative)` tolerances of a table: 1e-13 · max|y| and
    /// 1e-12 · max|y| / dx.
    fn tolerances(r: &ClosedForm) -> (f64, f64) {
        let ymax = r.y.iter().fold(0.0f64, |m, y| m.max(y.abs()));
        (1e-13 * ymax, 1e-12 * ymax / r.dx)
    }

    #[test]
    fn rows_match_the_closed_form_spline() {
        for (t, (x0, dx, n, f)) in tables().into_iter().enumerate() {
            let s = Spline::tabulate(x0, dx, n, &f);
            let r = ClosedForm::tabulate(x0, dx, n, &f);
            let (vtol, dtol) = tolerances(&r);
            let mut lcg = 0x2545_f491_4f6c_dd1du64;
            let interior = (0..4000).map(|_| {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x0 + (lcg >> 11) as f64 / (1u64 << 53) as f64 * (n - 1) as f64 * dx
            });
            let knots = (0..n).map(|i| x0 + i as f64 * dx);
            let x_max = x0 + (n - 1) as f64 * dx;
            let ends = [x0 - 3.0 * dx, x_max + 3.0 * dx, -f64::MAX, f64::MAX];
            for x in knots.chain(interior).chain(ends) {
                let (v, d) = (s.eval(x), s.eval_deriv(x));
                assert!(
                    (v - r.eval(x)).abs() <= vtol,
                    "table {t} value at {x}: {v} vs {}",
                    r.eval(x)
                );
                assert!(
                    (d - r.eval_deriv(x)).abs() <= dtol,
                    "table {t} derivative at {x}: {d} vs {}",
                    r.eval_deriv(x)
                );
            }
        }
    }

    #[test]
    fn value_and_derivative_are_continuous_across_every_knot() {
        for (t, (x0, dx, n, f)) in tables().into_iter().enumerate() {
            let s = Spline::tabulate(x0, dx, n, &f);
            let (vtol, dtol) = tolerances(&ClosedForm::tabulate(x0, dx, n, &f));
            for i in 1..n - 1 {
                let dv = s.value_at(i - 1, 1.0) - s.value_at(i, 0.0);
                let dd = s.deriv_at(i - 1, 1.0) - s.deriv_at(i, 0.0);
                assert!(dv.abs() <= vtol, "table {t} value jumps {dv} at knot {i}");
                assert!(dd.abs() <= dtol, "table {t} slope jumps {dd} at knot {i}");
            }
        }
    }

    /// `locate` never leaves the table, and NaN in is NaN out — the
    /// lockstep bisector's NaN-divergence check reads a poisoned distance
    /// through these tables (`max().min()` in place of `clamp` would turn
    /// it into a table end).
    #[test]
    fn locate_stays_in_the_table_and_nan_propagates() {
        let n = 9;
        let s = Spline::tabulate(2.0, 0.25, n, |x| x * x);
        let xs = [
            f64::NEG_INFINITY,
            f64::INFINITY,
            -7.0,
            1.999,
            2.0,
            4.0,
            99.0,
            f64::NAN,
        ];
        for x in xs {
            let (row, b) = s.locate(x);
            assert!(row <= n - 2, "row {row} for {x}");
            assert!(x.is_nan() || (0.0..1.0).contains(&b), "b {b} for {x}");
        }
        assert!(s.eval(f64::NAN).is_nan());
        assert!(s.eval_deriv(f64::NAN).is_nan());
    }

    #[test]
    fn reproduces_linear_exactly() {
        let s = Spline::tabulate(0.0, 0.5, 11, |x| 3.0 * x - 1.0);
        for &x in &[0.0, 0.3, 1.7, 4.9] {
            assert!((s.eval(x) - (3.0 * x - 1.0)).abs() < 1e-10);
            assert!((s.eval_deriv(x) - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn approximates_smooth_function() {
        let s = Spline::tabulate(0.5, 0.01, 451, |x| (x * 1.3).sin() / x);
        for i in 0..100 {
            let x = 0.6 + i as f64 * 0.04;
            let exact = (x * 1.3).sin() / x;
            assert!(
                (s.eval(x) - exact).abs() < 1e-6,
                "value error at {x}: {} vs {exact}",
                s.eval(x)
            );
            let h = 1e-5;
            let dnum = ((x + h) * 1.3).sin() / (x + h) - ((x - h) * 1.3).sin() / (x - h);
            let dnum = dnum / (2.0 * h);
            assert!(
                (s.eval_deriv(x) - dnum).abs() < 1e-4,
                "deriv error at {x}: {} vs {dnum}",
                s.eval_deriv(x)
            );
        }
    }

    #[test]
    fn clamps_out_of_range() {
        let s = Spline::tabulate(0.0, 1.0, 5, |x| x * x);
        assert!((s.eval(-2.0) - s.eval(0.0)).abs() < 1e-12);
        assert!((s.eval(99.0) - s.eval(4.0)).abs() < 1e-9);
    }

    #[test]
    fn derivative_consistent_with_value() {
        let s = Spline::tabulate(1.0, 0.05, 101, |x| (-x).exp());
        for i in 1..80 {
            let x = 1.1 + i as f64 * 0.04;
            let h = 1e-6;
            let num = (s.eval(x + h) - s.eval(x - h)) / (2.0 * h);
            assert!(
                (s.eval_deriv(x) - num).abs() < 1e-6,
                "spline self-consistency at {x}"
            );
        }
    }
}
