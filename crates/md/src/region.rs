//! Orthogonal simulation boxes with periodic boundary conditions.

/// An axis-aligned orthogonal box, periodic in all three dimensions.
///
/// This is the global simulation domain of Fig. 1(a) in the paper; sub-boxes
/// produced by the domain decomposition reuse the same type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Box3 {
    /// Lower corner (inclusive).
    pub lo: [f64; 3],
    /// Upper corner (exclusive).
    pub hi: [f64; 3],
}

impl Box3 {
    /// Create a box from its corners. Panics if any dimension is non-positive.
    #[must_use]
    pub fn new(lo: [f64; 3], hi: [f64; 3]) -> Self {
        for d in 0..3 {
            assert!(
                hi[d] > lo[d],
                "box dimension {d} is non-positive: lo={:?} hi={:?}",
                lo,
                hi
            );
        }
        Self { lo, hi }
    }

    /// A box with lower corner at the origin.
    #[must_use]
    pub fn from_lengths(lengths: [f64; 3]) -> Self {
        Self::new([0.0; 3], lengths)
    }

    /// Edge lengths per dimension.
    #[must_use]
    pub fn lengths(&self) -> [f64; 3] {
        [
            self.hi[0] - self.lo[0],
            self.hi[1] - self.lo[1],
            self.hi[2] - self.lo[2],
        ]
    }

    /// Box volume.
    #[must_use]
    pub fn volume(&self) -> f64 {
        let l = self.lengths();
        l[0] * l[1] * l[2]
    }

    /// True if `x` lies inside the half-open interval [lo, hi) per dimension.
    #[must_use]
    pub fn contains(&self, x: &[f64; 3]) -> bool {
        (0..3).all(|d| x[d] >= self.lo[d] && x[d] < self.hi[d])
    }

    /// Wrap a point into the box under periodic boundary conditions,
    /// returning the wrapped point and the integer image shifts applied.
    #[must_use]
    pub fn wrap(&self, mut x: [f64; 3]) -> ([f64; 3], [i32; 3]) {
        let l = self.lengths();
        let mut image = [0i32; 3];
        for d in 0..3 {
            // A loop rather than floor() keeps the common case (at most one
            // box length out) branch-predictable and exact.
            while x[d] >= self.hi[d] {
                x[d] -= l[d];
                image[d] += 1;
            }
            while x[d] < self.lo[d] {
                x[d] += l[d];
                image[d] -= 1;
            }
        }
        (x, image)
    }

    /// Minimum-image displacement `a - b` under periodicity.
    #[must_use]
    pub fn minimum_image(&self, a: &[f64; 3], b: &[f64; 3]) -> [f64; 3] {
        let l = self.lengths();
        let mut dx = [0.0; 3];
        for d in 0..3 {
            let mut v = a[d] - b[d];
            if v > 0.5 * l[d] {
                v -= l[d];
            } else if v < -0.5 * l[d] {
                v += l[d];
            }
            dx[d] = v;
        }
        dx
    }

    /// Sub-box spanning the given fractional range of this box.
    ///
    /// `frac_lo`/`frac_hi` are per-dimension fractions in [0, 1].
    #[must_use]
    pub fn fractional_sub_box(&self, frac_lo: [f64; 3], frac_hi: [f64; 3]) -> Box3 {
        let l = self.lengths();
        let mut lo = [0.0; 3];
        let mut hi = [0.0; 3];
        for d in 0..3 {
            lo[d] = self.lo[d] + frac_lo[d] * l[d];
            hi[d] = self.lo[d] + frac_hi[d] * l[d];
        }
        Box3::new(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_and_volume() {
        let b = Box3::new([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]);
        assert_eq!(b.lengths(), [1.0, 2.0, 3.0]);
        assert_eq!(b.volume(), 6.0);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn degenerate_box_panics() {
        let _ = Box3::new([0.0; 3], [1.0, 0.0, 1.0]);
    }

    #[test]
    fn wrap_is_idempotent_inside() {
        let b = Box3::from_lengths([10.0, 10.0, 10.0]);
        let (w, img) = b.wrap([3.0, 4.0, 5.0]);
        assert_eq!(w, [3.0, 4.0, 5.0]);
        assert_eq!(img, [0, 0, 0]);
    }

    #[test]
    fn wrap_handles_multiple_images() {
        let b = Box3::from_lengths([10.0, 10.0, 10.0]);
        let (w, img) = b.wrap([23.0, -14.0, 9.999]);
        assert!((w[0] - 3.0).abs() < 1e-12);
        assert!((w[1] - 6.0).abs() < 1e-12);
        assert!((w[2] - 9.999).abs() < 1e-12);
        assert_eq!(img, [2, -2, 0]);
    }

    #[test]
    fn minimum_image_short_circuit() {
        let b = Box3::from_lengths([10.0, 10.0, 10.0]);
        let dx = b.minimum_image(&[9.5, 0.0, 0.0], &[0.5, 0.0, 0.0]);
        assert!((dx[0] - -1.0).abs() < 1e-12);
    }

    #[test]
    fn fractional_sub_box_partitions() {
        let b = Box3::from_lengths([9.0, 9.0, 9.0]);
        let s = b.fractional_sub_box([1.0 / 3.0; 3], [2.0 / 3.0; 3]);
        assert!((s.lo[0] - 3.0).abs() < 1e-12);
        assert!((s.hi[0] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn contains_half_open() {
        let b = Box3::from_lengths([1.0; 3]);
        assert!(b.contains(&[0.0, 0.0, 0.0]));
        assert!(!b.contains(&[1.0, 0.0, 0.0]));
    }
}
