//! Registered-memory ("STADD") management.
//!
//! uTofu one-sided communication requires send and receive buffers to be
//! registered before use; registration pins pages and transitions into the
//! kernel, which §3.4 identifies as a significant overhead worth paying
//! only once. The simulator reproduces both halves: registration returns a
//! handle *and* a modeled cost, and puts/gets may only touch registered
//! regions — exactly the constraint that forces the paper's pre-registered
//! max-size buffer design.
//!
//! A region has a **modeled length** — what was registered: every cost,
//! [`MemRegistry::len`] and every bounds fault is computed against it — and
//! a **host backing** that holds only the prefix some access has touched:
//! §3.4's theoretical maximum is a size to *charge*, not to zero-fill.
//! Bytes past the backing were never written and read as zeros.

use crate::timing::NetParams;

/// A registered-region handle (the uTofu "STADD", a network-visible
/// address). Valid only on the node that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stadd(pub u32);

/// One region: the registered (modeled) length and the touched prefix.
#[derive(Debug, Default)]
struct Region {
    len: usize,
    /// `backing.len() <= len`; everything past it is implicitly zero.
    backing: Vec<u8>,
}

impl Region {
    /// The bytes `..end` (bounds-checked by the caller), zero-extending the
    /// backing to exactly `end`: high-water marks settle, so no doubling.
    fn touch(&mut self, end: usize) -> &mut [u8] {
        if end > self.backing.len() {
            self.backing.reserve_exact(end - self.backing.len());
            self.backing.resize(end, 0);
        }
        &mut self.backing[..end]
    }
}

/// Per-node registry of RDMA-visible memory regions.
#[derive(Debug, Default)]
pub struct MemRegistry {
    regions: Vec<Region>,
    /// Total modeled time spent registering (what §3.4 minimizes).
    pub total_reg_cost: f64,
    /// Number of registration calls performed.
    pub reg_calls: u64,
}

impl MemRegistry {
    /// Register a zero-initialized region of `len` bytes. Returns the handle
    /// and the modeled registration cost (also accumulated internally).
    /// Nothing is allocated for the bytes until they are touched.
    pub fn register(&mut self, len: usize, params: &NetParams) -> (Stadd, f64) {
        let cost = params.registration_cost(len);
        self.total_reg_cost += cost;
        self.reg_calls += 1;
        let backing = Vec::new();
        self.regions.push(Region { len, backing });
        (Stadd(self.regions.len() as u32 - 1), cost)
    }

    /// Grow an existing region (LAMMPS's dynamic buffer expansion — the
    /// behaviour the pre-registration optimization avoids). Re-registration
    /// cost is charged for the whole new size.
    pub fn grow(&mut self, stadd: Stadd, new_len: usize, params: &NetParams) -> f64 {
        if new_len <= self.len(stadd) {
            return 0.0;
        }
        self.reserve(stadd, new_len);
        let cost = params.registration_cost(new_len);
        self.total_reg_cost += cost;
        self.reg_calls += 1;
        cost
    }

    /// Make a region at least `len` bytes long, *outside the model*: no
    /// registration cost, no call count. For buffers whose size is the
    /// simulator's own bookkeeping rather than something the modeled
    /// software registers — the MPI layer's bounce buffers, whose cost is
    /// already in the per-message terms. Raises the modeled length only;
    /// the new tail reads as zeros and is backed when it is written.
    pub fn reserve(&mut self, stadd: Stadd, len: usize) {
        let region = &mut self.regions[stadd.0 as usize];
        region.len = region.len.max(len);
    }

    /// Region length (modeled: what was registered, not what is backed).
    #[must_use]
    pub fn len(&self, stadd: Stadd) -> usize {
        self.regions[stadd.0 as usize].len
    }

    /// Host bytes backing a region: the prefix some access has touched.
    #[must_use]
    pub fn backed(&self, stadd: Stadd) -> usize {
        self.regions[stadd.0 as usize].backing.len()
    }

    /// `(modeled, backed)` bytes summed over this node's regions: what the
    /// modeled software registered, and what the host holds for it.
    #[must_use]
    pub fn registered_bytes(&self) -> (usize, usize) {
        self.regions
            .iter()
            .fold((0, 0), |(m, b), r| (m + r.len, b + r.backing.len()))
    }

    /// Write bytes into a region. Panics on out-of-bounds — an RDMA put
    /// outside a registered region is a hard fault on real hardware too.
    pub fn write(&mut self, stadd: Stadd, offset: usize, data: &[u8]) {
        self.write_with(stadd, offset, data.len(), |buf| buf.copy_from_slice(data));
    }

    /// Hand a region's bytes to `f` for in-place serialization — the
    /// landing range of a written put, which its payload is serialized
    /// straight into. Panics if `offset + len` overruns the region, like
    /// [`MemRegistry::write`].
    pub fn write_with<R>(
        &mut self,
        stadd: Stadd,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> R {
        let region = &mut self.regions[stadd.0 as usize];
        assert!(
            offset + len <= region.len,
            "RDMA write beyond registered region: {} + {} > {}",
            offset,
            len,
            region.len
        );
        f(&mut region.touch(offset + len)[offset..])
    }

    /// Read a slice of a region. Mutable because a range no access has
    /// touched yet is backed (with the zeros it holds) to be borrowed.
    #[must_use]
    pub fn read(&mut self, stadd: Stadd, offset: usize, len: usize) -> &[u8] {
        let region = &mut self.regions[stadd.0 as usize];
        assert!(
            offset + len <= region.len,
            "RDMA read beyond registered region"
        );
        &region.touch(offset + len)[offset..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_rw_roundtrip() {
        let mut m = MemRegistry::default();
        let p = NetParams::default();
        let (s, cost) = m.register(64, &p);
        assert!(cost > 0.0);
        m.write(s, 8, &[1, 2, 3]);
        assert_eq!(m.read(s, 8, 3), &[1, 2, 3]);
        assert_eq!(m.read(s, 0, 1), &[0]);
    }

    #[test]
    fn multiple_regions_are_independent() {
        let mut m = MemRegistry::default();
        let p = NetParams::default();
        let (a, _) = m.register(16, &p);
        let (b, _) = m.register(16, &p);
        m.write(a, 0, &[7; 4]);
        assert_eq!(m.read(b, 0, 4), &[0; 4]);
        assert_eq!(m.reg_calls, 2);
    }

    #[test]
    fn write_with_serializes_in_place() {
        let mut m = MemRegistry::default();
        let p = NetParams::default();
        let (s, _) = m.register(32, &p);
        let n = m.write_with(s, 4, 8, |buf| {
            buf.copy_from_slice(&[9u8; 8]);
            buf.len()
        });
        assert_eq!(n, 8);
        assert_eq!(m.read(s, 4, 8), &[9; 8]);
        assert_eq!(m.read(s, 0, 4), &[0; 4]);
    }

    #[test]
    #[should_panic(expected = "beyond registered region")]
    fn out_of_bounds_write_faults() {
        let mut m = MemRegistry::default();
        let p = NetParams::default();
        let (s, _) = m.register(8, &p);
        m.write(s, 6, &[0; 4]);
    }

    #[test]
    fn grow_charges_re_registration() {
        let mut m = MemRegistry::default();
        let p = NetParams::default();
        let (s, c0) = m.register(4096, &p);
        let before = m.total_reg_cost;
        let c1 = m.grow(s, 8192, &p);
        assert!(c1 > c0, "re-registration of a larger buffer costs more");
        assert_eq!(m.total_reg_cost, before + c1);
        assert_eq!(m.len(s), 8192);
        // Growing to a smaller/equal size is free.
        assert_eq!(m.grow(s, 100, &p), 0.0);
    }

    #[test]
    fn fresh_region_reads_zeros_and_backs_nothing_until_touched() {
        let mut m = MemRegistry::default();
        let p = NetParams::default();
        let (s, _) = m.register(1 << 20, &p);
        assert_eq!(m.len(s), 1 << 20);
        assert_eq!(m.registered_bytes(), (1 << 20, 0));
        assert_eq!(m.read(s, 100, 28), &[0; 28]);
        assert_eq!(m.backed(s), 128, "a read backs exactly its end");
        assert_eq!(m.read(s, (1 << 20) - 4, 4), &[0; 4]);
        m.write(s, 4096, &[5; 8]);
        assert_eq!(m.read(s, 4090, 8), &[0, 0, 0, 0, 0, 0, 5, 5]);
        assert_eq!(m.len(s), 1 << 20, "touching never moves the length");
    }

    #[test]
    #[should_panic(expected = "RDMA write beyond registered region: 60 + 8 > 64")]
    fn write_past_the_modeled_length_faults_whatever_is_backed() {
        let mut m = MemRegistry::default();
        let (s, _) = m.register(64, &NetParams::default());
        m.write(s, 0, &[1; 4]);
        assert_eq!(m.backed(s), 4);
        m.write(s, 60, &[0; 8]);
    }

    #[test]
    #[should_panic(expected = "RDMA read beyond registered region")]
    fn read_past_the_modeled_length_faults() {
        let mut m = MemRegistry::default();
        let (s, _) = m.register(64, &NetParams::default());
        let _ = m.read(s, 60, 8);
    }

    #[test]
    fn grow_keeps_contents_and_charges_the_new_size() {
        let mut m = MemRegistry::default();
        let p = NetParams::default();
        let (s, _) = m.register(16, &p);
        m.write(s, 12, &[1, 2, 3, 4]);
        let cost = m.grow(s, 4096, &p);
        assert_eq!(cost.to_bits(), p.registration_cost(4096).to_bits());
        assert_eq!(m.reg_calls, 2);
        assert_eq!((m.len(s), m.backed(s)), (4096, 16));
        assert_eq!(m.read(s, 12, 8), &[1, 2, 3, 4, 0, 0, 0, 0]);
    }

    #[test]
    fn reserve_raises_the_length_without_backing() {
        let mut m = MemRegistry::default();
        let (s, _) = m.register(0, &NetParams::default());
        let cost = m.total_reg_cost;
        m.reserve(s, 8 << 20);
        assert_eq!((m.len(s), m.backed(s)), (8 << 20, 0));
        m.reserve(s, 16); // never shrinks
        assert_eq!(m.len(s), 8 << 20);
        assert_eq!((m.reg_calls, m.total_reg_cost), (1, cost), "unmodeled");
        m.write(s, 1000, &[1; 24]);
        assert_eq!(m.registered_bytes(), (8 << 20, 1024));
    }

    /// The registry this one replaced: every region materialised at its
    /// registered length, same accounting.
    #[derive(Default)]
    struct Eager {
        regions: Vec<Vec<u8>>,
        /// Largest `offset + len` any access reached, per region.
        touched: Vec<usize>,
        total_reg_cost: f64,
        reg_calls: u64,
    }

    impl Eager {
        fn charge(&mut self, len: usize, p: &NetParams) {
            self.total_reg_cost += p.registration_cost(len);
            self.reg_calls += 1;
        }

        fn touch(&mut self, r: usize, end: usize) {
            self.touched[r] = self.touched[r].max(end);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Any in-bounds sequence of registry calls reads, measures and
        /// charges exactly as the eager registry did, and backs no byte
        /// past the largest end an access touched.
        #[test]
        fn lazy_registry_matches_the_eager_one(
            ops in proptest::collection::vec(
                (0u8..7, 0usize..1 << 16, 0usize..1 << 16, 0usize..1 << 16),
                1..160,
            ),
        ) {
            let p = NetParams::default();
            let mut m = MemRegistry::default();
            let mut e = Eager::default();
            for (i, &(kind, a, b, c)) in ops.iter().enumerate() {
                let n = e.regions.len();
                if kind == 0 || n == 0 {
                    let len = a % 2048;
                    let (s, _) = m.register(len, &p);
                    proptest::prop_assert_eq!(s.0 as usize, n);
                    e.regions.push(vec![0; len]);
                    e.touched.push(0);
                    e.charge(len, &p);
                    continue;
                }
                // An in-bounds `(offset, len)` of region `r`.
                let span = |r: usize, x: usize, y: usize| {
                    let rl = e.regions[r].len();
                    let off = x % (rl + 1);
                    (off, y % (rl - off + 1))
                };
                let (r, s) = (a % n, Stadd((a % n) as u32));
                match kind {
                    1 | 2 => {
                        let (off, len) = span(r, b, c);
                        let data: Vec<u8> = (0..len).map(|k| (i + k) as u8 | 1).collect();
                        if kind == 1 {
                            m.write(s, off, &data);
                        } else {
                            m.write_with(s, off, len, |buf| buf.copy_from_slice(&data));
                        }
                        e.regions[r][off..off + len].copy_from_slice(&data);
                        e.touch(r, off + len);
                    }
                    3 | 4 => {
                        let (off, len) = span(r, b, c);
                        proptest::prop_assert_eq!(m.read(s, off, len), &e.regions[r][off..off + len]);
                        e.touch(r, off + len);
                    }
                    5 => {
                        let new_len = b % 4096;
                        let cost = m.grow(s, new_len, &p);
                        if new_len > e.regions[r].len() {
                            e.regions[r].resize(new_len, 0);
                            e.charge(new_len, &p);
                            proptest::prop_assert_eq!(cost, p.registration_cost(new_len));
                        } else {
                            proptest::prop_assert_eq!(cost, 0.0);
                        }
                    }
                    _ => {
                        let len = b % 4096;
                        m.reserve(s, len);
                        if len > e.regions[r].len() {
                            e.regions[r].resize(len, 0);
                        }
                    }
                }
                proptest::prop_assert_eq!(m.len(s), e.regions[r].len());
            }
            proptest::prop_assert_eq!(m.reg_calls, e.reg_calls);
            proptest::prop_assert_eq!(m.total_reg_cost.to_bits(), e.total_reg_cost.to_bits());
            for (r, region) in e.regions.iter().enumerate() {
                let s = Stadd(r as u32);
                proptest::prop_assert_eq!(m.len(s), region.len());
                proptest::prop_assert!(m.backed(s) <= e.touched[r]);
                // Last: a whole-region read backs everything.
                proptest::prop_assert_eq!(m.read(s, 0, region.len()), region.as_slice());
            }
            let modeled: usize = e.regions.iter().map(Vec::len).sum();
            proptest::prop_assert_eq!(m.registered_bytes(), (modeled, modeled));
        }
    }
}
