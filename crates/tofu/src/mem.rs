//! Registered-memory ("STADD") management.
//!
//! uTofu one-sided communication requires send and receive buffers to be
//! registered before use; registration pins pages and transitions into the
//! kernel, which §3.4 identifies as a significant overhead worth paying
//! only once. The simulator reproduces both halves: registration returns a
//! handle *and* a modeled cost, and puts/gets may only touch registered
//! regions — exactly the constraint that forces the paper's pre-registered
//! max-size buffer design.

use crate::timing::NetParams;
use serde::{Deserialize, Serialize};

/// A registered-region handle (the uTofu "STADD", a network-visible
/// address). Valid only on the node that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Stadd(pub u32);

/// Per-node registry of RDMA-visible memory regions.
#[derive(Debug, Default)]
pub struct MemRegistry {
    regions: Vec<Vec<u8>>,
    /// Total modeled time spent registering (what §3.4 minimizes).
    pub total_reg_cost: f64,
    /// Number of registration calls performed.
    pub reg_calls: u64,
}

impl MemRegistry {
    /// Register a zero-initialized region of `len` bytes. Returns the handle
    /// and the modeled registration cost (also accumulated internally).
    pub fn register(&mut self, len: usize, params: &NetParams) -> (Stadd, f64) {
        let cost = params.registration_cost(len);
        self.total_reg_cost += cost;
        self.reg_calls += 1;
        self.regions.push(vec![0u8; len]);
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

    /// Make a region at least `len` bytes long, zero-filling the new
    /// tail, *outside the model*: no registration cost, no call count.
    /// For buffers whose size is the simulator's own bookkeeping rather
    /// than something the modeled software registers — the MPI layer's
    /// bounce buffers, whose cost is already in the per-message terms.
    pub fn reserve(&mut self, stadd: Stadd, len: usize) {
        let region = &mut self.regions[stadd.0 as usize];
        if len > region.len() {
            region.resize(len, 0);
        }
    }

    /// Region length.
    #[must_use]
    pub fn len(&self, stadd: Stadd) -> usize {
        self.regions[stadd.0 as usize].len()
    }

    /// Write bytes into a region. Panics on out-of-bounds — an RDMA put
    /// outside a registered region is a hard fault on real hardware too.
    pub fn write(&mut self, stadd: Stadd, offset: usize, data: &[u8]) {
        let region = &mut self.regions[stadd.0 as usize];
        assert!(
            offset + data.len() <= region.len(),
            "RDMA write beyond registered region: {} + {} > {}",
            offset,
            data.len(),
            region.len()
        );
        region[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Hand a region's bytes to `f` for in-place serialization — the
    /// zero-copy wire path packs frames directly here instead of staging
    /// them in a `Vec` first. Panics if `offset + len` overruns the
    /// region, like [`MemRegistry::write`].
    pub fn write_with<R>(
        &mut self,
        stadd: Stadd,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> R {
        let region = &mut self.regions[stadd.0 as usize];
        assert!(
            offset + len <= region.len(),
            "RDMA write beyond registered region: {} + {} > {}",
            offset,
            len,
            region.len()
        );
        f(&mut region[offset..offset + len])
    }

    /// Read a slice of a region.
    #[must_use]
    pub fn read(&self, stadd: Stadd, offset: usize, len: usize) -> &[u8] {
        let region = &self.regions[stadd.0 as usize];
        assert!(
            offset + len <= region.len(),
            "RDMA read beyond registered region"
        );
        &region[offset..offset + len]
    }

    /// Copy `len` bytes from one region of this node to another (or within
    /// one) — a same-node put sourced from a registered region: the NIC's
    /// DMA read and the remote write are one `memcpy`, no bounce buffer.
    /// Same bounds faults as [`MemRegistry::read`] / [`MemRegistry::write`].
    pub fn copy(
        &mut self,
        src: Stadd,
        src_offset: usize,
        dst: Stadd,
        dst_offset: usize,
        len: usize,
    ) {
        let (s, d) = (src.0 as usize, dst.0 as usize);
        if s == d {
            let region = &mut self.regions[s];
            assert!(
                src_offset.max(dst_offset) + len <= region.len(),
                "RDMA write beyond registered region (in-region copy)"
            );
            region.copy_within(src_offset..src_offset + len, dst_offset);
            return;
        }
        // Disjoint borrows of the two regions.
        let (lo, hi) = self.regions.split_at_mut(s.max(d));
        let (from, to) = if s < d {
            (&lo[s], &mut hi[0])
        } else {
            (&hi[0], &mut lo[d])
        };
        assert!(
            src_offset + len <= from.len(),
            "RDMA read beyond registered region"
        );
        assert!(
            dst_offset + len <= to.len(),
            "RDMA write beyond registered region: {} + {} > {}",
            dst_offset,
            len,
            to.len()
        );
        to[dst_offset..dst_offset + len].copy_from_slice(&from[src_offset..src_offset + len]);
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
    fn copy_moves_bytes_between_and_within_regions() {
        let mut m = MemRegistry::default();
        let p = NetParams::default();
        let (a, _) = m.register(16, &p);
        let (b, _) = m.register(16, &p);
        m.write(a, 2, &[1, 2, 3, 4]);
        m.copy(a, 2, b, 8, 4); // lower handle -> higher
        assert_eq!(m.read(b, 8, 4), &[1, 2, 3, 4]);
        m.copy(b, 9, a, 0, 2); // higher -> lower
        assert_eq!(m.read(a, 0, 2), &[2, 3]);
        m.copy(a, 2, a, 10, 4); // within one region
        assert_eq!(m.read(a, 10, 4), &[1, 2, 3, 4]);
        m.copy(a, 0, b, 0, 0); // empty copy is a no-op
    }

    #[test]
    #[should_panic(expected = "beyond registered region")]
    fn out_of_bounds_copy_faults() {
        let mut m = MemRegistry::default();
        let p = NetParams::default();
        let (a, _) = m.register(8, &p);
        let (b, _) = m.register(8, &p);
        m.copy(a, 0, b, 6, 4);
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
}
