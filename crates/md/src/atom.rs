//! Structure-of-arrays atom storage.
//!
//! Mirrors LAMMPS's layout: positions/velocities/forces of *local* atoms
//! first, followed by *ghost* atoms received from neighboring ranks
//! (or periodic images in serial runs). The pre-registered-address
//! optimization of §3.4 depends on this contiguity: forward-stage RDMA puts
//! write directly into the ghost tail of the remote position array.

use crate::wirefmt;
use serde::{Deserialize, Serialize};

/// SoA storage for one rank's (or the serial engine's) atoms.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Atoms {
    /// Positions, `nlocal` local atoms followed by ghosts.
    pub x: Vec<[f64; 3]>,
    /// Velocities (local atoms only are meaningful; ghost tail is unused).
    pub v: Vec<[f64; 3]>,
    /// Forces, local followed by ghosts (ghost forces are folded back to
    /// their owners by the reverse stage when Newton's 3rd law is on).
    pub f: Vec<[f64; 3]>,
    /// Atom type (1-based as in LAMMPS; single-type systems use 1).
    pub typ: Vec<u32>,
    /// Globally unique atom ids, stable across migration.
    pub tag: Vec<u64>,
    /// Number of local (owned) atoms; `x.len() - nlocal` are ghosts.
    pub nlocal: usize,
}

impl Atoms {
    /// Create storage holding `nlocal` owned atoms with zero velocity/force.
    #[must_use]
    pub fn from_positions(x: Vec<[f64; 3]>, first_tag: u64) -> Self {
        let n = x.len();
        Atoms {
            x,
            v: vec![[0.0; 3]; n],
            f: vec![[0.0; 3]; n],
            typ: vec![1; n],
            tag: (first_tag..first_tag + n as u64).collect(),
            nlocal: n,
        }
    }

    /// Number of ghost atoms currently appended.
    #[must_use]
    pub fn nghost(&self) -> usize {
        self.x.len() - self.nlocal
    }

    /// Total stored atoms (local + ghost).
    #[must_use]
    pub fn ntotal(&self) -> usize {
        self.x.len()
    }

    /// Drop all ghost atoms, keeping only the owned ones.
    pub fn clear_ghosts(&mut self) {
        self.x.truncate(self.nlocal);
        self.v.truncate(self.nlocal);
        self.f.truncate(self.nlocal);
        self.typ.truncate(self.nlocal);
        self.tag.truncate(self.nlocal);
    }

    /// Make room for `n` more atoms. A set that fits the room the largest
    /// one left allocates nothing; growing adds `n` or a quarter of what is
    /// held, whichever is more, so a set appended in pieces reallocates a
    /// few times and capacity stays within a quarter of the largest set
    /// ever held rather than doubling past it.
    pub fn reserve(&mut self, n: usize) {
        fn grow<T>(v: &mut Vec<T>, n: usize) {
            if v.capacity() - v.len() < n {
                v.reserve_exact(n.max(v.len() / 4));
            }
        }
        grow(&mut self.x, n);
        grow(&mut self.v, n);
        grow(&mut self.f, n);
        grow(&mut self.typ, n);
        grow(&mut self.tag, n);
    }

    /// Append one ghost atom; returns its index.
    pub fn push_ghost(&mut self, x: [f64; 3], typ: u32, tag: u64) -> usize {
        self.x.push(x);
        self.v.push([0.0; 3]);
        self.f.push([0.0; 3]);
        self.typ.push(typ);
        self.tag.push(tag);
        self.x.len() - 1
    }

    /// Append one owned atom (used by the exchange stage when an atom
    /// migrates in from a neighboring rank). Must be called only when no
    /// ghosts are present.
    pub fn push_local(&mut self, x: [f64; 3], v: [f64; 3], typ: u32, tag: u64) {
        assert_eq!(
            self.nghost(),
            0,
            "cannot insert local atoms while ghosts are present"
        );
        self.x.push(x);
        self.v.push(v);
        self.f.push([0.0; 3]);
        self.typ.push(typ);
        self.tag.push(tag);
        self.nlocal += 1;
    }

    /// Swap local atom `i` with the last local and shrink `nlocal` (O(1),
    /// order-destroying — fine because neighbor lists are rebuilt after
    /// every exchange). It stays, at the returned index, in the ghost
    /// region until [`Atoms::clear_ghosts`]: where Exchange parks emigrants.
    pub fn swap_out_local(&mut self, i: usize) -> usize {
        assert!(i < self.nlocal);
        let last = self.nlocal - 1;
        self.x.swap(i, last);
        self.v.swap(i, last);
        self.f.swap(i, last);
        self.typ.swap(i, last);
        self.tag.swap(i, last);
        self.nlocal = last;
        last
    }

    /// Permute the local atoms so that new slot `k` holds the atom
    /// previously at `perm[k]` (all per-atom arrays move together; tags
    /// travel with their atoms, so identity is preserved). Must be called
    /// only when no ghosts are present — ghost indices into the old order
    /// would dangle. The atoms move in place, cycle by cycle, so the arrays
    /// keep their capacity and the ghosts the next Border appends land in
    /// room the last one grew; `perm` is spent marking the cycles walked.
    pub fn reorder_locals(&mut self, perm: &mut [u32]) {
        const WALKED: u32 = 1 << 31;
        assert_eq!(
            self.nghost(),
            0,
            "cannot reorder locals while ghosts present"
        );
        assert!(perm.len() == self.nlocal && self.nlocal < WALKED as usize);
        for start in 0..perm.len() {
            let at = |a: &Self, i: usize| (a.x[i], a.v[i], a.f[i], a.typ[i], a.tag[i]);
            let (mut k, held) = (start, at(self, start));
            while perm[k] & WALKED == 0 {
                let from = perm[k] as usize;
                perm[k] |= WALKED;
                let next = if from == start { held } else { at(self, from) };
                (self.x[k], self.v[k], self.f[k], self.typ[k], self.tag[k]) = next;
                k = from;
            }
        }
    }

    /// Zero all force entries (local and ghost).
    pub fn zero_forces(&mut self) {
        for f in &mut self.f {
            *f = [0.0; 3];
        }
    }

    /// Append the *local* atoms (positions, velocities, types, tags) to a
    /// checkpoint payload in the [`crate::wirefmt`] format. Ghosts and
    /// forces are deliberately omitted: both are pure functions of the
    /// local state and are regenerated by the border/rebuild/pair replay
    /// after a restore, so storing them would only widen the corruption
    /// surface.
    pub fn wire_encode(&self, out: &mut Vec<u8>) {
        wirefmt::put_usize(out, self.nlocal);
        for i in 0..self.nlocal {
            wirefmt::put_f64x3(out, &self.x[i]);
            wirefmt::put_f64x3(out, &self.v[i]);
            wirefmt::put_u32(out, self.typ[i]);
            wirefmt::put_u64(out, self.tag[i]);
        }
    }

    /// Decode atoms written by [`Atoms::wire_encode`]: `nlocal` owned
    /// atoms, zero ghosts, zero forces.
    pub fn wire_decode(r: &mut wirefmt::WireReader<'_>) -> Result<Self, wirefmt::WireError> {
        let nlocal = r.usize_(true)?;
        let mut a = Atoms {
            x: Vec::with_capacity(nlocal),
            v: Vec::with_capacity(nlocal),
            f: Vec::new(),
            typ: Vec::with_capacity(nlocal),
            tag: Vec::with_capacity(nlocal),
            nlocal,
        };
        for _ in 0..nlocal {
            a.x.push(r.f64x3()?);
            a.v.push(r.f64x3()?);
            a.typ.push(r.u32_()?);
            a.tag.push(r.u64_()?);
        }
        a.f = vec![[0.0; 3]; nlocal];
        Ok(a)
    }

    /// Internal consistency check used by debug assertions and tests.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        let n = self.x.len();
        self.v.len() == n
            && self.f.len() == n
            && self.typ.len() == n
            && self.tag.len() == n
            && self.nlocal <= n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_atoms() -> Atoms {
        Atoms::from_positions(vec![[0.0; 3], [1.0; 3], [2.0; 3]], 1)
    }

    #[test]
    fn from_positions_sets_tags_and_counts() {
        let a = three_atoms();
        assert_eq!(a.nlocal, 3);
        assert_eq!(a.nghost(), 0);
        assert_eq!(a.tag, vec![1, 2, 3]);
        assert!(a.is_consistent());
    }

    #[test]
    fn ghost_lifecycle() {
        let mut a = three_atoms();
        let g = a.push_ghost([9.0; 3], 1, 2);
        assert_eq!(g, 3);
        assert_eq!(a.nghost(), 1);
        assert_eq!(a.ntotal(), 4);
        a.clear_ghosts();
        assert_eq!(a.nghost(), 0);
        assert!(a.is_consistent());
    }

    #[test]
    fn swap_remove_keeps_consistency() {
        let mut a = three_atoms();
        assert_eq!(a.swap_out_local(0), 2);
        assert_eq!(a.nlocal, 2);
        // Atom formerly last (tag 3) moved into slot 0.
        assert_eq!(a.tag[0], 3);
        assert!(a.is_consistent());
        // The removed atom waits past the locals until the ghosts go.
        assert_eq!((a.tag[2], a.x[2], a.nghost()), (1, [0.0; 3], 1));
        assert_eq!(a.swap_out_local(1), 1);
        assert_eq!(a.tag, [3, 2, 1]);
        a.clear_ghosts();
        assert_eq!((a.nlocal, a.ntotal()), (1, 1));
    }

    #[test]
    #[should_panic(expected = "ghosts are present")]
    fn push_local_with_ghosts_panics() {
        let mut a = three_atoms();
        a.push_ghost([9.0; 3], 1, 7);
        a.push_local([0.5; 3], [0.0; 3], 1, 99);
    }

    #[test]
    fn reorder_moves_all_arrays_together() {
        let mut a = three_atoms();
        a.v[2] = [9.0; 3];
        a.reorder_locals(&mut [2, 0, 1]);
        assert_eq!(a.tag, vec![3, 1, 2]);
        assert_eq!(a.x[0], [2.0; 3]);
        assert_eq!(a.v[0], [9.0; 3]);
        assert!(a.is_consistent());
        // Several cycles and a fixed point, against the gather it performs.
        let perm = [2u32, 1, 5, 6, 3, 0, 4];
        let pos = (0..7).map(|i| [f64::from(i), 0.5, -1.0]).collect();
        let mut a = Atoms::from_positions(pos, 1);
        a.v = (0..7).map(|i| [0.0, f64::from(i), 0.0]).collect();
        let want = |v: &[u64]| perm.iter().map(|&p| v[p as usize]).collect::<Vec<_>>();
        let (tags, x) = (want(&a.tag), perm.map(|p| a.x[p as usize]));
        a.reorder_locals(&mut perm.clone());
        assert_eq!((a.tag.clone(), a.x.clone()), (tags, x.to_vec()));
        assert!(
            (0..7).all(|i| a.v[i][1] == a.x[i][0]),
            "velocities travel too"
        );
    }

    #[test]
    #[should_panic(expected = "ghosts present")]
    fn reorder_with_ghosts_panics() {
        let mut a = three_atoms();
        a.push_ghost([9.0; 3], 1, 7);
        a.reorder_locals(&mut [0, 1, 2]);
    }

    #[test]
    fn wire_round_trip_keeps_locals_and_drops_ghosts() {
        let mut a = three_atoms();
        a.v[1] = [0.5, -0.25, 8.0];
        a.typ[2] = 3;
        a.push_ghost([9.0; 3], 1, 77);
        let mut bytes = Vec::new();
        a.wire_encode(&mut bytes);
        let mut r = wirefmt::WireReader::new(&bytes);
        let b = Atoms::wire_decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(b.nlocal, 3);
        assert_eq!(b.nghost(), 0);
        assert_eq!(b.x[..3], a.x[..3]);
        assert_eq!(b.v[1], [0.5, -0.25, 8.0]);
        assert_eq!(b.typ, vec![1, 1, 3]);
        assert_eq!(b.tag, vec![1, 2, 3]);
        assert_eq!(b.f, vec![[0.0; 3]; 3]);
        assert!(b.is_consistent());
        // Truncated payloads are typed errors, never panics.
        let mut r = wirefmt::WireReader::new(&bytes[..bytes.len() - 1]);
        assert!(Atoms::wire_decode(&mut r).is_err());
    }

    #[test]
    fn zero_forces_clears_everything() {
        let mut a = three_atoms();
        a.f[1] = [3.0, 4.0, 5.0];
        a.zero_forces();
        assert_eq!(a.f[1], [0.0; 3]);
    }
}
