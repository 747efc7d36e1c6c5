//! Property coverage of the mid-run rebalance migration: moving a system
//! from decomposition A to an arbitrary decomposition B over B's star
//! forest — with the transient symmetric migrate-peer set computed from
//! the destination matrix — conserves every atom and lands each one on
//! the rank B says owns it, in exactly one owner-directed round.

use proptest::prelude::*;
use std::sync::Arc;
use tofumd_core::engine::{wrap_for_exchange, RankState};
use tofumd_core::sf::rebalance_migrate_peers;
use tofumd_core::topo_map::{Placement, RankMap};
use tofumd_core::CommGraph;
use tofumd_md::atom::Atoms;
use tofumd_md::domain::RcbDecomposition;
use tofumd_md::region::Box3;
use tofumd_tofu::CellGrid;

const LENGTHS: [f64; 3] = [20.0, 16.0, 12.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn rebalance_migration_conserves_atoms_and_matches_owner_of(
        unit_pts in prop::collection::vec(prop::array::uniform3(0.0f64..1.0), 240..241),
        drift in prop::collection::vec(prop::array::uniform3(-6.0f64..6.0), 240..241),
        nranks in 2usize..10,
        r_ghost in 1.0f64..2.5,
    ) {
        // A point cloud inside the box plus a bounded per-atom drift
        // (large enough to hop several sub-boxes and to cross periodic
        // faces).
        let pts: Vec<[f64; 3]> = unit_pts
            .iter()
            .map(|u| [u[0] * LENGTHS[0], u[1] * LENGTHS[1], u[2] * LENGTHS[2]])
            .collect();
        let map = RankMap::new(CellGrid::new([1, 1, 1]), Placement::TopoAware);
        prop_assert!(nranks <= map.nranks());
        let global = Box3::from_lengths(LENGTHS);

        // Decomposition A over the initial cloud; the atoms then drift.
        let a = RcbDecomposition::build(nranks, &pts, &global);
        let moved: Vec<[f64; 3]> = pts
            .iter()
            .zip(&drift)
            .map(|(p, d)| [p[0] + d[0], p[1] + d[1], p[2] + d[2]])
            .collect();
        let wrapped: Vec<[f64; 3]> = moved
            .iter()
            .map(|x| wrap_for_exchange(&global, *x))
            .collect();

        // Decomposition B over the drifted cloud, with its star forests.
        let b = Arc::new(RcbDecomposition::build(nranks, &wrapped, &global));
        let graphs: Vec<CommGraph> = (0..nranks)
            .map(|r| CommGraph::from_rcb(r, &b, &map, r_ghost))
            .collect();

        // Each rank holds its A-atoms at their drifted (unwrapped)
        // positions, under B's graph with the transient migrate peers.
        let mut needs: Vec<Vec<usize>> = vec![Vec::new(); nranks];
        for (x, w) in moved.iter().zip(&wrapped) {
            let src = a.owner_of(&wrap_for_exchange(&global, *x));
            let dst = b.owner_of(w);
            if src != dst {
                needs[src].push(dst);
            }
        }
        for d in &mut needs {
            d.sort_unstable();
            d.dedup();
        }
        let peer_lists = rebalance_migrate_peers(&needs, &map);
        let mut states: Vec<RankState> = (0..nranks)
            .map(|r| {
                let mut atoms = Atoms::default();
                for (i, x) in moved.iter().enumerate() {
                    if a.owner_of(&wrap_for_exchange(&global, *x)) == r {
                        atoms.push_local(*x, [0.0; 3], 1, i as u64 + 1);
                    }
                }
                RankState::new(
                    atoms,
                    graphs[r].clone().with_migrate_peers(peer_lists[r].clone()),
                )
            })
            .collect();
        let before: usize = states.iter().map(|s| s.atoms.nlocal).sum();
        prop_assert_eq!(before, pts.len());

        // One owner-directed round: every rank packs, every payload is
        // delivered to the matching peer.
        let payloads: Vec<Vec<Vec<f64>>> =
            states.iter_mut().map(RankState::pack_exchange_graph).collect();
        for (r, outs) in payloads.iter().enumerate() {
            let peers = peer_lists[r].clone();
            prop_assert_eq!(outs.len(), peers.len());
            for (p, payload) in peers.iter().zip(outs) {
                states[p.rank].unpack_exchange(payload.as_slice());
            }
        }

        // Conservation: every tag survives exactly once.
        let mut tags: Vec<u64> = states
            .iter()
            .flat_map(|s| s.atoms.tag[..s.atoms.nlocal].to_vec())
            .collect();
        tags.sort_unstable();
        prop_assert_eq!(tags, (1..=pts.len() as u64).collect::<Vec<_>>());

        // Ownership: each rank agrees with B's owner_of for every atom it
        // now holds, and a second round is a fixed point.
        for st in &mut states {
            for i in 0..st.atoms.nlocal {
                let x = st.atoms.x[i];
                prop_assert!(st.graph.sub.contains(&x));
                prop_assert_eq!(st.graph.owner_of(&x), st.graph.me);
            }
            let again = st.pack_exchange_graph();
            prop_assert!(again.iter().all(Vec::is_empty));
        }
    }
}
