//! Cell-binned Verlet neighbor lists.

pub mod bins;
pub mod list;

pub use bins::{sort_locals_by_bin, CellBins};
pub use list::{ghost_pair_belongs_to_i, ListKind, NeighborList, RebuildPolicy};
