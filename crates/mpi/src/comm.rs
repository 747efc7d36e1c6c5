//! An MPI-like two-sided message layer over the simulated TofuD fabric.
//!
//! This is the *baseline* transport the paper optimizes away from: every
//! message pays the heavy software stack (per-message posting cost,
//! fragmentation above the eager limit, receiver-side tag matching, and a
//! bounce-buffer copy on delivery). The uTofu path in `tofumd-core`
//! bypasses all of it with pre-registered one-sided puts.

use std::sync::{Arc, Mutex, PoisonError};
use tofumd_tofu::{PutRequest, PutSrc, Stadd, TofuError, TofuNet, TNIS_PER_NODE};

/// A communicator over `nranks` ranks placed `ranks_per_node` to a node.
pub struct Communicator {
    net: Arc<TofuNet>,
    nranks: usize,
    ranks_per_node: usize,
    /// Bounce buffer (registered region) per rank. Registered empty; it
    /// holds what the rank has received between two resets, rounded up to
    /// a power of two, and never shrinks.
    mailbox: Vec<Stadd>,
    /// Bump-allocation offset per rank's mailbox.
    bump: Vec<Mutex<usize>>,
}

/// A received message: by default its payload bytes copied out of the
/// bounce buffer; from [`Communicator::recv_with`], whatever the caller
/// made of them in place.
#[derive(Debug, Clone, PartialEq)]
pub struct RecvMsg<T = Vec<u8>> {
    /// The payload, or what the receive's closure returned for it.
    pub data: T,
    /// Sender rank.
    pub src: usize,
    /// Message tag.
    pub tag: u32,
    /// Receiver's clock after matching and copying.
    pub now: f64,
    /// Raw fabric arrival instant of the payload, before matching and copy
    /// costs (overlap accounting reads this; `now` still drives the clock).
    pub arrival: f64,
}

impl Communicator {
    /// Build a communicator; registers one (empty) mailbox per rank.
    ///
    /// Contract: `nranks` and `ranks_per_node` are positive and the fabric
    /// has a node for every `ranks_per_node` ranks — the cluster derives
    /// all three from one rank map. Debug builds check it; a release build
    /// handed too few nodes faults at the first registration past them.
    #[must_use]
    pub fn new(net: Arc<TofuNet>, nranks: usize, ranks_per_node: usize) -> Self {
        debug_assert!(nranks > 0 && ranks_per_node > 0);
        debug_assert!(
            nranks.div_ceil(ranks_per_node) <= net.node_count(),
            "not enough nodes for {nranks} ranks at {ranks_per_node}/node"
        );
        let mut mailbox = Vec::with_capacity(nranks);
        let mut bump = Vec::with_capacity(nranks);
        for r in 0..nranks {
            let node = r / ranks_per_node;
            let (stadd, _cost) = net.register_mem(node, 0);
            mailbox.push(stadd);
            bump.push(Mutex::new(0));
        }
        Communicator {
            net,
            nranks,
            ranks_per_node,
            mailbox,
            bump,
        }
    }

    /// Number of ranks.
    #[must_use]
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Node hosting a rank.
    #[must_use]
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node
    }

    /// The underlying fabric.
    #[must_use]
    pub fn net(&self) -> &Arc<TofuNet> {
        &self.net
    }

    /// Network hops between two ranks' nodes.
    #[must_use]
    pub fn hops_between(&self, a: usize, b: usize) -> u32 {
        self.net.hops(self.node_of(a), self.node_of(b))
    }

    /// Reset all mailbox bump allocators (call once per timestep from the
    /// lockstep driver, after all receives completed).
    pub fn reset_mailboxes(&self) {
        for b in &self.bump {
            *b.lock().unwrap_or_else(PoisonError::into_inner) = 0;
        }
    }

    /// Buffered send of `data` (see [`Communicator::send_with`]).
    pub fn send(&self, src: usize, dst: usize, tag: u32, data: &[u8], now: &mut f64) {
        self.send_with(src, dst, tag, PutSrc::Bytes(data), now);
    }

    /// Buffered send (MPI_Isend + the implementation's eager/rendezvous
    /// protocol) of `payload`, written once into the receiver's mailbox —
    /// the send-side twin of [`Communicator::recv_with`]. Advances `*now`
    /// by the sender-side software cost and returns immediately; the
    /// message is matched by `(src, tag)`.
    pub fn send_with(&self, src: usize, dst: usize, tag: u32, payload: PutSrc<'_>, now: &mut f64) {
        let p = *self.net.params();
        let bytes = payload.len();
        // Fragmentation: each eager fragment pays the per-message CPU cost.
        let frags = bytes.div_ceil(p.mpi_eager_limit).max(1);
        *now += p.cpu_per_put_mpi * frags as f64;
        // Rendezvous handshake for large transfers: one extra round trip
        // before data moves.
        let hops = self.hops_between(src, dst);
        if bytes > p.mpi_eager_limit {
            *now += 2.0 * p.wire_time(0, hops);
        }
        // Reserve mailbox space on the receiver and make sure the region
        // reaches it. The growth is the simulator's bookkeeping, not a
        // modeled registration: MPI's internal buffering is already in
        // the per-message costs above.
        let offset = {
            let mut b = self.bump[dst]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let off = *b;
            *b += bytes.max(1);
            off
        };
        self.net.reserve_mem(
            self.node_of(dst),
            self.mailbox[dst],
            (offset + bytes).next_power_of_two(),
        );
        // MPI internally spreads ranks over TNIs.
        let tni = src % TNIS_PER_NODE;
        let req = PutRequest {
            src_node: self.node_of(src),
            tni,
            dst_node: self.node_of(dst),
            dst_stadd: self.mailbox[dst],
            dst_offset: offset,
            data: &[],
            piggyback: u64::from(tag),
            src_rank: src as u32,
            seq: 0,
            now: *now,
            cache_injection: false,
        };
        self.net.put_from(&req, payload);
    }

    /// Receive of a message the caller knows was sent, its payload copied
    /// out (see [`Communicator::recv_with`]).
    ///
    /// Contract: one message matching `(src, tag)` is queued — in the
    /// lockstep driver every send of a stage precedes its receives. Debug
    /// builds check it; a release build that breaks it gets an empty
    /// payload stamped `now`. Callers that can meet a dead peer use
    /// [`Communicator::recv_with`].
    #[must_use]
    pub fn recv(&self, dst: usize, src: usize, tag: u32, now: f64) -> RecvMsg {
        let got = self.recv_with(dst, src, tag, now, <[u8]>::to_vec);
        debug_assert!(got.is_ok(), "{got:?}");
        got.unwrap_or(RecvMsg {
            data: Vec::new(),
            src,
            tag,
            now,
            arrival: now,
        })
    }

    /// Receive the message matching `(src, tag)` in place: `f` gets its
    /// payload bytes in the bounce buffer, under the node lock — the
    /// receive-side twin of [`TofuNet::read_local_with`] — and the
    /// receiver clock advances past arrival + matching + bounce-buffer
    /// copy. A missing message is [`TofuError::Deadlock`] — or
    /// [`TofuError::PeerDead`] when the fault plan has killed a rank — and
    /// a second queued match is [`TofuError::DuplicateMessage`].
    pub fn recv_with<R>(
        &self,
        dst: usize,
        src: usize,
        tag: u32,
        now: f64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<RecvMsg<R>, TofuError> {
        let p = self.net.params();
        let node = self.node_of(dst);
        let (first, more) = self.net.take_first_arrival(node, |a| {
            a.src_rank == src as u32
                && a.piggyback == u64::from(tag)
                && a.stadd == self.mailbox[dst]
        });
        let a = first.ok_or_else(|| self.net.shortfall_error(node, 1, 0))?;
        if more {
            return Err(TofuError::DuplicateMessage { node, src, tag });
        }
        let data = self.net.read_local_with(node, a.stadd, a.offset, a.len, f);
        Ok(RecvMsg {
            data,
            src,
            tag,
            now: now.max(a.time) + p.mpi_match_cost + p.pack_cost(a.len),
            arrival: a.time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofumd_tofu::{CellGrid, NetParams};

    fn comm(nranks: usize) -> Communicator {
        let net = Arc::new(TofuNet::new(CellGrid::new([2, 2, 2]), NetParams::default()));
        Communicator::new(net, nranks, 4)
    }

    #[test]
    fn send_recv_roundtrip() {
        let c = comm(8);
        let mut now = 0.0;
        c.send(0, 5, 7, &[1, 2, 3], &mut now);
        assert!(now > 0.0, "send must charge CPU time");
        let m = c.recv(5, 0, 7, 0.0);
        assert_eq!(m.data, vec![1, 2, 3]);
        assert!(m.now > now, "receive completes after send");
    }

    #[test]
    fn tags_are_matched() {
        let c = comm(8);
        let mut now = 0.0;
        c.send(0, 1, 10, &[0xAA], &mut now);
        c.send(0, 1, 11, &[0xBB], &mut now);
        // Receive in reverse tag order.
        let m11 = c.recv(1, 0, 11, 0.0);
        let m10 = c.recv(1, 0, 10, 0.0);
        assert_eq!(m11.data, vec![0xBB]);
        assert_eq!(m10.data, vec![0xAA]);
    }

    #[test]
    fn a_second_queued_match_is_a_typed_error() {
        let c = comm(8);
        let mut now = 0.0;
        c.send(0, 1, 7, &[1], &mut now);
        c.send(0, 1, 7, &[2], &mut now);
        let err = c.recv_with(1, 0, 7, 0.0, |_| ()).unwrap_err();
        let want = TofuError::DuplicateMessage {
            node: 0,
            src: 0,
            tag: 7,
        };
        assert_eq!(err, want);
        assert!(err.to_string().contains("two queued from rank 0"), "{err}");
        // Nothing matches any more: the shortfall is the typed deadlock.
        assert!(matches!(
            c.recv_with(1, 0, 8, 0.0, |_| ()),
            Err(TofuError::Deadlock { .. })
        ));
        // One of each key is received in place, in any order.
        c.send(2, 1, 9, &[5, 6], &mut now);
        let sum = |b: &[u8]| b.iter().map(|&x| u32::from(x)).sum::<u32>();
        let m = c.recv_with(1, 2, 9, 0.0, sum).unwrap();
        assert_eq!((m.data, m.src), (11, 2));
    }

    #[test]
    fn rendezvous_is_slower_per_byte_started() {
        let c = comm(8);
        let eager = c.net().params().mpi_eager_limit;
        let mut t_small = 0.0;
        c.send(0, 4, 1, &vec![0u8; eager], &mut t_small);
        let mut t_big = 0.0;
        c.send(2, 4, 2, &vec![0u8; eager + 1], &mut t_big);
        assert!(
            t_big > t_small,
            "rendezvous + fragmentation must cost extra sender time"
        );
    }

    #[test]
    fn mailbox_reset_allows_reuse() {
        let c = comm(4);
        for step in 0..10 {
            let mut now = 0.0;
            c.send(1, 0, step, &vec![7u8; 1 << 20], &mut now);
            let m = c.recv(0, 1, step, 0.0);
            assert_eq!(m.data.len(), 1 << 20);
            c.reset_mailboxes();
        }
    }

    #[test]
    fn mailbox_grows_to_what_it_receives() {
        let c = comm(4);
        let len = |rank: usize| c.net().mem_len(c.node_of(rank), c.mailbox[rank]);
        assert_eq!(len(0), 0, "a mailbox is registered empty");
        // Five 1 MiB messages to one rank with no reset in between.
        for k in 0..5u8 {
            let mut now = 0.0;
            c.send(1, 0, u32::from(k), &vec![k; 1 << 20], &mut now);
        }
        for k in (0..5u8).rev() {
            let m = c.recv(0, 1, u32::from(k), 0.0);
            assert!(m.data.len() == 1 << 20 && m.data.iter().all(|&b| b == k));
        }
        assert_eq!(len(0), 8 << 20, "5 MiB received, next power of two");
        assert_eq!(len(1), 0, "a rank that received nothing holds nothing");
        // A zero-length send still takes one byte of the bump allocator.
        let mut now = 0.0;
        c.send(1, 0, 9, &[], &mut now);
        assert_eq!(*c.bump[0].lock().unwrap(), (5 << 20) + 1);
        assert!(c.recv(0, 1, 9, 0.0).data.is_empty());
        assert_eq!(
            c.net().registration_calls_of(0),
            4,
            "growth registers nothing"
        );
    }

    #[test]
    fn a_written_send_lands_as_its_bytes_would() {
        // The oracle of `send_with(PutSrc::Write)`: a `send` of the same
        // bytes, on a fresh communicator of its own, across the eager
        // limit and into rendezvous.
        let eager = comm(8).net().params().mpi_eager_limit;
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        for len in [0, 8, eager, eager + 8, 3 * eager] {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed as u8
                })
                .collect();
            let (by_bytes, by_writer) = (comm(8), comm(8));
            let (mut t_bytes, mut t_writer) = (0.25, 0.25);
            by_bytes.send(2, 5, 3, &bytes, &mut t_bytes);
            let write = |buf: &mut [u8]| buf.copy_from_slice(&bytes);
            let src = PutSrc::Write { len, write: &write };
            by_writer.send_with(2, 5, 3, src, &mut t_writer);
            assert_eq!(
                t_bytes.to_bits(),
                t_writer.to_bits(),
                "{len} B: sender clock"
            );
            let landed = |c: &Communicator| {
                let node = c.node_of(5);
                (
                    c.net().mem_len(node, c.mailbox[5]),
                    *c.bump[5].lock().unwrap(),
                    c.net().registration_calls_of(node),
                )
            };
            assert_eq!(landed(&by_bytes), landed(&by_writer), "{len} B: mailbox");
            let (a, b) = (by_bytes.recv(5, 2, 3, 0.5), by_writer.recv(5, 2, 3, 0.5));
            assert_eq!(a.data, bytes, "{len} B: payload");
            assert_eq!(a.data, b.data, "{len} B: payload");
            assert_eq!(a.now.to_bits(), b.now.to_bits(), "{len} B: receiver clock");
            assert_eq!(a.arrival.to_bits(), b.arrival.to_bits(), "{len} B: arrival");
        }
    }

    #[test]
    fn rank_node_mapping() {
        let c = comm(16);
        assert_eq!(c.node_of(0), 0);
        assert_eq!(c.node_of(3), 0);
        assert_eq!(c.node_of(4), 1);
        assert_eq!(c.hops_between(0, 1), 0, "same node");
        assert!(c.hops_between(0, 15) > 0);
    }
}
