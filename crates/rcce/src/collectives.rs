//! RCCE collectives: dissemination barrier and binomial-tree
//! broadcast/reduce, built on the point-to-point layer so that the vSCC
//! inter-device schemes accelerate them transparently.

use crate::api::Rcce;
use crate::layout;
use crate::protocol::flag_wait_reached;

/// Reduction operators for the f64 collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Sum.
    Sum,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

impl Op {
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            Op::Sum => a + b,
            Op::Max => a.max(b),
            Op::Min => a.min(b),
        }
    }
}

impl Rcce {
    /// `RCCE_barrier`: dissemination barrier over the flag region —
    /// ⌈log₂ n⌉ rounds of one remote flag write + one local spin each.
    pub async fn barrier(&self) {
        let n = self.num_ues();
        if n == 1 {
            return;
        }
        let me = self.id();
        let my = self.who();
        let gen = self.ctx.barrier_gen.get().wrapping_add(1);
        self.ctx.barrier_gen.set(gen);
        let mut round: u16 = 0;
        let mut dist = 1usize;
        while dist < n {
            let to = (me + dist) % n;
            let to_who = self.ctx.session.who(to);
            self.ctx.core.flag_write(layout::barrier_flag(to_who, round), gen, None).await;
            flag_wait_reached(&self.ctx, layout::barrier_flag(my, round), gen).await;
            round += 1;
            dist <<= 1;
        }
    }

    /// `RCCE_bcast`: binomial-tree broadcast of `buf` from `root`.
    pub async fn bcast(&self, buf: &mut [u8], root: usize) {
        let n = self.num_ues();
        if n == 1 {
            return;
        }
        let me = self.id();
        let vr = (me + n - root) % n; // virtual rank, root at 0
                                      // Receive from the parent (vr with its highest bit cleared).
        let mut high = 0usize;
        if vr != 0 {
            high = 1 << (usize::BITS - 1 - vr.leading_zeros());
            let parent = ((vr - high) + root) % n;
            self.recv(buf, parent).await;
        }
        // Forward to children vr + mask for mask above our highest bit.
        let mut mask = if vr == 0 { 1 } else { high << 1 };
        while vr + mask < n {
            let child = (vr + mask + root) % n;
            self.send(buf, child).await;
            mask <<= 1;
        }
    }

    /// `RCCE_reduce` for one f64: the result is valid at `root` only.
    pub async fn reduce_f64(&self, value: f64, op: Op, root: usize) -> f64 {
        let n = self.num_ues();
        let me = self.id();
        let vr = (me + n - root) % n;
        let mut acc = value;
        // Gather up the binomial tree (children first, mirrored bcast).
        let mut mask = 1usize;
        while mask < n {
            if vr & mask == 0 {
                let child_vr = vr + mask;
                if child_vr < n {
                    let child = (child_vr + root) % n;
                    let got = self.recv_vec(8, child).await;
                    let v = f64::from_le_bytes(got.try_into().expect("8 bytes"));
                    acc = op.apply(acc, v);
                }
            } else {
                let parent = ((vr - mask) + root) % n;
                self.send(&acc.to_le_bytes(), parent).await;
                break;
            }
            mask <<= 1;
        }
        acc
    }

    /// `RCCE_allreduce` for one f64: reduce to rank 0 plus broadcast.
    pub async fn allreduce_f64(&self, value: f64, op: Op) -> f64 {
        let r = self.reduce_f64(value, op, 0).await;
        let mut buf = r.to_le_bytes();
        self.bcast(&mut buf, 0).await;
        f64::from_le_bytes(buf)
    }

    /// Element-wise vector reduction to `root` (binomial tree).
    pub async fn reduce_vec_f64(&self, values: &mut [f64], op: Op, root: usize) {
        let n = self.num_ues();
        let me = self.id();
        let vr = (me + n - root) % n;
        let bytes = values.len() * 8;
        let mut mask = 1usize;
        while mask < n {
            if vr & mask == 0 {
                let child_vr = vr + mask;
                if child_vr < n {
                    let child = (child_vr + root) % n;
                    let got = self.recv_vec(bytes, child).await;
                    for (v, chunk) in values.iter_mut().zip(got.chunks_exact(8)) {
                        let x = f64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                        *v = op.apply(*v, x);
                    }
                }
            } else {
                let parent = ((vr - mask) + root) % n;
                let packed: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
                self.send(&packed, parent).await;
                break;
            }
            mask <<= 1;
        }
    }

    /// Element-wise vector allreduce: reduce to rank 0 plus broadcast.
    pub async fn allreduce_vec_f64(&self, values: &mut [f64], op: Op) {
        self.reduce_vec_f64(values, op, 0).await;
        let mut packed: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.bcast(&mut packed, 0).await;
        for (v, chunk) in values.iter_mut().zip(packed.chunks_exact(8)) {
            *v = f64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        }
    }

    /// Gather equal-sized blocks to `root`: returns `Some(concatenated)`
    /// at the root (rank order), `None` elsewhere.
    pub async fn gather(&self, block: &[u8], root: usize) -> Option<Vec<u8>> {
        let n = self.num_ues();
        let me = self.id();
        if me == root {
            let mut out = vec![0u8; block.len() * n];
            out[me * block.len()..(me + 1) * block.len()].copy_from_slice(block);
            for src in 0..n {
                if src == me {
                    continue;
                }
                let got = self.recv_vec(block.len(), src).await;
                out[src * block.len()..(src + 1) * block.len()].copy_from_slice(&got);
            }
            Some(out)
        } else {
            self.send(block, root).await;
            None
        }
    }

    /// Scatter equal-sized blocks from `root` (`blocks.len() == n *
    /// block_len` at the root; ignored elsewhere): returns this rank's
    /// block.
    pub async fn scatter(&self, blocks: Option<&[u8]>, block_len: usize, root: usize) -> Vec<u8> {
        let n = self.num_ues();
        let me = self.id();
        if me == root {
            let all = blocks.expect("root provides the blocks");
            assert_eq!(all.len(), n * block_len);
            for dst in 0..n {
                if dst == me {
                    continue;
                }
                self.send(&all[dst * block_len..(dst + 1) * block_len], dst).await;
            }
            all[me * block_len..(me + 1) * block_len].to_vec()
        } else {
            self.recv_vec(block_len, root).await
        }
    }

    /// Personalized all-to-all exchange of equal-sized blocks:
    /// `blocks[i]` goes to rank `i`; returns the blocks received, indexed
    /// by source. Uses a phase-rotated pairwise schedule so all pairs
    /// progress concurrently.
    pub async fn alltoall(&self, blocks: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let n = self.num_ues();
        let me = self.id();
        assert_eq!(blocks.len(), n, "one block per destination");
        let len = blocks[0].len();
        assert!(blocks.iter().all(|b| b.len() == len), "alltoall needs equal block sizes");
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
        out[me] = blocks[me].clone();
        for phase in 1..n {
            let to = (me + phase) % n;
            let from = (me + n - phase) % n;
            let req = self.isend(blocks[to].clone(), to);
            out[from] = self.recv_vec(len, from).await;
            req.wait().await;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::session::SessionBuilder;
    use des::Sim;
    use scc::device::SccDevice;
    use scc::geometry::DeviceId;

    fn session(sim: &Sim, n: usize) -> crate::Session {
        let dev = SccDevice::new(sim, DeviceId(0));
        SessionBuilder::new(sim, vec![dev]).max_ranks(n).build()
    }

    #[test]
    fn barrier_aligns_ranks() {
        let sim = Sim::new();
        let s = session(&sim, 7);
        let times = s
            .run_app(|r| async move {
                // Stagger arrival heavily.
                r.compute(r.id() as u64 * 10_000).await;
                r.barrier().await;
                r.now()
            })
            .unwrap();
        let slowest_arrival = 6 * 10_000;
        for t in times {
            assert!(t >= slowest_arrival, "rank left barrier at {t}, before the last arrival");
        }
    }

    #[test]
    fn repeated_barriers() {
        let sim = Sim::new();
        let s = session(&sim, 5);
        s.run_app(|r| async move {
            for _ in 0..10 {
                r.barrier().await;
            }
        })
        .unwrap();
    }

    #[test]
    fn barrier_single_rank_is_noop() {
        let sim = Sim::new();
        let s = session(&sim, 1);
        s.run_app(|r| async move { r.barrier().await }).unwrap();
        assert_eq!(sim.now(), 0);
    }

    #[test]
    fn bcast_from_each_root() {
        for root in [0usize, 3, 5] {
            let sim = Sim::new();
            let s = session(&sim, 6);
            s.run_app(move |r| async move {
                let mut buf = if r.id() == root { vec![0xAB; 500] } else { vec![0; 500] };
                r.bcast(&mut buf, root).await;
                assert_eq!(buf, vec![0xAB; 500]);
            })
            .unwrap();
        }
    }

    #[test]
    fn reduce_sum_correct() {
        let sim = Sim::new();
        let s = session(&sim, 9);
        let out = s
            .run_app(|r| async move {
                let v = (r.id() + 1) as f64;
                r.reduce_f64(v, crate::collectives::Op::Sum, 0).await
            })
            .unwrap();
        assert_eq!(out[0], 45.0); // 1+..+9
    }

    #[test]
    fn allreduce_max_everywhere() {
        let sim = Sim::new();
        let s = session(&sim, 5);
        let out = s
            .run_app(|r| async move {
                r.allreduce_f64(r.id() as f64 * 1.5, crate::collectives::Op::Max).await
            })
            .unwrap();
        assert!(out.iter().all(|&v| v == 6.0));
    }

    #[test]
    fn reduce_vec_elementwise() {
        let sim = Sim::new();
        let s = session(&sim, 6);
        let out = s
            .run_app(|r| async move {
                let mut v = vec![r.id() as f64, 1.0, -(r.id() as f64)];
                r.reduce_vec_f64(&mut v, crate::collectives::Op::Sum, 2).await;
                (r.id(), v)
            })
            .unwrap();
        let (_, at_root) = out.iter().find(|(id, _)| *id == 2).unwrap().clone();
        assert_eq!(at_root, vec![15.0, 6.0, -15.0]);
    }

    #[test]
    fn allreduce_vec_everywhere() {
        let sim = Sim::new();
        let s = session(&sim, 4);
        let out = s
            .run_app(|r| async move {
                let mut v = vec![1.0, r.id() as f64];
                r.allreduce_vec_f64(&mut v, crate::collectives::Op::Max).await;
                v
            })
            .unwrap();
        assert!(out.iter().all(|v| v == &vec![1.0, 3.0]));
    }

    #[test]
    fn gather_concatenates_in_rank_order() {
        let sim = Sim::new();
        let s = session(&sim, 5);
        let out = s
            .run_app(|r| async move {
                let block = vec![r.id() as u8; 3];
                r.gather(&block, 1).await
            })
            .unwrap();
        for (i, g) in out.iter().enumerate() {
            if i == 1 {
                let expect: Vec<u8> = (0..5u8).flat_map(|x| std::iter::repeat_n(x, 3)).collect();
                assert_eq!(g.as_deref(), Some(expect.as_slice()));
            } else {
                assert!(g.is_none());
            }
        }
    }

    #[test]
    fn scatter_distributes_blocks() {
        let sim = Sim::new();
        let s = session(&sim, 4);
        let out = s
            .run_app(|r| async move {
                let all: Vec<u8> = (0..16u8).collect();
                let blocks = if r.id() == 0 { Some(all) } else { None };
                r.scatter(blocks.as_deref(), 4, 0).await
            })
            .unwrap();
        for (i, b) in out.iter().enumerate() {
            let expect: Vec<u8> = (i as u8 * 4..i as u8 * 4 + 4).collect();
            assert_eq!(b, &expect);
        }
    }

    #[test]
    fn alltoall_personalized_exchange() {
        let sim = Sim::new();
        let s = session(&sim, 4);
        let out = s
            .run_app(|r| async move {
                let me = r.id() as u8;
                // Block for rank j encodes (me, j).
                let blocks: Vec<Vec<u8>> =
                    (0..r.num_ues() as u8).map(|j| vec![me * 16 + j; 8]).collect();
                r.alltoall(&blocks).await
            })
            .unwrap();
        for (j, received) in out.iter().enumerate() {
            for (src, block) in received.iter().enumerate() {
                assert_eq!(block, &vec![src as u8 * 16 + j as u8; 8]);
            }
        }
    }

    #[test]
    fn allreduce_min() {
        let sim = Sim::new();
        let s = session(&sim, 4);
        let out = s
            .run_app(|r| async move {
                r.allreduce_f64(10.0 - r.id() as f64, crate::collectives::Op::Min).await
            })
            .unwrap();
        assert!(out.iter().all(|&v| v == 7.0));
    }
}
