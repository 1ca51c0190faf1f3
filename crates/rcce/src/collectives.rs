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
