//! iRCCE non-blocking sends: `isend` and its request handle.
//!
//! A request is a simulated-concurrent task; the UE's FIFO send lock keeps
//! iRCCE's in-order message matching between any two ranks even when many
//! sends are outstanding. Receives stay blocking ([`Rcce::recv`]).

use des::JoinHandle;

use crate::api::Rcce;

/// Handle of an outstanding non-blocking send (`iRCCE_isend`).
pub struct SendRequest {
    handle: JoinHandle<()>,
}

impl SendRequest {
    /// Block (in simulated time) until the send completed
    /// (`iRCCE_isend_wait`).
    pub async fn wait(self) {
        self.handle.await;
    }
}

impl Rcce {
    /// Start a non-blocking send of `data` to `dest`.
    pub fn isend(&self, data: Vec<u8>, dest: usize) -> SendRequest {
        assert!(dest < self.num_ues() && dest != self.id());
        let ctx = self.ctx.clone();
        let me = self.id();
        ctx.session.record_traffic(me, dest, data.len() as u64);
        let sim = self.sim().clone();
        let handle = sim.spawn_named(format!("isend {me}->{dest}"), async move {
            let start = ctx.session.sim().now();
            let lock = ctx.send_lock().clone();
            lock.lock().await;
            // nth lock holder gets the nth flow id, matching the
            // receiver's per-pair FIFO allocation.
            let flow = ctx.session.next_send_flow(me, dest);
            let metrics = ctx.session.rcce_metrics();
            metrics.send_lock_wait.add(ctx.session.sim().now() - start);
            let acquired = ctx.session.sim().now();
            ctx.enter_send(flow);
            let proto = ctx.session.proto(me, dest);
            proto.send(&ctx, dest, &data, flow).await;
            ctx.exit_send();
            metrics.send_lock_hold.record(ctx.session.sim().now() - acquired);
            lock.unlock();
            metrics.send_lat[crate::session::size_class(data.len())]
                .record(ctx.session.sim().now() - start);
        });
        SendRequest { handle }
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
    fn outstanding_sends_same_pair_keep_order() {
        let sim = Sim::new();
        let s = session(&sim, 2);
        s.run_app(|r| async move {
            if r.id() == 0 {
                let a = r.isend(vec![1u8; 100], 1);
                let b = r.isend(vec![2u8; 100], 1);
                a.wait().await;
                b.wait().await;
            } else {
                let first = r.recv_vec(100, 0).await;
                let second = r.recv_vec(100, 0).await;
                assert_eq!(first, vec![1u8; 100]);
                assert_eq!(second, vec![2u8; 100]);
            }
        })
        .unwrap();
    }

    #[test]
    fn overlap_computation_with_communication() {
        // Non-blocking allows compute to proceed while the message moves.
        let run = |overlap: bool| {
            let sim = Sim::new();
            let s = session(&sim, 2);
            s.run_app(move |r| async move {
                let big = vec![3u8; 30_000];
                if r.id() == 0 {
                    if overlap {
                        let req = r.isend(big, 1);
                        r.compute(200_000).await;
                        req.wait().await;
                    } else {
                        r.send(&big, 1).await;
                        r.compute(200_000).await;
                    }
                } else {
                    let mut buf = vec![0u8; 30_000];
                    r.recv(&mut buf, 0).await;
                }
            })
            .unwrap();
            sim.now()
        };
        // In this model, isend runs the same protocol concurrently with
        // the compute block, so overlap must not be slower.
        assert!(run(true) <= run(false));
    }
}
