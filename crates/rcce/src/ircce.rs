//! iRCCE non-blocking sends: `isend` and its request handle.
//!
//! A request is a simulated-concurrent task; the UE's FIFO send lock keeps
//! iRCCE's in-order message matching between any two ranks even when many
//! sends are outstanding. Receives stay blocking ([`Rcce::recv`]).

use des::JoinHandle;

use crate::api::{send_locked, Rcce};

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
    /// Start a non-blocking send of `data` to `dest`: the blocking
    /// send's body, spawned as its own task.
    pub fn isend(&self, data: Vec<u8>, dest: usize) -> SendRequest {
        self.check_dest(dest);
        let ctx = self.ctx.clone();
        let name = format!("isend {}->{dest}", self.id());
        let handle = self.sim().spawn_named(name, async move {
            send_locked(&ctx, &data, dest).await;
        });
        SendRequest { handle }
    }
}

#[cfg(test)]
mod tests {
    use crate::session::SessionBuilder;
    use des::trace::Trace;
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
    fn mixed_isend_and_send_pair_flows_in_grant_order() {
        // A holds the send lock while the receiver is late, B queues
        // behind it, and the blocking C queues behind B: every flow's id
        // must follow that grant order, so each flow's sender puts and
        // receiver gets move the same message.
        let sim = Sim::new();
        let dev = SccDevice::new(&sim, DeviceId(0));
        let s =
            SessionBuilder::new(&sim, vec![dev]).max_ranks(2).with_trace(Trace::enabled()).build();
        s.run_app(|r| async move {
            if r.id() == 0 {
                let a = r.isend(vec![1u8; 100], 1);
                let b = r.isend(vec![2u8; 200], 1);
                r.compute(1_000).await;
                r.send(&[3u8; 300], 1).await;
                a.wait().await;
                b.wait().await;
            } else {
                r.compute(50_000).await;
                for (len, fill) in [(100, 1u8), (200, 2), (300, 3)] {
                    assert_eq!(r.recv_vec(len, 0).await, vec![fill; len]);
                }
            }
        })
        .unwrap();
        let events = s.trace().events();
        let spans = |flow: u64, kind: &'static str| {
            events.iter().filter(move |e| e.flow == Some(flow) && e.kind == kind)
        };
        let bytes = |flow: u64, kind: &'static str| -> u64 {
            spans(flow, kind)
                .map(|e| match e.fields.iter().find(|(k, _)| *k == "bytes") {
                    Some((_, des::trace::FieldValue::U64(n))) => *n,
                    other => panic!("{kind} without a byte count: {other:?}"),
                })
                .sum()
        };
        let mut flows: Vec<u64> = events.iter().filter_map(|e| e.flow).collect();
        flows.sort_unstable();
        flows.dedup();
        assert_eq!(flows.len(), 3);
        for &flow in &flows {
            assert_eq!(bytes(flow, "sender_put"), bytes(flow, "recv_get"), "flow {flow}");
        }
        for &flow in &flows {
            assert_eq!(spans(flow, "send_lock").count(), 1, "flow {flow}");
        }
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
