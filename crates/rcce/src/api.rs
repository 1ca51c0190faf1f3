//! The per-rank RCCE handle: the API application code programs against.
//!
//! Mirrors the RCCE surface: two-sided `send`/`recv` (*non-gory*),
//! collectives, and iRCCE's non-blocking send (see [`crate::ircce`]).
//! One-sided programs drive the core directly through [`Rcce::core`].

use std::rc::Rc;

use des::trace::Category;
use scc::CoreHandle;

use crate::session::{size_class, RankCtx};

/// Handle of one RCCE unit of execution (UE).
///
/// Cheap to clone; clones share the rank's protocol state.
#[derive(Clone)]
pub struct Rcce {
    pub(crate) ctx: Rc<RankCtx>,
}

impl Rcce {
    pub(crate) fn new(ctx: Rc<RankCtx>) -> Self {
        Rcce { ctx }
    }

    /// This UE's rank (`RCCE_ue()`).
    pub fn id(&self) -> usize {
        self.ctx.rank
    }

    /// Number of UEs in the session (`RCCE_num_ues()`).
    pub fn num_ues(&self) -> usize {
        self.ctx.num_ranks()
    }

    /// The physical core this UE runs on.
    pub fn who(&self) -> scc::geometry::GlobalCore {
        self.ctx.who()
    }

    /// The simulation clock.
    pub fn sim(&self) -> &des::Sim {
        self.ctx.core.sim()
    }

    /// Current simulated time in core cycles.
    pub fn now(&self) -> des::Cycles {
        self.ctx.core.sim().now()
    }

    /// Direct access to the core (the way in for one-sided *gory* code).
    pub fn core(&self) -> &CoreHandle {
        &self.ctx.core
    }

    /// The rank context (used by the vSCC scheme implementations).
    pub fn ctx(&self) -> &Rc<RankCtx> {
        &self.ctx
    }

    /// Charge `flops` of local computation time.
    pub async fn compute(&self, flops: u64) {
        self.ctx.core.compute(flops).await;
    }

    // ------------------------------------------------------------------
    // Non-gory two-sided interface
    // ------------------------------------------------------------------

    /// Blocking send (`RCCE_send`): returns when `dest` has received.
    pub async fn send(&self, data: &[u8], dest: usize) {
        self.check_dest(dest);
        send_locked(&self.ctx, data, dest).await;
    }

    /// Reject sends RCCE forbids, at the call rather than in a task.
    pub(crate) fn check_dest(&self, dest: usize) {
        assert!(dest < self.num_ues(), "send to invalid rank {dest}");
        assert_ne!(dest, self.id(), "RCCE forbids self-sends");
    }

    /// Blocking receive (`RCCE_recv`): fills `buf` from `src`.
    pub async fn recv(&self, buf: &mut [u8], src: usize) {
        assert!(src < self.num_ues(), "recv from invalid rank {src}");
        assert_ne!(src, self.id(), "RCCE forbids self-receives");
        let start = self.now();
        let lock = self.ctx.recv_lock();
        lock.lock().await;
        let flow = self.ctx.session.next_recv_flow(src, self.id());
        let proto = self.ctx.session.proto(src, self.id());
        proto.recv(&self.ctx, src, buf, flow).await;
        lock.unlock();
        self.ctx.session.rcce_metrics().recv_lat[size_class(buf.len())].record(self.now() - start);
    }

    /// Convenience: receive a message of known length into a new buffer.
    pub async fn recv_vec(&self, len: usize, src: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.recv(&mut buf, src).await;
        buf
    }
}

/// The one send body behind [`Rcce::send`] and [`Rcce::isend`]: record
/// the traffic, wait for the UE's send lock, then run the pair's
/// protocol. The flow id is allocated after the grant, so ids follow the
/// lock's FIFO grant order and the n-th send of a pair matches the n-th
/// receive (determinism invariant #1).
pub(crate) async fn send_locked(ctx: &RankCtx, data: &[u8], dest: usize) {
    let session = &ctx.session;
    let me = ctx.rank;
    session.record_traffic(me, dest, data.len() as u64);
    let metrics = session.rcce_metrics();
    let start = session.sim().now();
    let lock = ctx.send_lock();
    lock.lock().await;
    let acquired = session.sim().now();
    let flow = session.next_send_flow(me, dest);
    // The span starts at the request; it is recorded once the grant
    // fixed the flow id.
    session.trace().span(
        start,
        acquired,
        Category::Protocol,
        "send_lock",
        Some(flow),
        || ctx.label.clone(),
        || des::fields![dest = dest, bytes = data.len()],
    );
    metrics.send_lock_wait.add(acquired - start);
    ctx.enter_send(flow);
    session.proto(me, dest).send(ctx, dest, data, flow).await;
    ctx.exit_send();
    metrics.send_lock_hold.record(session.sim().now() - acquired);
    lock.unlock();
    metrics.send_lat[size_class(data.len())].record(session.sim().now() - start);
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
    fn send_recv_roundtrip_small() {
        let sim = Sim::new();
        let s = session(&sim, 2);
        let out = s
            .run_app(|r| async move {
                if r.id() == 0 {
                    r.send(b"hello scc", 1).await;
                    0u8
                } else {
                    let got = r.recv_vec(9, 0).await;
                    assert_eq!(&got, b"hello scc");
                    1u8
                }
            })
            .unwrap();
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn send_recv_multi_chunk() {
        let sim = Sim::new();
        let s = session(&sim, 2);
        let msg: Vec<u8> = (0..40_000u32).map(|x| (x % 251) as u8).collect();
        let expect = msg.clone();
        s.run_app(move |r| {
            let msg = msg.clone();
            let expect = expect.clone();
            async move {
                if r.id() == 0 {
                    r.send(&msg, 1).await;
                } else {
                    let got = r.recv_vec(expect.len(), 0).await;
                    assert_eq!(got, expect);
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn zero_length_message_synchronizes() {
        let sim = Sim::new();
        let s = session(&sim, 2);
        s.run_app(|r| async move {
            if r.id() == 0 {
                r.compute(5_000).await;
                r.send(&[], 1).await;
            } else {
                r.recv(&mut [], 0).await;
                // Receiver cannot pass the empty message before the
                // sender reached its send.
                assert!(r.now() >= 5_000);
            }
        })
        .unwrap();
    }

    #[test]
    fn consecutive_messages_same_pair() {
        let sim = Sim::new();
        let s = session(&sim, 2);
        s.run_app(|r| async move {
            for i in 0..5u8 {
                if r.id() == 0 {
                    r.send(&[i; 100], 1).await;
                } else {
                    let got = r.recv_vec(100, 0).await;
                    assert_eq!(got, vec![i; 100]);
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn bidirectional_exchange() {
        let sim = Sim::new();
        let s = session(&sim, 2);
        s.run_app(|r| async move {
            if r.id() == 0 {
                r.send(&[1; 64], 1).await;
                let got = r.recv_vec(64, 1).await;
                assert_eq!(got, vec![2; 64]);
            } else {
                let got = r.recv_vec(64, 0).await;
                assert_eq!(got, vec![1; 64]);
                r.send(&[2; 64], 0).await;
            }
        })
        .unwrap();
    }

    #[test]
    fn many_ranks_ring() {
        let sim = Sim::new();
        let s = session(&sim, 8);
        s.run_app(|r| async move {
            let n = r.num_ues();
            let next = (r.id() + 1) % n;
            let prev = (r.id() + n - 1) % n;
            // Ring shift: everyone sends its rank to the successor.
            let payload = vec![r.id() as u8; 256];
            if r.id() % 2 == 0 {
                r.send(&payload, next).await;
                let got = r.recv_vec(256, prev).await;
                assert_eq!(got, vec![prev as u8; 256]);
            } else {
                let got = r.recv_vec(256, prev).await;
                assert_eq!(got, vec![prev as u8; 256]);
                r.send(&payload, next).await;
            }
        })
        .unwrap();
    }

    #[test]
    fn traffic_is_recorded() {
        let sim = Sim::new();
        let s = session(&sim, 2);
        s.run_app(|r| async move {
            if r.id() == 0 {
                r.send(&[0; 1000], 1).await;
            } else {
                r.recv(&mut [0; 1000], 0).await;
            }
        })
        .unwrap();
        assert_eq!(s.traffic_matrix()[0][1], 1000);
        assert_eq!(s.message_matrix()[0][1], 1);
    }

    #[test]
    fn pipelined_protocol_session() {
        let sim = Sim::new();
        let dev = SccDevice::new(&sim, DeviceId(0));
        let s = SessionBuilder::new(&sim, vec![dev])
            .max_ranks(2)
            .onchip_protocol(std::rc::Rc::new(crate::PipelinedProtocol::default()))
            .build();
        let msg: Vec<u8> = (0..20_000u32).map(|x| (x * 7 % 256) as u8).collect();
        let expect = msg.clone();
        s.run_app(move |r| {
            let msg = msg.clone();
            let expect = expect.clone();
            async move {
                if r.id() == 0 {
                    r.send(&msg, 1).await;
                } else {
                    let got = r.recv_vec(expect.len(), 0).await;
                    assert_eq!(got, expect);
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn pipelined_faster_than_blocking_for_large_messages() {
        let run = |pipelined: bool| -> u64 {
            let sim = Sim::new();
            let dev = SccDevice::new(&sim, DeviceId(0));
            let mut b = SessionBuilder::new(&sim, vec![dev]).max_ranks(2);
            if pipelined {
                b = b.onchip_protocol(std::rc::Rc::new(crate::PipelinedProtocol::default()));
            }
            let s = b.build();
            s.run_app(|r| async move {
                let msg = vec![7u8; 64 * 1024];
                if r.id() == 0 {
                    r.send(&msg, 1).await;
                } else {
                    let mut buf = vec![0u8; 64 * 1024];
                    r.recv(&mut buf, 0).await;
                }
            })
            .unwrap();
            sim.now()
        };
        let t_block = run(false);
        let t_pipe = run(true);
        assert!(
            t_pipe * 10 < t_block * 9,
            "pipelined ({t_pipe}) should beat blocking ({t_block}) by >10%"
        );
    }
}
