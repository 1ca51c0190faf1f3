//! The per-rank RCCE handle: the API application code programs against.
//!
//! Mirrors the RCCE surface: two-sided `send`/`recv` (*non-gory*), the
//! one-sided *gory* layer (`put`/`get`/flag operations), collectives, and
//! iRCCE's non-blocking send (see [`crate::ircce`]).

use std::rc::Rc;

use scc::geometry::MpbAddr;
use scc::CoreHandle;

use crate::layout;
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

    /// Direct access to the core (escape hatch for gory programs).
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
        assert!(dest < self.num_ues(), "send to invalid rank {dest}");
        assert_ne!(dest, self.id(), "RCCE forbids self-sends");
        self.ctx.session.record_traffic(self.id(), dest, data.len() as u64);
        let metrics = self.ctx.session.rcce_metrics();
        let me = self.id();
        let start = self.now();
        let trace = self.ctx.session.trace().clone();
        let lock = self.ctx.send_lock().clone();
        // Flow allocation order matches lock-holder order because the
        // send lock is a FIFO mutex (determinism invariant #1).
        let flow = self.ctx.session.next_send_flow(me, dest);
        trace.begin(
            self.now(),
            des::trace::Category::Protocol,
            "send_lock",
            Some(flow),
            || self.ctx.label.clone(),
            || des::fields![dest = dest, bytes = data.len()],
        );
        lock.lock().await;
        trace.end(self.now(), des::trace::Category::Protocol, "send_lock", Some(flow), || {
            self.ctx.label.clone()
        });
        metrics.send_lock_wait.add(self.now() - start);
        let acquired = self.now();
        self.ctx.enter_send(flow);
        let proto = self.ctx.session.proto(me, dest);
        proto.send(&self.ctx, dest, data, flow).await;
        self.ctx.exit_send();
        metrics.send_lock_hold.record(self.now() - acquired);
        lock.unlock();
        metrics.send_lat[size_class(data.len())].record(self.now() - start);
    }

    /// Blocking receive (`RCCE_recv`): fills `buf` from `src`.
    pub async fn recv(&self, buf: &mut [u8], src: usize) {
        assert!(src < self.num_ues(), "recv from invalid rank {src}");
        assert_ne!(src, self.id(), "RCCE forbids self-receives");
        let start = self.now();
        let lock = self.ctx.recv_lock(src).clone();
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

    // ------------------------------------------------------------------
    // Gory one-sided interface
    // ------------------------------------------------------------------

    /// `RCCE_put`: copy private data into `target` rank's payload area at
    /// byte `offset`.
    pub async fn put(&self, target: usize, offset: usize, data: &[u8]) {
        let who = self.ctx.session.who(target);
        self.ctx.core.put(layout::payload(who, offset), data, None).await;
    }

    /// `RCCE_get`: copy from `target` rank's payload area into `buf`.
    pub async fn get(&self, target: usize, offset: usize, buf: &mut [u8]) {
        let who = self.ctx.session.who(target);
        self.ctx.core.get(layout::payload(who, offset), buf, None).await;
    }

    /// `RCCE_flag_write` on an arbitrary MPB address.
    pub async fn flag_write(&self, addr: MpbAddr, value: u8) {
        self.ctx.core.flag_write(addr, value, None).await;
    }

    /// `RCCE_wait_until`: spin until the local flag equals `value`.
    pub async fn flag_wait(&self, addr: MpbAddr, value: u8) {
        self.ctx.core.flag_wait(addr, value).await;
    }

    /// Invalidate all MPBT-tagged L1 lines (`RCCE_DCMflush` / `CL1INVMB`).
    pub async fn cl1invmb(&self) {
        self.ctx.core.cl1invmb().await;
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
    fn gory_put_get_with_flags() {
        let sim = Sim::new();
        let s = session(&sim, 2);
        s.run_app(|r| async move {
            let flag = crate::layout::vdma_done_flag(r.ctx().session.who(1));
            if r.id() == 0 {
                // One-sided: write into rank 1's payload, then raise a flag.
                r.put(1, 100, &[42; 32]).await;
                r.flag_write(flag, 1).await;
            } else {
                r.flag_wait(flag, 1).await;
                r.cl1invmb().await;
                let mut buf = [0u8; 32];
                r.get(1, 100, &mut buf).await;
                assert_eq!(buf, [42; 32]);
            }
        })
        .unwrap();
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
