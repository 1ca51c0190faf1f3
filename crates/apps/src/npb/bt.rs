//! The BT (block-tridiagonal) benchmark: multi-partition decomposition.
//!
//! BT solves three sets of block-tridiagonal systems per iteration (ADI
//! sweeps in x, y, z) on an N³ grid. The MPI/RCCE version uses the
//! *multi-partition* scheme: P = q² processors, each owning q cells laid
//! out along diagonals, so every processor is active in every stage of
//! every sweep. The resulting messages go to a fixed set of neighbours in
//! the q×q processor grid:
//!
//! * x sweep: forward to (pi+1, pj), backward to (pi−1, pj);
//! * y sweep: forward to (pi, pj+1), backward to (pi, pj−1);
//! * z sweep: forward to (pi−1, pj−1), backward to (pi+1, pj+1);
//! * `copy_faces` at the top of each iteration exchanges ghost faces with
//!   all six of those neighbours.
//!
//! With ranks laid out linearly over the devices (the vSCC mapping),
//! these neighbours produce exactly the near-diagonal traffic matrix of
//! the paper's Fig. 8.

use std::cell::Cell;
use std::rc::Rc;

use des::{Cycles, SimError};
use rcce::{Rcce, Session};

/// NPB problem classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BtClass {
    /// 12³, sample size.
    S,
    /// 24³, workstation size.
    W,
    /// 64³.
    A,
    /// 102³.
    B,
    /// 162³ — the class the paper evaluates (Fig. 7).
    C,
}

impl BtClass {
    /// Grid points per dimension.
    pub fn n(self) -> usize {
        match self {
            BtClass::S => 12,
            BtClass::W => 24,
            BtClass::A => 64,
            BtClass::B => 102,
            BtClass::C => 162,
        }
    }

    /// Full NPB iteration count (what Fig. 7/8 correspond to).
    pub fn full_iterations(self) -> usize {
        match self {
            BtClass::S => 60,
            _ => 200,
        }
    }

    /// Class name as NPB prints it.
    pub fn name(self) -> &'static str {
        match self {
            BtClass::S => "S",
            BtClass::W => "W",
            BtClass::A => "A",
            BtClass::B => "B",
            BtClass::C => "C",
        }
    }
}

/// FLOPs per grid point per iteration, calibrated from the published NPB
/// BT operation count (class A: 168.3 Gop over 64³ points × 200
/// iterations ⇒ ≈ 3211 flop/point/iteration).
pub const FLOPS_PER_POINT: u64 = 3211;

/// BT run configuration.
#[derive(Debug, Clone)]
pub struct BtConfig {
    /// Problem class.
    pub class: BtClass,
    /// Number of ranks; must be a square (1, 4, 9, 16, …).
    pub ranks: usize,
    /// Untimed warm-up iterations.
    pub warmup: usize,
    /// Timed iterations (throughput is steady-state, so a few suffice;
    /// Fig. 8 scales traffic to the full count).
    pub measured: usize,
}

impl BtConfig {
    /// Standard configuration: 1 warm-up + 3 timed iterations.
    pub fn new(class: BtClass, ranks: usize) -> Self {
        BtConfig { class, ranks, warmup: 1, measured: 3 }
    }

    /// q = √ranks.
    pub fn q(&self) -> usize {
        let q = (self.ranks as f64).sqrt().round() as usize;
        assert_eq!(q * q, self.ranks, "BT needs a square number of processes");
        q
    }

    /// Grid points per cell edge (ceil split, like NPB).
    pub fn cell_edge(&self) -> usize {
        self.class.n().div_ceil(self.q())
    }

    /// Bytes of one forward solve-info message: 22 doubles per face point
    /// (NPB `x_send_solve_info`).
    pub fn solve_msg_bytes(&self) -> usize {
        22 * 8 * self.cell_edge() * self.cell_edge()
    }

    /// Bytes of one back-substitution message: 10 doubles per face point.
    pub fn backsub_msg_bytes(&self) -> usize {
        10 * 8 * self.cell_edge() * self.cell_edge()
    }

    /// Bytes of one `copy_faces` exchange per direction: q cells × 2
    /// ghost layers × 5 components per face point.
    pub fn face_msg_bytes(&self) -> usize {
        self.q() * 2 * 5 * 8 * self.cell_edge() * self.cell_edge()
    }

    /// Total FLOPs of one iteration over all ranks.
    pub fn iter_flops(&self) -> u64 {
        let n = self.class.n() as u64;
        FLOPS_PER_POINT * n * n * n
    }

    /// Total FLOPs of the timed window.
    pub fn measured_flops(&self) -> u64 {
        self.iter_flops() * self.measured as u64
    }
}

/// Result of a BT run.
#[derive(Debug, Clone)]
pub struct BtResult {
    /// Simulated cycles of the timed window.
    pub cycles: Cycles,
    /// GFLOP/s over the timed window (Fig. 7's metric).
    pub gflops: f64,
    /// Whether every message carried the expected verification payload.
    pub verified: bool,
    /// Messages exchanged in total (timed + warm-up).
    pub messages: u64,
}

/// Per-rank BT process.
struct BtRank {
    r: Rcce,
    cfg: BtConfig,
    q: usize,
    pi: usize,
    pj: usize,
    ok: bool,
    messages: u64,
}

impl BtRank {
    fn rank_of(&self, pi: usize, pj: usize) -> usize {
        (pj % self.q) * self.q + (pi % self.q)
    }

    fn neighbour(&self, di: isize, dj: isize) -> usize {
        let q = self.q as isize;
        let pi = ((self.pi as isize + di) % q + q) % q;
        let pj = ((self.pj as isize + dj) % q + q) % q;
        self.rank_of(pi as usize, pj as usize)
    }

    /// The message `src` sends in (`iter`, `phase`, `stage`): `len`
    /// copies of the fill byte, the first up-to-8 overwritten by the
    /// header.
    fn payload(len: usize, iter: usize, phase: u8, stage: usize, src: usize) -> Vec<u8> {
        let (fill, header) = Self::pattern(iter, phase, stage, src);
        let mut v = vec![fill; len];
        let k = len.min(8);
        v[..k].copy_from_slice(&header[..k]);
        v
    }

    /// Fill byte and header of [`BtRank::payload`].
    fn pattern(iter: usize, phase: u8, stage: usize, src: usize) -> (u8, [u8; 8]) {
        let fill = (iter as u8) ^ (stage as u8).wrapping_mul(37) ^ phase;
        let header =
            ((iter as u64) << 32) | ((phase as u64) << 24) | ((stage as u64) << 12) | src as u64;
        (fill, header.to_le_bytes())
    }

    /// Index of the first byte of `buf` that differs from the payload
    /// `src` sends in (`iter`, `phase`, `stage`), checked in place.
    fn first_bad(buf: &[u8], iter: usize, phase: u8, stage: usize, src: usize) -> Option<usize> {
        const BLOCK: usize = 256;
        let (fill, header) = Self::pattern(iter, phase, stage, src);
        let k = buf.len().min(8);
        if let Some(i) = buf[..k].iter().zip(&header).position(|(a, b)| a != b) {
            return Some(i);
        }
        // OR-fold each block branch-free (it vectorises); search a block
        // byte by byte only once it is known to hold a mismatch.
        buf[k..].chunks(BLOCK).enumerate().find_map(|(c, block)| {
            let diff = block.iter().fold(0, |acc, &b| acc | (b ^ fill));
            (diff != 0).then(|| k + c * BLOCK + block.iter().position(|&b| b != fill).unwrap())
        })
    }

    async fn exchange(
        &mut self,
        to: usize,
        from: usize,
        len: usize,
        iter: usize,
        phase: u8,
        stage: usize,
    ) {
        let me = self.r.id();
        // Deadlock-free pairwise exchange on a torus: lower rank sends
        // first. (NPB posts receives early; this is the blocking-RCCE
        // equivalent.) Every rank sits in here at once during
        // `copy_faces`, so each side holds one face buffer at a time:
        // the payload is dropped before the receive buffer exists, and
        // the receive buffer is dropped before the payload is built.
        if me < to.min(from) || (to == from && me < to) {
            self.send_face(to, len, iter, phase, stage).await;
            self.recv_stage(from, len, iter, phase, stage).await;
        } else {
            self.recv_stage(from, len, iter, phase, stage).await;
            self.send_face(to, len, iter, phase, stage).await;
        }
    }

    /// Blocking send of this rank's payload, dropped once sent.
    async fn send_face(&mut self, to: usize, len: usize, iter: usize, phase: u8, stage: usize) {
        let out = Self::payload(len, iter, phase, stage, self.r.id());
        self.r.send(&out, to).await;
        self.messages += 1;
    }

    /// Non-blocking stage send (the RCCE BT port posts its solve-info
    /// sends with iRCCE so the sweep can progress to its own receive).
    fn isend_stage(
        &mut self,
        to: usize,
        len: usize,
        iter: usize,
        phase: u8,
        stage: usize,
    ) -> rcce::ircce::SendRequest {
        let out = Self::payload(len, iter, phase, stage, self.r.id());
        self.messages += 1;
        self.r.isend(out, to)
    }

    /// Receive into a zeroed buffer (stale bytes cannot pass the check),
    /// verify it in place and drop it.
    async fn recv_stage(&mut self, from: usize, len: usize, iter: usize, phase: u8, stage: usize) {
        let mut buf = vec![0u8; len];
        self.r.recv(&mut buf, from).await;
        if let Some(first_bad) = Self::first_bad(&buf, iter, phase, stage, from) {
            // Structured record for the trace export.
            self.r.ctx().session.trace().instant(
                self.r.sim().now(),
                des::trace::Category::App,
                "bt_payload_mismatch",
                None,
                || self.r.ctx().label.clone(),
                || {
                    des::fields![
                        src = from as u64,
                        iter = iter as u64,
                        phase = phase as u64,
                        stage = stage as u64,
                        len = len as u64,
                        first_bad = first_bad as u64
                    ]
                },
            );
            self.ok = false;
        }
        self.messages += 1;
    }

    /// One ADI sweep in the direction whose forward neighbour is
    /// `(di, dj)`: q forward elimination stages, then q back-substitution
    /// stages, with the per-stage cell compute charged in between.
    async fn sweep(&mut self, di: isize, dj: isize, iter: usize, phase: u8) {
        let q = self.q;
        let fwd = self.neighbour(di, dj);
        let bwd = self.neighbour(-di, -dj);
        let solve = self.cfg.solve_msg_bytes();
        let back = self.cfg.backsub_msg_bytes();
        // 22% of the iteration's per-rank flops per sweep, half in the
        // forward elimination, half in the back substitution.
        let per_rank = self.cfg.iter_flops() / self.cfg.ranks as u64;
        let stage_flops = per_rank * 22 / 100 / (2 * q as u64);
        let mut outstanding = Vec::with_capacity(2 * q);
        for stage in 0..q {
            if stage > 0 {
                self.recv_stage(bwd, solve, iter, phase, stage).await;
            }
            self.r.compute(stage_flops).await;
            if stage < q - 1 {
                outstanding.push(self.isend_stage(fwd, solve, iter, phase, stage + 1));
            }
        }
        for stage in (0..q).rev() {
            if stage < q - 1 {
                self.recv_stage(fwd, back, iter, phase + 1, stage).await;
            }
            self.r.compute(stage_flops).await;
            if stage > 0 {
                outstanding.push(self.isend_stage(bwd, back, iter, phase + 1, stage - 1));
            }
        }
        for req in outstanding {
            req.wait().await;
        }
    }

    async fn copy_faces(&mut self, iter: usize) {
        if self.q == 1 {
            return; // single processor: no ghost faces to exchange
        }
        let len = self.cfg.face_msg_bytes();
        // Six directions: ±x, ±y, ±z (z neighbours are the diagonals).
        let dirs: [(isize, isize); 3] = [(1, 0), (0, 1), (-1, -1)];
        for (d, (di, dj)) in dirs.into_iter().enumerate() {
            let plus = self.neighbour(di, dj);
            let minus = self.neighbour(-di, -dj);
            self.exchange(plus, minus, len, iter, 10 + d as u8 * 2, 0).await;
            self.exchange(minus, plus, len, iter, 11 + d as u8 * 2, 0).await;
        }
    }

    async fn iteration(&mut self, iter: usize) {
        let per_rank = self.cfg.iter_flops() / self.cfg.ranks as u64;
        self.copy_faces(iter).await;
        // compute_rhs: 25% of the iteration.
        self.r.compute(per_rank / 4).await;
        self.sweep(1, 0, iter, 0).await; // x
        self.sweep(0, 1, iter, 2).await; // y
        self.sweep(-1, -1, iter, 4).await; // z
                                           // add: the remaining ~9%.
        self.r.compute(per_rank * 9 / 100).await;
    }
}

/// Run BT on an existing session (the session must have exactly
/// `cfg.ranks` ranks). Returns the Fig. 7 metrics.
pub fn run_bt(session: &Session, cfg: &BtConfig) -> Result<BtResult, SimError> {
    assert_eq!(session.num_ranks(), cfg.ranks, "session size must match BT process count");
    assert!(cfg.q() <= cfg.class.n(), "more partitions than grid points per dimension");
    let t0 = Rc::new(Cell::new(0u64));
    let t1 = Rc::new(Cell::new(0u64));
    let cfg2 = cfg.clone();
    let results = session.run_app(move |r| {
        let cfg = cfg2.clone();
        let (t0, t1) = (t0.clone(), t1.clone());
        async move {
            let q = cfg.q();
            let me = r.id();
            let mut bt =
                BtRank { r: r.clone(), q, pi: me % q, pj: me / q, cfg, ok: true, messages: 0 };
            for iter in 0..bt.cfg.warmup {
                bt.iteration(iter).await;
            }
            r.barrier().await;
            if me == 0 {
                t0.set(r.now());
            }
            for iter in 0..bt.cfg.measured {
                bt.iteration(bt.cfg.warmup + iter).await;
            }
            r.barrier().await;
            if me == 0 {
                t1.set(r.now());
            }
            (bt.ok, bt.messages, t0.get(), t1.get())
        }
    })?;
    let verified = results.iter().all(|(ok, _, _, _)| *ok);
    let messages = results.iter().map(|(_, m, _, _)| m).sum();
    let (_, _, start, end) = results[0];
    let cycles = end - start;
    let secs = cycles as f64 / (des::time::CORE_FREQ.as_mhz() as f64 * 1e6);
    let gflops = cfg.measured_flops() as f64 / secs / 1e9;
    Ok(BtResult { cycles, gflops, verified, messages })
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::Sim;
    use rcce::SessionBuilder;
    use scc::device::SccDevice;
    use scc::geometry::DeviceId;

    fn onchip_session(sim: &Sim, ranks: usize) -> Session {
        let dev = SccDevice::new(sim, DeviceId(0));
        SessionBuilder::new(sim, vec![dev]).max_ranks(ranks).build()
    }

    #[test]
    fn class_parameters() {
        assert_eq!(BtClass::C.n(), 162);
        assert_eq!(BtClass::C.full_iterations(), 200);
        assert_eq!(BtClass::S.full_iterations(), 60);
    }

    #[test]
    fn config_geometry() {
        let cfg = BtConfig::new(BtClass::C, 225);
        assert_eq!(cfg.q(), 15);
        assert_eq!(cfg.cell_edge(), 11);
        assert_eq!(cfg.solve_msg_bytes(), 22 * 8 * 121);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_ranks_rejected() {
        BtConfig::new(BtClass::S, 6).q();
    }

    /// The materialised check the in-place one replaced: build the whole
    /// expected message, compare, locate the first differing byte.
    fn oracle_first_bad(
        buf: &[u8],
        iter: usize,
        phase: u8,
        stage: usize,
        src: usize,
    ) -> Option<usize> {
        let len = buf.len();
        let mut expect = vec![(iter as u8) ^ (stage as u8).wrapping_mul(37) ^ phase; len];
        let header =
            ((iter as u64) << 32) | ((phase as u64) << 24) | ((stage as u64) << 12) | src as u64;
        let h = header.to_le_bytes();
        let k = len.min(8);
        expect[..k].copy_from_slice(&h[..k]);
        if buf == expect {
            return None;
        }
        Some(buf.iter().zip(&expect).position(|(a, b)| a != b).unwrap())
    }

    #[test]
    fn in_place_check_agrees_with_materialised_oracle() {
        let (iter, phase, stage, src) = (3, 11, 7, 42);
        for len in [1, 7, 8, 9, 4096, 145_200] {
            let sent = BtRank::payload(len, iter, phase, stage, src);
            assert_eq!(oracle_first_bad(&sent, iter, phase, stage, src), None);
            for bad in [None, Some(0), Some(7), Some(8), Some(len - 1)] {
                let mut buf = sent.clone();
                if let Some(at) = bad.filter(|&at| at < len) {
                    // Corrupt the last byte too: the check must name the first.
                    for i in [at, len - 1] {
                        buf[i] = !sent[i];
                    }
                }
                let want = oracle_first_bad(&buf, iter, phase, stage, src);
                assert_eq!(want, bad.filter(|&at| at < len), "len {len}");
                assert_eq!(BtRank::first_bad(&buf, iter, phase, stage, src), want, "len {len}");
            }
            // The check is bound to the sender: another source's header fails.
            let other = BtRank::first_bad(&sent, iter, phase, stage, src + 1);
            assert_eq!(other, oracle_first_bad(&sent, iter, phase, stage, src + 1));
            assert_eq!(other, Some(0));
        }
    }

    #[test]
    fn bt_class_s_single_rank() {
        let sim = Sim::new();
        let s = onchip_session(&sim, 1);
        let cfg = BtConfig::new(BtClass::S, 1);
        let res = run_bt(&s, &cfg).unwrap();
        assert!(res.verified);
        // One rank: pure compute, so GFLOP/s ~ peak 0.533.
        assert!((0.4..0.54).contains(&res.gflops), "1-rank BT at {} GF/s", res.gflops);
    }

    #[test]
    fn bt_class_s_four_ranks_verified() {
        let sim = Sim::new();
        let s = onchip_session(&sim, 4);
        let cfg = BtConfig::new(BtClass::S, 4);
        let res = run_bt(&s, &cfg).unwrap();
        assert!(res.verified, "payload verification failed");
        assert!(res.messages > 0);
        assert!(res.gflops > 0.5, "4 ranks should beat 1 rank: {}", res.gflops);
    }

    #[test]
    fn bt_scales_on_chip() {
        let gf = |ranks| {
            let sim = Sim::new();
            let s = onchip_session(&sim, ranks);
            run_bt(&s, &BtConfig::new(BtClass::W, ranks)).unwrap().gflops
        };
        let g1 = gf(1);
        let g4 = gf(4);
        let g16 = gf(16);
        assert!(g4 > 2.0 * g1, "4 ranks {g4} should be >2x 1 rank {g1}");
        assert!(g16 > 2.0 * g4, "16 ranks {g16} should be >2x 4 ranks {g4}");
    }

    #[test]
    fn bt_traffic_is_neighbour_dominated() {
        let sim = Sim::new();
        let s = onchip_session(&sim, 16);
        run_bt(&s, &BtConfig::new(BtClass::W, 16)).unwrap();
        let m = crate::traffic::TrafficMatrix::capture(&s);
        // The multipartition pattern is ring/diagonal based: most bytes
        // sit near the (wrapped) diagonal.
        assert!(
            m.neighbour_fraction(5) > 0.6,
            "neighbour fraction {} too low",
            m.neighbour_fraction(5)
        );
        assert!(m.total() > 0);
    }

    #[test]
    fn bt_deterministic() {
        let run = || {
            let sim = Sim::new();
            let s = onchip_session(&sim, 4);
            run_bt(&s, &BtConfig::new(BtClass::S, 4)).unwrap().cycles
        };
        assert_eq!(run(), run());
    }
}
