//! Cross-crate integration tests: whole applications over whole systems.

use des::Sim;
use vscc::{CommScheme, OnchipProtocol, VsccBuilder};
use vscc_apps::npb::{run_bt, BtClass, BtConfig};
use vscc_apps::pingpong;
use vscc_apps::stencil::{initial_heat, run_stencil, StencilConfig};
use vscc_apps::traffic::TrafficMatrix;

/// Ranks spread across both devices so halo/sweep traffic crosses the
/// tunnel.
fn split_session(scheme: CommScheme, per_device: usize) -> (Sim, rcce::Session) {
    let sim = Sim::new();
    let v = VsccBuilder::new(&sim, 2).scheme(scheme).build();
    let s = v.session_builder().cores_per_device(per_device).build();
    (sim, s)
}

#[test]
fn stencil_conserves_heat_under_every_scheme() {
    for scheme in CommScheme::ALL {
        let (_sim, s) = split_session(scheme, 2);
        let cfg = StencilConfig { width: 16, height: 16, iterations: 8 };
        let res = run_stencil(&s, &cfg).unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
        assert!(
            (res.total_heat - initial_heat(&cfg)).abs() < 1e-6,
            "{scheme:?} lost heat: {} vs {}",
            res.total_heat,
            initial_heat(&cfg)
        );
    }
}

#[test]
fn stencil_result_identical_across_schemes() {
    // The transport must never change the numerics.
    let mut totals = Vec::new();
    for scheme in CommScheme::ALL {
        let (_sim, s) = split_session(scheme, 2);
        let cfg = StencilConfig { width: 12, height: 12, iterations: 10 };
        totals.push(run_stencil(&s, &cfg).unwrap().residual);
    }
    for w in totals.windows(2) {
        assert!((w[0] - w[1]).abs() < 1e-12, "schemes disagree on the physics: {totals:?}");
    }
}

#[test]
fn bt_verifies_under_every_scheme_cross_device() {
    for scheme in CommScheme::ALL {
        let (_sim, s) = split_session(scheme, 8);
        let mut cfg = BtConfig::new(BtClass::S, 16);
        cfg.measured = 2;
        let res = run_bt(&s, &cfg).unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
        assert!(res.verified, "{scheme:?} corrupted BT payloads");
    }
}

#[test]
fn bt_best_scheme_beats_routing_cross_device() {
    let gf = |scheme| {
        let (_sim, s) = split_session(scheme, 8);
        let mut cfg = BtConfig::new(BtClass::W, 16);
        cfg.measured = 2;
        run_bt(&s, &cfg).unwrap().gflops
    };
    let best = gf(CommScheme::LocalPutLocalGet);
    let worst = gf(CommScheme::SimpleRouting);
    assert!(
        best > 1.5 * worst,
        "host acceleration must clearly win: best {best:.2} vs routing {worst:.2} GF/s"
    );
}

#[test]
fn bt_traffic_matrix_structure() {
    let (_sim, s) = split_session(CommScheme::LocalPutLocalGet, 8);
    let mut cfg = BtConfig::new(BtClass::W, 16);
    cfg.measured = 2;
    run_bt(&s, &cfg).unwrap();
    let m = TrafficMatrix::capture(&s);
    assert!(m.total() > 0);
    assert!(m.inter_device_fraction() > 0.0, "the split run must cross the tunnel");
    assert!(m.neighbour_fraction(5) > 0.5, "BT is neighbourhood-dominated");
    // The render must show the device boundary.
    assert!(m.render().contains('|'));
}

#[test]
fn full_system_240_ranks_barrier_and_reduce() {
    let sim = Sim::new();
    let v = VsccBuilder::new(&sim, 5).scheme(CommScheme::LocalPutLocalGet).build();
    let s = v.session();
    assert_eq!(s.num_ranks(), 240);
    let out = s
        .run_app(|r| async move {
            r.barrier().await;
            let sum = r.allreduce_f64(1.0, rcce::collectives::Op::Sum).await;
            r.barrier().await;
            sum
        })
        .unwrap();
    assert!(out.iter().all(|&x| x == 240.0));
}

#[test]
fn boot_failures_then_application_still_runs() {
    let sim = Sim::new();
    let v = VsccBuilder::new(&sim, 3)
        .scheme(CommScheme::LocalPutLocalGet)
        .boot(scc::device::BootConfig { core_failure_prob: 0.08, seed: 7 })
        .build();
    let alive = v.alive_cores();
    assert!(alive < 144, "failures must drop cores");
    // The startup-script extension compacts ranks over survivors (§4).
    let s = v.session();
    assert_eq!(s.num_ranks(), alive);
    let out = s
        .run_app(|r| async move {
            let n = r.num_ues();
            let next = (r.id() + 1) % n;
            let prev = (r.id() + n - 1) % n;
            let req = r.isend(vec![(r.id() % 251) as u8; 512], next);
            let got = r.recv_vec(512, prev).await;
            req.wait().await;
            got == vec![(prev % 251) as u8; 512]
        })
        .unwrap();
    assert!(out.iter().all(|&ok| ok), "ring exchange over surviving cores failed");
}

#[test]
fn pipelined_onchip_with_vdma_interdevice() {
    // The paper's runtime composes iRCCE on-chip with the host-assisted
    // path across devices.
    let sim = Sim::new();
    let v = VsccBuilder::new(&sim, 2)
        .scheme(CommScheme::LocalPutLocalGet)
        .onchip(OnchipProtocol::Pipelined)
        .build();
    let s = v.session_builder().cores_per_device(4).build();
    let out = s
        .run_app(|r| async move {
            let n = r.num_ues();
            let peer = (r.id() + n / 2) % n; // always cross-device
            let near = r.id() ^ 1; // always same device
            let msg = vec![r.id() as u8; 20_000];
            let a = r.isend(msg.clone(), peer);
            let b = r.isend(msg, near);
            let far = r.recv_vec(20_000, (r.id() + n / 2) % n).await;
            let close = r.recv_vec(20_000, r.id() ^ 1).await;
            a.wait().await;
            b.wait().await;
            far == vec![(peer % 256) as u8; 20_000] && close == vec![(near % 256) as u8; 20_000]
        })
        .unwrap();
    assert!(out.iter().all(|&ok| ok));
}

/// Packet sequence numbers are one-byte wrapping flag counters, so a
/// message of 256 or more packets must wrap them rather than overflow.
/// 512 KiB is 274 vDMA packets of 1,920 B; 491,520 B is 256 packets of
/// the pipelined protocol's 1,920 B slots, confined on a multi-device
/// system.
#[test]
fn messages_of_256_packets_and_more_wrap_their_sequence_counters() {
    let round_trip = |onchip: OnchipProtocol, cores_per_device: usize, size: usize| {
        let sim = Sim::new();
        let v =
            VsccBuilder::new(&sim, 2).scheme(CommScheme::LocalPutLocalGet).onchip(onchip).build();
        let s = v.session_builder().cores_per_device(cores_per_device).build();
        s.run_app(move |r| async move {
            if r.id() > 1 {
                return true;
            }
            let msg: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
            if r.id() == 0 {
                r.send(&msg, 1).await;
                r.recv_vec(size, 1).await == msg
            } else {
                let echo = r.recv_vec(size, 0).await;
                r.send(&echo, 0).await;
                echo == msg
            }
        })
        .unwrap()
    };
    // Ranks 0 and 1 on different devices: the vDMA path.
    let vdma = round_trip(OnchipProtocol::Blocking, 1, 512 * 1024);
    assert!(vdma.iter().all(|&ok| ok), "512 KiB vDMA round trip corrupted: {vdma:?}");
    // Ranks 0 and 1 on one device: the confined pipelined path.
    let onchip = round_trip(OnchipProtocol::Pipelined, 2, 491_520);
    assert!(onchip.iter().all(|&ok| ok), "491,520 B pipelined round trip corrupted: {onchip:?}");
}

#[test]
fn whole_system_runs_are_deterministic() {
    let run = || {
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 2).scheme(CommScheme::LocalPutLocalGet).build();
        let s = v.session_builder().cores_per_device(6).max_ranks(9).build();
        let mut cfg = BtConfig::new(BtClass::S, 9);
        cfg.measured = 2;
        let res = run_bt(&s, &cfg).unwrap();
        (sim.now(), res.cycles, res.messages)
    };
    assert_eq!(run(), run());
}

#[test]
fn fastack_scheme_errors_surface_in_stats() {
    // Heavy traffic on 3 coupled devices must record lost acks.
    let sim = Sim::new();
    let v = VsccBuilder::new(&sim, 3).scheme(CommScheme::RemotePutHwAck).build();
    let s = pingpong::pair_session(&v).build();
    s.run_app(|r| async move {
        for _ in 0..40 {
            if r.id() == 0 {
                r.send(&vec![1u8; 7680], 1).await;
            } else {
                let mut buf = vec![0u8; 7680];
                r.recv(&mut buf, 0).await;
            }
        }
    })
    .unwrap();
    let (writes, _lost) = v.host.fastack.stats();
    assert!(writes > 9_000, "posted-write accounting missing: {writes}");
    assert!(v.host.fastack.loss_probability() > 0.0, "3 devices must be in the unstable regime");
}
