//! Chaos tests for the fault-injection plane + host recovery layer
//! (DESIGN.md §"Fault injection & recovery").
//!
//! The property under test: with a seeded fault plan active and the
//! recovery layer on, every run either completes with verified payloads
//! or fails with a *diagnosed* error (`SimError::Aborted` from a poll
//! watchdog or an exhausted retry ladder, or `Deadlock`). Never a hang,
//! never silent corruption. And every faulty run is deterministic:
//! identical seeds reproduce identical metrics snapshots, traces, and
//! virtual clocks byte for byte.

use des::faultplan::FaultSpec;
use des::obs::Registry;
use des::trace::{Category, SpanPhase, Trace};
use des::{Sim, SimError};
use scc::geometry::CoreId;
use vscc::{CommScheme, VsccBuilder};
use vscc_apps::npb::{run_bt, BtClass, BtConfig};

/// Generous watchdog for recovered runs: well above the worst legitimate
/// wait (a full message plus a complete retry ladder), so it only trips
/// on a genuine hang.
const WATCHDOG: &str = "watchdog=20000000";

/// Everything a chaos run leaves behind, harvested before teardown.
struct ChaosRun {
    /// Per-rank "all my payloads verified" verdicts (Err on abort).
    result: Result<Vec<bool>, SimError>,
    metrics_json: String,
    trace: Trace,
    trace_json: String,
    fault_events: usize,
    checksum_detected: u64,
    tunnel_retries: u64,
    demotions: u64,
    fallback_writes: u64,
    demoted_pairs: usize,
    promotions: u64,
    end: u64,
    /// The run's registry (`pcie.fault.*` says what the plan injected).
    registry: Registry,
}

/// A verified bidirectional ping-pong between core 0 of each device under
/// the given fault spec. Both directions check every received byte, so a
/// corrupted delivery that sneaks past recovery shows up as `ok = false`,
/// not as a passing run.
fn pingpong_chaos(scheme: CommScheme, spec: &str, size: usize, reps: usize) -> ChaosRun {
    let spec = FaultSpec::parse(spec).expect("chaos spec");
    let sim = Sim::new();
    let v = VsccBuilder::new(&sim, 2)
        .scheme(scheme)
        .trace_categories(&Category::ALL)
        .faults(spec)
        .build();
    let reg = v.metrics().clone();
    let a = v.devices[0].global(CoreId(0));
    let b = v.devices[1].global(CoreId(0));
    let s = v.session_builder().participants(vec![a, b]).build();
    let result = s.run_app(move |r| async move {
        let mut ok = true;
        for i in 0..reps {
            let fill = (i as u8).wrapping_mul(31).wrapping_add(7);
            if r.id() == 0 {
                r.send(&vec![fill; size], 1).await;
                let mut back = vec![0u8; size];
                r.recv(&mut back, 1).await;
                ok &= back == vec![fill ^ 0xA5; size];
            } else {
                let mut buf = vec![0u8; size];
                r.recv(&mut buf, 0).await;
                ok &= buf == vec![fill; size];
                r.send(&vec![fill ^ 0xA5; size], 0).await;
            }
        }
        ok
    });
    let rstats = &v.host.rstats;
    ChaosRun {
        metrics_json: reg.snapshot().to_json(),
        trace: v.trace().clone(),
        trace_json: des::obs::chrome_trace_json(&[("chaos", v.trace())]),
        fault_events: v.trace().events_in(Category::Fault).len(),
        checksum_detected: rstats.checksum_detected.get(),
        tunnel_retries: rstats.payload_retries.get()
            + rstats.vdma_retries.get()
            + rstats.prefetch_retries.get()
            + rstats.mmio_retries.get(),
        demotions: rstats.demotions.get(),
        fallback_writes: rstats.fallback_writes.get(),
        demoted_pairs: v.host.demoted_pairs().len(),
        promotions: v.host.health.promotions.get(),
        end: sim.now(),
        result,
        registry: reg,
    }
}

/// A small cross-device NPB BT run (4 ranks, 2 per device) under the
/// given fault spec: `Ok(verified)` or the diagnosed error, plus the
/// run's registry.
fn bt_chaos(spec: &str) -> (Result<bool, SimError>, Registry) {
    let spec = FaultSpec::parse(spec).expect("chaos spec");
    let sim = Sim::new();
    let v = VsccBuilder::new(&sim, 2).scheme(CommScheme::LocalPutLocalGet).faults(spec).build();
    let s = v.session_builder().cores_per_device(2).build();
    let mut cfg = BtConfig::new(BtClass::S, 4);
    cfg.measured = 2;
    (run_bt(&s, &cfg).map(|r| r.verified), v.metrics().clone())
}

/// Each fault key of the spec grammar and the `pcie.fault.*` counter
/// that counts its injections.
const FAULT_COUNTERS: [(&str, &str); 8] = [
    ("drop", "tlp_dropped"),
    ("corrupt", "tlp_corrupted"),
    ("delay", "tlp_delayed"),
    ("linkdown", "link_down_waits"),
    ("stall", "commtask_stalls"),
    ("ackloss", "ack_lost"),
    ("mmio_stuck", "mmio_stuck"),
    ("mmio_garble", "mmio_garbled"),
];

/// Every fault key `spec` sets must have moved its counter: a plan that
/// injects nothing proves nothing about recovery.
fn assert_every_fault_fired(spec: &str, reg: &Registry) {
    for (key, _) in spec.split(',').filter_map(|kv| kv.split_once('=')) {
        if let Some((_, counter)) = FAULT_COUNTERS.iter().find(|(k, _)| *k == key) {
            let fired = reg.counter(&format!("pcie.fault.{counter}")).get();
            assert!(fired > 0, "{spec}: `{key}` never fired (pcie.fault.{counter} = 0)");
        }
    }
}

/// A run that ended acceptably: verified payloads, or a diagnosed error.
/// (A hang would never return; a panic fails the test outright.)
fn acceptable(result: &Result<Vec<bool>, SimError>) -> bool {
    match result {
        Ok(oks) => oks.iter().all(|&ok| ok),
        Err(SimError::Aborted(_) | SimError::Deadlock(_)) => true,
    }
}

/// A seeded fault plan corrupting a tunnel payload is (a) detected by
/// the checksum, (b) retried and recovered, (c) visible as
/// `host.retry.*` metrics and `Fault`-category trace events. An active
/// plan always runs protected, so the same plan without `recovery=on`
/// recovers too instead of delivering the garbled bytes.
#[test]
fn corrupted_tunnel_payload_is_detected_retried_and_recovered() {
    let unflagged = pingpong_chaos(
        CommScheme::LocalPutLocalGet,
        &format!("seed=11,corrupt=0.2,{WATCHDOG}"),
        6000,
        8,
    );
    let oks = unflagged.result.expect("an active plan must run protected");
    assert!(oks.iter().all(|&ok| ok), "without recovery=on every payload must still verify");
    assert!(unflagged.checksum_detected > 0, "without recovery=on the checksum must still run");

    let r = pingpong_chaos(
        CommScheme::LocalPutLocalGet,
        &format!("seed=11,corrupt=0.2,recovery=on,{WATCHDOG}"),
        6000,
        8,
    );
    let oks = r.result.expect("recovery must carry the run to completion");
    assert!(oks.iter().all(|&ok| ok), "every delivered payload must verify");
    assert!(r.checksum_detected > 0, "(a) the checksum must catch injected corruption");
    assert!(r.tunnel_retries > 0, "(b) detected corruption must be retried");
    assert!(r.fault_events > 0, "(c) recovery activity must land in the Fault trace category");
    assert!(
        r.metrics_json.contains("\"host.retry.checksum_detected\""),
        "(c) retry counters must surface in the metrics registry"
    );
    assert!(
        r.trace_json.contains("\"cat\":\"fault\""),
        "(c) Fault events must survive the Chrome export"
    );
}

/// Graceful degradation: a pair losing fast acks on three consecutive
/// messages is demoted from remote-put to the host-acked fallback, and
/// the session still completes with verified payloads.
#[test]
fn lossy_pair_is_demoted_to_the_host_acked_path() {
    let r = pingpong_chaos(
        CommScheme::RemotePutHwAck,
        &format!("seed=12,ackloss=0.05,recovery=on,{WATCHDOG}"),
        7680,
        8,
    );
    let oks = r.result.expect("fallback must carry the run to completion");
    assert!(oks.iter().all(|&ok| ok), "payloads must verify across the demotion");
    assert!(r.demotions >= 1, "a persistently lossy pair must be demoted");
    assert!(r.fallback_writes > 0, "post-demotion writes must use the fallback path");
    // With the self-healing plane, a mildly lossy pair (5% ack loss) may
    // pass its canary probes and re-promote before the run ends — the
    // pair must either still be queryable as demoted, or have healed.
    assert!(
        r.demoted_pairs >= 1 || r.promotions >= 1,
        "the demoted pair must be queryable or probed back to health"
    );
}

/// The self-healing property (DESIGN.md §5h): a pair demoted during an
/// ack-loss storm that *ends* (phase-bounded plan) is probed back to
/// Healthy once the plan goes quiet — zero demoted pairs at the end of
/// the run, with the promotion on the books — and the whole healing arc
/// is deterministic: two identical runs export byte-identical audit
/// digests.
#[test]
fn demoted_pair_heals_after_the_storm_ends() {
    let run = || {
        // Storm then quiet: 80% ack loss on every posted line until cycle
        // 800 k, nothing after. 512 B messages keep the per-burst loss
        // penalty small enough that several bursts land inside the storm
        // (the demotion needs three consecutive lossy ones).
        let spec =
            FaultSpec::parse(&format!("seed=13,ackloss=0.8@..800000,recovery=on,{WATCHDOG}"))
                .expect("healing spec");
        let audit = des::audit::Audit::new(25_000);
        let guard = audit.install();
        let sim = Sim::new();
        // Dense probing so the heal-and-repromote arc fits a fast test;
        // production cadence comes from the PCIe model (DESIGN.md §5h).
        let recovery =
            vscc::host::RecoveryConfig { probe_interval: 20_000, probe_backoff_max: 160_000 };
        let v = VsccBuilder::new(&sim, 2)
            .scheme(CommScheme::RemotePutHwAck)
            .host_config(vscc::host::HostConfig { faults: spec, recovery, ..Default::default() })
            .build();
        let a = v.devices[0].global(CoreId(0));
        let b = v.devices[1].global(CoreId(0));
        let s = v.session_builder().participants(vec![a, b]).build();
        // Hold the virtual clock open past the storm plus the full probe
        // backoff, so the (daemon) probers get to finish the healing arc
        // even after the app's traffic drains.
        let keepalive = sim.clone();
        sim.spawn_named("post-storm-idle", async move {
            keepalive.delay(3_000_000).await;
        });
        let result = s.run_app(move |r| async move {
            let mut ok = true;
            for i in 0..16u32 {
                let fill = (i as u8).wrapping_mul(29).wrapping_add(3);
                if r.id() == 0 {
                    r.send(&vec![fill; 512], 1).await;
                } else {
                    let mut buf = vec![0u8; 512];
                    r.recv(&mut buf, 0).await;
                    ok &= buf == vec![fill; 512];
                }
            }
            ok
        });
        drop(guard);
        let oks = result.expect("healing run must complete");
        assert!(oks.iter().all(|&ok| ok), "payloads must verify across demote and heal");
        assert!(v.host.rstats.demotions.get() >= 1, "the storm must demote the pair");
        assert!(v.host.health.promotions.get() >= 1, "a probe must re-promote the pair");
        assert!(
            v.host.demoted_pairs().is_empty(),
            "no pair may stay demoted once the plan is quiet, got {:?}",
            v.host.health_states()
        );
        (audit.to_json(), sim.now())
    };
    let (audit_a, end_a) = run();
    let (audit_b, end_b) = run();
    assert_eq!(end_a, end_b, "healing runs must land on the same virtual clock");
    assert_eq!(audit_a, audit_b, "healing runs must export byte-identical audit digests");
    match des::audit::diff_exports(&audit_a, &audit_b) {
        Ok(None) => {}
        other => panic!("audit_diff must report no divergence, got {other:?}"),
    }
}

/// The chaos property: seeded fault plans mixing every fault class must
/// end in verified payloads or a diagnosed error — never a hang, never
/// silent corruption. Each plan's seed (or, for the clock-driven stall
/// window, its period) is one under which every fault key fires.
#[test]
fn chaos_plans_end_verified_or_diagnosed() {
    let specs = [
        format!("seed=16,drop=0.02,recovery=on,{WATCHDOG}"),
        format!("seed=14,corrupt=0.05,recovery=on,{WATCHDOG}"),
        format!("seed=3,delay=0.1:5000,recovery=on,{WATCHDOG}"),
        format!("seed=4,linkdown=4000@400000,recovery=on,{WATCHDOG}"),
        format!("seed=5,stall=3000@100000,recovery=on,{WATCHDOG}"),
        format!("seed=6,ackloss=0.01,recovery=on,{WATCHDOG}"),
        format!("seed=25,drop=0.01,corrupt=0.02,delay=0.05:2000,recovery=on,{WATCHDOG}"),
        format!("seed=8,mmio_garble=0.05,recovery=on,{WATCHDOG}"),
    ];
    for spec in &specs {
        // ackloss only bites on the fast-ack scheme; everything else
        // exercises the vDMA tunnel path.
        let scheme = if spec.contains("ackloss") {
            CommScheme::RemotePutHwAck
        } else {
            CommScheme::LocalPutLocalGet
        };
        let r = pingpong_chaos(scheme, spec, 6000, 6);
        assert!(
            acceptable(&r.result),
            "{spec}: run must end verified or diagnosed, got {:?}",
            r.result
        );
        assert_every_fault_fired(spec, &r.registry);
    }
}

/// The same property over a real application: a small cross-device BT
/// run under mixed fault plans verifies or fails diagnosed.
#[test]
fn chaos_plans_over_bt_end_verified_or_diagnosed() {
    let specs = [
        format!("seed=21,drop=0.01,recovery=on,{WATCHDOG}"),
        format!("seed=22,corrupt=0.02,recovery=on,{WATCHDOG}"),
        format!("seed=23,linkdown=3000@500000,stall=2000@400000,recovery=on,{WATCHDOG}"),
        format!("seed=24,drop=0.005,corrupt=0.01,delay=0.02:3000,recovery=on,{WATCHDOG}"),
    ];
    for spec in &specs {
        let (result, reg) = bt_chaos(spec);
        match result {
            Ok(verified) => assert!(verified, "{spec}: BT completed but payloads are corrupt"),
            Err(SimError::Aborted(_) | SimError::Deadlock(_)) => {}
        }
        assert_every_fault_fired(spec, &reg);
    }
}

/// Determinism under faults: two identical faulty runs export
/// byte-identical metrics snapshots and Chrome traces and land on the
/// same virtual clock. The seed is one under which both the drop and the
/// corrupt key fire on this run.
#[test]
fn faulty_runs_are_byte_identical_across_reruns() {
    let spec = format!("seed=27,drop=0.02,corrupt=0.02,recovery=on,{WATCHDOG}");
    let a = pingpong_chaos(CommScheme::LocalPutLocalGet, &spec, 6000, 6);
    let b = pingpong_chaos(CommScheme::LocalPutLocalGet, &spec, 6000, 6);
    assert_eq!(a.metrics_json, b.metrics_json, "faulty metrics must be deterministic");
    assert_eq!(a.trace_json, b.trace_json, "faulty traces must be deterministic");
    assert_eq!(a.end, b.end, "faulty runs must land on the same virtual clock");
    assert_every_fault_fired(&spec, &a.registry);
}

/// Audit determinism under fault plans: a seeded corruption plan and a
/// storm plan (phase-bounded ack-loss burst plus corruption) must each
/// produce the same virtual clock and a byte-identical audited export
/// when run twice. Each run renders on a dedicated thread, so both
/// start from fresh chunk-pool state.
#[test]
fn faulty_audited_exports_are_identical_across_reruns() {
    fn audited_run(scheme: CommScheme, spec: String, size: usize) -> (u64, String) {
        std::thread::spawn(move || {
            let spec = FaultSpec::parse(&spec).expect("chaos spec");
            let (point, audit) = vscc_apps::pingpong::interdevice_audited(
                scheme,
                size,
                4,
                des::audit::DEFAULT_EPOCH_CYCLES,
                None,
                Some(spec),
            );
            (point.cycles, audit.to_json())
        })
        .join()
        .expect("audited chaos run")
    }

    let plans = [
        (
            CommScheme::LocalPutLocalGet,
            format!("seed=61,corrupt=0.05,recovery=on,{WATCHDOG}"),
            6000,
        ),
        (
            CommScheme::RemotePutHwAck,
            format!("seed=29,ackloss=0.6@..600000,corrupt=0.03,recovery=on,{WATCHDOG}"),
            4096,
        ),
    ];
    for (scheme, spec, size) in plans {
        let (end_a, json_a) = audited_run(scheme, spec.clone(), size);
        let (end_b, json_b) = audited_run(scheme, spec.clone(), size);
        assert_eq!(end_a, end_b, "{spec}: virtual clock diverged across reruns");
        assert_eq!(json_a, json_b, "{spec}: audited export diverged across reruns");
    }
}

/// A drop storm past what the retry ladder can absorb must be converted
/// into a diagnosed abort (exhausted retries or a poll-watchdog trip),
/// not an infinite flag poll.
#[test]
fn drop_storm_is_diagnosed_not_hung() {
    let r = pingpong_chaos(
        CommScheme::LocalPutLocalGet,
        &format!("seed=41,drop=0.95,recovery=on,{WATCHDOG}"),
        6000,
        5,
    );
    match r.result {
        Err(SimError::Aborted(msg)) => assert!(
            msg.contains("poll watchdog") || msg.contains("retries exhausted"),
            "abort must carry the diagnosis, got: {msg}"
        ),
        other => panic!("expected a diagnosed abort, got {other:?}"),
    }
    // A vDMA copy whose retries ran out still closes its `vdma` span on
    // the commtask track, after the give-up.
    let events = r.trace.events();
    let giveups: Vec<_> = events.iter().filter(|e| e.kind == "retry_giveup").collect();
    assert!(!giveups.is_empty(), "the storm must exhaust a retry ladder");
    for g in giveups {
        let closed = events.iter().any(|e| {
            e.kind == "vdma"
                && e.phase == SpanPhase::End
                && e.flow == g.flow
                && e.time >= g.time
                && e.actor.starts_with("commtask-d")
        });
        assert!(closed, "flow {:?} gave up at {} without closing its vdma span", g.flow, g.time);
    }
}

/// Fast fixed-seed smoke for `scripts/check.sh`: one corrupting plan,
/// recovered end to end in well under ten seconds.
#[test]
fn smoke_fixed_seed_corruption_recovers() {
    let r = pingpong_chaos(
        CommScheme::LocalPutLocalGet,
        &format!("seed=51,corrupt=0.25,recovery=on,{WATCHDOG}"),
        4096,
        3,
    );
    let oks = r.result.expect("smoke plan must recover");
    assert!(oks.iter().all(|&ok| ok), "smoke payloads must verify");
    assert!(r.checksum_detected > 0 && r.tunnel_retries > 0, "smoke plan must exercise recovery");
}
