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
use des::trace::{Category, Trace};
use des::{Sim, SimError};
use vscc::{CommScheme, VsccBuilder};
use vscc_apps::npb::{run_bt, BtClass, BtConfig};
use vscc_apps::pingpong;
use vscc_bench::recovery;

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
    let s = pingpong::pair_session(&v).build();
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
        trace_json: des::obs::chrome_trace_json("chaos", v.trace()),
        fault_events: v
            .trace()
            .with_events(|ev| ev.iter().filter(|e| e.cat == Category::Fault).count()),
        checksum_detected: rstats.checksum_detected.get(),
        tunnel_retries: rstats.payload_retries.get()
            + rstats.vdma_retries.get()
            + rstats.prefetch_retries.get(),
        demotions: rstats.demotions.get(),
        fallback_writes: rstats.fallback_writes.get(),
        demoted_pairs: v.host.health.fallback_pairs().len(),
        promotions: v.host.health.promotions.get(),
        end: sim.now(),
        result,
        registry: reg,
    }
}

/// A small cross-device NPB BT run (4 ranks, 2 per device) under the
/// given scheme and fault spec: `Ok(verified)` or the diagnosed error,
/// plus the run's registry.
fn bt_chaos(scheme: CommScheme, spec: &str) -> (Result<bool, SimError>, Registry) {
    let spec = FaultSpec::parse(spec).expect("chaos spec");
    let sim = Sim::new();
    let v = VsccBuilder::new(&sim, 2).scheme(scheme).faults(spec).build();
    let s = v.session_builder().cores_per_device(2).build();
    let mut cfg = BtConfig::new(BtClass::S, 4);
    cfg.measured = 2;
    (run_bt(&s, &cfg).map(|r| r.verified), v.metrics().clone())
}

/// Each fault key of the spec grammar and the `pcie.fault.*` counter
/// that counts its injections.
const FAULT_COUNTERS: [(&str, &str); 2] = [("corrupt", "tlp_corrupted"), ("ackloss", "ack_lost")];

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
    assert_every_corruption_was_checksummed(unflagged.checksum_detected, &unflagged.registry);

    let r = pingpong_chaos(
        CommScheme::LocalPutLocalGet,
        &format!("seed=11,corrupt=0.2,recovery=on,{WATCHDOG}"),
        6000,
        8,
    );
    let oks = r.result.expect("recovery must carry the run to completion");
    assert!(oks.iter().all(|&ok| ok), "every delivered payload must verify");
    assert!(r.checksum_detected > 0, "(a) the checksum must catch injected corruption");
    assert_every_corruption_was_checksummed(r.checksum_detected, &r.registry);
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

/// The checksums are computed only on a drawn corruption, so each one the
/// plan injected (`pcie.fault.tlp_corrupted`) must have been compared and
/// caught: none slips through unchecked, and none is counted twice.
fn assert_every_corruption_was_checksummed(checksum_detected: u64, registry: &Registry) {
    let corrupted = registry.counter("pcie.fault.tlp_corrupted").get();
    assert_eq!(
        checksum_detected, corrupted,
        "every drawn corruption must be checksummed and detected"
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

/// A demoted pair's fallback write is a host-acked forward like the
/// local-put schemes' direct write: the commtask's answer sits in a
/// `classify` span on the sender's `commtask-d<N>` track, opening as the
/// write's `pcie_wire` span closes, so `des::critpath` files those cycles
/// under `classify` and not under the sender's put.
#[test]
fn fallback_writes_charge_their_answer_to_classify() {
    let r = pingpong_chaos(
        CommScheme::RemotePutHwAck,
        &format!("seed=12,ackloss=0.05,recovery=on,{WATCHDOG}"),
        7680,
        8,
    );
    assert!(r.fallback_writes > 0, "the plan must demote the pair and route writes around it");
    let events = r.trace.events();
    // Under hw-ack the posted stream's `pcie_wire` spans carry
    // `lost_acks`; the fallback's are the only ones without it.
    let wires: Vec<&des::trace::TraceEvent> = events
        .iter()
        .filter(|e| e.kind == "pcie_wire" && !e.fields.iter().any(|(k, _)| *k == "lost_acks"))
        .collect();
    assert_eq!(wires.len() as u64, r.fallback_writes, "one wire span per fallback write");
    for wire in wires {
        assert!(wire.actor.starts_with("commtask-d"), "fallback wire on {}", wire.actor);
        let answered = events.iter().any(|e| {
            e.kind == "classify"
                && Some(e.time) == wire.end
                && e.actor == wire.actor
                && e.flow == wire.flow
        });
        assert!(
            answered,
            "flow {:?}: fallback write at {} has no classify span on {}",
            wire.flow, wire.time, wire.actor
        );
    }
}

/// The self-healing property (DESIGN.md §5h), on fig_recovery's run: a
/// pair demoted during an ack-loss storm that *ends* (phase-bounded
/// plan) is probed back to Healthy once the plan goes quiet — zero
/// demoted pairs at the end of the run, with the promotion on the books,
/// and every payload verified across demote and heal — and the whole
/// healing arc is deterministic: two identical runs export
/// byte-identical audit digests.
#[test]
fn demoted_pair_heals_after_the_storm_ends() {
    let run = || vscc_bench::audited(None, || recovery::run(recovery::storm(), false).0);
    let (out_a, audit_a) = run();
    let (out_b, audit_b) = run();
    assert!(out_a.demotions >= 1, "the storm must demote the pair");
    assert!(out_a.promotions >= 1, "a probe must re-promote the pair");
    assert_eq!(out_a.still_demoted, 0, "no pair may stay demoted once the plan is quiet");
    assert_eq!(out_a, out_b, "healing runs must complete every message at the same cycle");
    let (audit_a, audit_b) = (audit_a.to_json(), audit_b.to_json());
    assert_eq!(audit_a, audit_b, "healing runs must export byte-identical audit digests");
    match des::audit::diff_exports(&audit_a, &audit_b) {
        Ok(None) => {}
        other => panic!("audit_diff must report no divergence, got {other:?}"),
    }
}

/// The chaos property: seeded fault plans mixing both fault classes must
/// end in verified payloads or a diagnosed error — never a hang, never
/// silent corruption. Corruption runs over each tunnel path (vDMA
/// deliveries, prefetch chunks, posted payloads); ack loss only bites on
/// the fast-ack scheme. Each plan's seed is one under which every fault
/// key fires.
#[test]
fn chaos_plans_end_verified_or_diagnosed() {
    let specs = [
        (CommScheme::LocalPutLocalGet, format!("seed=14,corrupt=0.05,recovery=on,{WATCHDOG}")),
        (CommScheme::LocalPutRemoteGet, format!("seed=16,corrupt=0.05,recovery=on,{WATCHDOG}")),
        (CommScheme::RemotePutHwAck, format!("seed=6,ackloss=0.01,recovery=on,{WATCHDOG}")),
        (
            CommScheme::RemotePutHwAck,
            format!("seed=25,ackloss=0.02,corrupt=0.05,recovery=on,{WATCHDOG}"),
        ),
        (
            CommScheme::RemotePutHwAck,
            format!("seed=8,ackloss=0.5@..400000,corrupt=0.1@200000..,recovery=on,{WATCHDOG}"),
        ),
    ];
    for (scheme, spec) in &specs {
        let r = pingpong_chaos(*scheme, spec, 6000, 6);
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
        (CommScheme::LocalPutLocalGet, format!("seed=22,corrupt=0.02,recovery=on,{WATCHDOG}")),
        (CommScheme::LocalPutRemoteGet, format!("seed=23,corrupt=0.01,recovery=on,{WATCHDOG}")),
        (CommScheme::RemotePutHwAck, format!("seed=21,ackloss=0.01,recovery=on,{WATCHDOG}")),
        (
            CommScheme::RemotePutHwAck,
            format!("seed=24,ackloss=0.005,corrupt=0.01,recovery=on,{WATCHDOG}"),
        ),
    ];
    for (scheme, spec) in &specs {
        let (result, reg) = bt_chaos(*scheme, spec);
        match result {
            Ok(verified) => assert!(verified, "{spec}: BT completed but payloads are corrupt"),
            Err(SimError::Aborted(_) | SimError::Deadlock(_)) => {}
        }
        assert_every_fault_fired(spec, &reg);
    }
}

/// Determinism under faults: two identical faulty runs export
/// byte-identical metrics snapshots and Chrome traces and land on the
/// same virtual clock. The seed is one under which both the corrupt and
/// the ackloss key fire on this run.
#[test]
fn faulty_runs_are_byte_identical_across_reruns() {
    let spec = format!("seed=27,corrupt=0.05,ackloss=0.02,recovery=on,{WATCHDOG}");
    let a = pingpong_chaos(CommScheme::RemotePutHwAck, &spec, 6000, 6);
    let b = pingpong_chaos(CommScheme::RemotePutHwAck, &spec, 6000, 6);
    assert_eq!(a.metrics_json, b.metrics_json, "faulty metrics must be deterministic");
    assert_eq!(a.trace_json, b.trace_json, "faulty traces must be deterministic");
    assert_eq!(a.end, b.end, "faulty runs must land on the same virtual clock");
    assert_every_fault_fired(&spec, &a.registry);
}

/// Audit determinism under fault plans: a seeded corruption plan and a
/// storm plan (phase-bounded ack-loss burst plus corruption) must each
/// produce the same virtual clock and a byte-identical audited export
/// when run twice. Each run renders on a dedicated thread because the
/// audit sink is thread-local.
#[test]
fn faulty_audited_exports_are_identical_across_reruns() {
    fn audited_run(scheme: CommScheme, spec: String, size: usize) -> (u64, String) {
        std::thread::spawn(move || {
            let spec = FaultSpec::parse(&spec).expect("chaos spec");
            let b = pingpong::fig_platform(scheme).faults(spec);
            let ((point, ..), audit) =
                vscc_bench::audited(None, || pingpong::interdevice_run(b, size, 4, None));
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

/// A corruption storm past what the retry ladder can absorb (every
/// attempt of a transfer garbled, `MAX_RETRIES` re-sends included) must
/// be converted into a diagnosed abort (exhausted retries or a
/// poll-watchdog trip), not an infinite flag poll.
#[test]
fn corruption_storm_is_diagnosed_not_hung() {
    let r = pingpong_chaos(
        CommScheme::LocalPutLocalGet,
        &format!("seed=41,corrupt=0.95,recovery=on,{WATCHDOG}"),
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
                && e.flow == g.flow
                && e.end.is_some_and(|end| end >= g.time)
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
