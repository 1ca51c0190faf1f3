//! §2.3 — instability of the FPGA fast write-acknowledge path.
//!
//! "This option has known stability issues, which prevents a tight
//! coupling of more than two SCC devices and works only for applications
//! with a moderate inter-device communication."
//!
//! The table streams a rising posted-write volume across a device pair
//! under the fast-ack scheme for 2..5 coupled devices and reports lost
//! acknowledges: stable at 2 devices, failing beyond — the reason the
//! 2012 prototype could not scale and the motivation for the
//! host-assisted schemes.
//!
//! A second table re-runs the same seeds with the host recovery layer
//! enabled: lost acks are retransmitted, persistently lossy pairs are
//! demoted to the host-acked path, and every run completes with verified
//! payloads — the "unusable at 3+ devices" cliff becomes a measurable
//! recovered-throughput curve. The legacy columns use the identical
//! seeds and code path, so they stay byte-identical.

use des::faultplan::FaultSpec;
use des::obs::TimeSeries;
use des::Sim;
use vscc::{host::HostConfig, CommScheme, Vscc, VsccBuilder};
use vscc_apps::pingpong;

use crate::{header, row, Observed, Table};

/// Generous per-wait watchdog for the recovered runs: an order of
/// magnitude above the worst legitimate wait (a 7680 B message plus a
/// full retry ladder), so it only trips on a genuine hang.
const WATCHDOG_CYCLES: u64 = 20_000_000;

/// Stream `volume` bytes in messages of up to 7680 B across the measured
/// pair of an `n_devices` system with fast write-acks, seeded `seed`,
/// under `faults`. Rank 1 verifies every payload. Each rank reports
/// (payloads verified, its completion time); the times are taken in-app
/// because watchdog timers can keep the virtual clock ticking after the
/// last rank finishes. `observed` traces every category and samples the
/// run for `VSCC_OBS`. Returns the system (its fast-ack tracker holds
/// the posted writes and lost acks), the rank reports and the sampler.
fn stream(
    n_devices: u8,
    volume: usize,
    seed: u64,
    faults: FaultSpec,
    observed: bool,
) -> (Vscc, Vec<(bool, u64)>, Option<TimeSeries>) {
    let sim = Sim::new();
    let mut builder = VsccBuilder::new(&sim, n_devices)
        .scheme(CommScheme::RemotePutHwAck)
        .host_config(HostConfig { seed, faults, ..HostConfig::default() });
    if observed {
        builder = builder.trace_categories(&des::trace::Category::ALL);
    }
    let v = builder.build();
    let s = pingpong::pair_session(&v).build();
    let series = observed.then(|| v.spawn_sampler(des::obs::DEFAULT_CADENCE));
    let msg = 7680usize.min(volume);
    let msgs = volume / msg;
    let out = s
        .run_app(move |r| async move {
            let mut ok = true;
            for _ in 0..msgs {
                if r.id() == 0 {
                    r.send(&vec![3u8; msg], 1).await;
                } else {
                    let mut buf = vec![0u8; msg];
                    r.recv(&mut buf, 0).await;
                    ok &= buf == vec![3u8; msg];
                }
            }
            (ok, r.now())
        })
        .expect("stability stream must complete");
    (v, out, series)
}

/// Outcome of one recovered stream.
struct Recovered {
    verified: bool,
    lost_acks: u64,
    retransmits: u64,
    demotions: u64,
    fallback_writes: u64,
    /// Pairs probed back to the fast path (DESIGN.md §5h).
    promotions: u64,
    /// Mean demote→re-promote span in kcycles (0 when nothing healed).
    heal_kcycles: f64,
    mbps: f64,
}

/// The same stream with the host recovery layer on: identical seeds and
/// fast-ack draw sequence, but lost acks are retransmitted and lossy
/// pairs demoted instead of poisoning the session.
fn stream_recovered(
    n_devices: u8,
    volume: usize,
    seed: u64,
    observed: bool,
) -> (Recovered, Option<Observed>) {
    let faults = FaultSpec { recovery: true, watchdog: Some(WATCHDOG_CYCLES), ..FaultSpec::none() };
    let (v, out, series) = stream(n_devices, volume, seed, faults, observed);
    let end = out.iter().map(|&(_, t)| t).max().unwrap_or(0);
    let (_writes, lost) = v.host.fastack.stats();
    // Mean demote→re-promote span across the run's health transitions:
    // how long a demoted pair spends earning its way back (§5h).
    let transitions = v.host.health.transitions();
    let mut last_demote: std::collections::BTreeMap<(u8, u8), u64> = Default::default();
    let (mut spans, mut healed) = (0u64, 0u64);
    for t in &transitions {
        match t.trigger {
            "demote" => {
                last_demote.insert(t.pair, t.time);
            }
            "promote" => {
                if let Some(d) = last_demote.remove(&t.pair) {
                    spans += t.time - d;
                    healed += 1;
                }
            }
            _ => {}
        }
    }
    let recovered = Recovered {
        verified: out.iter().all(|&(ok, _)| ok),
        lost_acks: lost,
        retransmits: v.host.rstats.fastack_retransmits.get(),
        demotions: v.host.rstats.demotions.get(),
        fallback_writes: v.host.rstats.fallback_writes.get(),
        promotions: v.host.health.promotions.get(),
        heal_kcycles: if healed > 0 { spans as f64 / healed as f64 / 1000.0 } else { 0.0 },
        mbps: des::time::CORE_FREQ.mbytes_per_sec(volume as u64, end.max(1)),
    };
    (recovered, series.map(|series| Observed::of(&v, series)))
}

/// Streamed volumes, one legacy column each.
const VOLUMES: [usize; 3] = [1 << 20, 4 << 20, 16 << 20];

/// Lost acks per device count and volume, then the heaviest volume again
/// with recovery on.
pub fn table() -> Table {
    let mut table = Table::default();
    let cols: Vec<String> = VOLUMES.iter().map(|v| format!("{}MB", v >> 20)).collect();
    table.line(header("devices", &cols));

    // All (device count, volume) cells are independent worlds: sweep the
    // whole grid across threads, then fold the results back into rows.
    let grid: Vec<(u8, usize, u64)> = (2u8..=5)
        .flat_map(|n| VOLUMES.iter().enumerate().map(move |(i, &vol)| (n, vol, 40 + i as u64)))
        .collect();
    let losses = crate::parallel_sweep(&grid, |&(n, vol, seed)| {
        stream(n, vol, seed, FaultSpec::none(), false).0.host.fastack.stats().1
    });
    let mut failures_at = [0u64; 6];
    for (chunk, n) in losses.chunks(VOLUMES.len()).zip(2u8..=5) {
        let row_vals: Vec<f64> = chunk.iter().map(|&lost| lost as f64).collect();
        failures_at[n as usize] += chunk.iter().sum::<u64>();
        table.line(row(&format!("{n}"), &row_vals));
    }
    table.line(
        "\n(each lost ack destabilizes the session; the paper's prototype could not recover)",
    );
    // Show what the prototype reports for one failing configuration: the
    // StabilityError carries the virtual-clock time and flow id of each
    // lost ack.
    let (v, _, _) = stream(5, 2048 * 7680, 42, FaultSpec::none(), false);
    if let Err(e) = v.host.fastack.check() {
        table.line(format_args!("example diagnosis at 5 devices: {e}"));
    }

    // The same seeds with the host recovery layer on: retransmission and
    // fallback demotion turn the cliff into a throughput curve.
    let cols = ["MB/s", "lost", "retrans", "demoted", "fb_writes", "healed", "t_heal(k)"];
    table.line(format_args!("\n{}", header("devices (with recovery)", &cols.map(String::from))));
    // Heaviest volume only: the interesting regime is where the seed
    // model falls over. Same seed as the legacy 16MB column.
    let counts: Vec<u8> = (2u8..=5).collect();
    let recovered =
        crate::parallel_sweep(&counts, |&n| stream_recovered(n, VOLUMES[2], 42, false).0);
    let mut recovered_any_losses = 0u64;
    for (&n, r) in counts.iter().zip(&recovered) {
        if n >= 3 {
            recovered_any_losses += r.lost_acks;
        }
        table.line(row(
            &format!("{n}{}", if r.verified { "" } else { " (CORRUPT)" }),
            &[
                r.mbps,
                r.lost_acks as f64,
                r.retransmits as f64,
                r.demotions as f64,
                r.fallback_writes as f64,
                r.promotions as f64,
                r.heal_kcycles,
            ],
        ));
    }
    table.line("(same seeds as above; every run completes with verified payloads)");

    table.check(failures_at[2] == 0, "2-device coupling must be stable");
    table.check(
        failures_at[3] + failures_at[4] + failures_at[5] > 0,
        ">=3 coupled devices must show instability under heavy traffic",
    );
    table.check(
        recovered.iter().all(|r| r.verified),
        "recovered runs must deliver verified payloads",
    );
    table.check(
        recovered_any_losses > 0,
        "recovered 3+-device runs should still see base-instability losses",
    );
    table
}

/// The designated run: the 5-device point with recovery on, at the
/// lightest volume (same seed as the legacy 1MB column), so lost acks,
/// retransmits and demotions show on the timeline.
pub fn designated() -> Observed {
    stream_recovered(5, VOLUMES[0], 40, true).1.expect("observed run")
}
