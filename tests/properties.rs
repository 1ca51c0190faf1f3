//! Property-based tests over the core invariants, with `proptest`.
//!
//! The king property: *any* sequence of messages over *any* scheme is
//! delivered byte-exact and in order. The rest pin down the data
//! structures the protocols rely on (counter flags, chunking, the host
//! WCB reassembly, cache selectivity, the executor clock).

use std::collections::HashMap;

use proptest::prelude::*;

use des::faultplan::{FaultSpec, Phase};
use des::Sim;
use rcce::layout::counter_reached;
use rcce::protocol::chunk_ranges;
use scc::cache::L1Model;
use scc::{GlobalCore, LINE_BYTES, MPB_BYTES};
use vscc::{CommScheme, VsccBuilder};

/// Map a generated `(mode, start, len)` triple onto a valid phase bound:
/// unbounded, open-ended, or a proper `[start, start+len)` window.
fn phase_of(mode: u8, start: u64, len: u64) -> Phase {
    match mode % 3 {
        0 => Phase::ALWAYS,
        1 => Phase { start, end: None },
        _ => Phase { start, end: Some(start + len.max(1)) },
    }
}

/// Probabilities as exact binary fractions: `n / 1024` round-trips
/// through `Display` with no decimal noise (any f64 does — Rust prints
/// the shortest uniquely-parsing representation — but fractions keep the
/// generated specs readable in failure output).
fn prob_of(milli: u32) -> f64 {
    milli as f64 / 1024.0
}

/// Reference L1 for `scc::cache::L1Model`: one `HashMap` entry per cached
/// 32 B line, every operation walked line by line.
#[derive(Default)]
struct RefL1 {
    lines: HashMap<(GlobalCore, usize), [u8; LINE_BYTES]>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl RefL1 {
    /// Read `[off, off + len)` of `owner`'s region whose true content is
    /// `mem`: hits serve the cached copy, misses install the line first.
    fn read(&mut self, owner: GlobalCore, off: usize, len: usize, mem: &[u8]) -> Vec<u8> {
        for line in off / LINE_BYTES..=(off + len - 1) / LINE_BYTES {
            if self.lines.contains_key(&(owner, line)) {
                self.hits += 1;
            } else {
                self.misses += 1;
                let at = line * LINE_BYTES;
                self.lines.insert((owner, line), mem[at..at + LINE_BYTES].try_into().unwrap());
            }
        }
        (off..off + len).map(|b| self.lines[&(owner, b / LINE_BYTES)][b % LINE_BYTES]).collect()
    }

    fn write_through(&mut self, owner: GlobalCore, off: usize, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            let byte = off + i;
            if let Some(line) = self.lines.get_mut(&(owner, byte / LINE_BYTES)) {
                line[byte % LINE_BYTES] = b;
            }
        }
    }

    fn invalidate_range(&mut self, owner: GlobalCore, off: usize, len: usize) {
        for line in off / LINE_BYTES..=(off + len - 1) / LINE_BYTES {
            self.lines.remove(&(owner, line));
        }
    }
}

fn scheme_strategy() -> impl Strategy<Value = CommScheme> {
    prop_oneof![
        Just(CommScheme::SimpleRouting),
        Just(CommScheme::RemotePutHwAck),
        Just(CommScheme::RemotePutWcb),
        Just(CommScheme::LocalPutRemoteGet),
        Just(CommScheme::LocalPutLocalGet),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Messages of arbitrary sizes and contents cross the tunnel intact
    /// and in order, under every scheme.
    #[test]
    fn cross_device_stream_is_exact_and_ordered(
        scheme in scheme_strategy(),
        lens in prop::collection::vec(0usize..20_000, 1..5),
        seed in any::<u64>(),
    ) {
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 2).scheme(scheme).build();
        let a = v.devices[0].global(scc::geometry::CoreId(0));
        let b = v.devices[1].global(scc::geometry::CoreId(0));
        let s = v.session_builder().participants(vec![a, b]).build();
        // Deterministic pseudo-random payloads.
        let msgs: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let mut rng = des::rng::DetRng::seed_from(seed ^ i as u64);
                let mut v = vec![0u8; len];
                rng.fill(&mut v);
                v
            })
            .collect();
        let expect = msgs.clone();
        s.run_app(move |r| {
            let msgs = msgs.clone();
            let expect = expect.clone();
            async move {
                if r.id() == 0 {
                    for m in &msgs {
                        r.send(m, 1).await;
                    }
                } else {
                    for e in &expect {
                        let got = r.recv_vec(e.len(), 0).await;
                        assert_eq!(&got, e, "stream corrupted under {:?}", scheme);
                    }
                }
            }
        })
        .unwrap();
    }

    /// Bidirectional random traffic between two cross-device ranks.
    #[test]
    fn cross_device_bidirectional(
        scheme in scheme_strategy(),
        len_a in 1usize..10_000,
        len_b in 1usize..10_000,
    ) {
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 2).scheme(scheme).build();
        let a = v.devices[0].global(scc::geometry::CoreId(0));
        let b = v.devices[1].global(scc::geometry::CoreId(0));
        let s = v.session_builder().participants(vec![a, b]).build();
        s.run_app(move |r| async move {
            if r.id() == 0 {
                let req = r.isend(vec![0xA1; len_a], 1);
                let got = r.recv_vec(len_b, 1).await;
                req.wait().await;
                assert_eq!(got, vec![0xB2; len_b]);
            } else {
                let req = r.isend(vec![0xB2; len_b], 0);
                let got = r.recv_vec(len_a, 0).await;
                req.wait().await;
                assert_eq!(got, vec![0xA1; len_a]);
            }
        })
        .unwrap();
    }

    /// chunk_ranges tiles [0, len) exactly, in order, within the chunk cap.
    #[test]
    fn chunk_ranges_tile_exactly(len in 0usize..100_000, chunk in 1usize..9_000) {
        let ranges: Vec<_> = chunk_ranges(len, chunk).collect();
        prop_assert!(!ranges.is_empty());
        if len == 0 {
            prop_assert_eq!(ranges, vec![(0, 0)]);
        } else {
            prop_assert_eq!(ranges[0].0, 0);
            prop_assert_eq!(ranges.last().unwrap().1, len);
            for w in ranges.windows(2) {
                prop_assert_eq!(w[0].1, w[1].0);
            }
            for (lo, hi) in ranges {
                prop_assert!(hi > lo && hi - lo <= chunk);
            }
        }
    }

    /// Wrapping counter comparison is consistent with bounded distance:
    /// a counter at distance < 128 ahead of the target is "reached".
    #[test]
    fn counter_reached_window(target in any::<u8>(), ahead in 0u8..128) {
        let value = target.wrapping_add(ahead);
        prop_assert!(counter_reached(value, target));
        // And strictly behind (1..=128) is not reached.
        let behind = target.wrapping_sub(ahead).wrapping_sub(1);
        prop_assert!(!counter_reached(behind, target));
    }

    /// The host WCB reassembles any *linear* write stream exactly. (A
    /// sender emits its chunk bytes in address order; the WCB does not
    /// order overlapping runs, and the protocols never produce them —
    /// see `hostwcb` docs.)
    #[test]
    fn wcb_reassembles_any_pattern(
        granularity in 1usize..2_048,
        pieces in prop::collection::vec((0usize..400, 1usize..700), 1..12),
    ) {
        let wcb = vscc::hostwcb::HostWcb::new(granularity, &des::obs::Registry::new());
        let dst = scc::GlobalCore::new(1, 0);
        let mut shadow = vec![0u8; scc::MPB_BYTES];
        let mut touched = vec![false; scc::MPB_BYTES];
        let mut delivered: Vec<vscc::hostwcb::PendingRun> = Vec::new();
        let mut cursor = 0usize;
        for (i, (gap, len)) in pieces.iter().enumerate() {
            let off = (cursor + gap).min(scc::MPB_BYTES - len);
            cursor = off + len;
            let data = vec![(i % 251) as u8 + 1; *len];
            shadow[off..off + len].copy_from_slice(&data);
            touched[off..off + len].fill(true);
            delivered.extend(wcb.append(dst, off as u16, &data));
            if cursor >= scc::MPB_BYTES - 700 {
                break;
            }
        }
        delivered.extend(wcb.drain(dst));
        // Apply the flush stream in order; the result must equal the
        // shadow on every touched byte.
        let mut out = vec![0u8; scc::MPB_BYTES];
        for run in delivered {
            out[run.offset as usize..run.offset as usize + run.data.len()]
                .copy_from_slice(&run.data);
        }
        for i in 0..scc::MPB_BYTES {
            if touched[i] {
                prop_assert_eq!(out[i], shadow[i], "byte {} differs", i);
            }
        }
        prop_assert_eq!(wcb.buffered(dst), 0);
    }

    /// The software cache never serves bytes that were not installed, and
    /// serves installed ranges exactly.
    #[test]
    fn swcache_selectivity(
        installs in prop::collection::vec((0usize..7_000, 1usize..1_000), 0..6),
        probe_off in 0usize..7_500,
        probe_len in 1usize..600,
    ) {
        let cache = vscc::swcache::SwCache::new(&des::obs::Registry::new());
        let owner = scc::GlobalCore::new(0, 3);
        let mut valid = vec![false; scc::MPB_BYTES];
        let mut shadow = vec![0u8; scc::MPB_BYTES];
        for (i, (off, len)) in installs.iter().enumerate() {
            let off = (*off).min(scc::MPB_BYTES - *len);
            let data = vec![i as u8 + 1; *len];
            cache.begin_update(owner);
            cache.complete_update(owner, off as u16, &data);
            shadow[off..off + len].copy_from_slice(&data);
            valid[off..off + len].fill(true);
        }
        let probe_off = probe_off.min(scc::MPB_BYTES - probe_len);
        let hit = cache.read(owner, probe_off as u16, probe_len);
        let fully_valid = valid[probe_off..probe_off + probe_len].iter().all(|&v| v);
        prop_assert_eq!(hit.is_some(), fully_valid);
        if let Some(bytes) = hit {
            prop_assert_eq!(bytes, shadow[probe_off..probe_off + probe_len].to_vec());
        }
    }

    /// The run-granular L1 model against the per-line `HashMap` oracle:
    /// random probe/fill reads with windows up to a whole region (so runs
    /// cross the 64-line bitmap words), single-line lookups, aligned and
    /// unaligned write-throughs, selective and full invalidations,
    /// `CL1INVMB`-then-read cycles that refill the retained tables, and
    /// stores by other cores (memory changes the caches must not see)
    /// over six owners agree on every byte, every counter and the
    /// resident count.
    #[test]
    fn l1_model_matches_per_line_oracle(
        ops in prop::collection::vec(
            ((0u8..8, 0usize..6), (0usize..MPB_BYTES, 1usize..=MPB_BYTES), (any::<u8>(), any::<bool>())),
            1..120,
        ),
    ) {
        let owners = [
            GlobalCore::new(0, 0),
            GlobalCore::new(0, 5),
            GlobalCore::new(0, 47),
            GlobalCore::new(1, 0),
            GlobalCore::new(1, 5),
            GlobalCore::new(4, 23),
        ];
        let l1 = L1Model::new();
        let mut oracle = RefL1::default();
        let mut mem = vec![vec![0u8; MPB_BYTES]; owners.len()];
        for ((kind, o), (off, len), (val, near)) in ops {
            // Half the ops crowd the first 24 lines with short windows so
            // that they overlap; the rest reach anywhere, up to a region.
            let (off, len) = if near { (off % 768, len % 600 + 1) } else { (off, len) };
            let len = len.min(MPB_BYTES - off);
            let owner = owners[o];
            if kind == 7 {
                l1.invalidate_all();
                oracle.lines.clear();
                oracle.invalidations += 1;
            }
            match kind {
                0 | 7 => {
                    let mut got = vec![0xEE; len];
                    let missed = l1.probe(owner, off, &mut got);
                    if let (Some(a), Some(z)) = (missed.first(), missed.last()) {
                        let fetched = &mem[o][a * LINE_BYTES..(z + 1) * LINE_BYTES];
                        l1.fill(owner, missed, fetched, off, &mut got);
                    }
                    prop_assert_eq!(got, oracle.read(owner, off, len, &mem[o]));
                }
                1 => {
                    let line = off / LINE_BYTES;
                    let want = oracle.lines.get(&(owner, line)).copied();
                    if want.is_some() { oracle.hits += 1 } else { oracle.misses += 1 }
                    prop_assert_eq!(l1.lookup((owner, line as u16)), want);
                }
                2 | 3 => {
                    let (off, len) = if kind == 2 {
                        let at = off / LINE_BYTES * LINE_BYTES;
                        (at, (len.div_ceil(LINE_BYTES) * LINE_BYTES).min(MPB_BYTES - at))
                    } else {
                        (off, len)
                    };
                    let data: Vec<u8> = (0..len).map(|i| val.wrapping_add(i as u8)).collect();
                    mem[o][off..off + len].copy_from_slice(&data);
                    l1.write_through(owner, off, &data);
                    oracle.write_through(owner, off, &data);
                }
                4 => {
                    let len = len.min(64);
                    l1.invalidate_range(owner, off as u16, len);
                    oracle.invalidate_range(owner, off, len);
                }
                5 => {
                    l1.invalidate_all();
                    oracle.lines.clear();
                    oracle.invalidations += 1;
                }
                _ => mem[o][off..off + len].fill(val),
            }
            prop_assert_eq!(l1.stats(), (oracle.hits, oracle.misses, oracle.invalidations));
            prop_assert_eq!(l1.resident(), oracle.lines.len());
        }
    }

    /// The simulated clock is monotone and delays compose additively for
    /// a single task.
    #[test]
    fn clock_is_monotone_and_additive(delays in prop::collection::vec(0u64..100_000, 1..20)) {
        let sim = Sim::new();
        let total: u64 = delays.iter().sum();
        let s = sim.clone();
        sim.spawn(async move {
            let mut last = 0;
            for d in delays {
                s.delay(d).await;
                prop_assert!(s.now() >= last);
                last = s.now();
            }
            Ok(())
        });
        sim.run().unwrap();
        prop_assert_eq!(sim.now(), total);
    }

    /// FIFO link: n contending transfers of equal size finish in arrival
    /// order, spaced by exactly the occupancy.
    #[test]
    fn link_fifo_spacing(n in 1usize..20, bytes in 1u64..5_000, lat in 0u64..2_000) {
        let sim = Sim::new();
        let link = des::link::Link::new(des::link::Bandwidth::cycles_per_byte(3, 2), lat, 7);
        let ends = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for _ in 0..n {
            let (s, l, e) = (sim.clone(), link.clone(), ends.clone());
            sim.spawn(async move {
                l.transfer(&s, bytes).await;
                e.borrow_mut().push(s.now());
            });
        }
        sim.run().unwrap();
        let ends = ends.borrow();
        let occupy = (bytes * 3).div_ceil(2) + 7;
        for (i, &t) in ends.iter().enumerate() {
            prop_assert_eq!(t, occupy * (i as u64 + 1) + lat);
        }
    }

    /// `des::bytes::Bytes` against the `Vec<u8>` oracle: any chain of
    /// sub-slices sees exactly the bytes the equivalent `Vec` windows
    /// see, for arbitrary contents and slice arithmetic.
    #[test]
    fn bytes_slices_match_vec_oracle(
        data in prop::collection::vec(any::<u8>(), 0..4096),
        cuts in prop::collection::vec((0u32..10_000, 0u32..10_000), 0..6),
    ) {
        let mut oracle: Vec<u8> = data.clone();
        let mut b = des::bytes::Bytes::copy_from_slice(&data);
        prop_assert_eq!(&b, &oracle);
        for (a, z) in cuts {
            // Map the fraction pair onto a valid (start, end) window.
            let start = a as usize * b.len() / 10_000;
            let end = start + (z as usize * (b.len() - start) / 10_000);
            b = b.slice(start..end);
            oracle = oracle[start..end].to_vec();
            prop_assert_eq!(b.len(), oracle.len());
            prop_assert_eq!(&b, &oracle);
        }
    }

    /// CoW isolation: mutating one view through `make_mut` never
    /// disturbs any other view of the same storage, and the mutated view
    /// matches the oracle mutation.
    #[test]
    fn bytes_make_mut_isolates_views(
        data in prop::collection::vec(any::<u8>(), 1..2048),
        flips in prop::collection::vec((0u32..10_000, any::<u8>()), 1..8),
    ) {
        let base = des::bytes::Bytes::copy_from_slice(&data);
        let snapshot = base.to_vec();
        let mut view = base.clone();
        let mut oracle = data.clone();
        for (pos, val) in flips {
            let i = (pos as usize * view.len() / 10_000).min(view.len() - 1);
            view.make_mut()[i] ^= val;
            oracle[i] ^= val;
        }
        prop_assert_eq!(&view, &oracle, "mutated view tracks the oracle");
        prop_assert_eq!(&base, &snapshot, "sibling view never observes the mutation");
    }

    /// `FaultSpec` grammar round trip (DESIGN.md §5c): for any valid
    /// spec — arbitrary rate/window/phase combinations, `until`,
    /// recovery, watchdog — `parse(spec.to_string())` reproduces the
    /// spec field for field. The canonical `Display` form is what the
    /// bench banners echo and what chaos tests embed, so it must never
    /// drift from the parser.
    #[test]
    fn fault_spec_display_parse_round_trips(
        seed in any::<u64>(),
        drop in (0u32..=1024, 0u8..3, 0u64..1_000_000, 1u64..1_000_000),
        corrupt in (0u32..=1024, 0u8..3, 0u64..1_000_000, 1u64..1_000_000),
        delay in ((0u32..=1024, 1u64..100_000), (0u8..3, 0u64..1_000_000, 1u64..1_000_000)),
        linkdown in (0u64..5_000, 1u64..100_000, (0u8..3, 0u64..1_000_000, 1u64..1_000_000)),
        ackloss in (0u32..=1024, 0u8..3, 0u64..1_000_000, 1u64..1_000_000),
        mmio in ((0u32..=1024, 0u32..=1024), (0u8..3, 0u64..1_000_000, 1u64..1_000_000)),
        stall in (0u64..5_000, 1u64..100_000, (0u8..3, 0u64..1_000_000, 1u64..1_000_000)),
        until in (any::<bool>(), 1u64..10_000_000),
        recovery in any::<bool>(),
        watchdog in (any::<bool>(), 1u64..100_000_000),
    ) {
        let mut spec = FaultSpec::none();
        spec.seed = seed;
        // A key is only displayed when its rate/duration is non-zero, so
        // a phase bound can only survive the round trip on active keys.
        let gate = |active: bool, (m, s, l): (u8, u64, u64)| {
            if active { phase_of(m, s, l) } else { Phase::ALWAYS }
        };
        spec.tlp_drop_p = prob_of(drop.0);
        spec.tlp_drop_phase = gate(drop.0 > 0, (drop.1, drop.2, drop.3));
        spec.tlp_corrupt_p = prob_of(corrupt.0);
        spec.tlp_corrupt_phase = gate(corrupt.0 > 0, (corrupt.1, corrupt.2, corrupt.3));
        spec.tlp_delay_p = prob_of(delay.0.0);
        spec.tlp_delay_cycles = delay.0.1;
        spec.tlp_delay_phase = gate(delay.0.0 > 0, delay.1);
        spec.link_down_duration = linkdown.0;
        spec.link_down_period = linkdown.0 + linkdown.1;
        spec.link_phase = gate(linkdown.0 > 0, linkdown.2);
        spec.ack_loss_p = prob_of(ackloss.0);
        spec.ack_phase = gate(ackloss.0 > 0, (ackloss.1, ackloss.2, ackloss.3));
        spec.mmio_stuck_p = prob_of(mmio.0.0);
        spec.mmio_stuck_phase = gate(mmio.0.0 > 0, mmio.1);
        spec.mmio_garble_p = prob_of(mmio.0.1);
        spec.mmio_garble_phase = gate(mmio.0.1 > 0, mmio.1);
        spec.stall_duration = stall.0;
        spec.stall_period = stall.0 + stall.1;
        spec.stall_phase = gate(stall.0 > 0, stall.2);
        spec.until = until.0.then_some(until.1);
        spec.recovery = recovery;
        spec.watchdog = watchdog.0.then_some(watchdog.1);

        let shown = spec.to_string();
        let parsed = FaultSpec::parse(&shown);
        prop_assert_eq!(parsed.as_ref(), Ok(&spec), "canonical form {:?} must re-parse", shown);
        // And the canonical form is a fixed point.
        prop_assert_eq!(parsed.unwrap().to_string(), shown);
    }

    /// The parser never panics: arbitrary byte soup (lossily decoded)
    /// and adversarial token assemblies both return `Ok` or `Err`,
    /// never abort. `VSCC_FAULTS` comes straight from the environment,
    /// so this is the "hostile input" half of the grammar contract.
    #[test]
    fn fault_spec_parse_never_panics(
        raw in prop::collection::vec(any::<u8>(), 0..120),
        tokens in prop::collection::vec(0usize..18, 0..40),
    ) {
        let _ = FaultSpec::parse(&String::from_utf8_lossy(&raw));
        // Grammar-adjacent soup: fragments of real keys, separators, and
        // numbers glued in arbitrary orders hit the deep error paths
        // (half-phases, double '@', empty sides, huge numbers).
        const FRAGMENTS: [&str; 18] = [
            "drop=", "delay=", "linkdown=", "stall=", "ackloss=", "seed=", "until=",
            "recovery=", "watchdog=", "0.5", "1000", "@", "..", ",", ":", "on",
            "18446744073709551615", "-3",
        ];
        let soup: String = tokens.iter().map(|&i| FRAGMENTS[i]).collect();
        let _ = FaultSpec::parse(&soup);
    }

    /// Pool recycling never resurrects stale payload bytes: a chunk that
    /// held arbitrary garbage comes back zeroed from `Pool::get`, for any
    /// interleaving of sizes.
    #[test]
    fn pool_recycle_returns_zeroed_chunks(
        rounds in prop::collection::vec((1usize..70_000, any::<u8>()), 1..20),
    ) {
        let pool = des::bytes::Pool::new();
        for (len, fill) in rounds {
            let mut b = pool.get(len);
            prop_assert_eq!(b.len(), len);
            prop_assert!(b.iter().all(|&x| x == 0), "pooled chunk of {} B must be zeroed", len);
            // Dirty the chunk (and freeze half the time via the fill
            // parity so both return paths recycle), then drop it back.
            b.iter_mut().for_each(|x| *x = fill | 1);
            if fill % 2 == 0 {
                drop(b);
            } else {
                drop(b.freeze());
            }
        }
    }
}
