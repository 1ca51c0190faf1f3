//! Metric definitions and their computation from a run's passes.
//!
//! End-to-end metrics are what a user regenerating the paper's figures
//! sees; per-layer metrics are named after the crates (`des`, `scc`,
//! `pcie`, `rcce`, `vscc`, `apps`) and each names the end-to-end metric
//! and workload it should move. `BENCHMARK.json` lists the same names.

use std::collections::BTreeMap;

use des::critpath::{Attribution, Phase};

use crate::timed::{self_ns, Span};
use crate::workloads::{PassOut, Tally};

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// The end-to-end metric and workload this metric should move.
    pub moves: &'static str,
}

const fn def(name: &'static str, unit: &'static str, higher: bool, moves: &'static str) -> Def {
    Def { name, unit, higher_is_better: higher, moves }
}

pub const END_TO_END: [Def; 4] = [
    def("wall_s", "s", false, "host seconds per pass, median of the timed passes"),
    def("setup_s", "s", false, "host seconds per system + session build, median of the builds"),
    def("peak_rss_mib", "MiB", false, "VmHWM of the per-workload process"),
    def("sim_mbps", "MB/s", true, "simulated payload MB/s, geometric mean over the points"),
];

pub const PER_LAYER: [Def; 52] = [
    def("des.events_per_msg", "count", false, "wall_s, most on bt_routed_64"),
    def("des.polls_per_msg", "count", false, "wall_s, most on bt_routed_64"),
    def("des.timers_per_msg", "count", false, "wall_s, most on bt_routed_64"),
    def("des.events_per_host_s", "1/s", true, "wall_s, most on bt_routed_64"),
    def("des.timer_cancel_frac", "ratio", false, "wall_s on storm_ring"),
    def(
        "des.allocs_per_msg",
        "count",
        false,
        "wall_s, peak_rss_mib on pingpong_large, bt_vdma_225",
    ),
    def(
        "des.alloc_mib_per_pass",
        "MiB",
        false,
        "wall_s, peak_rss_mib on pingpong_large, bt_vdma_225",
    ),
    def("des.sim_digest", "fnv53", true, "none: must stay equal for a simulator-only change"),
    def("des.remainder_self_frac", "ratio", false, "wall_s (executor + commtask/mmio/link actors)"),
    def("scc.mpb_reads_per_msg", "count", false, "sim_mbps, wall_s on bt_onchip_36"),
    def("scc.mpb_writes_per_msg", "count", false, "sim_mbps, wall_s on bt_onchip_36"),
    def("scc.cl1inv_per_msg", "count", false, "sim_mbps, wall_s on bt_onchip_36"),
    def("pcie.link_busy_pct_max", "%", false, "sim_mbps on bt_vdma_225 (SIF ceiling)"),
    def("pcie.link_busy_pct_mean", "%", false, "sim_mbps on bt_vdma_225"),
    def("pcie.host_mem_busy_pct", "%", false, "sim_mbps on bt_vdma_225"),
    def("pcie.link_lat_p99_cycles", "cycles", false, "sim_mbps on bt_vdma_225"),
    def("pcie.queue_depth_max", "count", false, "sim_mbps on bt_vdma_225"),
    def("pcie.tunnel_bytes_per_payload_byte", "ratio", false, "sim_mbps on pingpong_small"),
    def("pcie.conduit_tlps_per_msg", "count", false, "sim_mbps on pingpong_small"),
    def("pcie.faults_injected", "count", false, "error_rate, sim_mbps on storm_ring"),
    def("rcce.poll_scans_per_msg", "count", false, "wall_s on bt_onchip_36, bt_vdma_225"),
    def("rcce.lock_wait_cycles_per_msg", "cycles", false, "sim_mbps on bt_vdma_225"),
    def("rcce.send_lat_p99_cycles", "cycles", false, "sim_mbps on pingpong_small"),
    def("rcce.poll_timeouts", "count", false, "error_rate on storm_ring"),
    def("rcce.onchip_self_ns_per_msg", "ns", false, "wall_s on bt_onchip_36"),
    def("vscc.commtask_busy_pct_max", "%", false, "sim_mbps on bt_vdma_225 (one commtask)"),
    def("vscc.vdma_ops_per_msg", "count", false, "sim_mbps on bt_vdma_225 (1 KiB chunks)"),
    def("vscc.swcache_hit_ratio", "ratio", true, "lprg gap on pingpong_large"),
    def("vscc.wcb_merges_per_flush", "ratio", true, "sim_mbps on pingpong_large"),
    def("vscc.flag_forwards_per_msg", "count", false, "sim_mbps on pingpong_small"),
    def("vscc.direct_writes_per_msg", "count", false, "sim_mbps on pingpong_small"),
    def("vscc.routed_lines_per_msg", "count", false, "wall_s on bt_routed_64"),
    def("vscc.retries_per_msg", "count", false, "sim_mbps on storm_ring"),
    def("vscc.demotions", "count", false, "sim_mbps on storm_ring"),
    def("vscc.promotions", "count", true, "sim_mbps on storm_ring"),
    def("vscc.monitor_violations", "count", false, "error_rate everywhere"),
    def("vscc.scheme_self_ns_per_msg", "ns", false, "wall_s on pingpong_small, bt_vdma_225"),
    def("apps.messages", "count", false, "denominator of every per-message metric"),
    def("apps.inter_device_frac", "ratio", false, "sim_mbps on bt_vdma_225; 0 on bt_onchip_36"),
    def("apps.self_ns_frac", "ratio", false, "wall_s on pingpong_*, storm_ring"),
    def("critpath.sender_lock_pct", "%", false, "sim_mbps on pingpong_*"),
    def("critpath.sender_put_pct", "%", false, "sim_mbps on pingpong_*"),
    def("critpath.mpb_wait_pct", "%", false, "sim_mbps on pingpong_*"),
    def("critpath.host_classify_pct", "%", false, "sim_mbps on pingpong_*"),
    def("critpath.cache_stale_pct", "%", false, "sim_mbps on pingpong_*"),
    def("critpath.pcie_queue_pct", "%", false, "sim_mbps on pingpong_*"),
    def("critpath.pcie_wire_pct", "%", false, "sim_mbps on pingpong_*"),
    def("critpath.vdma_pct", "%", false, "sim_mbps on pingpong_*"),
    def("critpath.recv_poll_pct", "%", false, "sim_mbps on pingpong_*"),
    def("critpath.recv_get_pct", "%", false, "sim_mbps on pingpong_*"),
    def("critpath.other_pct", "%", false, "sim_mbps on pingpong_*"),
    def("trace.overhead_ratio", "ratio", false, "none: traced wall_s over untraced wall_s"),
];

/// Host-side numbers of the untraced timed passes.
pub struct HostTimes {
    pub wall_s: f64,
    pub allocs_per_pass: f64,
    pub alloc_bytes_per_pass: f64,
}

/// The largest value among the entries of `map` whose name `keep`s.
fn max_where<V: Copy + Ord + Default>(map: &BTreeMap<String, V>, keep: impl Fn(&str) -> bool) -> V {
    map.iter().filter(|(k, _)| keep(k)).map(|(_, &v)| v).max().unwrap_or_default()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of one pass, given the traced pass's wall time
/// (at reference speed) and spans.
pub fn per_layer(
    out: &PassOut,
    host: &HostTimes,
    traced_wall_s: f64,
    spans: &[Span],
    crit: &Attribution,
    digest_json: f64,
) -> BTreeMap<&'static str, f64> {
    let t: &Tally = &out.tally;
    let msgs = t.messages as f64;
    let per_msg = |v: u64| ratio(v as f64, msgs);
    let cycles = t.sim_cycles as f64;
    let busy_pct = |v: u64| 100.0 * ratio(v as f64, cycles);
    let links: Vec<f64> =
        t.matching("pcie.link", ".busy_cycles").map(|(_, v)| busy_pct(v)).collect();
    let commtask_max =
        t.matching("host.commtask.", ".busy_cycles").map(|(_, v)| busy_pct(v)).fold(0.0, f64::max);
    let link_lat_p99 =
        max_where(&t.p99_max, |k| k.starts_with("pcie.link") && k.ends_with(".latency_cycles"));
    let send_lat_p99 = max_where(&t.p99_max, |k| k.starts_with("rcce.send.lat_cycles."));
    let queue_max =
        max_where(&t.hwm_max, |k| k.starts_with("pcie.") && k.ends_with(".queue_depth"));
    let retries: u64 = ["payload", "vdma", "prefetch", "mmio", "fastack_lines"]
        .iter()
        .map(|k| t.counter(&format!("host.retry.{k}")))
        .sum();
    let (hits, misses) = (t.counter("host.swcache.hits"), t.counter("host.swcache.misses"));

    // Self times of the traced pass, grouped by span name.
    let own = self_ns(spans);
    let mut self_by_name: BTreeMap<&str, f64> = BTreeMap::new();
    let mut busy_by_name: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, &ns) in spans.iter().zip(&own) {
        *self_by_name.entry(&s.name).or_default() += ns as f64;
        *busy_by_name.entry(&s.name).or_default() += s.busy_ns as f64;
    }
    let self_of = |n: &str| self_by_name.get(n).copied().unwrap_or(0.0);
    let run_ns = busy_by_name.get("run").copied().unwrap_or(0.0);

    let mut m = BTreeMap::new();
    let events = t.engine.events();
    m.insert("des.events_per_msg", per_msg(events));
    m.insert("des.polls_per_msg", per_msg(t.engine.polls));
    m.insert("des.timers_per_msg", per_msg(t.engine.timers_set));
    m.insert("des.events_per_host_s", ratio(events as f64, host.wall_s));
    m.insert(
        "des.timer_cancel_frac",
        ratio(t.engine.timers_cancelled as f64, t.engine.timers_set as f64),
    );
    m.insert("des.allocs_per_msg", ratio(host.allocs_per_pass, msgs));
    m.insert("des.alloc_mib_per_pass", host.alloc_bytes_per_pass / (1024.0 * 1024.0));
    m.insert("des.sim_digest", digest_json);
    m.insert("des.remainder_self_frac", ratio(self_of("run"), run_ns));
    m.insert("scc.mpb_reads_per_msg", per_msg(t.sum_matching("scc.d", ".mpb.reads")));
    m.insert("scc.mpb_writes_per_msg", per_msg(t.sum_matching("scc.d", ".mpb.writes")));
    m.insert("scc.cl1inv_per_msg", per_msg(t.sum_matching("scc.d", ".cl1inv")));
    m.insert("pcie.link_busy_pct_max", links.iter().copied().fold(0.0, f64::max));
    m.insert("pcie.link_busy_pct_mean", ratio(links.iter().sum::<f64>(), links.len() as f64));
    m.insert("pcie.host_mem_busy_pct", busy_pct(t.counter("pcie.host_mem.busy_cycles")));
    m.insert("pcie.link_lat_p99_cycles", link_lat_p99 as f64);
    m.insert("pcie.queue_depth_max", queue_max as f64);
    m.insert(
        "pcie.tunnel_bytes_per_payload_byte",
        ratio(t.sum_matching("pcie.link", ".bytes") as f64, t.payload_bytes as f64),
    );
    m.insert("pcie.conduit_tlps_per_msg", per_msg(t.sum_matching("pcie.link", ".conduit.tlps")));
    m.insert("pcie.faults_injected", t.sum_matching("pcie.fault.", "") as f64);
    m.insert("rcce.poll_scans_per_msg", per_msg(t.counter("rcce.poll.scans")));
    m.insert("rcce.lock_wait_cycles_per_msg", per_msg(t.counter("rcce.send.lock_wait_cycles")));
    m.insert("rcce.send_lat_p99_cycles", send_lat_p99 as f64);
    m.insert("rcce.poll_timeouts", t.counter("rcce.poll_timeouts") as f64);
    m.insert("rcce.onchip_self_ns_per_msg", ratio(self_of("rcce.onchip"), t.onchip_msgs as f64));
    m.insert("vscc.commtask_busy_pct_max", commtask_max);
    m.insert("vscc.vdma_ops_per_msg", per_msg(t.counter("host.vdma_ops")));
    m.insert("vscc.swcache_hit_ratio", ratio(hits as f64, (hits + misses) as f64));
    m.insert(
        "vscc.wcb_merges_per_flush",
        ratio(t.counter("host.wcb.merges") as f64, t.counter("host.wcb.flushes") as f64),
    );
    m.insert("vscc.flag_forwards_per_msg", per_msg(t.counter("host.flag_forwards")));
    m.insert("vscc.direct_writes_per_msg", per_msg(t.counter("host.direct_writes")));
    m.insert("vscc.routed_lines_per_msg", per_msg(t.counter("host.routed_lines")));
    m.insert("vscc.retries_per_msg", per_msg(retries));
    m.insert("vscc.demotions", t.counter("host.fallback.demotions") as f64);
    m.insert("vscc.promotions", t.counter("host.health.promotions") as f64);
    m.insert("vscc.monitor_violations", t.violations as f64);
    m.insert("vscc.scheme_self_ns_per_msg", ratio(self_of("vscc.scheme"), t.inter_msgs as f64));
    m.insert("apps.messages", msgs);
    m.insert("apps.inter_device_frac", ratio(t.inter_bytes as f64, t.payload_bytes as f64));
    m.insert("apps.self_ns_frac", ratio(self_of("rank"), run_ns));
    let total = crit.total() as f64;
    for p in Phase::ALL {
        m.insert(critpath_metric(p), 100.0 * ratio(crit.get(p) as f64, total));
    }
    m.insert("trace.overhead_ratio", ratio(traced_wall_s, host.wall_s));
    debug_assert!(PER_LAYER.iter().all(|d| m.contains_key(d.name)), "every per-layer metric set");
    m
}

/// The `critpath.<phase>_pct` metric of each critical-path phase.
fn critpath_metric(p: Phase) -> &'static str {
    match p {
        Phase::SenderLock => "critpath.sender_lock_pct",
        Phase::SenderPut => "critpath.sender_put_pct",
        Phase::MpbWait => "critpath.mpb_wait_pct",
        Phase::HostClassify => "critpath.host_classify_pct",
        Phase::CacheStale => "critpath.cache_stale_pct",
        Phase::PcieQueue => "critpath.pcie_queue_pct",
        Phase::PcieWire => "critpath.pcie_wire_pct",
        Phase::Vdma => "critpath.vdma_pct",
        Phase::RecvPoll => "critpath.recv_poll_pct",
        Phase::RecvGet => "critpath.recv_get_pct",
        Phase::Other => "critpath.other_pct",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::workloads::Workload;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this binary reports, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed: Vec<(&str, &str, &str)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect("string field");
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let ours: Vec<(&str, &str, &str)> = defs
                .iter()
                .map(|d| (d.name, d.unit, if d.higher_is_better { "higher" } else { "lower" }))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
