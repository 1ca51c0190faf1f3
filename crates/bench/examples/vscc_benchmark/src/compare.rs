//! `compare PARENT.json CHANGE.json`: judge a change against its parent
//! from two `--out` files, per (end-to-end metric, workload).
//!
//! Each file holds one JSON record per line, one per run; the i-th run of
//! a workload in one file is paired with the i-th run of that workload in
//! the other, so run the two sides alternately. The rule (choosing-metrics
//! §8): at least ten pairs; the change is *improved* only if it wins at
//! least nine tenths of the pairs (ties count for neither) and the medians
//! differ by more than the parent's interquartile range; it is *worse* if
//! its median is worse than the parent's by more than the metric's bound
//! from `BENCHMARK.json`; where the parent's own spread is wider than the
//! bound the verdict is *unresolved*, unless every change run beats every
//! parent run; otherwise *unchanged*.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::measure::Quartiles;

const MIN_PAIRS: usize = 10;

/// A metric's direction and regression bound from `BENCHMARK.json`.
struct Bound {
    higher_is_better: bool,
    bound: f64,
}

pub fn run(args: &[String]) -> ExitCode {
    let [parent, change] = args else {
        eprintln!("usage: vscc_benchmark compare PARENT.json CHANGE.json");
        return ExitCode::from(2);
    };
    let loaded = bounds("BENCHMARK.json").and_then(|b| Ok((b, records(parent)?, records(change)?)));
    let (bounds, parent, change) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("vscc_benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<16} {:<14} {:>5} {:>12} {:>12} {:>12} {:>6}  verdict",
        "workload", "metric", "pairs", "parent", "parent IQR", "change", "wins"
    );
    let mut any_worse = false;
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else { continue };
        for (name, b) in &bounds {
            let values = |runs: &[Json]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                    .collect()
            };
            let (pv, cv) = (values(p_runs), values(c_runs));
            let n = pv.len().min(cv.len());
            if n == 0 {
                continue;
            }
            let (pv, cv) = (&pv[..n], &cv[..n]);
            let (verdict, wins) = judge(pv, cv, b);
            any_worse |= verdict == "worse";
            let (qp, qc) = (Quartiles::of(pv), Quartiles::of(cv));
            println!(
                "{workload:<16} {name:<14} {n:>5} {:>12.6} {:>12.6} {:>12.6} {:>6}  {verdict}",
                qp.median,
                qp.iqr(),
                qc.median,
                wins
            );
        }
        // Digests depend on the seed, so compare them seed by seed.
        let (pd, cd) = (digests(p_runs), digests(c_runs));
        let same = pd.iter().all(|(seed, d)| cd.get(seed).is_none_or(|c| c == d));
        println!(
            "{workload:<16} sim_digest     {}",
            if same { "identical per seed" } else { "DIFFERS: the simulated results changed" }
        );
    }
    if any_worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// The verdict for one (metric, workload) and the change's pair wins.
fn judge(parent: &[f64], change: &[f64], b: &Bound) -> (&'static str, usize) {
    let better = |c: f64, p: f64| if b.higher_is_better { c > p } else { c < p };
    let wins = parent.iter().zip(change).filter(|(&p, &c)| better(c, p)).count();
    let n = parent.len();
    if n < MIN_PAIRS {
        return ("unresolved: fewer than 10 pairs", wins);
    }
    let (qp, qc) = (Quartiles::of(parent), Quartiles::of(change));
    if better(qc.median, qp.median)
        && wins * 10 >= 9 * n
        && (qc.median - qp.median).abs() > qp.iqr()
    {
        return ("improved", wins);
    }
    let scale = qp.median.abs().max(f64::MIN_POSITIVE);
    let worse_by = if b.higher_is_better { qp.median - qc.median } else { qc.median - qp.median };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if qp.iqr() / scale > b.bound && !all_better {
        return ("unresolved: parent spread wider than the bound", wins);
    }
    if worse_by / scale > b.bound {
        return ("worse", wins);
    }
    ("unchanged", wins)
}

fn bounds(path: &str) -> Result<BTreeMap<String, Bound>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: {e} (run compare from the repository root)"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list =
        doc.get("end_to_end").and_then(Json::as_arr).ok_or(format!("{path}: no end_to_end"))?;
    list.iter()
        .map(|m| {
            let name =
                m.get("name").and_then(Json::as_str).ok_or("end_to_end entry without name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("entry without better")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("entry without bound")?;
            Ok((name.to_string(), Bound { higher_is_better: better == "higher", bound }))
        })
        .collect()
}

/// Records of one `--out` file grouped by workload, in file order.
fn records(path: &str) -> Result<BTreeMap<String, Vec<Json>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut by_workload: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let rec = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let w = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}:{}: no workload", i + 1))?
            .to_string();
        by_workload.entry(w).or_default().push(rec);
    }
    Ok(by_workload)
}

/// `seed -> sim_digest` of a workload's runs.
fn digests(runs: &[Json]) -> BTreeMap<u64, String> {
    runs.iter()
        .filter_map(|r| {
            Some((r.get("seed")?.as_f64()? as u64, r.get("sim_digest")?.as_str()?.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound { higher_is_better: false, bound: 0.10 };

    #[test]
    fn clear_win_is_improved() {
        let parent = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.01];
        let change: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(judge(&parent, &change, &LOWER).0, "improved");
    }

    #[test]
    fn small_regression_within_bound_is_unchanged_and_large_one_worse() {
        let parent = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.01];
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        assert_eq!(judge(&parent, &slower, &LOWER).0, "unchanged");
        let much_slower: Vec<f64> = parent.iter().map(|p| p * 1.3).collect();
        assert_eq!(judge(&parent, &much_slower, &LOWER).0, "worse");
    }

    #[test]
    fn noisy_parent_is_unresolved_and_few_pairs_too() {
        let parent = [1.0, 1.5, 0.7, 1.4, 0.8, 1.3, 0.9, 1.2, 0.6, 1.6];
        let change = [1.1, 1.4, 0.8, 1.5, 0.9, 1.2, 1.0, 1.3, 0.7, 1.5];
        assert!(judge(&parent, &change, &LOWER).0.starts_with("unresolved"));
        assert!(judge(&parent[..5], &change[..5], &LOWER).0.starts_with("unresolved"));
    }
}
