//! Deterministic bottleneck reports: one markdown document and one JSON
//! document comparing designs side by side per workload.
//!
//! Everything here is derived from counters and online aggregates — no
//! wall-clock values — so report bytes are identical across runs and
//! machines (pinned in `results/profile/`).

use crate::hist::Histogram;
use crate::sink::{ProfileSink, CLIENT_NAMES};
use simt_mem::MemStats;
use simt_sim::{SimReport, SimStats, LEDGER_ROWS};
use std::fmt::Write as _;

/// Schema identifier for the JSON report.
pub const SCHEMA: &str = "dac-profile/v1";

/// The profile of one (workload, design) run.
#[derive(Debug, Clone)]
pub struct DesignProfile {
    /// Design name ("baseline", "cae", "mta", "dac").
    pub design: String,
    /// Total cycles.
    pub cycles: u64,
    /// Core counters.
    pub stats: SimStats,
    /// Memory counters.
    pub mem: MemStats,
    /// Online event aggregates (histograms, per-client tallies).
    pub sink: ProfileSink,
}

impl DesignProfile {
    /// Build a profile from a finished run and its profiling sink.
    pub fn new(design: &str, report: &SimReport, sink: ProfileSink) -> Self {
        DesignProfile {
            design: design.to_string(),
            cycles: report.cycles,
            stats: report.stats.clone(),
            mem: report.mem.clone(),
            sink,
        }
    }

    /// Warp instructions simulated (both streams).
    pub fn total_instructions(&self) -> u64 {
        self.stats.total_instructions()
    }
}

/// One workload profiled across several designs.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Benchmark abbreviation (e.g. "BFS").
    pub bench: String,
    /// Scale factor the workload ran at.
    pub scale: u32,
    /// Per-design profiles, in run order (baseline first by convention).
    pub designs: Vec<DesignProfile>,
}

impl WorkloadProfile {
    fn baseline(&self) -> Option<&DesignProfile> {
        self.designs.iter().find(|d| d.design == "baseline")
    }
}

/// Bucket `i` of [`SimStats::issue_slot_buckets`] as a share of all
/// issue slots, in [0, 1].
fn bucket_share(s: &SimStats, i: usize) -> f64 {
    let total = s.issue_slots_total();
    if total == 0 {
        0.0
    } else {
        s.issue_slot_buckets()[i].1 as f64 / total as f64
    }
}

/// The MTA prefetcher's L2 hits, as a rate and a count.
fn prefetch_l2_cell(sink: &ProfileSink) -> String {
    let hits = sink.l2_hits[2];
    let total = hits + sink.l2_misses[2];
    if total == 0 {
        "-".to_string()
    } else {
        format!("{} ({hits} of {total})", pct(hits as f64 / total as f64))
    }
}

fn hist_cell(h: &Histogram) -> String {
    if h.count() == 0 {
        "-".to_string()
    } else {
        format!("{}/{}/{} (n={})", h.p50(), h.p90(), h.p99(), h.count())
    }
}

fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// One markdown table row: `| label | cell | ... |`.
fn row(out: &mut String, label: &str, cells: impl IntoIterator<Item = String>) {
    let cells: Vec<String> = cells.into_iter().collect();
    let _ = writeln!(out, "| {label} | {} |", cells.join(" | "));
}

/// A markdown table's head row and its separator.
fn head(out: &mut String, label: &str, names: &[&str]) {
    row(out, label, names.iter().map(|n| n.to_string()));
    let _ = writeln!(out, "|---|{}", "---|".repeat(names.len()));
}

/// Render the markdown bottleneck report.
pub fn markdown(profiles: &[WorkloadProfile]) -> String {
    let mut out = String::new();
    out.push_str("# Bottleneck report\n\n");
    out.push_str(
        "Top-down issue-slot accounting: every scheduler issue slot of every \
         cycle is attributed to exactly one bucket (the buckets sum to \
         `cycles x schedulers x SMs`, checked by the simulator). The cycle \
         ledger groups the buckets into five rows, each baseline minus \
         design in % of baseline cycles, so the rows sum exactly to the \
         cycles the design saves. Histogram cells are `p50/p90/p99 \
         (n=samples)` in cycles or entries.\n",
    );
    for wp in profiles {
        let _ = writeln!(out, "\n## {} (scale {})\n", wp.bench, wp.scale);
        let names: Vec<&str> = wp.designs.iter().map(|d| d.design.as_str()).collect();
        let cells = |cell: &dyn Fn(&DesignProfile) -> String| -> Vec<String> {
            wp.designs.iter().map(cell).collect()
        };

        // CPI stack table: one row per bucket, one column per design.
        out.push_str("### Issue-slot CPI stack (% of all slots)\n\n");
        head(&mut out, "bucket", &names);
        for (i, (b, _)) in wp.designs[0]
            .stats
            .issue_slot_buckets()
            .into_iter()
            .enumerate()
        {
            row(&mut out, b, cells(&|d| pct(bucket_share(&d.stats, i))));
        }
        let total = |d: &DesignProfile| d.stats.issue_slots_total().to_string();
        row(&mut out, "total slots", cells(&total));
        row(&mut out, "cycles", cells(&|d| d.cycles.to_string()));
        row(&mut out, "ipc", cells(&|d| format!("{:.3}", d.stats.ipc())));

        out.push_str("\n### Memory\n\n");
        head(&mut out, "metric", &names);
        type MetricRow<'a> = (&'a str, &'a dyn Fn(&DesignProfile) -> String);
        let rows: [MetricRow; 10] = [
            ("L1 hit rate", &|d| pct(d.mem.l1_hit_rate())),
            ("L2 hit rate", &|d| pct(d.mem.l2_hit_rate())),
            ("L2 hit rate (mta prefetch)", &|d| prefetch_l2_cell(&d.sink)),
            ("DRAM row-buffer hit rate", &|d| pct(d.mem.row_hit_rate())),
            ("miss latency (lsu)", &|d| {
                hist_cell(&d.sink.miss_latency[0])
            }),
            ("miss latency (dac)", &|d| {
                hist_cell(&d.sink.miss_latency[1])
            }),
            ("coalesced txns per access", &|d| {
                hist_cell(&d.sink.coalesce_txns)
            }),
            ("ATQ occupancy", &|d| hist_cell(&d.sink.atq)),
            ("PWAQ occupancy", &|d| hist_cell(&d.sink.pwaq)),
            ("PWPQ occupancy", &|d| hist_cell(&d.sink.pwpq)),
        ];
        for (label, cell) in rows {
            row(&mut out, label, cells(cell));
        }

        // Cycle ledger: one column per design against the baseline.
        let Some(base) = wp.baseline() else {
            continue;
        };
        let others: Vec<&DesignProfile> = wp
            .designs
            .iter()
            .filter(|d| d.design != "baseline")
            .collect();
        if others.is_empty() {
            continue;
        }
        out.push_str("\n### Cycle ledger (baseline minus design, % of baseline cycles)\n\n");
        let names: Vec<&str> = others.iter().map(|d| d.design.as_str()).collect();
        head(&mut out, "row", &names);
        let slots = base.stats.issue_slots_total() as f64;
        let ledgers: Vec<[i64; 5]> = others.iter().map(|d| base.stats.ledger(&d.stats)).collect();
        let share = |v: i64| format!("{:+.1}%", 100.0 * v as f64 / slots);
        for (i, label) in LEDGER_ROWS.iter().enumerate() {
            row(&mut out, label, ledgers.iter().map(|l| share(l[i])));
        }
        row(
            &mut out,
            "total",
            ledgers.iter().map(|l| share(l.iter().sum())),
        );
        let speedup = |d: &&DesignProfile| format!("{:.2}x", base.cycles as f64 / d.cycles as f64);
        row(&mut out, "speedup", others.iter().map(speedup));
    }
    out
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A JSON object from `(key, rendered value)` pairs.
fn obj<K: std::fmt::Display>(pairs: impl IntoIterator<Item = (K, String)>) -> String {
    let fields: Vec<String> = pairs
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn hist_json(h: &Histogram) -> String {
    format!(
        "{{\"count\": {}, \"mean\": {:.4}, \"min\": {}, \"max\": {}, \
         \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
        h.count(),
        h.mean(),
        h.min(),
        h.max(),
        h.p50(),
        h.p90(),
        h.p99()
    )
}

/// Render the JSON bottleneck report (`dac-profile/v1`).
pub fn json(profiles: &[WorkloadProfile]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"schema\": \"{SCHEMA}\", \"workloads\": [");
    for (wi, wp) in profiles.iter().enumerate() {
        if wi > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"bench\": \"{}\", \"scale\": {}, \"designs\": [",
            esc(&wp.bench),
            wp.scale
        );
        for (di, d) in wp.designs.iter().enumerate() {
            if di > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"design\": \"{}\", \"cycles\": {}, \"warp_instructions\": {}, \
                 \"total_instructions\": {}, \"ipc\": {:.4}",
                esc(&d.design),
                d.cycles,
                d.stats.warp_instructions,
                d.total_instructions(),
                d.stats.ipc()
            );
            if let Some(base) = wp.baseline() {
                let ledger = LEDGER_ROWS.iter().zip(base.stats.ledger(&d.stats));
                let _ = write!(
                    out,
                    ", \"speedup_over_baseline\": {:.4}, \"ledger\": {}",
                    base.cycles as f64 / d.cycles as f64,
                    obj(ledger.map(|(k, v)| (k, v.to_string())))
                );
            }
            let buckets = d.stats.issue_slot_buckets();
            let shares = buckets.iter().enumerate();
            let clients = || CLIENT_NAMES.iter().enumerate();
            let _ = write!(
                out,
                ", \"cpi_stack\": {}, \"cpi_fractions\": {}, \"l1_hit_rate\": {:.4}, \
                 \"l2_hit_rate\": {:.4}, \"dram_row_hit_rate\": {:.4}, \"miss_latency\": {}, \
                 \"l2_client_hit_rates\": {}",
                obj(buckets.iter().map(|(k, v)| (k, v.to_string()))),
                obj(shares.map(|(i, (k, _))| (k, format!("{:.4}", bucket_share(&d.stats, i))))),
                d.mem.l1_hit_rate(),
                d.mem.l2_hit_rate(),
                d.mem.row_hit_rate(),
                obj(clients().map(|(c, k)| (k, hist_json(&d.sink.miss_latency[c])))),
                obj(clients().map(|(c, k)| (k, format!("{:.4}", d.sink.l2_hit_rate(c))))),
            );
            let _ = write!(
                out,
                ", \"coalesce_txns\": {}, \"queues\": {{\"atq\": {}, \"pwaq\": {}, \
                 \"pwpq\": {}, \"runahead\": {}}}}}",
                hist_json(&d.sink.coalesce_txns),
                hist_json(&d.sink.atq),
                hist_json(&d.sink.pwaq),
                hist_json(&d.sink.pwpq),
                hist_json(&d.sink.runahead)
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One slot per cycle: the baseline's 200 cycles are 100 issued, 60
    /// scoreboard and 40 idle slots; `dac` issues 80 and waits 20.
    fn profile(design: &str, cycles: u64) -> DesignProfile {
        let stats = if design == "baseline" {
            SimStats {
                slot_issued: 100,
                slot_scoreboard: 60,
                slot_idle: 40,
                ..Default::default()
            }
        } else {
            SimStats {
                slot_issued: 80,
                slot_deq_data: 20,
                ..Default::default()
            }
        };
        let report = SimReport {
            kernel: "k".into(),
            coproc: design.into(),
            cycles,
            stats: SimStats {
                cycles,
                warp_instructions: 100,
                ..stats
            },
            mem: MemStats {
                l1_hits: 3,
                l1_misses: 1,
                ..Default::default()
            },
        };
        DesignProfile::new(design, &report, ProfileSink::new(30))
    }

    fn bfs() -> WorkloadProfile {
        WorkloadProfile {
            bench: "BFS".into(),
            scale: 1,
            designs: vec![profile("baseline", 200), profile("dac", 100)],
        }
    }

    #[test]
    fn markdown_and_json_are_deterministic_and_balanced() {
        let wp = bfs();
        let md1 = markdown(std::slice::from_ref(&wp));
        let md2 = markdown(std::slice::from_ref(&wp));
        assert_eq!(md1, md2);
        assert!(md1.contains("## BFS (scale 1)"));
        assert!(md1.contains("| scoreboard |"));
        assert!(md1.contains("L1 hit rate"));

        let j1 = json(std::slice::from_ref(&wp));
        let j2 = json(std::slice::from_ref(&wp));
        assert_eq!(j1, j2);
        assert_eq!(j1.matches('{').count(), j1.matches('}').count());
        assert_eq!(j1.matches('[').count(), j1.matches(']').count());
        assert!(j1.contains("\"schema\": \"dac-profile/v1\""));
        assert!(j1.contains("\"speedup_over_baseline\": 2.0000"));
    }

    #[test]
    fn ledger_rows_sum_to_the_cycles_saved() {
        let wp = bfs();
        let md = markdown(std::slice::from_ref(&wp));
        for line in [
            "| row | dac |",
            "| instruction | +10.0% |",
            "| latency | +30.0% |",
            "| dac_wait | -10.0% |",
            "| idle | +20.0% |",
            "| total | +50.0% |",
            "| speedup | 2.00x |",
        ] {
            assert!(md.contains(line), "{line} not in:\n{md}");
        }
        let json = json(std::slice::from_ref(&wp));
        assert!(json.contains(
            "\"ledger\": {\"instruction\": 20, \"latency\": 60, \"dac_wait\": -20, \
             \"pipeline\": 0, \"idle\": 40}"
        ));
    }
}
