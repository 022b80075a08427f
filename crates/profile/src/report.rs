//! Deterministic bottleneck reports: one markdown document and one JSON
//! document comparing designs side by side per workload.
//!
//! Everything here is derived from counters and online aggregates — no
//! wall-clock values — so report bytes are identical across runs and
//! machines (pinned in `results/profile/`).

use crate::cpi::CpiStack;
use crate::hist::Histogram;
use crate::sink::{ProfileSink, CLIENT_NAMES};
use simt_mem::MemStats;
use simt_sim::{SimReport, SimStats};
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
    /// The top-down issue-slot stack.
    pub cpi: CpiStack,
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
            cpi: CpiStack::from_stats(&report.stats),
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

    fn design(&self, name: &str) -> Option<&DesignProfile> {
        self.designs.iter().find(|d| d.design == name)
    }

    /// Issue slots lost to memory back-pressure: scoreboard hazards plus
    /// the DAC dequeue buckets (the cycles §5 of the paper says DAC
    /// converts into run-ahead).
    fn stall_slots(d: &DesignProfile) -> u64 {
        d.cpi.get("scoreboard") + d.cpi.get("deq_empty") + d.cpi.get("deq_data")
    }

    /// Human-readable one-line findings for this workload (deterministic).
    pub fn headlines(&self) -> Vec<String> {
        let mut out = Vec::new();
        let Some(base) = self.baseline() else {
            return out;
        };
        for d in &self.designs {
            if d.design != "baseline" {
                out.push(format!(
                    "{} runs {} in {} cycles, {} over baseline",
                    d.design,
                    self.bench,
                    d.cycles,
                    fmt_speedup(base.cycles as f64 / d.cycles as f64),
                ));
            }
        }
        if let Some(dac) = self.design("dac") {
            let before = Self::stall_slots(base);
            let after = Self::stall_slots(dac);
            if before > 0 {
                let delta = 100.0 * (after as f64 - before as f64) / before as f64;
                let verb = if after <= before { "removes" } else { "adds" };
                out.push(format!(
                    "dac {verb} {:.1}% of baseline scoreboard + dequeue stall \
                     slots on {} ({} -> {})",
                    delta.abs(),
                    self.bench,
                    before,
                    after
                ));
            }
        }
        if let Some(mta) = self.design("mta") {
            let hits = mta.sink.l2_hits[2];
            let total = hits + mta.sink.l2_misses[2];
            if total > 0 {
                out.push(format!(
                    "mta prefetches hit L2 {:.1}% of the time on {} ({} of {})",
                    100.0 * hits as f64 / total as f64,
                    self.bench,
                    hits,
                    total
                ));
            }
        }
        out
    }
}

fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}x")
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

/// Render the markdown bottleneck report.
pub fn markdown(profiles: &[WorkloadProfile]) -> String {
    let mut out = String::new();
    out.push_str("# Bottleneck report\n\n");
    out.push_str(
        "Top-down issue-slot accounting: every scheduler issue slot of every \
         cycle is attributed to exactly one bucket (the buckets sum to \
         `cycles x schedulers x SMs`, checked by the simulator). Histogram \
         cells are `p50/p90/p99 (n=samples)` in cycles or entries.\n",
    );
    for wp in profiles {
        let _ = writeln!(out, "\n## {} (scale {})\n", wp.bench, wp.scale);
        let names: Vec<&str> = wp.designs.iter().map(|d| d.design.as_str()).collect();

        // CPI stack table: one row per bucket, one column per design.
        out.push_str("### Issue-slot CPI stack (% of all slots)\n\n");
        let _ = writeln!(out, "| bucket | {} |", names.join(" | "));
        let _ = writeln!(out, "|---|{}", "---|".repeat(names.len()));
        let buckets: Vec<&'static str> = wp.designs[0]
            .cpi
            .buckets()
            .iter()
            .map(|&(n, _)| n)
            .collect();
        for b in buckets {
            let cells: Vec<String> = wp.designs.iter().map(|d| pct(d.cpi.fraction(b))).collect();
            let _ = writeln!(out, "| {b} | {} |", cells.join(" | "));
        }
        let totals: Vec<String> = wp
            .designs
            .iter()
            .map(|d| d.cpi.total().to_string())
            .collect();
        let _ = writeln!(out, "| total slots | {} |", totals.join(" | "));
        let cycles: Vec<String> = wp.designs.iter().map(|d| d.cycles.to_string()).collect();
        let _ = writeln!(out, "| cycles | {} |", cycles.join(" | "));
        let ipcs: Vec<String> = wp
            .designs
            .iter()
            .map(|d| format!("{:.3}", d.stats.ipc()))
            .collect();
        let _ = writeln!(out, "| ipc | {} |", ipcs.join(" | "));

        // Memory metrics.
        out.push_str("\n### Memory\n\n");
        let _ = writeln!(out, "| metric | {} |", names.join(" | "));
        let _ = writeln!(out, "|---|{}", "---|".repeat(names.len()));
        type MetricRow = (&'static str, Box<dyn Fn(&DesignProfile) -> String>);
        let rows: [MetricRow; 9] = [
            ("L1 hit rate", Box::new(|d| pct(d.mem.l1_hit_rate()))),
            ("L2 hit rate", Box::new(|d| pct(d.mem.l2_hit_rate()))),
            (
                "DRAM row-buffer hit rate",
                Box::new(|d| pct(d.mem.row_hit_rate())),
            ),
            (
                "miss latency (lsu)",
                Box::new(|d| hist_cell(&d.sink.miss_latency[0])),
            ),
            (
                "miss latency (dac)",
                Box::new(|d| hist_cell(&d.sink.miss_latency[1])),
            ),
            (
                "coalesced txns per access",
                Box::new(|d| hist_cell(&d.sink.coalesce_txns)),
            ),
            ("ATQ occupancy", Box::new(|d| hist_cell(&d.sink.atq))),
            ("PWAQ occupancy", Box::new(|d| hist_cell(&d.sink.pwaq))),
            ("PWPQ occupancy", Box::new(|d| hist_cell(&d.sink.pwpq))),
        ];
        for (label, cell) in &rows {
            let cells: Vec<String> = wp.designs.iter().map(cell).collect();
            let _ = writeln!(out, "| {label} | {} |", cells.join(" | "));
        }

        let heads = wp.headlines();
        if !heads.is_empty() {
            out.push_str("\n### Headlines\n\n");
            for h in heads {
                let _ = writeln!(out, "- {h}");
            }
        }
    }
    out
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
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
        let base_cycles = wp.baseline().map(|b| b.cycles);
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
            if let Some(bc) = base_cycles {
                let _ = write!(
                    out,
                    ", \"speedup_over_baseline\": {:.4}",
                    bc as f64 / d.cycles as f64
                );
            }
            out.push_str(", \"cpi_stack\": {");
            for (i, (name, v)) in d.cpi.buckets().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{name}\": {v}");
            }
            out.push_str("}, \"cpi_fractions\": {");
            for (i, (name, _)) in d.cpi.buckets().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{name}\": {:.4}", d.cpi.fraction(name));
            }
            let _ = write!(
                out,
                "}}, \"l1_hit_rate\": {:.4}, \"l2_hit_rate\": {:.4}, \
                 \"dram_row_hit_rate\": {:.4}",
                d.mem.l1_hit_rate(),
                d.mem.l2_hit_rate(),
                d.mem.row_hit_rate()
            );
            out.push_str(", \"miss_latency\": {");
            for (c, name) in CLIENT_NAMES.iter().enumerate() {
                if c > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{name}\": {}", hist_json(&d.sink.miss_latency[c]));
            }
            out.push_str("}, \"l2_client_hit_rates\": {");
            for (c, name) in CLIENT_NAMES.iter().enumerate() {
                if c > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{name}\": {:.4}", d.sink.l2_hit_rate(c));
            }
            let _ = write!(
                out,
                "}}, \"coalesce_txns\": {}, \"queues\": {{\"atq\": {}, \"pwaq\": {}, \
                 \"pwpq\": {}, \"runahead\": {}}}}}",
                hist_json(&d.sink.coalesce_txns),
                hist_json(&d.sink.atq),
                hist_json(&d.sink.pwaq),
                hist_json(&d.sink.pwpq),
                hist_json(&d.sink.runahead)
            );
        }
        out.push_str("], \"headlines\": [");
        for (i, h) in wp.headlines().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", esc(h));
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(design: &str, cycles: u64) -> DesignProfile {
        let stats = SimStats {
            cycles,
            warp_instructions: 100,
            slot_issued: 100,
            slot_scoreboard: 60,
            slot_idle: 40,
            ..Default::default()
        };
        let report = SimReport {
            kernel: "k".into(),
            coproc: design.into(),
            cycles,
            stats,
            mem: MemStats {
                l1_hits: 3,
                l1_misses: 1,
                ..Default::default()
            },
        };
        DesignProfile::new(design, &report, ProfileSink::new(30))
    }

    #[test]
    fn markdown_and_json_are_deterministic_and_balanced() {
        let wp = WorkloadProfile {
            bench: "BFS".into(),
            scale: 1,
            designs: vec![profile("baseline", 200), profile("dac", 100)],
        };
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
    fn headlines_quantify_dac_stall_removal() {
        let wp = WorkloadProfile {
            bench: "BFS".into(),
            scale: 1,
            designs: vec![profile("baseline", 200), profile("dac", 100)],
        };
        let heads = wp.headlines();
        assert!(heads.iter().any(|h| h.contains("2.00x")));
        assert!(heads.iter().any(|h| h.contains("stall slots")));
    }
}
