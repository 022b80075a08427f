//! An online-aggregating tracer: histograms and per-client tallies are
//! updated as events arrive, so profiling never retains (and never drops)
//! events regardless of run length.

use crate::hist::Histogram;
use simt_trace::{TraceClient, TraceEvent, Tracer};

fn client_idx(c: TraceClient) -> usize {
    match c {
        TraceClient::Lsu => 0,
        TraceClient::Dac => 1,
        TraceClient::Mta => 2,
    }
}

/// Reporting names for the per-client arrays, in index order.
pub const CLIENT_NAMES: [&str; 3] = ["lsu", "dac", "mta"];

/// A [`Tracer`] that folds the event stream into fixed-size metric
/// aggregates on the fly.
#[derive(Debug, Clone)]
pub struct ProfileSink {
    /// Latencies at or below this threshold are L1/prefetch-buffer hits
    /// (their latency is a configured constant); they are tallied in
    /// [`ProfileSink::fast_returns`] instead of the miss histograms.
    l1_cutoff: u64,
    /// Request→response latency per client, misses only (see `l1_cutoff`).
    pub miss_latency: [Histogram; 3],
    /// Responses that returned within the L1/pbuf hit window, per client.
    pub fast_returns: [u64; 3],
    /// Coalescer transactions per warp memory access.
    pub coalesce_txns: Histogram,
    /// ATQ occupancy per (cycle, SM) sample.
    pub atq: Histogram,
    /// PWAQ (expanded address records) occupancy per sample.
    pub pwaq: Histogram,
    /// PWPQ (predicate bit-vectors) occupancy per sample.
    pub pwpq: Histogram,
    /// Affine run-ahead distance per sample.
    pub runahead: Histogram,
    /// L2 hits by requesting client.
    pub l2_hits: [u64; 3],
    /// L2 misses by requesting client.
    pub l2_misses: [u64; 3],
    /// DRAM row-buffer hits observed.
    pub dram_row_hits: u64,
    /// DRAM row-buffer misses observed.
    pub dram_row_misses: u64,
    /// Total events consumed.
    pub events: u64,
}

impl ProfileSink {
    /// A sink whose L1-hit cutoff is `l1_cutoff` cycles (responses faster
    /// than or equal to this count as cache hits, not misses).
    pub fn new(l1_cutoff: u64) -> Self {
        ProfileSink {
            l1_cutoff,
            miss_latency: [
                Histogram::new(32, 64),
                Histogram::new(32, 64),
                Histogram::new(32, 64),
            ],
            fast_returns: [0; 3],
            coalesce_txns: Histogram::new(1, 33),
            atq: Histogram::new(1, 64),
            pwaq: Histogram::new(2, 64),
            pwpq: Histogram::new(2, 64),
            runahead: Histogram::new(4, 64),
            l2_hits: [0; 3],
            l2_misses: [0; 3],
            dram_row_hits: 0,
            dram_row_misses: 0,
            events: 0,
        }
    }

    /// L2 hit rate for one client (0 `lsu`, 1 `dac`, 2 `mta`), in [0, 1].
    pub fn l2_hit_rate(&self, client: usize) -> f64 {
        let total = self.l2_hits[client] + self.l2_misses[client];
        if total == 0 {
            0.0
        } else {
            self.l2_hits[client] as f64 / total as f64
        }
    }
}

impl Tracer for ProfileSink {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, _cycle: u64, event: TraceEvent) {
        self.events += 1;
        match event {
            TraceEvent::MemResp {
                client, latency, ..
            } => {
                let c = client_idx(client);
                if latency <= self.l1_cutoff {
                    self.fast_returns[c] += 1;
                } else {
                    self.miss_latency[c].record(latency);
                }
            }
            TraceEvent::Coalesce { txns, .. } => self.coalesce_txns.record(txns as u64),
            TraceEvent::QueueSample {
                atq,
                pwaq,
                pwpq,
                runahead,
                ..
            } => {
                self.atq.record(atq as u64);
                self.pwaq.record(pwaq as u64);
                self.pwpq.record(pwpq as u64);
                self.runahead.record(runahead as u64);
            }
            TraceEvent::L2Access { hit, client, .. } => {
                let c = client_idx(client);
                if hit {
                    self.l2_hits[c] += 1;
                } else {
                    self.l2_misses[c] += 1;
                }
            }
            TraceEvent::DramAccess { row_hit, .. } => {
                if row_hit {
                    self.dram_row_hits += 1;
                } else {
                    self.dram_row_misses += 1;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_aggregates_by_event_kind() {
        let mut s = ProfileSink::new(30);
        s.emit(
            1,
            TraceEvent::MemResp {
                sm: 0,
                line: 0,
                client: TraceClient::Lsu,
                token: 0,
                latency: 20, // within cutoff: an L1 hit
            },
        );
        s.emit(
            2,
            TraceEvent::MemResp {
                sm: 0,
                line: 0,
                client: TraceClient::Lsu,
                token: 1,
                latency: 400,
            },
        );
        s.emit(
            3,
            TraceEvent::Coalesce {
                sm: 0,
                warp: 0,
                pc: 0,
                lanes: 32,
                txns: 5,
                store: false,
            },
        );
        s.emit(
            4,
            TraceEvent::L2Access {
                partition: 0,
                line: 0,
                hit: true,
                client: TraceClient::Mta,
            },
        );
        s.emit(
            4,
            TraceEvent::L2Access {
                partition: 0,
                line: 128,
                hit: false,
                client: TraceClient::Mta,
            },
        );
        s.emit(
            5,
            TraceEvent::DramAccess {
                partition: 0,
                line: 128,
                row_hit: false,
                write: false,
            },
        );
        assert_eq!(s.fast_returns[0], 1);
        assert_eq!(s.miss_latency[0].count(), 1);
        assert_eq!(s.miss_latency[0].max(), 400);
        assert_eq!(s.coalesce_txns.p50(), 5);
        assert!((s.l2_hit_rate(2) - 0.5).abs() < 1e-12);
        assert_eq!(s.dram_row_misses, 1);
        assert_eq!(s.events, 6);
    }
}
