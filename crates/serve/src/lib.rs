//! `simt-serve`: a persistent design-space sweep service over the shared
//! result store.
//!
//! The CLI (`sweep`) is one-shot: it runs a grid, writes artifacts, and
//! exits. This crate adds the long-running counterpart the roadmap calls
//! for — a daemon that owns `results/` and turns design-space exploration
//! into a service:
//!
//! * [`grid`] — grid requests (`workloads × designs × config`), validated
//!   and lowered to points keyed from their names with the **same cache
//!   keys** the CLI computes; a point builds its harness job only when it
//!   has to simulate;
//! * [`service`] — the job-queue core: single-flight dedup across
//!   overlapping sweeps, a non-blocking worker pool, budget/stop handling,
//!   and the status/metrics documents;
//! * [`manifest`] — durable `dac-sweep/v1` manifests that make sweeps
//!   resumable across daemon restarts (the cache itself is the progress
//!   record);
//! * [`http`] — a dependency-free HTTP/1.1 front end with persistent
//!   connections, exposing
//!   `POST /sweeps`, `GET /sweeps/:id`, `GET /sweeps/:id/events`
//!   (long-poll), `GET /runs/:key`, `GET /status` and `GET /metrics`
//!   (JSON or Prometheus text);
//! * [`client`] — the tiny blocking HTTP client behind `sweepctl` and the
//!   end-to-end tests, pooling its kept-alive connections.
//!
//! Telemetry (structured logs, the metric registries, Prometheus
//! exposition) comes from `simt-obs`; the daemon initializes the logger
//! and every warning in this crate is a structured `dac-log/v1` event.
//!
//! Binaries: `serve` (the daemon) and `sweepctl` (submit / tail / fetch).

#![forbid(unsafe_code)]

pub mod client;
pub mod grid;
pub mod http;
pub mod manifest;
pub mod service;

pub use grid::GridRequest;
pub use manifest::Manifest;
pub use service::{Receipt, ServeConfig, SweepService};
