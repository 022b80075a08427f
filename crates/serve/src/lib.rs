//! `simt-serve`: a persistent design-space sweep service over the shared
//! result store.
//!
//! The CLI tools (`sweep`, `perf`) are one-shot: they run a grid, write
//! artifacts, and exit. This crate adds the long-running counterpart the
//! roadmap calls for — a daemon that owns `results/` and turns design-space
//! exploration into a service:
//!
//! * [`grid`] — grid requests (`workloads × designs × config`), validated
//!   and lowered to ordinary harness jobs with the **same cache keys** the
//!   CLI computes;
//! * [`service`] — the job-queue core: single-flight dedup across
//!   overlapping sweeps, a non-blocking worker pool, budget/stop handling,
//!   and the status/metrics documents;
//! * [`manifest`] — durable `dac-sweep/v1` manifests that make sweeps
//!   resumable across daemon restarts (the cache itself is the progress
//!   record);
//! * [`http`] — a dependency-free HTTP/1.1 front end exposing
//!   `POST /sweeps`, `GET /sweeps/:id`, `GET /sweeps/:id/events`
//!   (long-poll), `GET /runs/:key`, `GET /status`, `GET /metrics`
//!   (JSON or Prometheus text), and `GET /dashboard`;
//! * [`dashboard`] — the read-only HTML overview rendered from the same
//!   status/metrics documents the JSON endpoints serve;
//! * [`client`] — the tiny blocking HTTP client behind `sweepctl` and the
//!   end-to-end tests.
//!
//! Telemetry (structured logs, the metric registries, Prometheus
//! exposition) comes from `simt-obs`; the daemon initializes the logger
//! and every warning in this crate is a structured `dac-log/v1` event.
//!
//! Binaries: `serve` (the daemon) and `sweepctl` (submit / watch / tail /
//! fetch).

#![forbid(unsafe_code)]

pub mod client;
pub mod dashboard;
pub mod grid;
pub mod http;
pub mod manifest;
pub mod service;

pub use grid::GridRequest;
pub use manifest::Manifest;
pub use service::{Receipt, ServeConfig, SweepService};
