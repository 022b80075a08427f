//! The configuration knobs: one [`KNOBS`] row per `--set` key. Parsing,
//! cache keys, artifacts, manifests, `sweep --help` and the refusal of
//! knobs that would change nothing ([`refuse_idle_knobs`]) all read it.

use crate::job::{DesignPoint, Overrides, MAX_MACHINE_DIM};
use crate::json::Value;
use dac_core::DacConfig;
use gpu_workloads::{gpu_for, Design, ALL_SCENARIOS};
use simt_sim::{GpuConfig, PlacementPolicy};
use std::fmt;

/// Which runs a knob changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// DAC hardware: `dac` points only.
    Dac,
    /// The machine: every point.
    Machine,
    /// CTA placement: scenario points only, keyed in the key's scenario
    /// section.
    Scenario,
    /// Not a run setting: it selects the payload (a stream scenario).
    Payload,
}

impl Scope {
    /// Short name for `sweep --help`.
    pub fn name(self) -> &'static str {
        match self {
            Scope::Dac => "dac",
            Scope::Machine => "machine",
            Scope::Scenario => "scenario",
            Scope::Payload => "payload",
        }
    }
}

/// The values a knob accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// A count in `min..=max`.
    Count(usize, usize),
    /// A per-SM queue total split among resident warps, each share
    /// floored at one entry: at least 1 here, and at least the machine's
    /// `max_warps_per_sm` in [`refuse_idle_knobs`], since below that the
    /// floor, not the total, sizes a full SM's queues.
    PerWarpTotal,
    /// `true`/`on`/`1` or `false`/`off`/`0`.
    Flag,
    /// One of these names, in any case.
    Choice(&'static [&'static str]),
}

impl Domain {
    /// `value`, checked, in its canonical spelling; `Err` is one line.
    fn check<'v>(self, key: &str, value: &'v str) -> Result<&'v str, String> {
        let err = |why: String| Err(format!("--set {key}: {why}"));
        match self {
            Domain::Count(min, max) => match value.parse::<usize>() {
                Err(_) => err(format!("expected a number, got {value:?}")),
                Ok(n) if n < min => err(format!("must be at least {min}")),
                Ok(n) if n > max => err(format!("must be at most {max}")),
                Ok(_) => Ok(value),
            },
            Domain::PerWarpTotal => Domain::Count(1, usize::MAX).check(key, value),
            Domain::Flag => match value {
                "true" | "on" | "1" => Ok("true"),
                "false" | "off" | "0" => Ok("false"),
                _ => err(format!("expected true/false, got {value:?}")),
            },
            Domain::Choice(names) => match names.iter().find(|n| n.eq_ignore_ascii_case(value)) {
                Some(name) => Ok(name),
                None => err(format!(
                    "expected one of {}, got {value:?}",
                    names.join(", ")
                )),
            },
        }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Domain::Count(min, usize::MAX) => write!(f, "N >= {min}"),
            Domain::Count(min, max) => write!(f, "N in {min}..={max}"),
            Domain::PerWarpTotal => f.write_str("N >= max_warps_per_sm"),
            Domain::Flag => f.write_str("on|off"),
            Domain::Choice(names) => f.write_str(&names.join("|")),
        }
    }
}

/// One `--set` key: what it means, which runs it changes, which values it
/// takes, and its [`Overrides`] field.
pub struct Knob {
    /// The `--set` key; also its name in cache keys, artifacts and requests.
    pub name: &'static str,
    /// One line for `sweep --help`.
    pub doc: &'static str,
    /// Which runs it changes.
    pub scope: Scope,
    /// Which values it takes.
    pub domain: Domain,
    /// The paper's value, which a run takes with the knob unset, read from
    /// its configuration. Set to it, the knob keys as unset.
    pub default: Option<fn() -> Value>,
    /// The value set on the overrides, if any, as a JSON scalar: the
    /// spelling of cache keys, artifacts and manifests.
    pub get: fn(&Overrides) -> Option<Value>,
    /// Store a value `domain` accepted, in its canonical spelling.
    pub put: fn(&mut Overrides, &str),
}

/// Every knob. The rows [`Overrides::relevant`] keys come first, in the
/// order every cache key spells them.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "atq_entries",
        doc: "Affine Tuple Queue entries per SM; with none, DAC deadlocks",
        scope: Scope::Dac,
        domain: Domain::Count(1, usize::MAX),
        default: Some(|| Value::Int(DacConfig::paper().atq_entries as u64)),
        get: |o| o.atq_entries.map(|n| Value::Int(n as u64)),
        put: |o, v| o.atq_entries = v.parse().ok(),
    },
    Knob {
        name: "pwaq_total",
        doc: "Per-Warp Address Queue entries per SM, split among resident warps",
        scope: Scope::Dac,
        domain: Domain::PerWarpTotal,
        default: Some(|| Value::Int(DacConfig::paper().pwaq_total as u64)),
        get: |o| o.pwaq_total.map(|n| Value::Int(n as u64)),
        put: |o, v| o.pwaq_total = v.parse().ok(),
    },
    Knob {
        name: "pwpq_total",
        doc: "Per-Warp Predicate Queue entries per SM, split likewise",
        scope: Scope::Dac,
        domain: Domain::PerWarpTotal,
        default: Some(|| Value::Int(DacConfig::paper().pwpq_total as u64)),
        get: |o| o.pwpq_total.map(|n| Value::Int(n as u64)),
        put: |o, v| o.pwpq_total = v.parse().ok(),
    },
    Knob {
        name: "lock_lines",
        doc: "lock early-requested lines in L1",
        scope: Scope::Dac,
        domain: Domain::Flag,
        default: Some(|| Value::Bool(DacConfig::paper().lock_lines)),
        get: |o| o.lock_lines.map(Value::Bool),
        put: |o, v| o.lock_lines = v.parse().ok(),
    },
    // The machine rows' ceiling keeps the up-front allocations (every SM,
    // every warp slot) small: a failed allocation aborts the process.
    Knob {
        name: "num_sms",
        doc: "number of SMs",
        scope: Scope::Machine,
        domain: Domain::Count(1, MAX_MACHINE_DIM),
        default: Some(|| Value::Int(GpuConfig::gtx480().num_sms as u64)),
        get: |o| o.num_sms.map(|n| Value::Int(n as u64)),
        put: |o, v| o.num_sms = v.parse().ok(),
    },
    Knob {
        name: "max_warps_per_sm",
        doc: "resident warp slots per SM",
        scope: Scope::Machine,
        domain: Domain::Count(1, MAX_MACHINE_DIM),
        default: Some(|| Value::Int(GpuConfig::gtx480().max_warps_per_sm as u64)),
        get: |o| o.max_warps_per_sm.map(|n| Value::Int(n as u64)),
        put: |o, v| o.max_warps_per_sm = v.parse().ok(),
    },
    Knob {
        name: "streams",
        doc: "run this multi-kernel stream scenario, not the benchmarks (matrix only)",
        scope: Scope::Payload,
        domain: Domain::Choice(&ALL_SCENARIOS),
        default: None,
        get: |o| o.streams.clone().map(Value::Str),
        put: |o, v| o.streams = Some(v.to_string()),
    },
    Knob {
        name: "cta_policy",
        doc: "how the command processor places concurrent kernels' CTAs",
        scope: Scope::Scenario,
        domain: Domain::Choice(&["greedy", "rr"]),
        default: Some(|| Value::Str(PlacementPolicy::default().name().into())),
        get: |o| o.cta_policy.map(|p| Value::Str(p.name().into())),
        put: |o, v| o.cta_policy = PlacementPolicy::parse(v),
    },
];

impl Overrides {
    /// Set a knob from a CLI-style `key=value` pair, once per knob. `Err`
    /// is a one-line message.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let Some(knob) = KNOBS.iter().find(|k| k.name == key) else {
            let names: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
            let names = names.join(", ");
            return Err(format!(
                "unknown config knob {key:?} (expected one of: {names})"
            ));
        };
        if (knob.get)(self).is_some() {
            return Err(format!(
                "--set: duplicate knob {key:?} (each knob may be set once)"
            ));
        }
        (knob.put)(self, knob.domain.check(key, value)?);
        Ok(())
    }

    /// Every knob that is set, with its value, in [`KNOBS`] order.
    pub fn values(&self) -> impl Iterator<Item = (&'static Knob, Value)> + '_ {
        KNOBS.iter().filter_map(|k| Some((k, (k.get)(self)?)))
    }

    /// The knobs that key a run at `point` in [`crate::cache_key`]'s
    /// override section and in artifacts: the machine knobs, and the DAC
    /// knobs at `dac` points (so a DAC ablation shares its baseline runs),
    /// each unless set to its default, so a run keys the same whether a
    /// default is spelled out or left unset. Allocates nothing: no row it
    /// reads holds a string.
    pub fn relevant(&self, point: DesignPoint) -> impl Iterator<Item = (&'static str, Value)> + '_ {
        let dac = point == DesignPoint::Hw(Design::Dac);
        KNOBS
            .iter()
            .filter(move |k| k.scope == Scope::Machine || (dac && k.scope == Scope::Dac))
            .filter_map(|k| {
                let value = (k.get)(self).filter(|v| k.default.is_none_or(|d| d() != *v))?;
                Some((k.name, value))
            })
    }

    /// The scenario-scope knobs with the value a scenario job runs under:
    /// the one set, or else the row's default. Every scenario job's cache
    /// key and artifact carry them, set or not.
    pub(crate) fn scenario_values(&self) -> impl Iterator<Item = (&'static str, Value)> + '_ {
        KNOBS
            .iter()
            .filter(|k| k.scope == Scope::Scenario)
            .filter_map(|k| Some((k.name, (k.get)(self).or_else(|| k.default.map(|d| d()))?)))
    }
}

/// Refuse overrides that would key a run's points without changing them:
/// a knob that keys none of them (a DAC knob when no design in `designs`
/// is `dac`, a scenario or payload knob when the run has no `scenarios`),
/// or a per-warp queue total below the machine's warp slots. `Err` is one
/// line.
pub fn refuse_idle_knobs(
    overrides: &Overrides,
    designs: &[DesignPoint],
    scenarios: bool,
) -> Result<(), String> {
    let dac = designs.contains(&DesignPoint::Hw(Design::Dac));
    for (knob, value) in overrides.values() {
        let idle = match knob.scope {
            Scope::Dac if !dac => Some("only dac points read it, and no design is dac"),
            Scope::Scenario if !scenarios => {
                Some("only stream scenarios read it; the run has none")
            }
            Scope::Payload if !scenarios => Some("the run takes no stream scenario"),
            _ => None,
        };
        if let Some(why) = idle {
            return Err(format!(
                "--set {}: changes no point of this run ({why})",
                knob.name
            ));
        }
        if let (Domain::PerWarpTotal, Some(total)) = (knob.domain, value.as_u64()) {
            let warps = overrides
                .max_warps_per_sm
                .unwrap_or_else(|| gpu_for(Design::Dac).max_warps_per_sm);
            if total < warps as u64 {
                return Err(format!(
                    "--set {}: must be at least max_warps_per_sm ({warps}); below it each \
                     warp's one-entry floor, not the total, sizes the queue",
                    knob.name
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_checks_each_knob_against_its_row() {
        let mut o = Overrides::default();
        for knob in KNOBS {
            let value = match knob.domain {
                Domain::Count(min, _) => min.to_string(),
                Domain::PerWarpTotal => "1".into(),
                Domain::Flag => "off".into(),
                Domain::Choice(names) => names[0].to_uppercase(),
            };
            o.set(knob.name, &value).unwrap();
            assert!((knob.get)(&o).is_some(), "{}", knob.name);
            assert_eq!(
                o.set(knob.name, &value).unwrap_err(),
                format!(
                    "--set: duplicate knob {:?} (each knob may be set once)",
                    knob.name
                )
            );
        }
        let err = o.set("warp_speed", "9").unwrap_err();
        let names: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        assert!(err.ends_with(&format!("(expected one of: {})", names.join(", "))));
        assert_eq!(o.values().count(), KNOBS.len());
    }

    #[test]
    fn scenario_knobs_default_to_what_scenario_jobs_run() {
        let policy = |o: &Overrides| o.scenario_values().collect::<Vec<_>>();
        let name = |p: &str| Value::Str(p.into());
        let default = [("cta_policy", name(PlacementPolicy::default().name()))];
        assert_eq!(policy(&Overrides::default()), default);
        let mut rr = Overrides::default();
        rr.set("cta_policy", "RR").unwrap();
        assert_eq!(policy(&rr), [("cta_policy", name("rr"))]);
    }

    #[test]
    fn idle_knobs_are_refused() {
        let set = |pairs: &[(&str, &str)]| {
            let mut o = Overrides::default();
            for (k, v) in pairs {
                o.set(k, v).unwrap();
            }
            o
        };
        let dac = [DesignPoint::Hw(Design::Dac)];
        let base = [DesignPoint::Hw(Design::Baseline), DesignPoint::PerfectMem];
        let policy = set(&[("cta_policy", "rr")]);
        assert!(refuse_idle_knobs(&policy, &dac, true).is_ok());
        let err = refuse_idle_knobs(&policy, &dac, false).unwrap_err();
        assert!(
            err.starts_with("--set cta_policy: changes no point"),
            "{err}"
        );
        let atq = set(&[("atq_entries", "4")]);
        assert!(refuse_idle_knobs(&atq, &dac, false).is_ok());
        let err = refuse_idle_knobs(&atq, &base, true).unwrap_err();
        assert!(
            err.starts_with("--set atq_entries: changes no point"),
            "{err}"
        );
        // Queue totals count against the machine's warp slots, default or set.
        assert!(refuse_idle_knobs(&set(&[("pwaq_total", "48")]), &dac, false).is_ok());
        let err = refuse_idle_knobs(&set(&[("pwpq_total", "47")]), &dac, false).unwrap_err();
        assert!(err.contains("at least max_warps_per_sm (48)"), "{err}");
        let small = set(&[("pwaq_total", "16"), ("max_warps_per_sm", "16")]);
        assert!(refuse_idle_knobs(&small, &dac, false).is_ok());
        // Machine knobs key every run; the payload selector, a run with a
        // scenario (an experiment takes none).
        assert!(refuse_idle_knobs(&set(&[("num_sms", "2")]), &base, false).is_ok());
        let streams = set(&[("streams", "pipeline")]);
        assert!(refuse_idle_knobs(&streams, &base, true).is_ok());
        assert!(refuse_idle_knobs(&streams, &base, false).is_err());
    }
}
