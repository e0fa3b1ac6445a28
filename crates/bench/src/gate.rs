//! The CI perf-gate: compare a fresh [`BenchSummary`] against the
//! committed baseline `BENCH_*.json`.
//!
//! Every summary field declares its gate role once, next to its value:
//! `Key` fields match baseline rows to fresh ones; `Bit` fields are
//! deterministic facts printed so that *string* inequality is *bit*
//! inequality of the value, and any mismatch is a hard failure (the
//! baseline must be regenerated deliberately, never drift silently);
//! `Wall` fields are machine-dependent measurements whose regressions
//! beyond [`WALL_REGRESSION_WARN`] only warn, because CI runners are
//! noisy. Every section the fresh run declares must be in the baseline.
//! The acceptance bars are checked on the fresh run's typed rows.
//!
//! The baseline is read line by line with the workspace's flat-object
//! reader ([`exflow_core::flat_json`]): it reads exactly the document
//! `BenchSummary::to_json` emits, not arbitrary JSON — the workspace
//! builds offline and carries no serde.

use exflow_core::flat_json::split_flat_object;

use crate::summary::{BenchSummary, ElasticityRow, Field, PartialReplicationRow, Role, SCHEMA};

/// Fractional wall-clock regression beyond which a warning is emitted
/// (fresh > 1.25x baseline).
pub const WALL_REGRESSION_WARN: f64 = 1.25;

/// Wall measurements shorter than this (milliseconds) are never compared:
/// at micro scale the noise floor dwarfs any real regression.
pub const WALL_FLOOR_MS: f64 = 5.0;

/// The sparse backend must beat dense by at least this factor on the
/// `E = 512`, top-1 cell (the acceptance bar of the sparse backend).
pub const MIN_SPARSE_SPEEDUP_512: f64 = 2.0;

/// Budgeted incremental re-placement must recover at least this fraction
/// of the oracle re-solve's cross-traffic reduction on every
/// `table_online` scenario (the acceptance bar of the online subsystem).
pub const MIN_ONLINE_RECOVERY: f64 = 0.8;

/// Incremental objective maintenance plus the swap-gain cache must cut
/// per-re-plan candidate-gain recomputation by at least this factor over
/// a cold rebuild on every `E = 512` `table_replan_latency` cell (the
/// acceptance bar of the incremental re-plan engine). Like the sparse
/// bar, this is an operation-count — not wall-clock — contrast, so it
/// holds on 1-core runners too.
pub const MIN_REPLAN_SCAN_REDUCTION_512: f64 = 5.0;

/// Outcome of a baseline comparison.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Hard failures: objective drift, schema/coverage mismatches, broken
    /// acceptance bars.
    pub drifts: Vec<String>,
    /// Soft findings: wall-clock regressions beyond the noise allowance.
    pub warnings: Vec<String>,
}

impl GateReport {
    /// Whether the gate passes (warnings allowed, drifts not).
    pub fn ok(&self) -> bool {
        self.drifts.is_empty()
    }

    /// Render as markdown for the CI job summary.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if self.ok() {
            out.push_str("### perf-gate: PASS\n\n");
        } else {
            out.push_str("### perf-gate: FAIL (objective drift)\n\n");
            for d in &self.drifts {
                out.push_str(&format!("- :x: {d}\n"));
            }
        }
        if self.warnings.is_empty() {
            out.push_str("No wall-time regressions beyond the noise allowance.\n");
        } else {
            out.push_str("#### Wall-time regressions (warning only)\n\n");
            for w in &self.warnings {
                out.push_str(&format!("- :warning: {w}\n"));
            }
        }
        out
    }
}

/// One row (or the header) of the baseline: `(key, raw printed token)`.
type RawRow = Vec<(String, String)>;

/// The raw token of `name` in a baseline row.
fn raw<'a>(row: &'a RawRow, name: &str) -> Option<&'a str> {
    row.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
}

/// A baseline document: its header fields and each array section's rows,
/// in file order.
#[derive(Default)]
struct Baseline {
    header: RawRow,
    sections: Vec<(String, Vec<RawRow>)>,
}

impl Baseline {
    /// Read the line-oriented document `BenchSummary::to_json` emits:
    /// header fields one per line, each row one object per line.
    fn parse(json: &str) -> Result<Baseline, String> {
        let mut doc = Baseline::default();
        let mut open: Option<(String, Vec<RawRow>)> = None;
        for line in json.lines().map(str::trim) {
            let item = line.strip_suffix(',').unwrap_or(line);
            if let Some((name, rows)) = &mut open {
                if item == "]" {
                    doc.sections
                        .push((std::mem::take(name), std::mem::take(rows)));
                    open = None;
                } else {
                    rows.push(split_flat_object(item)?);
                }
            } else if let Some(name) = line.strip_suffix(": [") {
                open = Some((name.trim_matches('"').to_string(), Vec::new()));
            } else if !matches!(line, "" | "{" | "}") {
                doc.header
                    .extend(split_flat_object(&format!("{{{item}}}"))?);
            }
        }
        match open {
            Some((name, _)) => Err(format!("section {name} is never closed")),
            None => Ok(doc),
        }
    }
}

fn warn_wall(warnings: &mut Vec<String>, what: &str, base: Option<f64>, fresh: Option<f64>) {
    if let (Some(base), Some(fresh)) = (base, fresh) {
        if base >= WALL_FLOOR_MS && fresh > WALL_REGRESSION_WARN * base {
            warnings.push(format!(
                "{what}: wall {fresh:.1} ms vs baseline {base:.1} ms ({:.0}% regression)",
                (fresh / base - 1.0) * 100.0
            ));
        }
    }
}

/// The printed tokens of a fresh row's `Key` fields.
fn key_of(row: &[Field]) -> Vec<String> {
    row.iter()
        .filter(|(_, _, role)| *role == Role::Key)
        .map(|(_, value, _)| value.to_string())
        .collect()
}

/// Match one section's rows on their `Key` fields, bit-compare the `Bit`
/// fields and warn on `Wall` regressions.
fn compare_rows(report: &mut GateReport, section: &str, base: &[RawRow], fresh: &[Vec<Field>]) {
    let Some(first) = fresh.first() else {
        if !base.is_empty() {
            report.drifts.push(format!(
                "{section}: {} baseline row(s), none in the fresh run",
                base.len()
            ));
        }
        return;
    };
    let key_names: Vec<&str> = first
        .iter()
        .filter(|(_, _, role)| *role == Role::Key)
        .map(|(name, _, _)| *name)
        .collect();
    let base_key = |row: &RawRow| -> Vec<String> {
        key_names
            .iter()
            .map(|name| raw(row, name).unwrap_or_default().to_string())
            .collect()
    };
    let label = |key: &[String]| -> String {
        let parts: Vec<&str> = key.iter().map(|k| k.trim_matches('"')).collect();
        if parts.is_empty() {
            section.to_string()
        } else {
            format!("{section}/{}", parts.join("/"))
        }
    };
    for row in fresh {
        let key = key_of(row);
        let at = label(&key);
        let Some(b) = base.iter().find(|b| base_key(b) == key) else {
            report.drifts.push(format!(
                "{at} not in baseline (regenerate the committed JSON)"
            ));
            continue;
        };
        for (name, value, role) in row {
            let (old, new) = (raw(b, name), value.to_string());
            match role {
                Role::Bit if old != Some(new.as_str()) => report.drifts.push(format!(
                    "{name} drift on {at}: baseline {} vs fresh {new}",
                    old.unwrap_or("<absent>")
                )),
                Role::Wall => warn_wall(
                    &mut report.warnings,
                    &format!("{at} {name}"),
                    old.and_then(|v| v.parse().ok()),
                    new.parse().ok(),
                ),
                _ => {}
            }
        }
    }
    for b in base {
        let key = base_key(b);
        if !fresh.iter().any(|row| key_of(row) == key) {
            report
                .drifts
                .push(format!("{} missing from fresh run", label(&key)));
        }
    }
}

/// One acceptance bar: a named property every fresh run must hold, and a
/// description of each violation (empty when the bar holds). Bars read
/// the typed rows through the row methods that define each figure, never
/// values re-parsed from the rounded JSON.
type Bar = (&'static str, fn(&BenchSummary) -> Vec<String>);

/// Describe every row for which `holds` is false.
fn failing<R>(rows: &[R], holds: fn(&R) -> bool, describe: fn(&R) -> String) -> Vec<String> {
    rows.iter().filter(|r| !holds(r)).map(describe).collect()
}

/// A sweep-wide fact as a violation list: empty when it holds.
fn unless(holds: bool, violation: &str) -> Vec<String> {
    if holds {
        Vec::new()
    } else {
        vec![violation.to_string()]
    }
}

/// Whether `bytes` fit `replans` re-plans of `budget` bytes each.
fn within_budget(bytes: u64, budget: u64, replans: usize) -> bool {
    bytes <= budget.saturating_mul(replans as u64)
}

/// Every acceptance bar, checked on the fresh run regardless of the
/// baseline. The sparse speedup and the re-plan scan reduction are
/// algorithmic operation-count contrasts, not thread-parallel timings, so
/// they hold on 1-core runners too.
const BARS: &[Bar] = &[
    ("sparse backend speedup at E=512 top-1", |s| {
        failing(
            &s.sparse_rows,
            |r| r.n_experts != 512 || r.k != 1 || r.speedup() >= MIN_SPARSE_SPEEDUP_512,
            |r| {
                format!(
                    "{}: {:.2}x < {MIN_SPARSE_SPEEDUP_512}x",
                    r.preset,
                    r.speedup()
                )
            },
        )
    }),
    ("online recovery", |s| {
        failing(
            &s.online_rows,
            |r| r.recovery() >= MIN_ONLINE_RECOVERY,
            |r| {
                format!(
                    "{}: {:.4} < {MIN_ONLINE_RECOVERY}",
                    r.scenario,
                    r.recovery()
                )
            },
        )
    }),
    ("online migration budget", |s| {
        failing(
            &s.online_rows,
            |r| within_budget(r.migrated_bytes, r.budget_bytes, r.replans),
            |r| format!("{}: {} bytes", r.scenario, r.migrated_bytes),
        )
    }),
    ("replication memory budget", |s| {
        failing(
            &s.replication_online_rows,
            |r| r.extra_copies <= r.replica_slots,
            |r| format!("{}: {} extra copies", r.scenario, r.extra_copies),
        )
    }),
    ("replication migration budget", |s| {
        failing(
            &s.replication_online_rows,
            |r| {
                within_budget(r.owner_migrated_bytes, r.budget_bytes, r.owner_replans)
                    && within_budget(r.joint_migrated_bytes, r.budget_bytes, r.joint_replans)
            },
            |r| r.scenario.clone(),
        )
    }),
    ("joint policy never loses to owner moves", |s| {
        failing(
            &s.replication_online_rows,
            |r| r.joint_cross <= r.owner_cross,
            |r| format!("{}: {} vs {}", r.scenario, r.joint_cross, r.owner_cross),
        )
    }),
    ("joint policy beats owner moves somewhere", |s| {
        let rows = &s.replication_online_rows;
        let wins = rows.iter().any(|r| r.joint_cross < r.owner_cross);
        unless(
            rows.is_empty() || wins,
            "the replica memory budget bought nothing",
        )
    }),
    // Adaptive policies pay for re-placements with real migration stalls
    // and must still never worsen the tail.
    ("serving p99 never above static", |s| {
        failing(
            &s.serving_rows,
            |r| r.online_p99 <= r.static_p99 && r.repl_p99 <= r.static_p99,
            |r| r.arrival.clone(),
        )
    }),
    ("serving goodput within offered load", |s| {
        failing(
            &s.serving_rows,
            |r| {
                [r.static_goodput, r.online_goodput, r.repl_goodput]
                    .iter()
                    .all(|&g| g <= r.offered_load)
            },
            |r| r.arrival.clone(),
        )
    }),
    ("replicated fleet recovers strictly faster", |s| {
        failing(
            &s.elasticity_rows,
            ElasticityRow::replication_recovers_faster,
            |r| format!("{}: {} vs {}", r.fault, r.repl_recovery, r.plain_recovery),
        )
    }),
    ("failover saves wire traffic", |s| {
        failing(
            &s.elasticity_rows,
            |r| r.repl_emergency_bytes < r.plain_emergency_bytes,
            |r| r.fault.clone(),
        )
    }),
    ("incremental re-plan is bit-identical to rebuild", |s| {
        failing(
            &s.replan_latency_rows,
            |r| r.cross_mass_rebuild.to_bits() == r.cross_mass_incremental.to_bits(),
            |r| r.preset.clone(),
        )
    }),
    ("re-plan scan reduction at E=512", |s| {
        failing(
            &s.replan_latency_rows,
            |r| r.n_experts != 512 || r.scan_reduction() >= MIN_REPLAN_SCAN_REDUCTION_512,
            |r| {
                format!(
                    "{}: {:.2}x < {MIN_REPLAN_SCAN_REDUCTION_512}x",
                    r.preset,
                    r.scan_reduction()
                )
            },
        )
    }),
    (
        "partial replication never loses to full at equal memory",
        |s| {
            failing(
                &s.partial_replication_rows,
                PartialReplicationRow::partial_never_loses,
                |r| {
                    format!(
                        "{}: {} vs {}",
                        r.scenario, r.partial_cross_mass, r.full_cross_mass
                    )
                },
            )
        },
    ),
    ("partial replication memory budget", |s| {
        failing(
            &s.partial_replication_rows,
            |r| r.partial_extra_copies.max(r.full_extra_copies) <= r.replica_slots,
            |r| r.scenario.clone(),
        )
    }),
    ("partial replication migration budget", |s| {
        failing(
            &s.partial_replication_rows,
            |r| within_budget(r.partial_migrated_bytes, r.budget_bytes, r.partial_replans),
            |r| format!("{}: {} bytes", r.scenario, r.partial_migrated_bytes),
        )
    }),
    // The regression the partial-replication sweep exists to catch: top-2
    // models silently falling back to owner-only serving.
    ("a top-2 CC row places replicas", |s| {
        let rows = &s.partial_replication_rows;
        let placed = rows.iter().any(|r| r.k == 2 && r.cc_replicas_added > 0);
        unless(
            rows.is_empty() || placed,
            "top-2 dispatch fell back to owner-only serving",
        )
    }),
];

/// Compare a fresh summary against the committed baseline JSON, which
/// must be a [`SCHEMA`] document holding every section the fresh run
/// declares.
pub fn compare(baseline: &str, fresh: &BenchSummary) -> GateReport {
    let mut report = GateReport::default();
    let base = match Baseline::parse(baseline) {
        Ok(base) => base,
        Err(err) => {
            report.drifts.push(format!("unreadable baseline: {err}"));
            return report;
        }
    };
    if raw(&base.header, "schema") != Some(format!("\"{SCHEMA}\"").as_str()) {
        report.drifts.push(format!(
            "schema mismatch: the baseline must be {SCHEMA} \
             (regenerate the committed baseline with bench_summary)"
        ));
        return report;
    }
    compare_rows(
        &mut report,
        "whole sweep",
        &[base.header],
        &[fresh.header()],
    );
    for (section, rows) in fresh.sections() {
        match base.sections.iter().find(|(name, _)| name == section) {
            Some((_, base_rows)) => compare_rows(&mut report, section, base_rows, &rows),
            None => report.drifts.push(format!(
                "section {section} missing from the baseline (regenerate the committed JSON)"
            )),
        }
    }
    for (bar, violations) in BARS {
        for violation in violations(fresh) {
            report
                .drifts
                .push(format!("acceptance bar '{bar}' fails: {violation}"));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::tests::fixture;
    use crate::summary::{emit, Section, Value};

    /// Give a field another value of the same print form: one ulp away
    /// for round-trip floats, the smallest visible change.
    fn perturb(field: &mut Field) {
        field.1 = match &field.1 {
            Value::Str(s) => Value::Str(format!("{s}x")),
            Value::Int(n) => Value::Int(n + 1),
            Value::Float(x) => Value::Float(f64::from_bits(x.to_bits() + 1)),
            Value::Fixed(x, decimals) => Value::Fixed(x + 1.0, *decimals),
            Value::Bool(b) => Value::Bool(!b),
        };
    }

    /// The baseline printed from `sections` with field `f` of row `r` of
    /// section `s` perturbed.
    fn baseline_with(
        header: &[Field],
        sections: &[Section],
        s: usize,
        r: usize,
        f: usize,
    ) -> String {
        let mut sections = sections.to_vec();
        perturb(&mut sections[s].1[r][f]);
        emit(header, &sections)
    }

    #[test]
    fn identical_documents_pass() {
        let fresh = fixture();
        let report = compare(&fresh.to_json(), &fresh);
        assert!(report.ok(), "{:?}", report.drifts);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert!(report.to_markdown().contains("PASS"));
    }

    #[test]
    fn each_bit_field_drift_is_exactly_one_named_drift() {
        let fresh = fixture();
        let (header, sections) = (fresh.header(), fresh.sections());
        let mut bit_fields = Vec::new();
        for (s, (section, rows)) in sections.iter().enumerate() {
            let mut count = 0;
            for (r, row) in rows.iter().enumerate() {
                let at = format!("{section}/{}", key_of(row)[0].trim_matches('"'));
                for (f, (name, _, role)) in row.iter().enumerate() {
                    if *role != Role::Bit {
                        continue;
                    }
                    count += 1;
                    let report = compare(&baseline_with(&header, &sections, s, r, f), &fresh);
                    assert_eq!(report.drifts.len(), 1, "{at} {name}: {:?}", report.drifts);
                    assert!(
                        report.drifts[0].starts_with(&format!("{name} drift on {at}")),
                        "{:?}",
                        report.drifts
                    );
                    assert!(report.to_markdown().contains("FAIL"));
                }
            }
            bit_fields.push(count);
        }
        // rows, sparse, online, replication-online, serving, elasticity,
        // replan-latency, partial-replication.
        assert_eq!(bit_fields, [1, 2, 5, 9, 16, 12, 7, 11]);
    }

    #[test]
    fn wall_and_info_fields_never_drift() {
        let fresh = fixture();
        let (header, sections) = (fresh.header(), fresh.sections());
        for f in 0..header.len() {
            let mut changed = header.clone();
            perturb(&mut changed[f]);
            let report = compare(&emit(&changed, &sections), &fresh);
            assert!(report.ok(), "header {}: {:?}", header[f].0, report.drifts);
        }
        for (s, (section, rows)) in sections.iter().enumerate() {
            for (r, row) in rows.iter().enumerate() {
                for (f, (name, _, role)) in row.iter().enumerate() {
                    if matches!(role, Role::Wall | Role::Info) {
                        let report = compare(&baseline_with(&header, &sections, s, r, f), &fresh);
                        assert!(report.ok(), "{section} {name}: {:?}", report.drifts);
                    }
                }
            }
        }
    }

    #[test]
    fn every_section_must_be_in_the_baseline() {
        let fresh = fixture();
        let sections = fresh.sections();
        for s in 0..sections.len() {
            let mut stripped = sections.clone();
            let (name, _) = stripped.remove(s);
            let report = compare(&emit(&fresh.header(), &stripped), &fresh);
            assert!(
                report
                    .drifts
                    .iter()
                    .any(|d| d.starts_with(&format!("section {name} missing from the baseline"))),
                "{name}: {:?}",
                report.drifts
            );
        }
    }

    #[test]
    fn missing_and_extra_rows_fail_in_every_section() {
        let fresh = fixture();
        let sections = fresh.sections();
        for (s, (section, rows)) in sections.iter().enumerate() {
            let key = rows[0].iter().position(|f| f.2 == Role::Key).unwrap();
            let report = compare(
                &baseline_with(&fresh.header(), &sections, s, 0, key),
                &fresh,
            );
            for what in ["not in baseline", "missing from fresh run"] {
                assert!(
                    report
                        .drifts
                        .iter()
                        .any(|d| d.starts_with(&format!("{section}/")) && d.contains(what)),
                    "{section} {what}: {:?}",
                    report.drifts
                );
            }
        }
    }

    #[test]
    fn other_schemas_and_unreadable_baselines_are_rejected() {
        let fresh = fixture();
        let json = fresh.to_json();
        let v7 = json.replace(SCHEMA, "exflow-bench-summary/v7");
        let report = compare(&v7, &fresh);
        assert_eq!(report.drifts.len(), 1);
        assert!(report.drifts[0].starts_with("schema mismatch"));
        for cut in [json.len() / 3, json.len() / 2, json.len() - 10] {
            let report = compare(&json[..cut], &fresh);
            assert!(!report.ok(), "a baseline cut at byte {cut} must fail");
        }
    }

    #[test]
    fn wall_regressions_only_warn_and_improvements_are_silent() {
        let base = fixture();
        let mut slower = base.clone();
        slower.wall_ms_jobs1 *= 2.0;
        slower.replan_latency_rows[0].wall_ms_incremental *= 2.0;
        let report = compare(&base.to_json(), &slower);
        assert!(report.ok(), "{:?}", report.drifts);
        for what in ["whole sweep wall_ms_jobs1", "wall_ms_incremental"] {
            assert!(
                report.warnings.iter().any(|w| w.contains(what)),
                "{:?}",
                report.warnings
            );
        }
        assert!(report.to_markdown().contains("Wall-time regressions"));
        let mut faster = base.clone();
        faster.wall_ms_jobs1 /= 2.0;
        assert!(compare(&base.to_json(), &faster).warnings.is_empty());
    }

    #[test]
    fn each_bar_fails_its_breaking_input() {
        type Breaks = fn(&mut BenchSummary);
        let cases: &[(&str, Breaks)] = &[
            // Dense 15 ms vs sparse 10 ms: only 1.5x on the 512 cell.
            ("sparse backend speedup at E=512 top-1", |s| {
                s.sparse_rows[0].wall_ms_dense = 15.0
            }),
            // static 5000, oracle 3000: budgeted 4000 recovers only 50%.
            ("online recovery", |s| {
                s.online_rows[0].budgeted_cross = 4000
            }),
            ("online migration budget", |s| {
                let r = &mut s.online_rows[0];
                r.migrated_bytes = r.budget_bytes * r.replans as u64 + 1;
            }),
            ("replication memory budget", |s| {
                let r = &mut s.replication_online_rows[0];
                r.extra_copies = r.replica_slots + 1;
            }),
            ("replication migration budget", |s| {
                let r = &mut s.replication_online_rows[0];
                r.joint_migrated_bytes = r.budget_bytes * r.joint_replans as u64 + 1;
            }),
            ("joint policy never loses to owner moves", |s| {
                let r = &mut s.replication_online_rows[0];
                r.joint_cross = r.owner_cross + 100;
            }),
            ("joint policy beats owner moves somewhere", |s| {
                let r = &mut s.replication_online_rows[0];
                r.joint_cross = r.owner_cross;
            }),
            ("serving p99 never above static", |s| {
                let r = &mut s.serving_rows[0];
                r.online_p99 = r.static_p99 + 1.0;
            }),
            ("serving goodput within offered load", |s| {
                let r = &mut s.serving_rows[0];
                r.repl_goodput = r.offered_load * 2.0;
            }),
            // Never recovering at all.
            ("replicated fleet recovers strictly faster", |s| {
                s.elasticity_rows[0].repl_recovery = -1.0
            }),
            ("failover saves wire traffic", |s| {
                let r = &mut s.elasticity_rows[0];
                r.repl_emergency_bytes = r.plain_emergency_bytes;
            }),
            ("incremental re-plan is bit-identical to rebuild", |s| {
                s.replan_latency_rows[0].cross_mass_incremental += 1e-12
            }),
            // 8M rebuild vs 4M incremental: only a 2x cut on the 512 cell.
            ("re-plan scan reduction at E=512", |s| {
                s.replan_latency_rows[0].evaluated_incremental = 4_000_000
            }),
            (
                "partial replication never loses to full at equal memory",
                |s| {
                    let r = &mut s.partial_replication_rows[0];
                    r.partial_cross_mass = r.full_cross_mass + 0.1;
                },
            ),
            ("partial replication memory budget", |s| {
                let r = &mut s.partial_replication_rows[0];
                r.partial_extra_copies = r.replica_slots + 1;
            }),
            ("partial replication migration budget", |s| {
                let r = &mut s.partial_replication_rows[0];
                r.partial_migrated_bytes = r.budget_bytes * r.partial_replans as u64 + 1;
            }),
            ("a top-2 CC row places replicas", |s| {
                s.partial_replication_rows[0].cc_replicas_added = 0
            }),
        ];
        let names: Vec<&str> = cases.iter().map(|(name, _)| *name).collect();
        let bars: Vec<&str> = BARS.iter().map(|(bar, _)| *bar).collect();
        assert_eq!(names, bars, "one breaking case per bar, in table order");
        let baseline = fixture().to_json();
        for (name, breaks) in cases {
            let mut fresh = fixture();
            breaks(&mut fresh);
            let report = compare(&baseline, &fresh);
            assert!(
                report
                    .drifts
                    .iter()
                    .any(|d| d.starts_with(&format!("acceptance bar '{name}' fails"))),
                "{name}: {:?}",
                report.drifts
            );
        }
    }
}
