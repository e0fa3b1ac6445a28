//! Metric definitions, the layer -> end-to-end map, and the small
//! statistics and JSON helpers the result lines need.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether a metric is virtual (modeled, bit-exact for a given seed) or
/// measured on the host clock.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Virtual time, bytes, counts and fractions from the engine reports:
    /// a pure function of (workload, seed), compared bit for bit.
    Modeled,
    /// Time (process CPU time end to end, wall time per layer) or memory
    /// of the host running the simulation.
    Host,
}

/// One end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub kind: Kind,
}

/// One per-layer metric and the end-to-end metrics it should move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub kind: Kind,
    pub layer: &'static str,
    pub moves: &'static [&'static str],
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    kind: Kind,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        kind,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    kind: Kind,
    layer: &'static str,
    moves: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        kind,
        layer,
        moves,
    }
}

use Kind::{Host, Modeled};

/// Every end-to-end metric; each workload reports all of them.
pub const END_TO_END: [EndToEnd; 12] = [
    e2e("virt_tokens_per_s", "1/s", "higher", 0.15, Modeled),
    e2e("virt_speedup_vs_vanilla", "x", "higher", 0.1, Modeled),
    e2e("a2a_cross_bytes_per_token", "B", "lower", 0.05, Modeled),
    e2e("virt_p50_s", "s", "lower", 0.15, Modeled),
    e2e("virt_p99_s", "s", "lower", 0.2, Modeled),
    e2e("virt_goodput_rps", "1/s", "higher", 0.15, Modeled),
    e2e("setup_s", "s", "lower", 0.25, Host),
    e2e("host_tokens_per_s", "1/s", "higher", 0.25, Host),
    e2e("host_requests_per_s", "1/s", "higher", 0.25, Host),
    e2e("host_windows_per_s", "1/s", "higher", 0.25, Host),
    e2e("peak_rss_mb", "MB", "lower", 0.1, Host),
    e2e("ok_frac", "frac", "higher", 0.01, Host),
];

const SETUP: &[&str] = &["setup_s"];
const REPLAN: &[&str] = &["host_windows_per_s"];
const CROSS: &[&str] = &["virt_tokens_per_s", "a2a_cross_bytes_per_token"];
const COLL_HOST: &[&str] = &["host_tokens_per_s"];
const COLL_VIRT: &[&str] = &["a2a_cross_bytes_per_token", "virt_tokens_per_s"];
const ENGINE_HOST: &[&str] = &["host_tokens_per_s", "host_requests_per_s"];
const ENGINE_VIRT: &[&str] = &["virt_tokens_per_s"];
const SERVING: &[&str] = &["host_requests_per_s", "virt_p99_s", "virt_goodput_rps"];
const ONLINE: &[&str] = &["virt_tokens_per_s"];
const TRACE: &[&str] = &[];

/// Every per-layer metric of the traced run; each workload reports all
/// of them (a layer a workload barely uses still reports its value).
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 42] = [
    layer("model.sample_s", "s", "lower", Host, "model", SETUP),
    layer("model.tokens_sampled", "count", "lower", Modeled, "model", SETUP),
    layer("affinity.trace_s", "s", "lower", Host, "affinity", SETUP),
    layer("affinity.estimate_s", "s", "lower", Host, "affinity", SETUP),
    layer("affinity.nnz", "count", "lower", Modeled, "affinity", SETUP),
    layer("placement.objective_s", "s", "lower", Host, "placement", SETUP),
    layer("placement.objective_nnz", "count", "lower", Modeled, "placement", SETUP),
    layer("placement.stage1_s", "s", "lower", Host, "placement", SETUP),
    layer("placement.stage2_s", "s", "lower", Host, "placement", SETUP),
    layer("placement.cross_mass", "transitions", "lower", Modeled, "placement", CROSS),
    layer("placement.replans", "count", "lower", Modeled, "placement.incremental", REPLAN),
    layer("placement.replan_s", "s", "lower", Host, "placement.incremental", REPLAN),
    layer("placement.replan_considered", "count", "lower", Modeled, "placement.incremental", REPLAN),
    layer("placement.replan_evaluated", "count", "lower", Modeled, "placement.incremental", REPLAN),
    layer("placement.replan_reused", "count", "higher", Modeled, "placement.incremental", REPLAN),
    layer("placement.experts_moved", "count", "lower", Modeled, "placement.incremental", REPLAN),
    layer("placement.migrated_bytes", "B", "lower", Modeled, "placement.incremental", REPLAN),
    layer("collectives.world_call_s", "s", "lower", Host, "collectives", COLL_HOST),
    layer("collectives.a2a_bytes_local", "B", "higher", Modeled, "collectives", COLL_VIRT),
    layer("collectives.a2a_bytes_intra_node", "B", "lower", Modeled, "collectives", COLL_VIRT),
    layer("collectives.a2a_bytes_inter_node", "B", "lower", Modeled, "collectives", COLL_VIRT),
    layer("collectives.allgather_bytes", "B", "lower", Modeled, "collectives", COLL_VIRT),
    layer("collectives.virt_alltoall_s", "s", "lower", Modeled, "collectives", COLL_VIRT),
    layer("collectives.virt_allgather_s", "s", "lower", Modeled, "collectives", COLL_VIRT),
    layer("collectives.virt_wait_s", "s", "lower", Modeled, "collectives", COLL_VIRT),
    layer("engine.run_s", "s", "lower", Host, "core.engine", ENGINE_HOST),
    layer("engine.vanilla_run_s", "s", "lower", Host, "core.engine", ENGINE_HOST),
    layer("engine.step_call_s", "s", "lower", Host, "core.engine", ENGINE_HOST),
    layer("engine.virt_attention_s", "s", "lower", Modeled, "core.engine", ENGINE_VIRT),
    layer("engine.virt_gating_s", "s", "lower", Modeled, "core.engine", ENGINE_VIRT),
    layer("engine.virt_expert_ffn_s", "s", "lower", Modeled, "core.engine", ENGINE_VIRT),
    layer("engine.gpu_local_frac", "frac", "higher", Modeled, "core.engine", ENGINE_VIRT),
    layer("engine.node_local_frac", "frac", "higher", Modeled, "core.engine", ENGINE_VIRT),
    layer("serving.steps", "count", "lower", Modeled, "core.serving", SERVING),
    layer("serving.host_s_per_step", "s", "lower", Host, "core.serving", SERVING),
    layer("serving.mean_batch", "tokens", "higher", Modeled, "core.serving", SERVING),
    layer("serving.max_queue_depth", "count", "lower", Modeled, "core.serving", SERVING),
    layer("serving.busy_frac", "frac", "higher", Modeled, "core.serving", SERVING),
    layer("online.virt_migration_s", "s", "lower", Modeled, "core.online", ONLINE),
    layer("online.drift_max", "divergence", "lower", Modeled, "core.online", ONLINE),
    layer("trace.overhead_s", "s", "lower", Host, "trace", TRACE),
    layer("trace.spans", "count", "lower", Host, "trace", TRACE),
];

/// Named metric values in insertion-independent (sorted) order.
pub type Values = BTreeMap<&'static str, f64>;

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of a non-empty sample,
/// the convention `ServingReport::percentile` uses.
pub fn nearest_rank(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form
/// carries (non-finite values are rejected before output).
pub fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "non-finite metric value {x}");
    format!("{x}")
}

/// A JSON list of string literals.
fn json_str_list(xs: &[&str]) -> String {
    let items: Vec<String> = xs.iter().map(|s| json_str(s)).collect();
    format!("[{}]", items.join(", "))
}

/// The machine-readable description of the benchmark (`--describe`):
/// the workloads, both metric sets with their layer -> end-to-end map,
/// and how this benchmark relates to the solver-sweep gate.
pub fn describe(workloads: &[[(&str, &str); 4]]) -> String {
    let mut out = String::from("{\n  \"workloads\": [\n");
    let rows: Vec<String> = workloads
        .iter()
        .map(|fields| {
            let fields: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
                .collect();
            format!("    {{{}}}", fields.join(", "))
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \"kind\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                json_num(m.bound),
                json_str(kind_name(m.kind))
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"kind\": {}, \"layer\": {}, \"moves\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                json_str(kind_name(m.kind)),
                json_str(m.layer),
                json_str_list(m.moves)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str(
        "\n  ],\n  \"solver_sweep_gate\": {\"tool\": \"bench_summary\", \"baseline\": \
         \"BENCH_PR9.json\", \"role\": \"bit-compare gate for solver sweeps, unchanged \
         and not replaced by this benchmark\"}\n}\n",
    );
    out
}

fn kind_name(k: Kind) -> &'static str {
    match k {
        Modeled => "modeled",
        Host => "host",
    }
}

/// The result line: `correct`, `attempted`, `failed` and one
/// `{"value", "unit"}` object per metric, in table order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        items.join(", ")
    )
}
