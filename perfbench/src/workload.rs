//! The three workloads, measured from outside through the public API of
//! the exflow crates.
//!
//! One *pass* of a workload builds its engine(s) and runs its scenario
//! once. A pass returns every end-to-end value (except the run-level
//! `setup_s`, `peak_rss_mb` and `ok_frac`) plus the per-layer values the
//! reports and its own timers give, and the correctness checks that
//! failed. The traced run adds the stage decomposition of the set-up and
//! a re-plan probe against a static twin engine.

use std::sync::OnceLock;

use exflow_affinity::{RoutingTrace, SparseAffinity};
use exflow_collectives::CommWorld;
use exflow_core::{
    BatchPolicy, EngineBuilder, InferenceEngine, InferenceReport, OnlineConfig, OnlineReport,
    OpBreakdown, Parallelism, ParallelismMode, ReplanEvent, Scenario, ServingConfig,
};
use exflow_model::presets::{moe_gpt_m, moe_gpt_xxl};
use exflow_model::{ArrivalProcess, DriftSchedule, GateKind, ModelConfig, TokenBatch};
use exflow_placement::local_search::solve_local_search_with;
use exflow_placement::{solve_staged_with, Objective};
use exflow_topology::collective_cost::BytesByClass;
use exflow_topology::ClusterSpec;

use crate::metrics::{median, nearest_rank, Values};
use crate::span::{Took, Tracer};

const EXFLOW: ParallelismMode = ParallelismMode::ContextCoherentAffinity;
const VANILLA: ParallelismMode = ParallelismMode::Vanilla;

/// Batch size of the step-time probe and of the serving batches.
const STEP_BATCH: usize = 32;
/// Requests and decode steps of `serve-8gpu`.
const SERVE_REQUESTS: usize = 1200;
const SERVE_DECODE_STEPS: usize = 4;
/// Offered load of `serve-8gpu` as a share of the step capacity probed
/// on a reference engine built at `CALIBRATION_SEED`, so the arrival rate
/// does not move with the run's seed.
const SERVE_LOAD: f64 = 0.8;
const CALIBRATION_SEED: u64 = 20_240_522;
/// Drift windows of `replan-e512`, and its migration budget in experts.
const REPLAN_WINDOWS: usize = 3;
const REPLAN_BUDGET_EXPERTS: u64 = 40;
/// Bare `CommWorld::run` calls per pass (their median is reported).
const WORLD_CALLS: usize = 5;
/// Seed salt the engine uses for its offline profiling sample; the stage
/// decomposition re-derives the same sample, and its placement check
/// fails if the two ever disagree.
const PROFILE_SEED_SALT: u64 = 0x0ff1_1e5e;

/// A named workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Offline64,
    Serve8,
    ReplanE512,
}

/// A workload's name, why it exists, what one operation of it is, and
/// what its latency percentiles are taken over.
pub struct Info {
    pub workload: Workload,
    pub name: &'static str,
    pub why: &'static str,
    pub operation: &'static str,
    pub latency: &'static str,
}

/// Every workload.
pub const WORKLOADS: [Info; 3] = [
    Info {
        workload: Workload::Offline64,
        name: "offline-64gpu",
        why: "Fig. 10's largest cell, 64 GPUs in Vanilla and ExFlow modes: engine execution and \
              64-rank collectives dominate host time",
        operation: "a generation iteration (4 per mode, 2 modes per pass)",
        latency: "4096 requests generated in lockstep complete with the last iteration, so \
                  p50 = p99 = the ExFlow run's virtual time",
    },
    Info {
        workload: Workload::Serve8,
        name: "serve-8gpu",
        why: "open-loop Poisson serving at 80% load on 8 GPUs: many small engine calls, and \
              queueing turns step time into p99",
        operation: "a request (1200 per pass)",
        latency: "nearest rank over 1200 requests timed from their scheduled arrival; 12 lie \
                  beyond p99",
    },
    Info {
        workload: Workload::ReplanE512,
        name: "replan-e512",
        why: "E=512 top-2 under 2-phase drift: a cold staged solve and two warm budgeted \
              re-plans dominate host time",
        operation: "a drift window (3 per pass)",
        latency: "nearest rank over 3 windows of 64 requests each (p99 is the slowest \
                  window); migration stalls between windows count against throughput",
    },
];

/// Result of one pass.
pub struct Pass {
    /// Operations attempted: generation iterations (offline), requests
    /// (serve) or drift windows (replan).
    pub ops: u64,
    /// Time of every engine build in the pass.
    pub setup: Vec<Took>,
    /// End-to-end and per-layer values, by metric name.
    pub values: Values,
    /// Correctness checks that failed, one line each.
    pub failures: Vec<String>,
    /// The drift run of `replan-e512` and its time, which the re-plan
    /// probe reuses.
    pub online: Option<(OnlineReport, Took)>,
}

/// Records a failed check.
fn check(failures: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        failures.push(what());
    }
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .map(|w| w.workload)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|w| w.workload == self)
            .map(|w| w.name)
            .expect("every workload is listed")
    }

    /// The online settings of the workload's adaptive engine: the
    /// defaults, plus the migration budget on `replan-e512`.
    fn adaptive_online(self) -> OnlineConfig {
        match self {
            Workload::ReplanE512 => OnlineConfig {
                migration_budget_bytes: REPLAN_BUDGET_EXPERTS * replan_model().expert_params() * 2,
                ..OnlineConfig::default()
            },
            _ => OnlineConfig::default(),
        }
    }

    /// The engine builder of the workload's main engine. Every solve runs
    /// single-threaded.
    fn builder(self, seed: u64) -> EngineBuilder {
        let b = match self {
            Workload::Offline64 => InferenceEngine::builder(
                moe_gpt_m(64),
                ClusterSpec::new(8, 8).expect("8x8 cluster"),
            )
            .requests_per_gpu(64)
            .n_iterations(4),
            // Placement stays idle while serving stationary traffic. The
            // request count per GPU sizes only the offline Vanilla/ExFlow
            // pair and the re-plan probe's windows.
            Workload::Serve8 => InferenceEngine::builder(
                moe_gpt_m(64),
                ClusterSpec::new(2, 4).expect("2x4 cluster"),
            )
            .requests_per_gpu(32)
            .online(OnlineConfig {
                drift_threshold: f64::INFINITY,
                ..OnlineConfig::default()
            }),
            Workload::ReplanE512 => InferenceEngine::builder(
                replan_model(),
                ClusterSpec::new(2, 2).expect("2x2 cluster"),
            )
            .requests_per_gpu(16)
            .profile_tokens(400)
            .online(self.adaptive_online()),
        };
        b.parallelism(Parallelism::single()).seed(seed)
    }

    /// Runs one pass. Returns it with the workload's main engine, which
    /// the traced run decomposes.
    pub fn pass(self, seed: u64, tr: &Tracer) -> (Pass, InferenceEngine) {
        let mut setup = Vec::new();
        let mut build = |b: EngineBuilder| {
            let (engine, took) = tr.timed("InferenceEngine::build", || b.build());
            setup.push(took);
            engine
        };
        let mut values = Values::new();
        let mut failures = Vec::new();
        let mut online = None;
        let engine = build(self.builder(seed));
        let (step, t_step) = tr.span("probe_step_time", || {
            engine.probe_step_time(EXFLOW, STEP_BATCH)
        });
        check(&mut failures, step > 0.0, || {
            format!("probed step time {step}")
        });
        values.insert("engine.step_call_s", t_step);
        let ops = match self {
            Workload::Offline64 => offline(&engine, tr, &mut values, &mut failures),
            Workload::Serve8 => serve(
                &engine,
                serve_calibration_step(),
                tr,
                &mut values,
                &mut failures,
            ),
            Workload::ReplanE512 => {
                let (ops, run) = replan(&engine, tr, &mut values, &mut failures);
                online = Some(run);
                ops
            }
        };
        values.insert("collectives.world_call_s", world_call(&engine, tr));
        let pass = Pass {
            ops,
            setup,
            values,
            failures,
            online,
        };
        (pass, engine)
    }

    /// Input sets a metric run cycles through: five on `serve-8gpu`, whose
    /// decode-step count and batch mix move most with the seed, three on
    /// the others, whose passes cost two to three times as much.
    pub fn sub_seeds(self) -> usize {
        match self {
            Workload::Serve8 => 5,
            Workload::Offline64 | Workload::ReplanE512 => 3,
        }
    }

    /// The drift schedule the workload's adaptive engine serves: three
    /// windows on `replan-e512`, two (one re-plan) on the others.
    fn drift(self, engine: &InferenceEngine) -> DriftSchedule {
        let windows = if self == Workload::ReplanE512 {
            REPLAN_WINDOWS
        } else {
            2
        };
        DriftSchedule::piecewise(&engine.config().routing_spec, 2, windows)
    }

    /// The traced run's re-plan probe: the adaptive run of `pass` (or, on
    /// the workloads whose pass has no drift, a fresh one on the main
    /// engine's configuration) against a static twin engine serving the
    /// same schedule with `drift_threshold = inf`.
    pub fn replan_probe(self, seed: u64, pass: Pass, tr: &Tracer) -> (Values, Vec<String>) {
        let mut values = Values::new();
        let mut failures = Vec::new();
        let build = |online| {
            let builder = self.builder(seed).online(online);
            tr.span("InferenceEngine::build", || builder.build()).0
        };
        let (on, t_on) = pass.online.unwrap_or_else(|| {
            let adaptive = build(self.adaptive_online());
            let run = run_online(&adaptive, &self.drift(&adaptive), "run_scenario.online", tr);
            replan_checks(&run.0, &self.adaptive_online(), &mut failures);
            run
        });
        let static_twin = build(OnlineConfig {
            drift_threshold: f64::INFINITY,
            ..self.adaptive_online()
        });
        let drift = self.drift(&static_twin);
        let (st, t_st) = run_online(&static_twin, &drift, "run_scenario.static", tr);
        replan_layer(&on, &st, t_on, t_st, &mut values, &mut failures);
        (values, failures)
    }
}

/// The virtual step time `serve-8gpu` calibrates its offered load on,
/// probed on a reference engine built at `CALIBRATION_SEED`. It is a pure
/// function of that seed, so it is probed once per process, outside every
/// timed region.
fn serve_calibration_step() -> f64 {
    static STEP: OnceLock<f64> = OnceLock::new();
    *STEP.get_or_init(|| {
        Workload::Serve8
            .builder(CALIBRATION_SEED)
            .build()
            .probe_step_time(EXFLOW, STEP_BATCH)
    })
}

fn run_online(
    engine: &InferenceEngine,
    drift: &DriftSchedule,
    span: &'static str,
    tr: &Tracer,
) -> (OnlineReport, Took) {
    let scenario = Scenario::offline(EXFLOW).with_drift(drift.clone());
    tr.timed(span, || engine.run_scenario(&scenario).expect_online())
}

fn run_offline(
    engine: &InferenceEngine,
    mode: ParallelismMode,
    span: &'static str,
    tr: &Tracer,
) -> (InferenceReport, Took) {
    tr.timed(span, || {
        engine
            .run_scenario(&Scenario::offline(mode))
            .expect_offline()
    })
}

/// Checks an offline Vanilla/ExFlow pair and records the speedup.
fn compare_modes(
    vanilla: &InferenceReport,
    exflow: &InferenceReport,
    values: &mut Values,
    failures: &mut Vec<String>,
) {
    check(
        failures,
        vanilla.tokens_processed == exflow.tokens_processed,
        || {
            format!(
                "Vanilla processed {} tokens, ExFlow {}",
                vanilla.tokens_processed, exflow.tokens_processed
            )
        },
    );
    let (v, x) = (
        vanilla.alltoall_bytes.cross_gpu(),
        exflow.alltoall_bytes.cross_gpu(),
    );
    check(failures, x <= v, || {
        format!("ExFlow sent {x} cross-GPU Alltoall bytes, more than Vanilla's {v}")
    });
    values.insert(
        "virt_speedup_vs_vanilla",
        exflow.throughput() / vanilla.throughput(),
    );
}

/// Per-operator virtual time and traffic of the run the layer metrics
/// describe.
fn op_layers(
    breakdown: &OpBreakdown,
    a2a: BytesByClass,
    allgather_bytes: u64,
    values: &mut Values,
) {
    values.insert("collectives.a2a_bytes_local", a2a.local as f64);
    values.insert("collectives.a2a_bytes_intra_node", a2a.intra_node as f64);
    values.insert("collectives.a2a_bytes_inter_node", a2a.inter_node as f64);
    values.insert("collectives.allgather_bytes", allgather_bytes as f64);
    values.insert("collectives.virt_alltoall_s", breakdown.alltoall);
    values.insert("collectives.virt_allgather_s", breakdown.allgather);
    values.insert("collectives.virt_wait_s", breakdown.imbalance);
    values.insert("engine.virt_attention_s", breakdown.attention);
    values.insert("engine.virt_gating_s", breakdown.gating);
    values.insert("engine.virt_expert_ffn_s", breakdown.expert_ffn);
}

/// Decode-step bookkeeping of a closed-loop run: fixed-size batches, no
/// queue.
fn closed_loop(steps: usize, batch: usize, run_s: f64, busy_frac: f64, values: &mut Values) {
    values.insert("serving.steps", steps as f64);
    values.insert("serving.host_s_per_step", run_s / steps as f64);
    values.insert("serving.mean_batch", batch as f64);
    values.insert("serving.max_queue_depth", 0.0);
    values.insert("serving.busy_frac", busy_frac);
}

/// `offline-64gpu`: one Vanilla and one ExFlow generation benchmark.
fn offline(
    engine: &InferenceEngine,
    tr: &Tracer,
    values: &mut Values,
    failures: &mut Vec<String>,
) -> u64 {
    let cfg = engine.config();
    let requests = cfg.cluster.world_size() * cfg.requests_per_gpu;
    let iters = cfg.n_iterations;
    let (v, t_v) = run_offline(engine, VANILLA, "run_scenario.vanilla", tr);
    let (x, t_x) = run_offline(engine, EXFLOW, "run_scenario.exflow", tr);
    compare_modes(&v, &x, values, failures);
    for r in [&v, &x] {
        check(
            failures,
            r.tokens_processed == (requests * iters) as u64,
            || {
                format!(
                    "{:?} processed {} tokens, want {} requests x {iters} iterations",
                    r.mode, r.tokens_processed, requests
                )
            },
        );
    }
    let host = t_v.cpu + t_x.cpu;
    values.insert("virt_tokens_per_s", x.throughput());
    values.insert(
        "a2a_cross_bytes_per_token",
        x.alltoall_bytes.cross_gpu() as f64 / x.tokens_processed as f64,
    );
    // Lockstep generation: every request completes with the last iteration.
    values.insert("virt_p50_s", x.total_time);
    values.insert("virt_p99_s", x.total_time);
    values.insert("virt_goodput_rps", requests as f64 / x.total_time);
    values.insert(
        "host_tokens_per_s",
        (v.tokens_processed + x.tokens_processed) as f64 / host,
    );
    values.insert("host_requests_per_s", (2 * requests) as f64 / host);
    values.insert("host_windows_per_s", (2 * iters) as f64 / host);
    op_layers(
        &x.breakdown,
        x.alltoall_bytes,
        x.allgather_bytes.total(),
        values,
    );
    values.insert("engine.gpu_local_frac", x.dispatch.gpu_local_fraction());
    values.insert("engine.node_local_frac", x.dispatch.node_local_fraction());
    values.insert("engine.run_s", t_x.wall);
    values.insert("engine.vanilla_run_s", t_v.wall);
    closed_loop(iters, requests, t_x.wall, 1.0, values);
    (2 * iters) as u64
}

/// `serve-8gpu`: open-loop Poisson serving at 80% of the capacity that
/// `step` (a probed step time at the serving batch size) implies, plus an
/// offline Vanilla/ExFlow pair on the same engine for the speedup and the
/// per-operator split.
fn serve(
    engine: &InferenceEngine,
    step: f64,
    tr: &Tracer,
    values: &mut Values,
    failures: &mut Vec<String>,
) -> u64 {
    let serving = ServingConfig {
        arrival: ArrivalProcess::poisson(
            SERVE_LOAD * STEP_BATCH as f64 / (SERVE_DECODE_STEPS as f64 * step),
        ),
        n_requests: SERVE_REQUESTS,
        decode_steps: SERVE_DECODE_STEPS,
        batch: BatchPolicy::SizeOrWait {
            max_size: STEP_BATCH,
            max_wait: 2.0 * step,
        },
        window_duration: 50.0 * step,
    };
    let scenario = Scenario::offline(EXFLOW).with_serving(serving);
    let (r, t_serve) = tr.timed("run_scenario.exflow", || {
        engine.run_scenario(&scenario).expect_serving()
    });
    check(
        failures,
        r.n_requests() == SERVE_REQUESTS && r.completions.len() == SERVE_REQUESTS,
        || {
            format!(
                "{} latencies and {} completions for {SERVE_REQUESTS} requests",
                r.n_requests(),
                r.completions.len()
            )
        },
    );
    check(
        failures,
        r.latencies.iter().all(|l| l.is_finite() && *l >= 0.0),
        || "a request latency is negative or not finite".to_string(),
    );
    check(failures, r.goodput() <= r.offered_load, || {
        format!(
            "goodput {} exceeds offered load {}",
            r.goodput(),
            r.offered_load
        )
    });
    let (v, t_v) = run_offline(engine, VANILLA, "run_scenario.vanilla", tr);
    let (x, _) = run_offline(engine, EXFLOW, "run_scenario.exflow_offline", tr);
    compare_modes(&v, &x, values, failures);

    let tokens = (SERVE_REQUESTS * SERVE_DECODE_STEPS) as f64;
    values.insert("virt_tokens_per_s", tokens / r.makespan);
    values.insert(
        "a2a_cross_bytes_per_token",
        x.alltoall_bytes.cross_gpu() as f64 / x.tokens_processed as f64,
    );
    values.insert("virt_p50_s", r.p50());
    values.insert("virt_p99_s", r.p99());
    values.insert("virt_goodput_rps", r.goodput());
    values.insert("host_tokens_per_s", tokens / t_serve.cpu);
    values.insert("host_requests_per_s", SERVE_REQUESTS as f64 / t_serve.cpu);
    values.insert("host_windows_per_s", r.steps as f64 / t_serve.cpu);
    op_layers(
        &x.breakdown,
        x.alltoall_bytes,
        x.allgather_bytes.total(),
        values,
    );
    values.insert("engine.gpu_local_frac", r.dispatch.gpu_local_fraction());
    values.insert("engine.node_local_frac", r.dispatch.node_local_fraction());
    values.insert("engine.run_s", t_serve.wall);
    values.insert("engine.vanilla_run_s", t_v.wall);
    values.insert("serving.steps", r.steps as f64);
    values.insert("serving.host_s_per_step", t_serve.wall / r.steps as f64);
    values.insert("serving.mean_batch", r.mean_batch_occupancy());
    values.insert("serving.max_queue_depth", r.max_queue_depth() as f64);
    values.insert("serving.busy_frac", r.busy / r.makespan);
    SERVE_REQUESTS as u64
}

/// MoE-GPT-XXL/512e top-2, truncated to three layers.
fn replan_model() -> ModelConfig {
    let mut model = moe_gpt_xxl(512, GateKind::Top2);
    model.n_layers = 3;
    model
}

/// `replan-e512`: the adaptive engine serves the drift schedule, and an
/// offline Vanilla/ExFlow pair gives the speedup. Returns the operation
/// count and the drift run with its wall time.
fn replan(
    engine: &InferenceEngine,
    tr: &Tracer,
    values: &mut Values,
    failures: &mut Vec<String>,
) -> (u64, (OnlineReport, Took)) {
    let cfg = engine.config();
    let requests = cfg.cluster.world_size() * cfg.requests_per_gpu;
    let drift = Workload::ReplanE512.drift(engine);
    let (on, t_on) = run_online(engine, &drift, "run_scenario.exflow", tr);
    let (v, t_v) = run_offline(engine, VANILLA, "run_scenario.vanilla", tr);
    let (x, _) = run_offline(engine, EXFLOW, "run_scenario.exflow_offline", tr);
    compare_modes(&v, &x, values, failures);
    replan_checks(&on, &cfg.online, failures);
    let want = (REPLAN_WINDOWS * requests * cfg.n_iterations) as u64;
    check(failures, on.tokens_processed() == want, || {
        format!(
            "online run processed {} tokens, want {want}",
            on.tokens_processed()
        )
    });

    // A window's requests are issued together when it starts and complete
    // with it; migration stalls fall between windows, so they cost
    // throughput rather than request latency.
    let latencies: Vec<f64> = on.windows.iter().map(|r| r.total_time).collect();
    let windows = on.windows.len();
    let mut breakdown = OpBreakdown::default();
    let mut allgather = 0;
    for w in &on.windows {
        breakdown.merge(&w.breakdown);
        allgather += w.allgather_bytes.total();
    }
    let dispatch = on.dispatch();
    values.insert("virt_tokens_per_s", on.throughput());
    values.insert(
        "a2a_cross_bytes_per_token",
        on.alltoall_bytes().cross_gpu() as f64 / on.tokens_processed() as f64,
    );
    values.insert("virt_p50_s", nearest_rank(&latencies, 50.0));
    values.insert("virt_p99_s", nearest_rank(&latencies, 99.0));
    values.insert(
        "virt_goodput_rps",
        (windows * requests) as f64 / on.total_time(),
    );
    values.insert("host_tokens_per_s", on.tokens_processed() as f64 / t_on.cpu);
    values.insert(
        "host_requests_per_s",
        (windows * requests) as f64 / t_on.cpu,
    );
    values.insert("host_windows_per_s", windows as f64 / t_on.cpu);
    op_layers(&breakdown, on.alltoall_bytes(), allgather, values);
    values.insert("engine.gpu_local_frac", dispatch.gpu_local_fraction());
    values.insert("engine.node_local_frac", dispatch.node_local_fraction());
    values.insert("engine.run_s", t_on.wall);
    values.insert("engine.vanilla_run_s", t_v.wall);
    let serving_time: f64 = on.windows.iter().map(|w| w.total_time).sum();
    closed_loop(
        windows * cfg.n_iterations,
        requests,
        t_on.wall,
        serving_time / on.total_time(),
        values,
    );
    (windows as u64, (on, t_on))
}

/// Checks that an adaptive run re-planned, and that no re-plan moved
/// more bytes than its budget or than the configured one.
fn replan_checks(on: &OnlineReport, online: &OnlineConfig, failures: &mut Vec<String>) {
    check(failures, !on.replans.is_empty(), || {
        format!("no re-plan fired at drift {:?}", on.drift)
    });
    let budget = online.migration_budget_bytes;
    for e in &on.replans {
        check(
            failures,
            e.bytes_moved <= e.budget_bytes && e.budget_bytes <= budget,
            || {
                format!(
                "re-plan after window {} moved {} bytes under a {} byte budget (configured {budget})",
                e.window, e.bytes_moved, e.budget_bytes
            )
            },
        );
    }
}

/// The incremental-placement and online layers of an adaptive run and
/// its static twin (`drift_threshold = inf`) on the same schedule.
fn replan_layer(
    on: &OnlineReport,
    st: &OnlineReport,
    t_on: Took,
    t_st: Took,
    values: &mut Values,
    failures: &mut Vec<String>,
) {
    check(failures, st.replans.is_empty(), || {
        format!("the static twin re-planned {} times", st.replans.len())
    });
    check(
        failures,
        on.tokens_processed() == st.tokens_processed(),
        || {
            format!(
                "adaptive run processed {} tokens, static twin {}",
                on.tokens_processed(),
                st.tokens_processed()
            )
        },
    );
    let replans = on.replans.len().max(1) as f64;
    let sum = |f: fn(&ReplanEvent) -> u64| on.replans.iter().map(f).sum::<u64>() as f64;
    values.insert("placement.replans", on.replans.len() as f64);
    values.insert("placement.replan_s", (t_on.wall - t_st.wall) / replans);
    values.insert(
        "placement.replan_considered",
        sum(|e| e.solver_cost.considered),
    );
    values.insert(
        "placement.replan_evaluated",
        sum(|e| e.solver_cost.evaluated),
    );
    values.insert("placement.replan_reused", sum(|e| e.solver_cost.reused));
    values.insert("placement.experts_moved", sum(|e| e.experts_moved));
    values.insert("placement.migrated_bytes", sum(|e| e.bytes_moved));
    values.insert("online.virt_migration_s", on.migrations.time);
    values.insert(
        "online.drift_max",
        on.drift.iter().copied().fold(0.0, f64::max),
    );
}

/// Median wall time of a bare `CommWorld::run` at the engine's world
/// size, each rank sending one 64-byte buffer to every rank.
fn world_call(engine: &InferenceEngine, tr: &Tracer) -> f64 {
    let cfg = engine.config();
    let world = CommWorld::new(cfg.cluster, cfg.link_cost);
    let w = cfg.cluster.world_size();
    let times: Vec<f64> = (0..WORLD_CALLS)
        .map(|_| {
            let (received, s) = tr.span("CommWorld::run", || {
                world.run(|comm| {
                    let bufs = (0..w).map(|j| vec![j as u8; 64]).collect();
                    comm.all_to_all_v(bufs).len()
                })
            });
            assert!(
                received.iter().all(|&n| n == w),
                "all_to_all_v lost a buffer"
            );
            s
        })
        .collect();
    median(&times)
}

/// The set-up pipeline of `engine`, re-run stage by stage through the
/// public API: profile sample -> routing trace -> affinity estimate ->
/// objective -> stage-1 node solve -> staged solve (stage 2 is its time
/// beyond stage 1). The result must reproduce the engine's placements
/// bit for bit.
pub fn decompose(engine: &InferenceEngine, tr: &Tracer) -> (Values, Vec<String>) {
    let cfg = engine.config();
    let mut values = Values::new();
    let mut failures = Vec::new();
    let n_nodes = cfg.cluster.n_nodes();
    assert!(
        n_nodes > 1,
        "the stage decomposition needs a multi-node cluster"
    );
    let routing = cfg.routing_spec.build();
    let (batch, t_sample) = tr.span("TokenBatch::sample", || {
        TokenBatch::sample(
            &routing,
            &cfg.corpus,
            cfg.profile_tokens,
            1,
            cfg.seed ^ PROFILE_SEED_SALT,
        )
    });
    let (trace, t_trace) = tr.span("RoutingTrace::from_batch", || {
        RoutingTrace::from_batch(&batch, cfg.model.n_experts)
    });
    let (estimates, t_estimate) = tr.span("SparseAffinity::consecutive", || {
        SparseAffinity::consecutive(&trace)
    });
    let (objective, t_objective) = tr.span("Objective::from_sparse_affinities_with", || {
        Objective::from_sparse_affinities_with(&estimates, cfg.gap_backend)
    });
    let (stage1, t_stage1) = tr.span("solve_local_search_with", || {
        solve_local_search_with(
            &objective,
            n_nodes,
            cfg.placement_restarts,
            cfg.seed,
            cfg.parallelism,
        )
    });
    let (staged, t_staged) = tr.span("solve_staged_with", || {
        solve_staged_with(
            &objective,
            &cfg.cluster,
            cfg.placement_restarts,
            cfg.seed,
            cfg.parallelism,
        )
    });
    check(&mut failures, &trace == engine.profile_trace(), || {
        "re-derived profile trace differs from the engine's".to_string()
    });
    check(&mut failures, stage1 == staged.node_level, || {
        "stage-1 solve differs from the staged solve's node level".to_string()
    });
    check(
        &mut failures,
        &staged.node_level == engine.node_placement(),
        || "stage-1 placement differs from the engine's node placement".to_string(),
    );
    check(
        &mut failures,
        &staged.gpu_level == engine.placement_for(EXFLOW),
        || "staged placement differs from placement_for(ContextCoherentAffinity)".to_string(),
    );
    values.insert("model.sample_s", t_sample);
    values.insert("model.tokens_sampled", batch.len() as f64);
    values.insert("affinity.trace_s", t_trace);
    values.insert("affinity.estimate_s", t_estimate);
    values.insert(
        "affinity.nnz",
        estimates.iter().map(SparseAffinity::nnz).sum::<usize>() as f64,
    );
    values.insert("placement.objective_s", t_objective);
    values.insert("placement.objective_nnz", objective.nnz() as f64);
    values.insert("placement.stage1_s", t_stage1);
    values.insert("placement.stage2_s", t_staged - t_stage1);
    values.insert(
        "placement.cross_mass",
        objective.cross_mass(&staged.gpu_level),
    );
    (values, failures)
}
