//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <offline-64gpu|serve-8gpu|replan-e512> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! perfbench --describe
//! ```
//!
//! With `--trace 0` the workload's pass repeats until `--seconds` have
//! passed, cycling through the workload's sub-seeds of `--seed` (five on
//! serve-8gpu, three on the others; at least one pass each), and the last stdout line reports every end-to-end metric:
//! modeled values as medians over the sub-seeds (a repeated sub-seed must
//! reproduce them bit for bit) and host values as medians over passes
//! (`setup_s` over every engine build). With `--trace 1` one untraced and
//! one traced pass of the first sub-seed run back to back, followed by the
//! stage decomposition of the set-up and a re-plan probe against a static
//! twin engine; the last line reports every per-layer metric and the spans
//! go to a JSON-lines file next to the executable. `--describe` prints the
//! workloads and the layer -> end-to-end map as JSON.
//!
//! The benchmark itself is single-threaded and runs one workload per
//! process; the engine's per-rank threads (4, 8 or 64) and the collectives'
//! rank threads are the program's own behaviour, not load generators.
//! The process pins itself to one CPU before any of them start, and the
//! end-to-end host times (`setup_s` and the `host_*_per_s` rates) are the
//! CPU time the process spends in the timed calls: on a few shared cores
//! the wall time of 64 rank threads mostly measures the scheduler and the
//! neighbours, while their CPU time on one core measures the program.
//! Per-layer times stay wall times (on the pinned CPU).

mod metrics;
mod span;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use exflow_placement::split_seed;
use metrics::{median, result_line, Kind, Values, END_TO_END, PER_LAYER};
use span::Tracer;
use workload::{decompose, Pass, Workload, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <offline-64gpu|serve-8gpu|replan-e512> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --describe";

/// The `i`-th input set of `seed`. Pass `i` of a metric run runs sub-seed
/// `i % n` of `--seed`, where `n` is [`Workload::sub_seeds`], so every
/// median covers `n` inputs and a seed-dependent amount of work (decode
/// steps, re-plan candidates) averages out. A metric run makes at least
/// `n` passes.
fn sub_seed(seed: u64, i: usize) -> u64 {
    split_seed(seed, i as u64)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--describe"] {
        let workloads: Vec<[(&str, &str); 4]> = WORKLOADS
            .iter()
            .map(|w| {
                [
                    ("name", w.name),
                    ("why", w.why),
                    ("operation", w.operation),
                    ("latency", w.latency),
                ]
            })
            .collect();
        print!("{}", metrics::describe(&workloads));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so every rank thread inherits the mask.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = span::pin_to_one_cpu();
    if let Err(e) = &pinned {
        eprintln!("perfbench: running unpinned: {e}");
    }
    println!("{}", environment(nproc, pinned.ok()));
    let line = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// The host the numbers were measured on (`nproc` CPUs available before
/// pinning) and the CPU the run is pinned to, as one JSON line.
fn environment(nproc: usize, pinned: Option<usize>) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let pinned = pinned.map_or("null".to_string(), |c| c.to_string());
    format!(
        "{{\"env\": {{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"pinned_cpu\": {pinned}}}}}",
        metrics::json_str(&cpu),
        metrics::json_str(&rustc)
    )
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The modeled values of `a` and `b` that differ bit-wise (names whose
/// metric is modeled, present in either).
fn modeled_mismatches(a: &Values, b: &Values) -> Vec<String> {
    let modeled = END_TO_END
        .iter()
        .map(|m| (m.name, m.kind))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.kind)))
        .filter(|(_, k)| *k == Kind::Modeled);
    modeled
        .filter_map(|(name, _)| {
            let (x, y) = (a.get(name), b.get(name));
            (x.map(|v| v.to_bits()) != y.map(|v| v.to_bits()))
                .then(|| format!("modeled {name} not bit-identical: {x:?} vs {y:?}"))
        })
        .collect()
}

/// Prints the failed checks to stderr and returns the result line.
fn finish(
    attempted: u64,
    failures: &[String],
    metrics: Vec<(&'static str, &'static str, f64)>,
) -> String {
    for f in failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let failed = if failures.is_empty() { 0 } else { attempted };
    result_line(failures.is_empty(), attempted, failed, &metrics)
}

/// The metric run: repeat passes for `--seconds` (at least one per
/// sub-seed), then report medians: of the modeled values over the
/// sub-seeds, of the host values over every pass.
fn untraced(args: &Args) -> String {
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut passes, mut walls) = (Vec::new(), Vec::new());
    let n = args.workload.sub_seeds();
    while passes.len() < n || start.elapsed() < budget {
        let seed = sub_seed(args.seed, passes.len() % n);
        // The engine is dropped at once, so memory does not grow with
        // the pass count.
        let ((pass, _), s) =
            Tracer::off().span("pass", || args.workload.pass(seed, &Tracer::off()));
        walls.push(s);
        passes.push(pass);
    }
    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
    // A pass that repeats a sub-seed must reproduce its modeled values.
    for (i, p) in passes.iter().enumerate().skip(n) {
        failures.extend(modeled_mismatches(&passes[i % n].values, &p.values));
    }
    let attempted: u64 = passes.iter().map(|p| p.ops).sum();
    let setups: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.setup.iter().map(|t| t.cpu))
        .collect();
    let rss = peak_rss_mb();
    if rss.is_none() {
        failures.push("peak RSS unreadable".into());
    }
    let ok_frac = if failures.is_empty() { 1.0 } else { 0.0 };
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "setup_s" => median(&setups),
                "peak_rss_mb" => rss.unwrap_or(0.0),
                "ok_frac" => ok_frac,
                name if m.kind == Kind::Modeled => median_of(&passes[..n], name),
                name => median_of(&passes, name),
            };
            (m.name, m.unit, v)
        })
        .collect();
    eprintln!(
        "perfbench: {} passes ({walls:.2?} s), {} engine builds, {:.1}s",
        passes.len(),
        setups.len(),
        start.elapsed().as_secs_f64()
    );
    finish(attempted, &failures, metrics)
}

/// Median of metric `name` over `passes`.
fn median_of(passes: &[Pass], name: &str) -> f64 {
    median(&passes.iter().map(|p| p.values[name]).collect::<Vec<_>>())
}

/// The traced run: an untraced and a traced pass of the same work (the
/// first sub-seed), the stage decomposition and the re-plan probe.
fn traced(args: &Args) -> String {
    let w = args.workload;
    let seed = sub_seed(args.seed, 0);
    let ((untraced, _), untraced_s) = Tracer::off().span("pass", || w.pass(seed, &Tracer::off()));
    let tracer = Tracer::on(format!("{}-seed{}", w.name(), args.seed));
    let ((mut pass, engine), traced_s) = tracer.span("pass", || w.pass(seed, &tracer));
    let ops = untraced.ops + pass.ops;
    let mut failures = modeled_mismatches(&untraced.values, &pass.values);
    failures.extend(untraced.failures);
    failures.append(&mut pass.failures);
    let mut values = std::mem::take(&mut pass.values);
    let ((decomposed, decompose_failures), _) =
        tracer.span("decompose", || decompose(&engine, &tracer));
    let ((probe, probe_failures), _) =
        tracer.span("replan_probe", || w.replan_probe(seed, pass, &tracer));
    failures.extend(decompose_failures);
    failures.extend(probe_failures);
    values.extend(decomposed);
    values.extend(probe);
    values.insert("trace.overhead_s", traced_s - untraced_s);
    values.insert("trace.spans", tracer.spans().len() as f64);

    let path = std::env::current_exe().map(|exe| {
        exe.with_file_name(format!(
            "perfbench-spans-{}-seed{}.jsonl",
            w.name(),
            args.seed
        ))
    });
    match path.and_then(|p| tracer.write_jsonl(&p).map(|_| p)) {
        Ok(p) => eprintln!("perfbench: spans written to {}", p.display()),
        Err(e) => failures.push(format!("could not write spans: {e}")),
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let v = *values
                .get(m.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not measured", m.name));
            (m.name, m.unit, v)
        })
        .collect();
    finish(ops, &failures, metrics)
}
