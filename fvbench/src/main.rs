//! The FVEval reproduction's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path fvbench/Cargo.toml -- \
//!     --workload <tables-cold|tables-warm|gen-sweep|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics from spans the
//! benchmark wraps around each layer's public calls. Every run checks
//! the program's outputs and prints, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `failed /
//! attempted` is the run's error rate. Scratch files live under
//! `.bench_tmp/` in the working directory and are removed at the end.
//! See `LAYERS.md` for what each metric means and which workload moves
//! it.

mod gen;
mod measure;
mod replay;
mod serve;
mod tables;
mod trace;

use fveval_serve::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const WORKLOADS: [&str; 4] = ["tables-cold", "tables-warm", "gen-sweep", "serve-mixed"];

/// The end-to-end metrics, reported by every untraced run.
const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
];

/// The per-layer metrics, reported by every traced run (zero where a
/// workload does not reach the layer).
const PER_LAYER: [(&str, &str); 65] = [
    ("fveval-llm.generate.calls", "count"),
    ("fveval-llm.generate.busy_s", "s"),
    ("sv-parser.parse.calls", "count"),
    ("sv-parser.parse.busy_s", "s"),
    ("fveval-core.bleu.calls", "count"),
    ("fveval-core.bleu.busy_s", "s"),
    ("fveval-core.compile.calls", "count"),
    ("fveval-core.compile.busy_s", "s"),
    ("sv-synth.bind_extras.calls", "count"),
    ("sv-synth.bind_extras.busy_s", "s"),
    ("fveval-core.cache.hit_ratio", "ratio"),
    ("fveval-core.cache.digest_reuse_ratio", "ratio"),
    ("fveval-core.case.p50_ms", "ms"),
    ("fveval-core.case.max_ms", "ms"),
    ("fv-core.equiv_open.calls", "count"),
    ("fv-core.equiv_open.busy_s", "s"),
    ("fv-core.equiv_check.calls", "count"),
    ("fv-core.equiv_check.busy_s", "s"),
    ("fv-core.prove_open.calls", "count"),
    ("fv-core.prove_open.busy_s", "s"),
    ("fv-core.prove_check.calls", "count"),
    ("fv-core.prove_check.busy_s", "s"),
    ("fv-core.replay.calls", "count"),
    ("fv-core.replay.busy_s", "s"),
    ("fv-core.session_reuse_ratio", "ratio"),
    ("fv-sat.calls", "count"),
    ("fv-sat.reuse_ratio", "ratio"),
    ("fv-aig.presat_kill_ratio", "ratio"),
    ("fveval-data.tasks.busy_s", "s"),
    ("fveval-harness.artifact.busy_s", "s"),
    ("fveval-core.load_verdicts.busy_s", "s"),
    ("fveval-gen.generate.busy_s", "s"),
    ("fveval-gen.bind.calls", "count"),
    ("fveval-gen.bind.busy_s", "s"),
    ("fveval-gen.validate.busy_s", "s"),
    ("fveval-gen.validate.fifo.busy_s", "s"),
    ("fveval-gen.validate.arbiter.busy_s", "s"),
    ("fveval-gen.validate.handshake.busy_s", "s"),
    ("fveval-gen.validate.gray.busy_s", "s"),
    ("fveval-gen.validate.shift.busy_s", "s"),
    ("fveval-gen.validate.crc.busy_s", "s"),
    ("fveval-gen.validate.regfile.busy_s", "s"),
    ("fveval-gen.validate.pipeline.busy_s", "s"),
    ("fveval-gen.validate.axi.busy_s", "s"),
    ("fveval-gen.validate.hier.busy_s", "s"),
    ("fveval-gen.validate.ring.busy_s", "s"),
    ("fveval-gen.write.busy_s", "s"),
    ("fveval-serve.store_open.busy_s", "s"),
    ("fveval-serve.store_open.records", "count"),
    ("fveval-serve.store_append.busy_s", "s"),
    ("fveval-serve.store.bytes", "bytes"),
    ("fveval-serve.submit.p50_ms", "ms"),
    ("fveval-serve.queue_wait.p50_ms", "ms"),
    ("fveval-serve.run.p50_ms", "ms"),
    ("fveval-serve.stats.p50_ms", "ms"),
    ("fveval-serve.backpressure_ratio", "ratio"),
    ("bench.unattributed_s", "s"),
    ("bench.traced_pass_s", "s"),
    ("bench.untraced_pass_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.nproc", "count"),
    ("bench.passes", "count"),
    ("fveval-core.cache.lookups", "count"),
    ("fv-core.sessions_opened", "count"),
    ("fv-core.session_checks", "count"),
];

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Which of the run's measuring processes this is (0 for traced
    /// runs, which use one).
    pub process: usize,
    /// Scratch directory of this process (removed at the end).
    pub dir: PathBuf,
}

impl Ctx {
    /// The index from which job `i` of this process draws its inputs:
    /// every process of a run draws different ones.
    pub fn draw(&self, i: usize) -> usize {
        self.process * 1_000_000 + i
    }
}

/// Untraced runs measure in this many processes, one after another,
/// each for a share of the run's seconds, and pool their samples. On a
/// shared host one process can run 15–20% faster or slower than the
/// next for its whole life (memory placement, the core it lands on);
/// pooling several averages that out of the run's medians.
const PROCESSES: usize = 4;

/// Raw end-to-end samples, pooled over a run's processes.
#[derive(Default)]
pub struct Samples {
    /// Per job (pass or round): set-up, work wall time, work CPU time.
    pub setup: Vec<f64>,
    pub wall: Vec<f64>,
    pub cpu: Vec<f64>,
    /// Latency of every job a user waits for.
    pub job_ms: Vec<f64>,
    /// Time those jobs took, for the completion rate.
    pub busy_s: f64,
    /// One peak per process.
    pub peak_rss_mb: Vec<f64>,
}

impl Samples {
    /// One pass of a batch workload: its job is the whole pass.
    pub fn pass(&mut self, setup: Duration, wall: Duration, cpu: f64) {
        self.round(setup, wall, cpu);
        self.job_ms.push((setup + wall).as_secs_f64() * 1e3);
        self.busy_s += setup.as_secs_f64();
    }

    /// One round of serve-mixed (its jobs are recorded separately).
    pub fn round(&mut self, setup: Duration, wall: Duration, cpu: f64) {
        self.setup.push(setup.as_secs_f64());
        self.wall.push(wall.as_secs_f64());
        self.cpu.push(cpu);
        self.busy_s += wall.as_secs_f64();
    }

    fn merge(&mut self, other: Samples) {
        self.setup.extend(other.setup);
        self.wall.extend(other.wall);
        self.cpu.extend(other.cpu);
        self.job_ms.extend(other.job_ms);
        self.busy_s += other.busy_s;
        self.peak_rss_mb.extend(other.peak_rss_mb);
    }

    fn to_json(&self) -> Json {
        let arr = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::from(*x)).collect());
        Json::obj([
            ("setup", arr(&self.setup)),
            ("wall", arr(&self.wall)),
            ("cpu", arr(&self.cpu)),
            ("job_ms", arr(&self.job_ms)),
            ("busy_s", self.busy_s.into()),
            ("peak_rss_mb", arr(&self.peak_rss_mb)),
        ])
    }

    fn from_json(value: &Json) -> Result<Samples, String> {
        let arr = |key: &str| -> Result<Vec<f64>, String> {
            value
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("measuring process sent no '{key}'"))?
                .iter()
                .map(|x| x.as_f64().ok_or_else(|| format!("bad '{key}' sample")))
                .collect()
        };
        Ok(Samples {
            setup: arr("setup")?,
            wall: arr("wall")?,
            cpu: arr("cpu")?,
            job_ms: arr("job_ms")?,
            busy_s: value.get("busy_s").and_then(Json::as_f64).unwrap_or(0.0),
            peak_rss_mb: arr("peak_rss_mb")?,
        })
    }

    /// The end-to-end metrics.
    fn metrics(&self, report: &mut Report) {
        use measure::{median, p90};
        report.set("wall_s", median(&self.wall));
        report.set("cpu_s", median(&self.cpu));
        report.set("setup_s", median(&self.setup));
        report.set("peak_rss_mb", median(&self.peak_rss_mb));
        report.set("jobs_per_s", self.job_ms.len() as f64 / self.busy_s);
        report.set("job_p50_ms", median(&self.job_ms));
        report.set("job_p90_ms", p90(&self.job_ms));
    }
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    values: BTreeMap<String, f64>,
    pub samples: Samples,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.problems.push(message);
    }

    /// Notes a detail of a failure counted elsewhere.
    pub fn problem(&mut self, message: String) {
        self.problems.push(message);
    }

    /// Per-pass calls and busy time of every listed layer, and the
    /// traced time no span covers.
    pub fn layers(&mut self, records: &[trace::Record], passes: usize, wall: Duration) {
        let n = passes.max(1) as f64;
        for (name, layer) in trace::by_name(records) {
            let calls = format!("{name}.calls");
            if PER_LAYER.iter().any(|(m, _)| *m == calls) {
                self.set(calls, layer.calls as f64 / n);
            }
            let busy = format!("{name}.busy_s");
            if PER_LAYER.iter().any(|(m, _)| *m == busy) {
                self.set(busy, layer.busy.as_secs_f64() / n);
            }
        }
        self.set(
            "bench.unattributed_s",
            wall.saturating_sub(trace::covered(records)).as_secs_f64() / n,
        );
        self.set("bench.passes", n);
        self.set("bench.nproc", measure::nproc() as f64);
    }

    /// Tracing overhead: `traced` is the summed wall time of the traced
    /// passes, `plain` that of as many untraced passes of the same work.
    pub fn overhead(&mut self, traced: Duration, plain: Duration, passes: usize) {
        let n = passes.max(1) as f64;
        self.set("bench.traced_pass_s", traced.as_secs_f64() / n);
        self.set("bench.untraced_pass_s", plain.as_secs_f64() / n);
        let plain = plain.as_secs_f64();
        self.set(
            "bench.trace_overhead_ratio",
            if plain > 0.0 {
                traced.as_secs_f64() / plain
            } else {
                0.0
            },
        );
    }
}

/// Prover-layer ratios from `ProverStats` counters summed over
/// `passes` passes, and the per-pass counts they are ratios of.
pub fn prover_ratios(stats: &fv_core::ProverStats, passes: usize, report: &mut Report) {
    use tables::ratio;
    let n = passes.max(1) as f64;
    report.set(
        "fv-core.session_reuse_ratio",
        ratio(stats.session_checks, stats.sessions_opened),
    );
    report.set("fv-core.sessions_opened", stats.sessions_opened as f64 / n);
    report.set("fv-core.session_checks", stats.session_checks as f64 / n);
    report.set("fv-sat.calls", stats.sat_calls as f64 / n);
    report.set(
        "fv-sat.reuse_ratio",
        ratio(stats.solver_reuse_hits, stats.sat_calls),
    );
    report.set(
        "fv-aig.presat_kill_ratio",
        ratio(stats.sim_kills + stats.ternary_kills, stats.queries()),
    );
}

fn usage() -> String {
    "usage: fvbench --workload <tables-cold|tables-warm|gen-sweep|serve-mixed> \
     --seed <n> --seconds <s> --trace <0|1>"
        .to_string()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the measuring processes an untraced run spawns.
    process: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: tables::PINNED_SEED,
        seconds: 10.0,
        trace: false,
        process: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--process" => parsed.process = Some(value.parse().map_err(|e| bad(&e))?),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}'\n{}",
            parsed.workload,
            usage()
        ));
    }
    if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
        return Err(format!("--seconds must be positive\n{}", usage()));
    }
    Ok(parsed)
}

fn emit(report: &Report, trace: bool) -> Result<(), String> {
    let mut metrics = Vec::new();
    let listed: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in listed {
        let value = match report.values.get(*name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not a number ({value})"));
        }
        eprintln!("{name:<40} {value:>16.6} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    eprintln!(
        "{:<40} {error_rate:>16.6} ({} failed of {} attempted)",
        "error_rate", report.failed, report.attempted
    );
    for p in report.problems.iter().take(20) {
        eprintln!("problem: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    Ok(())
}

/// Runs the workload in this process.
fn run_here(args: &Args) -> Result<Report, String> {
    let root = PathBuf::from(".bench_tmp");
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        process: args.process.unwrap_or(0),
        dir: root.join(format!("run-{}", std::process::id())),
    };
    std::fs::create_dir_all(&ctx.dir)
        .map_err(|e| format!("cannot create {}: {e}", ctx.dir.display()))?;
    let outcome = match args.workload.as_str() {
        "tables-cold" => tables::cold(&ctx),
        "tables-warm" => tables::warm(&ctx),
        "gen-sweep" => gen::sweep(&ctx),
        _ => serve::mixed(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    // Removed only when no other process is using it.
    let _ = std::fs::remove_dir(&root);
    outcome
}

/// Runs the workload in [`PROCESSES`] measuring processes, one after
/// another, and pools what they measured and checked.
fn run_processes(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let share = args.seconds / PROCESSES as f64;
    let mut report = Report::default();
    for i in 0..PROCESSES {
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--seconds", &share.to_string(), "--trace", "0"])
            .args(["--process", &i.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start measuring process {i}: {e}"))?;
        if !out.status.success() {
            return Err(format!("measuring process {i} failed ({})", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let value = text
            .lines()
            .last()
            .ok_or_else(|| format!("measuring process {i} printed nothing"))
            .and_then(fveval_serve::json::parse)?;
        let count = |key: &str| value.get(key).and_then(Json::as_u64).unwrap_or(0);
        report.attempted += count("attempted");
        report.failed += count("failed");
        for p in value.get("problems").and_then(Json::as_arr).unwrap_or(&[]) {
            report.problem(p.as_str().unwrap_or_default().to_string());
        }
        let samples = value.get("samples").unwrap_or(&Json::Null);
        report.samples.merge(Samples::from_json(samples)?);
    }
    let samples = std::mem::take(&mut report.samples);
    samples.metrics(&mut report);
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Internal: writes the `tables-warm` store in a child process.
    if args.first().map(String::as_str) == Some("--make-store") {
        let (Some(dir), Some(seed)) = (args.get(1), args.get(3).and_then(|s| s.parse().ok()))
        else {
            eprintln!("usage: fvbench --make-store DIR --seed N");
            return ExitCode::FAILURE;
        };
        return match tables::write_store(std::path::Path::new(dir), seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = if args.process.is_some() {
        // A measuring process hands its raw samples to the run.
        run_here(&args).map(|report| {
            let problems = report.problems.iter().map(|p| Json::from(p.as_str()));
            let line = Json::obj([
                ("attempted", report.attempted.into()),
                ("failed", report.failed.into()),
                ("problems", Json::Arr(problems.collect())),
                ("samples", report.samples.to_json()),
            ]);
            println!("{}", line.encode());
        })
    } else if args.trace {
        run_here(&args).and_then(|report| emit(&report, true))
    } else {
        run_processes(&args).and_then(|report| emit(&report, false))
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
