//! `serve-mixed`: a closed loop of `nproc` client threads, each waiting
//! for its job, against an in-process `Server` (shards = `nproc`,
//! engine jobs 1, a fresh store per round). A seeded schedule mixes
//! first-time suite/machine jobs with repeats of earlier ones, which
//! the shard's verdict cache answers.

use crate::measure::{cpu_seconds, derive_seed, fnv1a, median, nproc, peak_rss_mb, secs, SplitMix};
use crate::trace::{self, timed};
use crate::{prover_ratios, Ctx, Report};
use fv_core::ProverStats;
use fveval_core::EvalEngine;
use fveval_llm::{profiles, Backend, InferenceConfig};
use fveval_serve::json::Json;
use fveval_serve::{
    build_tasks, resolve_backends, Client, EvalRequest, EvalResult, JobState, Server, ServerConfig,
    SubmitOutcome, TaskSetRef,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Jobs per round (one server lifetime).
const JOBS_PER_ROUND: usize = 60;
/// Share of jobs that submit a template not seen before in the round.
const NEW_SHARE: f64 = 0.4;
/// A job not done by then counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Each client samples `/v1/stats` after every this many jobs.
const STATS_EVERY: usize = 4;

/// The seeded schedule: distinct job templates and, per job, which
/// template it submits.
pub struct Schedule {
    templates: Vec<EvalRequest>,
    jobs: Vec<usize>,
}

impl Schedule {
    pub fn new(seed: u64) -> Schedule {
        let mut rng = SplitMix(seed ^ 0x5E_4E_D0_0B);
        let names: Vec<String> = profiles().iter().map(|m| m.name().to_string()).collect();
        let mut templates: Vec<EvalRequest> = Vec::new();
        let mut jobs = Vec::with_capacity(JOBS_PER_ROUND);
        for _ in 0..JOBS_PER_ROUND {
            if templates.is_empty() || rng.unit() < NEW_SHARE {
                let tasks = if rng.unit() < 0.5 {
                    TaskSetRef::Suite {
                        families: vec![
                            crate::gen::FAMILIES[rng.below(crate::gen::FAMILIES.len())].to_string()
                        ],
                        per_family: 1 + rng.below(2),
                        seed: rng.next_u64() % 1_000_000,
                        depth: None,
                        width: None,
                        mutations: 2 * rng.below(2),
                    }
                } else {
                    TaskSetRef::Machine {
                        count: 24 + rng.below(48),
                        seed: rng.next_u64() % 1_000_000,
                    }
                };
                let mut pool = names.clone();
                let mut models = Vec::new();
                for _ in 0..3 + rng.below(4) {
                    models.push(pool.remove(rng.below(pool.len())));
                }
                templates.push(EvalRequest {
                    tasks,
                    models,
                    cfg: InferenceConfig::greedy(),
                    samples: 1,
                });
                jobs.push(templates.len() - 1);
            } else {
                jobs.push(rng.below(templates.len()));
            }
        }
        Schedule { templates, jobs }
    }
}

/// What one client saw of one job.
struct JobSample {
    template: usize,
    latency_ms: f64,
    submit_ms: f64,
    queue_ms: f64,
    run_ms: f64,
    refused: bool,
    /// Digest of the result payload, `None` for a failed job.
    result: Option<u64>,
    error: Option<String>,
}

struct Round {
    schedule: Schedule,
    traced: bool,
    setup: Duration,
    wall: Duration,
    cpu: f64,
    jobs: Vec<JobSample>,
    stats_ms: Vec<f64>,
    /// Summed client-thread loop time (traced rounds' attribution base).
    client_wall: Duration,
    server: Json,
    store_bytes: u64,
    /// The process's peak resident memory so far.
    peak_rss_mb: f64,
}

fn result_digest(result: &EvalResult) -> u64 {
    fnv1a(result.encode().encode().as_bytes())
}

/// Submits one job and waits for it through long polls.
fn run_job(client: &Client, schedule: &Schedule, template: usize) -> JobSample {
    let mut sample = JobSample {
        template,
        latency_ms: 0.0,
        submit_ms: 0.0,
        queue_ms: 0.0,
        run_ms: 0.0,
        refused: false,
        result: None,
        error: None,
    };
    let t0 = Instant::now();
    let outcome = timed("fveval-serve.submit", || {
        client.try_submit(&schedule.templates[template])
    });
    let accepted = Instant::now();
    sample.submit_ms = secs(accepted - t0) * 1e3;
    let id = match outcome {
        Ok(SubmitOutcome::Accepted { job, .. }) => job,
        Ok(SubmitOutcome::Busy { .. }) => {
            sample.refused = true;
            sample.error = Some("refused (429)".into());
            sample.latency_ms = sample.submit_ms;
            return sample;
        }
        Err(e) => {
            sample.error = Some(e);
            sample.latency_ms = sample.submit_ms;
            return sample;
        }
    };
    let mut running = None;
    let outcome = loop {
        let view = match timed("fveval-serve.wait", || client.job_wait(id, 2_000)) {
            Ok(view) => view,
            Err(e) => break Err(e),
        };
        if running.is_none() && view.state != JobState::Queued {
            running = Some(Instant::now());
        }
        match view.state {
            JobState::Done => {
                break view
                    .result
                    .ok_or_else(|| format!("job {id} done without a result"))
            }
            JobState::Failed => break Err(view.error.unwrap_or_else(|| "failed".into())),
            JobState::Queued | JobState::Running if t0.elapsed() > JOB_TIMEOUT => {
                break Err(format!("job {id} timed out"))
            }
            JobState::Queued | JobState::Running => {}
        }
    };
    let done = Instant::now();
    let running = running.unwrap_or(done);
    sample.latency_ms = secs(done - t0) * 1e3;
    sample.queue_ms = secs(running - accepted) * 1e3;
    sample.run_ms = secs(done - running) * 1e3;
    match outcome {
        Ok(result) => sample.result = Some(result_digest(&result)),
        Err(e) => sample.error = Some(e),
    }
    sample
}

/// One server lifetime: bind on a fresh store, run schedule `draw`
/// with `nproc` closed-loop clients, read `/v1/stats`, shut down.
fn round(ctx: &Ctx, index: usize, draw: usize, traced: bool) -> Result<Round, String> {
    let schedule = Schedule::new(derive_seed(ctx.seed, draw));
    let dir = ctx.dir.join(format!("serve-{index}"));
    let t0 = Instant::now();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        shards: nproc(),
        engine_jobs: 1,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })?;
    let client = Client::new(server.local_addr().to_string());
    let handle = std::thread::spawn(move || server.run());
    // Set-up ends at the first answered `/v1/stats`. The listener is
    // bound before `run` starts, so the first request normally succeeds;
    // retries yield rather than sleep, so no sleep quantum enters the
    // timing.
    let up = loop {
        if client.is_up() {
            break true;
        }
        if t0.elapsed() > Duration::from_secs(5) {
            break false;
        }
        std::thread::yield_now();
    };
    let setup = t0.elapsed();
    if !up {
        let _ = client.shutdown();
        let _ = handle.join();
        return Err("server did not come up".into());
    }

    trace::set_enabled(traced);
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(schedule.jobs.len()));
    let stats_ms = Mutex::new(Vec::new());
    let client_wall = Mutex::new(Duration::ZERO);
    let c1 = cpu_seconds();
    let t1 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..nproc() {
            scope.spawn(|| {
                let started = Instant::now();
                let mut done = 0usize;
                while let Some(&template) = schedule.jobs.get(next.fetch_add(1, Ordering::Relaxed))
                {
                    let sample = run_job(&client, &schedule, template);
                    samples.lock().expect("samples poisoned").push(sample);
                    done += 1;
                    if done.is_multiple_of(STATS_EVERY) {
                        let ts = Instant::now();
                        if timed("fveval-serve.stats", || client.stats()).is_ok() {
                            stats_ms
                                .lock()
                                .expect("stats samples poisoned")
                                .push(secs(ts.elapsed()) * 1e3);
                        }
                    }
                }
                *client_wall.lock().expect("client wall poisoned") += started.elapsed();
            });
        }
    });
    let wall = t1.elapsed();
    let cpu = cpu_seconds() - c1;
    trace::set_enabled(false);

    let server_stats = client.stats().unwrap_or(Json::Null);
    let stopped = client.shutdown();
    let ran = handle
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    stopped?;
    ran?;
    let store_bytes = crate::measure::dir_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Round {
        schedule,
        traced,
        setup,
        wall,
        cpu,
        jobs: samples.into_inner().expect("samples poisoned"),
        stats_ms: stats_ms.into_inner().expect("stats samples poisoned"),
        client_wall: client_wall.into_inner().expect("client wall poisoned"),
        server: server_stats,
        store_bytes,
        peak_rss_mb: peak_rss_mb(),
    })
}

/// The direct-path result of a template: `build_tasks` on a fresh
/// sequential engine, digested like a served result. Also returns the
/// number of design tasks (compiles a shard performs for it).
fn direct(template: &EvalRequest) -> Result<(u64, u64), String> {
    let tasks = build_tasks(&template.tasks)?;
    let models = resolve_backends(&template.models)?;
    let backends: Vec<&dyn Backend> = models.iter().map(|m| m as &dyn Backend).collect();
    let rows =
        EvalEngine::with_jobs(1).run_matrix(&backends, &tasks, &template.cfg, template.samples);
    let result = EvalResult {
        models: models
            .iter()
            .map(|m| m.name().to_string())
            .zip(rows)
            .collect(),
    };
    let designs = tasks
        .iter()
        .filter(|t| matches!(t.as_ref(), fveval_llm::TaskSpec::Design2sva { .. }))
        .count() as u64;
    Ok((result_digest(&result), designs))
}

/// Checks every job of a round against the direct path; returns the
/// design compiles the round's distinct templates need. The direct runs
/// happen after measuring, on `nproc` threads.
fn verify(round: &Round, report: &mut Report) -> u64 {
    let mut used: Vec<usize> = round.jobs.iter().map(|j| j.template).collect();
    used.sort_unstable();
    used.dedup();
    let next = AtomicUsize::new(0);
    let expected = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        for _ in 0..nproc() {
            scope.spawn(|| {
                while let Some(&t) = used.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let want = direct(&round.schedule.templates[t]);
                    expected.lock().expect("expected poisoned").insert(t, want);
                }
            });
        }
    });
    let expected: HashMap<usize, Result<(u64, u64), String>> =
        expected.into_inner().expect("expected poisoned");
    for job in &round.jobs {
        report.attempted += 1;
        match (&job.result, &expected[&job.template]) {
            (_, Err(e)) => {
                report.fail(format!("template {}: direct run failed: {e}", job.template))
            }
            (None, _) => report.fail(format!(
                "job of template {}: {}",
                job.template,
                job.error.as_deref().unwrap_or("no result")
            )),
            (Some(got), Ok((digest, _))) if got != digest => report.fail(format!(
                "job of template {}: result differs from the direct engine run",
                job.template
            )),
            _ => {}
        }
    }
    expected
        .values()
        .filter_map(|r| r.as_ref().ok().map(|(_, designs)| designs))
        .sum()
}

fn latencies(rounds: &[&Round], pick: impl Fn(&JobSample) -> f64) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| r.jobs.iter().map(&pick))
        .collect()
}

pub fn mixed(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let started = Instant::now();
    let mut rounds = Vec::new();
    // Each round draws its own schedule, so one run averages over many
    // job mixes; traced runs run each schedule untraced, then traced.
    while rounds.len() < if ctx.trace { 4 } else { 3 } || started.elapsed() < ctx.seconds {
        let i = rounds.len();
        let (draw, traced) = if ctx.trace {
            (i / 2, i % 2 == 1)
        } else {
            (i, false)
        };
        rounds.push(round(ctx, i, ctx.draw(draw), traced)?);
    }
    let compiles: Vec<u64> = rounds.iter().map(|r| verify(r, &mut report)).collect();
    if !ctx.trace {
        for r in &rounds {
            report.samples.round(r.setup, r.wall, r.cpu);
            report
                .samples
                .job_ms
                .extend(r.jobs.iter().map(|j| j.latency_ms));
        }
        report.samples.peak_rss_mb.push(rounds[2].peak_rss_mb);
        return Ok(report);
    }

    let records = trace::take();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let untraced: Vec<Duration> = rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.wall)
        .collect();
    let n = traced.len();
    report.set(
        "fveval-serve.submit.p50_ms",
        median(&latencies(&traced, |j| j.submit_ms)),
    );
    report.set(
        "fveval-serve.queue_wait.p50_ms",
        median(&latencies(&traced, |j| j.queue_ms)),
    );
    report.set(
        "fveval-serve.run.p50_ms",
        median(&latencies(&traced, |j| j.run_ms)),
    );
    let stats_ms: Vec<f64> = traced.iter().flat_map(|r| r.stats_ms.clone()).collect();
    report.set("fveval-serve.stats.p50_ms", median(&stats_ms));
    let refused = traced
        .iter()
        .flat_map(|r| &r.jobs)
        .filter(|j| j.refused)
        .count() as u64;
    let submits = traced.iter().map(|r| r.jobs.len() as u64).sum();
    report.set(
        "fveval-serve.backpressure_ratio",
        crate::tables::ratio(refused, submits),
    );
    report.set(
        "fveval-serve.store.bytes",
        traced.iter().map(|r| r.store_bytes as f64).sum::<f64>() / n as f64,
    );

    // Server counters from `/v1/stats` at the end of each traced round.
    let count = |stats: &Json, block: &str, key: &str| {
        stats
            .get(block)
            .and_then(|b| b.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let mut cache = fveval_core::CacheStats::default();
    let mut prover = ProverStats::default();
    for r in &traced {
        let s = &r.server;
        cache.hits += count(s, "cache", "hits");
        cache.persisted_hits += count(s, "cache", "persisted_hits");
        cache.misses += count(s, "cache", "misses");
        prover.merge(&ProverStats {
            sat_calls: count(s, "prover", "sat_calls"),
            sim_kills: count(s, "prover", "sim_kills"),
            ternary_kills: count(s, "prover", "ternary_kills"),
            solver_reuse_hits: count(s, "prover", "solver_reuse_hits"),
            sessions_opened: count(s, "prover", "sessions_opened"),
            session_checks: count(s, "prover", "session_checks"),
            digest_reuse: count(s, "cache", "digest_reuse"),
            ..ProverStats::default()
        });
    }
    crate::tables::cache_metrics(&cache, n, &mut report);
    // Each distinct template's designs are compiled once, on its shard.
    let compiled: u64 = rounds
        .iter()
        .zip(&compiles)
        .filter(|(r, _)| r.traced)
        .map(|(_, c)| c)
        .sum();
    report.set(
        "fveval-core.cache.digest_reuse_ratio",
        crate::tables::ratio(prover.digest_reuse, prover.digest_reuse + compiled),
    );
    prover_ratios(&prover, n, &mut report);
    let traced_wall: Duration = traced.iter().map(|r| r.wall).sum();
    let client_wall: Duration = traced.iter().map(|r| r.client_wall).sum();
    report.layers(&records, n, traced_wall);
    report.set(
        "bench.unattributed_s",
        secs(client_wall.saturating_sub(trace::covered(&records))) / n as f64,
    );
    // Scaled to as many untraced rounds as there were traced ones.
    let plain = untraced
        .iter()
        .sum::<Duration>()
        .mul_f64(n as f64 / untraced.len().max(1) as f64);
    report.overhead(traced_wall, plain, n);
    eprint!("{}", trace::ledger(&records, client_wall, n));
    Ok(report)
}
