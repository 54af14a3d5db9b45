//! `tables-cold` and `tables-warm`: one `run-all` pass (Tables 1–6,
//! Figures 2/3/4/6 and the showcase, quick scale) on a fresh
//! `EvalEngine` with the persistent verdict store on.

use crate::measure::{cpu_seconds, derive_seed, fnv1a, median, nproc, peak_rss_mb};
use crate::replay::Replay;
use crate::trace::{self, span};
use crate::{prover_ratios, Ctx, Report};
use fv_core::ProverStats;
use fveval_core::{CacheStats, EvalEngine, Table, VerdictRecord};
use fveval_harness::HarnessOptions;
use fveval_serve::VerdictStore;
use std::path::Path;
use std::time::{Duration, Instant};

/// The artifacts of `fveval run-all`, in its order.
pub const ARTIFACTS: [&str; 11] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "figure2", "figure3", "figure4",
    "figure6", "showcase",
];

/// Artifacts whose bytes do not depend on the seed (the human set is
/// fixed; Table 6 and Figure 2 describe it).
const SEED_INVARIANT: [&str; 5] = ["table1", "table2", "table6", "figure2", "figure6"];

/// Engine workers of a warm pass. Every sample of a warm pass is a
/// cache hit; with `nproc` workers its time goes mostly to spawning
/// them and to contention on the verdict-cache lock (28.6 ms against
/// 20 ms sequential on a 2-CPU host), which swings by a third with
/// the host's other load. The sequential engine measures what the
/// workload is for: store load, cache lookups and report code.
const WARM_JOBS: usize = 1;

/// The harness's default seed, at which every artifact digest is
/// pinned in `pinned.txt`.
pub const PINNED_SEED: u64 = 0xFEED;

const PINNED: &str = include_str!("../pinned.txt");

fn table_bytes(t: &Table) -> String {
    format!("{}\n{}", t.to_markdown(), t.to_csv())
}

/// Renders one artifact to the bytes `fveval` would write for it
/// (markdown, then CSV where the command writes one).
pub fn render(name: &str, engine: &EvalEngine, opts: &HarnessOptions) -> String {
    use fveval_harness as h;
    match name {
        "table1" => table_bytes(&h::table1(engine, opts)),
        "table2" => table_bytes(&h::table2(engine, opts)),
        "table3" => table_bytes(&h::table3(engine, opts)),
        "table4" => table_bytes(&h::table4(engine, opts)),
        "table5" => table_bytes(&h::table5(engine, opts)),
        "table6" => table_bytes(&h::table6()),
        "figure2" => h::figure2(),
        "figure3" => h::figure3(opts),
        "figure4" => h::figure4(opts),
        "figure6" => {
            let (t, notes) = h::figure6(engine, opts);
            format!("{}\n{notes}\n{}", t.to_markdown(), t.to_csv())
        }
        "showcase" => h::showcase(engine, opts),
        other => unreachable!("unknown artifact {other}"),
    }
}

/// One measured `run-all` pass.
pub struct Pass {
    pub setup: Duration,
    pub wall: Duration,
    pub cpu: f64,
    /// `(artifact, digest of its bytes)` in run order.
    pub outputs: Vec<(&'static str, u64)>,
    pub records_loaded: usize,
    pub cache: CacheStats,
    pub prover: ProverStats,
    /// Verdicts this pass computed and flushed.
    pub computed: usize,
    /// Those verdicts, sorted by key, when the caller asked to keep them.
    pub fresh: Option<Vec<VerdictRecord>>,
    pub store_bytes: u64,
    /// The process's peak resident memory so far.
    pub peak_rss_mb: f64,
}

/// Opens (or creates) the store in `store_dir`, preloads a fresh engine
/// from it, runs every artifact, and flushes the new verdicts — the
/// `fveval run-all` flow.
pub fn pass(
    opts: &HarnessOptions,
    jobs: usize,
    store_dir: &Path,
    keep_verdicts: bool,
) -> Result<Pass, String> {
    let t0 = Instant::now();
    let (mut store, records) = {
        let _open = span("fveval-serve.store_open");
        let store = VerdictStore::open(store_dir)
            .map_err(|e| format!("cannot open store {}: {e}", store_dir.display()))?;
        let records = store.records();
        (store, records)
    };
    let engine = EvalEngine::with_jobs(jobs);
    let records_loaded = trace::timed("fveval-core.load_verdicts", || {
        engine.load_verdicts(records)
    });
    let setup = t0.elapsed();

    let t1 = Instant::now();
    let c1 = cpu_seconds();
    let mut outputs = Vec::with_capacity(ARTIFACTS.len());
    for name in ARTIFACTS {
        let bytes = trace::timed("fveval-harness.artifact", || render(name, &engine, opts));
        outputs.push((name, fnv1a(bytes.as_bytes())));
    }
    let fresh = engine.take_unpersisted();
    {
        let _append = span("fveval-serve.store_append");
        store
            .append(&fresh)
            .map_err(|e| format!("cannot flush verdict store: {e}"))?;
        if store.segment_count() > 8 {
            store
                .compact()
                .map_err(|e| format!("cannot compact verdict store: {e}"))?;
        }
    }
    let wall = t1.elapsed();
    let cpu = cpu_seconds() - c1;
    Ok(Pass {
        setup,
        wall,
        cpu,
        outputs,
        records_loaded,
        cache: engine.cache_stats(),
        prover: engine.prover_stats(),
        computed: fresh.len(),
        fresh: keep_verdicts.then_some(fresh),
        store_bytes: crate::measure::dir_bytes(store_dir),
        peak_rss_mb: peak_rss_mb(),
    })
}

fn pinned() -> Vec<(&'static str, u64)> {
    PINNED
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (name, digest) = l.split_once(' ')?;
            Some((name, u64::from_str_radix(digest.trim(), 16).ok()?))
        })
        .collect()
}

fn digests(outputs: &[(&'static str, String)]) -> Vec<(&'static str, u64)> {
    outputs
        .iter()
        .map(|(name, bytes)| (*name, fnv1a(bytes.as_bytes())))
        .collect()
}

/// Compares digests against the pinned ones; `all` checks every
/// artifact (outputs made at [`PINNED_SEED`]), otherwise only the
/// seed-invariant ones.
pub fn check_pinned(got: &[(&'static str, u64)], all: bool, report: &mut Report) {
    let pins = pinned();
    for (name, digest) in got {
        if !all && !SEED_INVARIANT.contains(name) {
            continue;
        }
        report.attempted += 1;
        match pins.iter().find(|(n, _)| n == name) {
            Some((_, want)) if want == digest => {}
            Some((_, want)) => {
                report.fail(format!("{name}: digest {digest:016x}, pinned {want:016x}"));
            }
            None => report.fail(format!("{name}: no pinned digest (got {digest:016x})")),
        }
    }
}

/// Compares every pass's outputs with the reference digests.
fn check_passes(reference: &[(&'static str, u64)], passes: &[Pass], report: &mut Report) {
    for (i, p) in passes.iter().enumerate() {
        for ((name, got), (_, want)) in p.outputs.iter().zip(reference) {
            report.attempted += 1;
            if got != want {
                report.fail(format!("pass {i}: {name} differs from the reference bytes"));
            }
        }
    }
}

fn e2e(passes: &[Pass], report: &mut Report) {
    for p in passes {
        report.samples.pass(p.setup, p.wall, p.cpu);
    }
    report.samples.peak_rss_mb.push(passes[2].peak_rss_mb);
}

/// A new empty directory for one pass's store: the fresh temp dir a
/// cold run starts from, made before the pass's clock starts.
fn fresh_dir(ctx: &Ctx, name: &str) -> Result<std::path::PathBuf, String> {
    let dir = ctx.dir.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn opts(seed: u64) -> HarnessOptions {
    HarnessOptions { full: false, seed }
}

/// The harness seed of cold pass `i`: the pinned seed first, then
/// seeds drawn from the run's seed, so that one run averages over many
/// inputs.
fn cold_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        PINNED_SEED
    } else {
        derive_seed(seed, i)
    }
}

/// Runs passes until the run's time is used (at least three). A warm
/// pass uses `store` at the run's seed; a cold pass uses a fresh store
/// of its own (removed after the pass) at [`cold_seed`].
fn measure(ctx: &Ctx, store: Option<&Path>) -> Result<Vec<Pass>, String> {
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 3 || started.elapsed() < ctx.seconds {
        let (dir, seed, jobs) = match store {
            Some(dir) => (dir.to_path_buf(), ctx.seed, WARM_JOBS),
            None => (
                fresh_dir(ctx, &format!("cold-{}", passes.len()))?,
                cold_seed(ctx.seed, ctx.draw(passes.len())),
                nproc(),
            ),
        };
        passes.push(pass(&opts(seed), jobs, &dir, false)?);
        if store.is_none() {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    Ok(passes)
}

pub fn cold(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    if ctx.trace {
        traced_cold(ctx, &mut report)?;
        return Ok(report);
    }
    let passes = measure(ctx, None)?;
    e2e(&passes, &mut report);
    // The first pass of the first process ran at the pinned seed; every
    // other pass still shares the seed-invariant artifacts.
    for (i, p) in passes.iter().enumerate() {
        check_pinned(&p.outputs, ctx.draw(i) == 0, &mut report);
    }
    if ctx.process == 0 {
        // Determinism and jobs invariance at a drawn seed: the second
        // pass again, on a sequential engine.
        let dir = ctx.dir.join("again");
        let again = pass(&opts(cold_seed(ctx.seed, 1)), 1, &dir, false)?;
        check_passes(
            &passes[1].outputs,
            std::slice::from_ref(&again),
            &mut report,
        );
    }
    for p in &passes {
        report.attempted += 1;
        if p.cache.misses == 0 || p.computed == 0 {
            report.fail("a cold pass computed no verdicts".into());
        }
    }
    Ok(report)
}

/// Writes the warm store in a child process (so the parent's peak
/// memory reflects warm passes only) and returns the cold digests.
fn make_store(ctx: &Ctx, store: &Path) -> Result<Vec<(&'static str, u64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("--make-store")
        .arg(store)
        .arg("--seed")
        .arg(ctx.seed.to_string())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the store writer: {e}"))?;
    if !out.status.success() {
        return Err(format!("store writer failed ({})", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    ARTIFACTS
        .iter()
        .map(|name| {
            text.lines()
                .find_map(|l| l.strip_prefix(&format!("{name} ")))
                .and_then(|d| u64::from_str_radix(d.trim(), 16).ok())
                .map(|d| (*name, d))
                .ok_or_else(|| format!("store writer printed no digest for {name}"))
        })
        .collect()
}

/// The `--make-store` child: one cold pass into `store`, digests on
/// standard output.
pub fn write_store(store: &Path, seed: u64) -> Result<(), String> {
    let p = pass(&opts(seed), nproc(), store, false)?;
    for (name, digest) in p.outputs {
        println!("{name} {digest:016x}");
    }
    Ok(())
}

pub fn warm(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let store = ctx.dir.join("store");
    let cold_digests = make_store(ctx, &store)?;
    let store_bytes = crate::measure::dir_bytes(&store);
    if ctx.trace {
        traced_warm(ctx, &store, &cold_digests, &mut report)?;
    } else {
        let passes = measure(ctx, Some(&store))?;
        e2e(&passes, &mut report);
        check_passes(&cold_digests, &passes, &mut report);
        check_pinned(&cold_digests, ctx.seed == PINNED_SEED, &mut report);
        for p in &passes {
            report.attempted += 1;
            if p.cache.misses != 0 || p.cache.hits + p.cache.persisted_hits == 0 {
                report.fail(format!(
                    "a warm pass missed the store ({} misses)",
                    p.cache.misses
                ));
            }
        }
    }
    if crate::measure::dir_bytes(&store) != store_bytes {
        report.fail("a warm pass wrote to the store".into());
    }
    Ok(report)
}

/// Traced `tables-warm`: alternating untraced and traced passes of the
/// real flow, with spans around store open, preload, each artifact and
/// the flush.
fn traced_warm(
    ctx: &Ctx,
    store: &Path,
    cold_digests: &[(&'static str, u64)],
    report: &mut Report,
) -> Result<(), String> {
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut records = Vec::new();
    while traced.len() < 3 || started.elapsed() < ctx.seconds {
        plain.push(pass(&opts(ctx.seed), WARM_JOBS, store, false)?);
        trace::set_enabled(true);
        let p = pass(&opts(ctx.seed), WARM_JOBS, store, false);
        trace::set_enabled(false);
        records.extend(trace::take());
        traced.push(p?);
    }
    let n = traced.len() as f64;
    let loaded = traced.iter().map(|p| p.records_loaded as f64).sum::<f64>() / n;
    let mut cache = CacheStats::default();
    for p in &traced {
        cache.merge(&p.cache);
    }
    report.set("fveval-serve.store_open.records", loaded);
    report.set("fveval-serve.store.bytes", traced[0].store_bytes as f64);
    cache_metrics(&cache, traced.len(), report);
    let wall: Duration = traced.iter().map(|p| p.setup + p.wall).sum();
    let plain_wall: Duration = plain.iter().map(|p| p.setup + p.wall).sum();
    report.layers(&records, traced.len(), wall);
    report.overhead(wall, plain_wall, traced.len());
    check_passes(cold_digests, &plain, report);
    check_passes(cold_digests, &traced, report);
    for p in &traced {
        report.attempted += 1;
        if p.cache.misses != 0 {
            report.fail("a traced warm pass missed the store".into());
        }
    }
    eprint!("{}", trace::ledger(&records, wall, traced.len()));
    Ok(())
}

/// Verdict-cache hit ratio `(hits + persisted hits) / lookups`, and
/// the lookups per pass it is a ratio of.
pub fn cache_metrics(cache: &CacheStats, passes: usize, report: &mut Report) {
    let hits = cache.hits + cache.persisted_hits;
    let lookups = hits + cache.misses;
    report.set("fveval-core.cache.hit_ratio", ratio(hits, lookups));
    report.set(
        "fveval-core.cache.lookups",
        lookups as f64 / passes.max(1) as f64,
    );
}

/// Reopens the store a replay flushed in `dir` and preloads a fresh
/// engine from it, as the next run on that store would: the store
/// decode and verdict preload of a warm set-up. Returns the records
/// loaded.
fn reload(dir: &Path) -> Result<usize, String> {
    let records = {
        let _open = span("fveval-serve.store_open");
        VerdictStore::open(dir)
            .map_err(|e| format!("cannot reopen store {}: {e}", dir.display()))?
            .records()
    };
    let engine = EvalEngine::with_jobs(1);
    Ok(trace::timed("fveval-core.load_verdicts", || {
        engine.load_verdicts(records)
    }))
}

/// Traced `tables-cold`: an untraced engine pass, then the case-major
/// replay of the same work untraced and traced, each followed by a
/// reload of the store it flushed. Both replays must reproduce the
/// engine's verdicts and prover counters exactly, and each reload must
/// return every record flushed.
fn traced_cold(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let started = Instant::now();
    let mut records = Vec::new();
    let (mut plain, mut traced, mut passes) = (Duration::ZERO, Duration::ZERO, 0usize);
    let mut cache = CacheStats::default();
    let mut replays = Vec::new();
    let mut reloaded = 0usize;
    while passes < 2 || started.elapsed() < ctx.seconds {
        let harness = opts(cold_seed(ctx.seed, ctx.draw(passes)));
        let dir = ctx.dir.join(format!("engine-{passes}"));
        let engine_pass = pass(&harness, nproc(), &dir, true)?;
        let _ = std::fs::remove_dir_all(&dir);
        cache.merge(&engine_pass.cache);

        let dir = ctx.dir.join(format!("replay-{passes}"));
        let t = Instant::now();
        let untraced = Replay::run(&harness, &dir).and_then(|r| Ok((reload(&dir)?, r)))?;
        plain += t.elapsed();
        let _ = std::fs::remove_dir_all(&dir);

        trace::set_enabled(true);
        let t = Instant::now();
        let replay = Replay::run(&harness, &dir).and_then(|r| Ok((reload(&dir)?, r)));
        traced += t.elapsed();
        trace::set_enabled(false);
        records.extend(trace::take());
        let replay = replay?;
        let _ = std::fs::remove_dir_all(&dir);

        for (label, (loaded, r)) in [("untraced", &untraced), ("traced", &replay)] {
            fidelity(label, &engine_pass, r, report);
            report.attempted += 1;
            if *loaded != r.records.len() {
                report.fail(format!(
                    "{label} replay store reloaded {loaded} of {} records",
                    r.records.len()
                ));
            }
        }
        reloaded += replay.0;
        let replay = replay.1;
        passes += 1;
        replays.push(replay);
    }
    let mut stats = ProverStats::default();
    let (mut compiles, mut store_bytes) = (0u64, 0u64);
    for r in &replays {
        stats.merge(&r.stats);
        compiles += r.compiles;
        store_bytes += r.store_bytes;
    }
    cache_metrics(&cache, passes, report);
    report.set(
        "fveval-core.cache.digest_reuse_ratio",
        ratio(stats.digest_reuse, stats.digest_reuse + compiles),
    );
    prover_ratios(&stats, passes, report);
    report.set(
        "fveval-serve.store.bytes",
        store_bytes as f64 / passes as f64,
    );
    report.set(
        "fveval-serve.store_open.records",
        reloaded as f64 / passes as f64,
    );
    let cases = trace::durations_ms(&records, "fveval-core.case");
    report.set("fveval-core.case.p50_ms", median(&cases));
    report.set("fveval-core.case.max_ms", crate::measure::max(&cases));
    report.layers(&records, passes, traced);
    report.overhead(traced, plain, passes);
    eprint!("{}", trace::ledger(&records, traced, passes));
    Ok(())
}

/// Fidelity: the replay's verdicts, prover totals and engine-free
/// artifacts equal the engine pass's.
fn fidelity(label: &str, engine: &Pass, replay: &Replay, report: &mut Report) {
    report.attempted += 1;
    let fresh = engine.fresh.as_deref().unwrap_or_default();
    if replay.records != fresh {
        let diff = replay
            .records
            .iter()
            .zip(fresh)
            .position(|(a, b)| a != b)
            .unwrap_or(replay.records.len().min(fresh.len()));
        report.fail(format!(
            "{label} replay verdicts differ from the engine's ({} vs {} records, first difference at {diff})",
            replay.records.len(),
            fresh.len()
        ));
    }
    report.attempted += 1;
    if replay.stats != engine.prover {
        report.fail(format!(
            "{label} replay prover totals differ: {:?} vs engine {:?}",
            replay.stats, engine.prover
        ));
    }
    for (name, digest) in digests(&replay.outputs) {
        report.attempted += 1;
        let same = engine.outputs.contains(&(name, digest));
        if !same {
            report.fail(format!(
                "{label} replay {name} differs from the engine pass"
            ));
        }
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
