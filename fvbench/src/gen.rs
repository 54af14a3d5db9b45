//! `gen-sweep`: `generate_suite` (with OP-Tree mutation), then
//! `validate_suite`, then `write_suite`, over the `--mutations 4`
//! shape at a scaled size.
//!
//! A pass generates, for every default family, one scenario at each of
//! the 32 (depth, width) points the ROADMAP sweep draws from uniformly
//! (depth 1..=8, width 4/8/16/32), one `generate_suite` call per point.
//! So every pass has the sweep's mix of sizes exactly, rather than a
//! draw from it: a drawn 176-scenario suite costs anywhere from 0.55x to
//! 1.5x the mean, and that alone swamped the run-to-run spread. Each
//! point's seed is drawn per pass, so passes still differ in content.
//! Generation is the pass's set-up; validation and writing are its work.

use crate::measure::{cpu_seconds, derive_seed, fnv1a, peak_rss_mb};
use crate::trace::{self, tagged, timed};
use crate::{prover_ratios, Ctx, Report};
use fv_core::{prove_with_stats, replay_design_cex, ProveConfig, ProveEngine, ProveResult};
use fveval_gen::{
    bind_scenario, generate_suite, validate_suite, write_suite, GoldenVerdict, Scenario,
    ScenarioReport, Suite, SuiteConfig,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// The sweep's depths and widths (`generate_suite` draws each
/// uniformly); a pass covers every pair once per family, so 32
/// scenarios per family (the ROADMAP sweep uses 104).
const DEPTHS: std::ops::RangeInclusive<u32> = 1..=8;
const WIDTHS: [u32; 4] = [4, 8, 16, 32];
const MUTATIONS: usize = 4;

/// The default-suite families, in registry order. The per-family
/// validation metrics are named after these.
pub const FAMILIES: [&str; 11] = [
    "fifo",
    "arbiter",
    "handshake",
    "gray",
    "shift",
    "crc",
    "regfile",
    "pipeline",
    "axi",
    "hier",
    "ring",
];

/// How a pass validates its suite.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// `validate_suite`, the program's own path.
    Suite,
    /// The same checks split into their layer calls (traced runs).
    Split,
}

struct Pass {
    setup: Duration,
    wall: Duration,
    cpu: f64,
    scenarios: u64,
    /// Scenarios with golden mismatches or replay failures, or every
    /// scenario on a hard error.
    failed: u64,
    problems: Vec<String>,
    reports: Vec<ScenarioReport>,
    /// Digest of the written manifest, to compare passes.
    manifest: u64,
    /// The process's peak resident memory so far.
    peak_rss_mb: f64,
}

fn default_families() -> Vec<&'static str> {
    fveval_gen::generators()
        .iter()
        .filter(|g| g.in_default_suite())
        .map(|g| g.family())
        .collect()
}

/// The pass's suite: every default family at every (depth, width)
/// point, grouped by family in registry order as `generate_suite`
/// groups them.
fn generate(seed: u64) -> Suite {
    let points = DEPTHS.flat_map(|d| WIDTHS.map(|w| (d, w)));
    let mut scenarios: Vec<Scenario> = points
        .enumerate()
        .flat_map(|(i, (depth, width))| {
            let cfg = SuiteConfig {
                families: Vec::new(),
                per_family: 1,
                seed: derive_seed(seed, i),
                depth: Some(depth),
                width: Some(width),
                mutations: MUTATIONS,
            };
            generate_suite(&cfg).scenarios
        })
        .collect();
    scenarios.sort_by_key(|s| FAMILIES.iter().position(|f| *f == s.family));
    Suite {
        config: SuiteConfig {
            families: Vec::new(),
            per_family: DEPTHS.count() * WIDTHS.len(),
            seed,
            depth: None,
            width: None,
            mutations: MUTATIONS,
        },
        scenarios,
    }
}

/// Generates the pass's suite, validates it and writes it under `dir`.
fn pass(seed: u64, dir: &Path, mode: Mode) -> Result<Pass, String> {
    let t0 = Instant::now();
    let suite = timed("fveval-gen.generate", || generate(seed));
    let setup = t0.elapsed();

    let t1 = Instant::now();
    let c1 = cpu_seconds();
    let reports = {
        let _validate = trace::span("fveval-gen.validate");
        match mode {
            Mode::Suite => validate_suite(&suite, ProveConfig::default()),
            Mode::Split => validate_split(&suite, ProveConfig::default()),
        }
    };
    let written = timed("fveval-gen.write", || write_suite(dir, &suite));
    let wall = t1.elapsed();
    let cpu = cpu_seconds() - c1;

    let n = suite.scenarios.len() as u64;
    let mut p = Pass {
        setup,
        wall,
        cpu,
        scenarios: n,
        failed: 0,
        problems: Vec::new(),
        reports: Vec::new(),
        manifest: fnv1a(&std::fs::read(dir.join("manifest.csv")).unwrap_or_default()),
        peak_rss_mb: peak_rss_mb(),
    };
    match (reports, written) {
        (Ok(reports), Ok(_)) => {
            for r in reports.iter().filter(|r| !r.is_clean()) {
                p.failed += 1;
                p.problems
                    .push(format!("{}: {}", r.id, r.problems.join("; ")));
            }
            p.reports = reports;
        }
        (Err(e), _) => {
            p.failed = n;
            p.problems.push(e);
        }
        (_, Err(e)) => {
            p.failed = n;
            p.problems.push(format!("cannot write suite: {e}"));
        }
    }
    Ok(p)
}

/// `validate_suite` split into its layer calls: `bind_scenario`,
/// parse, `prove_with_stats` (with the PDR retry on `Undetermined`)
/// and `replay_design_cex`, each in a span. Mirrors
/// `fveval_gen::validate_scenario` check for check.
fn validate_split(suite: &Suite, cfg: ProveConfig) -> Result<Vec<ScenarioReport>, String> {
    suite
        .scenarios
        .iter()
        .map(|s| validate_scenario_split(s, cfg))
        .collect()
}

fn validate_scenario_split(
    scenario: &Scenario,
    cfg: ProveConfig,
) -> Result<ScenarioReport, String> {
    let _family = tagged("fveval-gen.validate_family", scenario.family);
    let bound = timed("fveval-gen.bind", || bind_scenario(scenario))?;
    let mut report = ScenarioReport {
        id: scenario.id.clone(),
        ..ScenarioReport::default()
    };
    if scenario.provable().next().is_none() {
        report.mismatches += 1;
        report
            .problems
            .push("scenario has no provable candidate".into());
    }
    if scenario.falsifiable().next().is_none() {
        report.mismatches += 1;
        report
            .problems
            .push("scenario has no falsifiable candidate".into());
    }
    let prove = |assertion: &sv_ast::Assertion, cfg| {
        timed("fv-core.prove_check", || {
            prove_with_stats(&bound.netlist, assertion, &bound.consts, cfg)
        })
    };
    for cand in &scenario.candidates {
        let assertion = timed("sv-parser.parse", || {
            sv_parser::parse_assertion_str(&cand.sva)
        })
        .map_err(|e| format!("{}/{}: parse: {e}", scenario.id, cand.name))?;
        let (mut result, stats) = prove(&assertion, cfg)
            .map_err(|e| format!("{}/{}: prove: {e}", scenario.id, cand.name))?;
        report.stats.merge(&stats);
        if matches!(result, ProveResult::Undetermined) && cfg.engine == ProveEngine::Bounded {
            let pdr_cfg = ProveConfig {
                engine: ProveEngine::Pdr,
                ..cfg
            };
            let (retry, retry_stats) = prove(&assertion, pdr_cfg)
                .map_err(|e| format!("{}/{}: prove (pdr): {e}", scenario.id, cand.name))?;
            report.stats.merge(&retry_stats);
            result = retry;
        }
        match (cand.verdict, &result) {
            (GoldenVerdict::Provable, ProveResult::Proven { .. }) => report.confirmed += 1,
            (GoldenVerdict::Falsifiable, ProveResult::Falsified { cex }) => {
                match timed("fv-core.replay", || {
                    replay_design_cex(&bound.netlist, &assertion, &bound.consts, cfg, cex)
                }) {
                    Ok(true) => report.confirmed += 1,
                    other if cand.mutation.is_some() => {
                        return Err(format!(
                            "{}/{}: mutation '{}' (seed {:#x}) produced a counterexample \
                             that does not replay ({other:?})",
                            scenario.id,
                            cand.name,
                            cand.mutation.expect("checked by the guard").tag(),
                            scenario.params.seed
                        ));
                    }
                    other => {
                        report.replay_failures += 1;
                        report.problems.push(format!(
                            "{}: counterexample does not replay ({other:?})",
                            cand.name
                        ));
                    }
                }
            }
            (want, got) => {
                if let Some(op) = cand.mutation {
                    return Err(format!(
                        "{}/{}: mutation '{}' (seed {:#x}) failed to stay falsifiable: \
                         golden {want:?}, prover {got:?}",
                        scenario.id,
                        cand.name,
                        op.tag(),
                        scenario.params.seed
                    ));
                }
                report.mismatches += 1;
                report
                    .problems
                    .push(format!("{}: golden {want:?}, prover {got:?}", cand.name));
            }
        }
    }
    Ok(report)
}

/// Counts a pass's scenarios and failures; with a `reference` pass of
/// the same seed, also checks that both wrote the same manifest and
/// reports.
fn check(pass: &Pass, reference: Option<&Pass>, report: &mut Report) {
    report.attempted += pass.scenarios;
    report.failed += pass.failed;
    for p in &pass.problems {
        report.problem(p.clone());
    }
    if let Some(first) = reference {
        if pass.manifest != first.manifest || pass.reports != first.reports {
            report.fail("a pass differs from another pass of the same seed".into());
        }
    }
}

pub fn sweep(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let families = default_families();
    if families != FAMILIES {
        return Err(format!(
            "default families changed ({families:?}); the per-family metric names need updating"
        ));
    }
    if ctx.trace {
        traced(ctx, &mut report)?;
        return Ok(report);
    }
    // Each pass draws its own scenarios, so one run averages over many.
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 3 || started.elapsed() < ctx.seconds {
        let dir = ctx.dir.join(format!("gen-{}", passes.len()));
        passes.push(pass(
            derive_seed(ctx.seed, ctx.draw(passes.len())),
            &dir,
            Mode::Suite,
        )?);
        let _ = std::fs::remove_dir_all(&dir);
    }
    for p in &passes {
        report.samples.pass(p.setup, p.wall, p.cpu);
    }
    report.samples.peak_rss_mb.push(passes[2].peak_rss_mb);
    for p in &passes {
        check(p, None, &mut report);
    }
    if ctx.process == 0 {
        // Determinism: the first pass again.
        let dir = ctx.dir.join("again");
        let again = pass(derive_seed(ctx.seed, ctx.draw(0)), &dir, Mode::Suite)?;
        let _ = std::fs::remove_dir_all(&dir);
        check(&again, Some(&passes[0]), &mut report);
    }
    Ok(report)
}

/// Traced `gen-sweep`: an untraced `validate_suite` pass (the fidelity
/// reference), then the split validation untraced and traced, each
/// iteration on its own draw.
fn traced(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let started = Instant::now();
    let mut records = Vec::new();
    let (mut plain, mut traced, mut passes) = (Duration::ZERO, Duration::ZERO, 0usize);
    let mut stats = fv_core::ProverStats::default();
    while passes < 2 || started.elapsed() < ctx.seconds {
        let seed = derive_seed(ctx.seed, passes);
        let dir = ctx.dir.join(format!("gen-{passes}"));
        let reference = pass(seed, &dir, Mode::Suite)?;
        let _ = std::fs::remove_dir_all(&dir);
        let untraced = pass(seed, &dir, Mode::Split)?;
        plain += untraced.setup + untraced.wall;
        let _ = std::fs::remove_dir_all(&dir);
        trace::set_enabled(true);
        let split = pass(seed, &dir, Mode::Split);
        trace::set_enabled(false);
        records.extend(trace::take());
        let split = split?;
        traced += split.setup + split.wall;
        let _ = std::fs::remove_dir_all(&dir);
        // Fidelity: the split reproduces validate_scenario's reports
        // (confirmed counts, failures, prover counters) exactly.
        check(&untraced, Some(&reference), report);
        check(&split, Some(&reference), report);
        for r in &split.reports {
            stats.merge(&r.stats);
        }
        passes += 1;
    }
    prover_ratios(&stats, passes, report);
    let n = passes as f64;
    for (family, busy) in trace::by_tag(&records, "fveval-gen.validate_family") {
        report.set(
            format!("fveval-gen.validate.{family}.busy_s"),
            busy.as_secs_f64() / n,
        );
    }
    report.layers(&records, passes, traced);
    report.overhead(traced, plain, passes);
    eprint!("{}", trace::ledger(&records, traced, passes));
    Ok(())
}
