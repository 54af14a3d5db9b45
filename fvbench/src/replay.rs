//! The traced `tables-cold` replay: every engine-backed artifact's
//! work-list, case-major, through the public calls of each layer, in
//! the engine's order and with its cache semantics. Spans wrap each
//! call, so the per-layer ledger describes the work `run-all` does; the
//! fidelity check in `tables.rs` holds the replay to the engine's exact
//! verdicts and prover counters.

use crate::trace::{span, timed};
use fv_core::SignalTable;
use fv_core::{EquivConfig, EquivSession, ProofSession, ProveConfig, ProveResult, ProverStats};
use fveval_core::{
    bleu, design_task_specs, human_task_specs, machine_task_specs, SampleEval, VerdictRecord,
};
use fveval_data::{
    fsm_sweep, generate_machine_cases, human_cases, machine_signal_table, pipeline_sweep,
    signal_table_for, testbenches, DesignCase, MachineGenConfig,
};
use fveval_harness::HarnessOptions;
use fveval_llm::{profiles, Backend, InferenceConfig, Request, SimulatedModel, TaskSpec};
use fveval_serve::VerdictStore;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use sv_ast::{Expr, Instance, ModuleItem};
use sv_synth::ElaboratedDesign;

/// Quick-scale sizes of the harness (`HarnessOptions { full: false }`).
const MACHINE_CASES: usize = 120;
const DESIGNS: usize = 12;
const SAMPLES: u32 = 6;

type Key = (String, String, u64, String, u32);

/// A design compiled the way `fveval_core::compile_design` compiles it,
/// keeping the elaborated design so helper items can be bound.
struct Compiled {
    design: ElaboratedDesign,
    consts: Vec<(String, u32, u128)>,
}

pub struct Replay {
    verdicts: HashMap<Key, SampleEval>,
    compiled: HashMap<(String, u64), Arc<Result<Compiled, String>>>,
    /// Verdicts computed (not cache hits), sorted by key at the end.
    pub records: Vec<VerdictRecord>,
    /// Prover work, summed exactly as the engine sums it.
    pub stats: ProverStats,
    /// Designs compiled (digest-cache misses).
    pub compiles: u64,
    /// Bytes of the artifacts that need no engine.
    pub outputs: Vec<(&'static str, String)>,
    pub store_bytes: u64,
}

fn models(names: &[&str]) -> Vec<SimulatedModel> {
    names
        .iter()
        .map(|n| {
            profiles()
                .into_iter()
                .find(|m| m.name() == *n)
                .expect("model in the roster")
        })
        .collect()
}

fn human_tables() -> HashMap<&'static str, SignalTable> {
    testbenches()
        .into_iter()
        .map(|tb| {
            (
                tb.name,
                signal_table_for(&tb).expect("shipped testbenches elaborate"),
            )
        })
        .collect()
}

fn human_tasks() -> Vec<Arc<TaskSpec>> {
    timed("fveval-data.tasks", || {
        human_task_specs(&human_cases(), &human_tables())
    })
}

fn machine_tasks(seed: u64) -> Vec<Arc<TaskSpec>> {
    timed("fveval-data.tasks", || {
        let cases = generate_machine_cases(MachineGenConfig {
            count: MACHINE_CASES,
            seed,
            ..Default::default()
        });
        machine_task_specs(&cases, &machine_signal_table())
    })
}

/// `compile_design`'s steps: parse design + testbench, bind the DUT,
/// elaborate the whole file once.
fn compile(case: &DesignCase) -> Result<Compiled, String> {
    let src = format!("{}\n{}", case.design_source, case.tb_source);
    let file = sv_parser::parse_source(&src).map_err(|e| e.to_string())?;
    let design = file
        .module(&case.top)
        .ok_or_else(|| format!("missing design module {}", case.top))?;
    let conns: Vec<(String, Expr)> = design
        .port_order
        .iter()
        .map(|p| (p.clone(), Expr::ident(p.clone())))
        .collect();
    let dut = ModuleItem::Instance(Instance {
        module: case.top.clone(),
        name: "dut".into(),
        params: vec![],
        conns,
    });
    let design = sv_synth::elaborate_design(&file, &case.tb_top, std::slice::from_ref(&dut))
        .map_err(|e| e.to_string())?;
    let consts = design
        .params()
        .iter()
        .map(|(n, v)| (n.clone(), 32u32, *v))
        .collect();
    Ok(Compiled { design, consts })
}

/// `Nl2svaRunner::evaluate_in_session`'s steps.
fn score_nl(
    session: &mut Option<EquivSession<'_>>,
    reference: &str,
    response: &str,
) -> (SampleEval, ProverStats) {
    let Some(equiv) = session else {
        return (SampleEval::failed(), ProverStats::default());
    };
    let candidate = match timed("sv-parser.parse", || {
        sv_parser::parse_assertion_str(response)
    }) {
        Ok(a) => a,
        Err(_) => {
            let b = timed("fveval-core.bleu", || bleu(reference, response));
            return (
                SampleEval {
                    bleu: b,
                    ..SampleEval::failed()
                },
                ProverStats::default(),
            );
        }
    };
    let b = timed("fveval-core.bleu", || bleu(reference, response));
    let before = equiv.stats();
    match timed("fv-core.equiv_check", || equiv.check(&candidate)) {
        Err(_) => (
            SampleEval {
                syntax: false,
                func: false,
                partial: false,
                bleu: b,
            },
            equiv.stats().delta_since(&before),
        ),
        Ok(out) => (
            SampleEval {
                syntax: true,
                func: out.verdict.is_equivalent(),
                partial: out.verdict.is_partial(),
                bleu: b,
            },
            out.stats,
        ),
    }
}

/// `Nl2svaRunner::open_session`'s steps.
fn open_nl<'t>(reference: &str, table: &'t SignalTable) -> Option<EquivSession<'t>> {
    let parsed = timed("sv-parser.parse", || {
        sv_parser::parse_assertion_str(reference)
    })
    .ok()?;
    Some(timed("fv-core.equiv_open", || {
        EquivSession::open(parsed, table, EquivConfig::default())
    }))
}

/// `Design2svaRunner::evaluate_in_session`'s steps.
fn score_design<'c>(
    compiled: &'c Compiled,
    session: &mut Option<ProofSession<'c>>,
    response: &str,
) -> (SampleEval, ProverStats) {
    let cfg = ProveConfig::default();
    let failed = (SampleEval::failed(), ProverStats::default());
    let Ok(items) = timed("sv-parser.parse", || sv_parser::parse_snippet(response)) else {
        return failed;
    };
    let mut helpers = Vec::new();
    let mut assertion = None;
    for item in items {
        match item {
            ModuleItem::Assertion(a) => {
                if assertion.is_none() {
                    assertion = Some(a);
                }
            }
            other => helpers.push(other),
        }
    }
    let Some(assertion) = assertion else {
        return failed;
    };
    let sample = |result: &ProveResult| {
        let proven = matches!(result, ProveResult::Proven { .. });
        SampleEval {
            syntax: true,
            func: proven,
            partial: proven,
            bleu: 0.0,
        }
    };
    if helpers.is_empty() {
        if session.is_none() {
            match timed("fv-core.prove_open", || {
                ProofSession::open(compiled.design.netlist(), &compiled.consts, cfg)
            }) {
                Ok(open) => *session = Some(open),
                Err(_) => return failed,
            }
        }
        let proof = session.as_mut().expect("session opened above");
        let before = proof.stats();
        match timed("fv-core.prove_check", || proof.check(&assertion)) {
            Err(_) => (SampleEval::failed(), proof.stats().delta_since(&before)),
            Ok((result, stats)) => (sample(&result), stats),
        }
    } else {
        let Ok(netlist) = timed("sv-synth.bind_extras", || {
            compiled.design.bind_extras(&helpers)
        }) else {
            return failed;
        };
        let Ok(mut one_shot) = timed("fv-core.prove_open", || {
            ProofSession::open(&netlist, &compiled.consts, cfg)
        }) else {
            return failed;
        };
        match timed("fv-core.prove_check", || one_shot.check(&assertion)) {
            Err(_) => (SampleEval::failed(), one_shot.stats()),
            Ok((result, _)) => (sample(&result), one_shot.stats()),
        }
    }
}

impl Replay {
    /// Replays one `run-all` pass at `opts` and flushes its verdicts to
    /// a fresh store in `store_dir`.
    pub fn run(opts: &HarnessOptions, store_dir: &Path) -> Result<Replay, String> {
        let mut r = Replay {
            verdicts: HashMap::new(),
            compiled: HashMap::new(),
            records: Vec::new(),
            stats: ProverStats::default(),
            compiles: 0,
            outputs: Vec::new(),
            store_bytes: 0,
        };
        let seed = opts.seed;
        let all = profiles();
        let top3 = models(&["gpt-4o", "gemini-1.5-flash", "llama-3.1-70b"]);
        let greedy = InferenceConfig::greedy();
        let sampling = InferenceConfig::sampling();
        // Table 1, Table 2.
        r.matrix(&all, &human_tasks(), &greedy, 1);
        r.matrix(&top3, &human_tasks(), &sampling, SAMPLES);
        // Table 3, Table 4.
        let machine = machine_tasks(seed);
        r.matrix(&all, &machine, &greedy, 1);
        r.matrix(&all, &machine, &greedy.with_shots(3), 1);
        r.matrix(
            &top3,
            &machine_tasks(seed),
            &sampling.with_shots(3),
            SAMPLES,
        );
        // Table 5.
        let (pipes, fsms) = timed("fveval-data.tasks", || {
            (
                design_task_specs(&pipeline_sweep(DESIGNS, seed)),
                design_task_specs(&fsm_sweep(DESIGNS, seed.wrapping_add(1))),
            )
        });
        let d2s: Vec<SimulatedModel> = profiles()
            .into_iter()
            .filter(|m| m.profile().supports_design2sva)
            .collect();
        r.matrix(&d2s, &pipes, &sampling, SAMPLES);
        r.matrix(&d2s, &fsms, &sampling, SAMPLES);
        // Table 6, Figures 2/3/4: dataset and report code only.
        for name in ["table6", "figure2", "figure3", "figure4"] {
            let bytes = timed("fveval-harness.artifact", || {
                crate::tables::render(name, &fveval_core::EvalEngine::with_jobs(1), opts)
            });
            r.outputs.push((name, bytes));
        }
        // Figure 6.
        r.matrix(
            &models(&["gpt-4o", "llama-3.1-70b"]),
            &human_tasks(),
            &greedy,
            1,
        );
        r.showcase(seed);

        r.records.sort_by(|a, b| {
            (&a.model, &a.task_id, a.digest, &a.cfg, a.sample)
                .cmp(&(&b.model, &b.task_id, b.digest, &b.cfg, b.sample))
        });
        let mut store = {
            let _open = span("fveval-serve.store_open");
            VerdictStore::open(store_dir).map_err(|e| format!("cannot open store: {e}"))?
        };
        timed("fveval-serve.store_append", || store.append(&r.records))
            .map_err(|e| format!("cannot flush verdict store: {e}"))?;
        r.store_bytes = crate::measure::dir_bytes(store_dir);
        Ok(r)
    }

    fn matrix(
        &mut self,
        backends: &[SimulatedModel],
        tasks: &[Arc<TaskSpec>],
        cfg: &InferenceConfig,
        n: u32,
    ) {
        for task in tasks {
            self.group(backends, task, cfg, n);
        }
    }

    /// The engine's compiled-design cache: a hit counts as digest reuse.
    fn compiled(&mut self, case: &DesignCase, digest: u64) -> Arc<Result<Compiled, String>> {
        let key = (case.id.clone(), digest);
        if let Some(hit) = self.compiled.get(&key) {
            self.stats.digest_reuse += 1;
            return Arc::clone(hit);
        }
        self.compiles += 1;
        let built = Arc::new(timed("fveval-core.compile", || compile(case)));
        self.compiled.insert(key, Arc::clone(&built));
        built
    }

    fn settle(&mut self, key: Key, eval: SampleEval) {
        self.records.push(VerdictRecord {
            model: key.0.clone(),
            task_id: key.1.clone(),
            digest: key.2,
            cfg: key.3.clone(),
            sample: key.4,
            eval,
        });
        self.verdicts.insert(key, eval);
    }

    /// One case group: cache lookups and batched inference per backend,
    /// then every miss scored through one shared session, in backend
    /// then sample order.
    fn group(
        &mut self,
        backends: &[SimulatedModel],
        task: &Arc<TaskSpec>,
        cfg: &InferenceConfig,
        n: u32,
    ) {
        let _case = span("fveval-core.case");
        let fingerprint = cfg.fingerprint();
        let digest = task.content_digest();
        let key = |backend: &SimulatedModel, sample: u32| -> Key {
            (
                backend.name().to_string(),
                task.id().to_string(),
                digest,
                fingerprint.clone(),
                sample,
            )
        };
        let mut pending: Vec<(usize, Vec<(u32, String)>)> = Vec::new();
        for (b, backend) in backends.iter().enumerate() {
            let missing: Vec<u32> = (0..n)
                .filter(|&i| !self.verdicts.contains_key(&key(backend, i)))
                .collect();
            if missing.is_empty() {
                continue;
            }
            let broken = match task.as_ref() {
                TaskSpec::Design2sva { case } => self.compiled(case, digest).is_err(),
                _ => false,
            };
            if broken {
                for i in missing {
                    self.settle(key(backend, i), SampleEval::failed());
                }
                continue;
            }
            let reqs: Vec<Request> = missing
                .iter()
                .map(|&sample_idx| Request {
                    task: Arc::clone(task),
                    cfg: *cfg,
                    sample_idx,
                })
                .collect();
            let responses = timed("fveval-llm.generate", || backend.generate_batch(&reqs));
            pending.push((b, missing.into_iter().zip(responses).collect()));
        }
        if pending.is_empty() {
            return;
        }
        let mut scored: Vec<(Key, SampleEval)> = Vec::new();
        match task.as_ref() {
            TaskSpec::Design2sva { case } => {
                let compiled = self.compiled(case, digest);
                let design = compiled
                    .as_ref()
                    .as_ref()
                    .expect("broken designs settled above");
                let mut session = None;
                for (b, misses) in &pending {
                    for (i, response) in misses {
                        let (eval, stats) = score_design(design, &mut session, response);
                        self.stats.merge(&stats);
                        scored.push((key(&backends[*b], *i), eval));
                    }
                }
            }
            TaskSpec::Nl2svaHuman { case, table } => self.score_group(
                &case.reference,
                table,
                &pending,
                backends,
                &key,
                &mut scored,
            ),
            TaskSpec::Nl2svaMachine { case, table } => self.score_group(
                &case.reference_text,
                table,
                &pending,
                backends,
                &key,
                &mut scored,
            ),
        }
        for (k, eval) in scored {
            self.settle(k, eval);
        }
    }

    fn score_group(
        &mut self,
        reference: &str,
        table: &SignalTable,
        pending: &[(usize, Vec<(u32, String)>)],
        backends: &[SimulatedModel],
        key: &dyn Fn(&SimulatedModel, u32) -> Key,
        scored: &mut Vec<(Key, SampleEval)>,
    ) {
        let mut session = open_nl(reference, table);
        for (b, misses) in pending {
            for (i, response) in misses {
                let (eval, stats) = score_nl(&mut session, reference, response);
                self.stats.merge(&stats);
                scored.push((key(&backends[*b], *i), eval));
            }
        }
    }

    /// The showcase: one-shot scoring (a fresh session per response),
    /// as `EvalEngine::score` does.
    fn showcase(&mut self, seed: u64) {
        let (tables, cases) = timed("fveval-data.tasks", || (human_tables(), human_cases()));
        let case = cases
            .iter()
            .find(|c| c.id == "fifo_1r1w_bypass_4")
            .expect("case exists");
        let table = Arc::new(tables[case.testbench.as_str()].clone());
        let task = Arc::new(TaskSpec::Nl2svaHuman {
            case: case.clone(),
            table: Arc::clone(&table),
        });
        for model in models(&["gpt-4o", "llama-3.1-70b", "llama-3-8b"]) {
            let response = timed("fveval-llm.generate", || {
                model.generate(&Request {
                    task: Arc::clone(&task),
                    cfg: InferenceConfig::greedy(),
                    sample_idx: 0,
                })
            });
            let mut session = open_nl(&case.reference, &table);
            let (_, stats) = score_nl(&mut session, &case.reference, &response);
            self.stats.merge(&stats);
        }
        let fsm = timed("fveval-data.tasks", || fsm_sweep(1, seed)[0].clone());
        let task = Arc::new(TaskSpec::Design2sva { case: fsm.clone() });
        let digest = task.content_digest();
        let model = &models(&["gpt-4o"])[0];
        for attempt in 0..2 {
            let response = timed("fveval-llm.generate", || {
                model.generate(&Request {
                    task: Arc::clone(&task),
                    cfg: InferenceConfig::sampling(),
                    sample_idx: attempt,
                })
            });
            let compiled = self.compiled(&fsm, digest);
            if let Ok(design) = compiled.as_ref() {
                let (_, stats) = score_design(design, &mut None, &response);
                self.stats.merge(&stats);
            }
        }
    }
}
