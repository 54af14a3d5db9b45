//! The engine scores BLEU through each case's session-held
//! `BleuReference`; the value it records must equal the one-shot
//! `bleu(reference, response)` to the bit on every human-set case.

use fveval_core::{bleu, human_task_specs, EvalEngine};
use fveval_data::{human_cases, signal_table_for, testbenches};
use fveval_llm::{profiles, Backend, InferenceConfig, Request, TaskSpec};
use std::collections::HashMap;
use std::sync::Arc;

#[test]
fn session_bleu_equals_one_shot_on_every_human_case() {
    let benches = testbenches();
    let tables: HashMap<&str, _> = benches
        .iter()
        .map(|t| (t.name, signal_table_for(t).expect("testbenches elaborate")))
        .collect();
    let cases = human_cases();
    let tasks = human_task_specs(&cases, &tables);
    let cfg = InferenceConfig::sampling();
    let n_samples = 3;
    let models = profiles();
    let mut partial_overlaps = 0;
    // The strongest and the weakest profile: mostly exact and mostly
    // broken responses.
    for model in [models.first(), models.last()].map(|m| m.expect("profiles exist")) {
        let evals = EvalEngine::with_jobs(1).run(model, &tasks, &cfg, n_samples);
        assert_eq!(evals.len(), cases.len());
        for ((task, case), case_evals) in tasks.iter().zip(&cases).zip(&evals) {
            assert!(matches!(task.as_ref(), TaskSpec::Nl2svaHuman { .. }));
            for (sample_idx, eval) in (0..n_samples).zip(&case_evals.samples) {
                let response = model.generate(&Request {
                    task: Arc::clone(task),
                    cfg,
                    sample_idx,
                });
                assert_eq!(
                    eval.bleu.to_bits(),
                    bleu(&case.reference, &response).to_bits(),
                    "{} sample {sample_idx} of {}",
                    case.id,
                    model.name()
                );
                partial_overlaps += usize::from(eval.bleu > 0.0 && eval.bleu < 1.0);
            }
        }
    }
    assert!(
        partial_overlaps > 100,
        "only {partial_overlaps} inexact responses"
    );
}
