//! Split-vs-combined elaboration equivalence over the generator corpus.
//! Generated-suite validation elaborates a scenario in one call
//! (`elaborate_with_extras` with the DUT instantiation and any helper
//! items), while engine scoring elaborates the design once
//! (`elaborate_design`) and splices each response's helpers in later
//! (`bind_extras`). Both must produce the same netlist — same
//! structural fingerprint and bit-identical reference-simulation
//! traces — for every scenario family, across seeds and depths.

use fveval_gen::{generators, GenParams, Scenario};
use sv_ast::{Expr, Instance, ModuleItem, SourceFile};
use sv_parser::{parse_snippet, parse_source};
use sv_synth::{elaborate_design, elaborate_with_extras, Netlist, Simulator};

/// Builds the engine-shaped collateral for a scenario: one source file
/// (design + testbench) plus the DUT instantiation extra, mirroring
/// `bind_scenario` / `compile_design`.
fn collateral(scenario: &Scenario) -> (SourceFile, String, ModuleItem) {
    let src = format!("{}\n{}", scenario.design_source, scenario.tb_source);
    let file = parse_source(&src).unwrap_or_else(|e| panic!("{}: {e}", scenario.id));
    let design = file
        .module(&scenario.top)
        .unwrap_or_else(|| panic!("{}: missing design module", scenario.id));
    let conns: Vec<(String, Expr)> = design
        .port_order
        .iter()
        .map(|p| (p.clone(), Expr::ident(p.clone())))
        .collect();
    let dut = ModuleItem::Instance(Instance {
        module: scenario.top.clone(),
        name: "dut".into(),
        params: vec![],
        conns,
    });
    (file, scenario.tb_top.clone(), dut)
}

/// Structural fingerprint: content digest plus everything it hashes,
/// exploded so a divergence names the field that moved.
fn fingerprint(nl: &Netlist) -> impl PartialEq + std::fmt::Debug {
    let mut names: Vec<(String, u32)> = nl
        .net_names()
        .map(|(n, b)| (n.to_string(), b.width))
        .collect();
    names.sort();
    (
        nl.content_digest(),
        nl.atoms.len(),
        names,
        nl.params.clone(),
        nl.clock_name.clone(),
        nl.reset_name.clone(),
        nl.warnings.clone(),
    )
}

/// Runs both netlists through the reference simulator under identical
/// pseudo-random stimuli and compares every net at every cycle.
fn assert_traces_match(id: &str, a: &Netlist, b: &Netlist, cycles: u32, seed: u64) {
    let mut sim_a = Simulator::new(a).unwrap_or_else(|e| panic!("{id}: {e}"));
    let mut sim_b = Simulator::new(b).unwrap_or_else(|e| panic!("{id}: {e}"));
    sim_a.reset();
    sim_b.reset();
    let names: Vec<String> = a.net_names().map(|(n, _)| n.to_string()).collect();
    for cycle in 0..cycles {
        // Deterministic per-(name, cycle) stimulus shared by both runs:
        // splitmix64 over an fnv of the input name.
        let stim = move |name: &str, width: u32| -> u128 {
            let mut h = seed ^ u64::from(cycle).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for b in name.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let r = u128::from(z ^ (z >> 31));
            if width >= 128 {
                r
            } else {
                r & ((1u128 << width) - 1)
            }
        };
        sim_a.step(&stim);
        sim_b.step(&stim);
        for name in &names {
            assert_eq!(
                sim_a.read_net(name),
                sim_b.read_net(name),
                "{id}: net '{name}' diverged at cycle {cycle}"
            );
        }
    }
}

/// Asserts two elaborations of the same design are the same netlist.
fn assert_same_netlist(id: &str, split: &Netlist, combined: &Netlist, seed: u64) {
    assert_eq!(
        fingerprint(split),
        fingerprint(combined),
        "{id}: netlist fingerprints must match"
    );
    assert_traces_match(id, split, combined, 24, seed);
}

/// Every registered family at two `(seed, depth)` points.
fn corpus() -> Vec<(Scenario, u64)> {
    let gens = generators();
    assert!(gens.len() >= 12, "the full family registry is in scope");
    let mut out = Vec::new();
    for gen in &gens {
        for (seed, depth) in [(0xFEED_u64, 2_u32), (7, 4)] {
            let params = GenParams {
                depth,
                width: 8,
                seed,
            };
            out.push((gen.generate(&params), seed));
        }
    }
    out
}

#[test]
fn every_family_base_netlist_matches_combined_elaboration() {
    for (scenario, seed) in corpus() {
        let (file, tb_top, dut) = collateral(&scenario);
        let extras = std::slice::from_ref(&dut);
        let split = elaborate_design(&file, &tb_top, extras)
            .unwrap_or_else(|e| panic!("{}: split: {e}", scenario.id));
        let combined = elaborate_with_extras(&file, &tb_top, extras)
            .unwrap_or_else(|e| panic!("{}: combined: {e}", scenario.id));
        assert_same_netlist(&scenario.id, split.netlist(), &combined, seed);
    }
}

#[test]
fn every_family_helper_binding_matches_combined_elaboration() {
    // The score-many half: helpers spliced via bind_extras on top of
    // the elaborated design must equal one elaboration of the design
    // with the helpers appended after the DUT instantiation.
    let helpers = parse_snippet("logic eq_probe;\nassign eq_probe = tb_reset;\n").unwrap();
    for (scenario, seed) in corpus() {
        let (file, tb_top, dut) = collateral(&scenario);
        let design = elaborate_design(&file, &tb_top, std::slice::from_ref(&dut))
            .unwrap_or_else(|e| panic!("{}: split: {e}", scenario.id));
        let bound = design
            .bind_extras(&helpers)
            .unwrap_or_else(|e| panic!("{}: bind: {e}", scenario.id));
        let mut extras = vec![dut];
        extras.extend(helpers.iter().cloned());
        let combined = elaborate_with_extras(&file, &tb_top, &extras)
            .unwrap_or_else(|e| panic!("{}: combined: {e}", scenario.id));
        assert!(
            bound.net("eq_probe").is_some(),
            "{}: helper bound",
            scenario.id
        );
        assert_same_netlist(&scenario.id, &bound, &combined, seed);
    }
}
