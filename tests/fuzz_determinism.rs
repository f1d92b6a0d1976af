//! Determinism contracts behind `aov fuzz`: the generator is a pure
//! function of `(seed, config)`, and a program's pipeline outcome is a
//! pure function of the program — independent of the worker count,
//! which only the machine stage's fan-out reads. Together these make a
//! fuzz campaign reproducible from its seed alone, which is what the
//! repro files rely on.

use aov::engine::{Pipeline, Report};
use aov::gen::{generate, GenConfig};
use aov::lang::parse;

/// Everything about a run that must be reproducible: per stage its
/// name, outcome class and reason, plus the printed occupancy vectors
/// and the equivalence verdict. Timings are deliberately excluded.
fn fingerprint(r: &Report) -> String {
    let mut out = String::new();
    for s in &r.stages {
        out.push_str(&format!(
            "{}:{}:{}\n",
            s.name,
            s.outcome.class(),
            s.outcome.reason().unwrap_or("")
        ));
    }
    out.push_str(&format!("aov={:?}\n", r.aov));
    out.push_str(&format!("equivalent={:?}\n", r.equivalent));
    out
}

#[test]
fn generator_is_deterministic_per_seed() {
    let cfg = GenConfig::default();
    for seed in [1u64, 42, 0xdead_beef] {
        let a = generate(seed, &cfg);
        let b = generate(seed, &cfg);
        assert_eq!(a.source, b.source, "seed {seed}: source must be stable");
        assert_eq!(a.check_params, b.check_params, "seed {seed}");
        // The printed source parses back to the generated program.
        let reparsed = parse(&a.source).expect("generated source parses");
        assert!(
            aov::lang::structural_eq(&a.program, &reparsed),
            "seed {seed}: printed source must round-trip"
        );
    }
}

/// The worker count reaches only the machine stage's fan-out, which
/// simulates the two examples with a machine model: their `--machine`
/// runs at 1–4 workers must tell the same stage story and report the
/// same simulated speedups.
#[test]
fn pipeline_fingerprint_is_worker_independent() {
    for example in ["example2", "example3"] {
        let prints: Vec<String> = (1..=4)
            .map(|workers| {
                let report = Pipeline::for_example(example)
                    .expect("known example")
                    .workers(workers)
                    .machine(true)
                    .run()
                    .expect("pipeline completes");
                let machine = report.stage("machine").expect("machine stage ran");
                assert!(machine.detail.get("speedups").is_some(), "{example}");
                format!("{}machine={}\n", fingerprint(&report), machine.detail)
            })
            .collect();
        for w in 1..prints.len() {
            assert_eq!(
                prints[0],
                prints[w],
                "{example}: workers=1 vs workers={}: fingerprints diverge",
                w + 1
            );
        }
    }
}
