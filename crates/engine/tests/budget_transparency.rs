//! A budget only counts: a cap the run never reaches changes none of
//! its work. For ex1–4, runs under pivot, node and wall-clock caps far
//! above what the examples spend report exactly what the unbudgeted run
//! reports: answers, stage outcomes and every stage's counters (orthant
//! ILPs, pivots, nodes). Only the wall-clock fields, the echoed
//! `budget` and the allocator's `peak` may differ; `peak` is a
//! high-water mark over the whole process's live bytes, not the run's
//! work.

use aov_engine::{BudgetSpec, Pipeline, Report};
use aov_support::{Json, ToJson};

/// Far above what any of ex1–4 spends.
const NEVER: u64 = 1_000_000_000;

/// The report without its timings, its echoed budget and its
/// allocator peaks.
fn normalized(r: &Report) -> Json {
    fn strip(j: &Json) -> Json {
        match j {
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .filter(|(k, _)| {
                        !matches!(k.as_str(), "micros" | "total_micros" | "budget" | "peak")
                    })
                    .map(|(k, v)| (k.clone(), strip(v)))
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.iter().map(strip).collect()),
            other => other.clone(),
        }
    }
    strip(&r.to_json())
}

#[test]
fn non_tripping_budgets_change_nothing() {
    let caps = [
        BudgetSpec {
            pivots: Some(NEVER),
            ..BudgetSpec::default()
        },
        BudgetSpec {
            nodes: Some(NEVER),
            ..BudgetSpec::default()
        },
        BudgetSpec {
            ms: Some(600_000),
            ..BudgetSpec::default()
        },
        BudgetSpec {
            pivots: Some(NEVER),
            nodes: Some(NEVER),
            ms: Some(600_000),
        },
    ];
    for name in ["example1", "example2", "example3", "example4"] {
        let run = |spec: BudgetSpec| {
            Pipeline::for_example(name)
                .unwrap()
                .workers(1)
                .budget(spec)
                .run()
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        // The first run in the process also pays for lazy process state
        // in its stages' allocation counts; compare warm runs only.
        run(BudgetSpec::default());
        let unbudgeted = run(BudgetSpec::default());
        let ilps = unbudgeted
            .counters
            .iter()
            .find(|(n, _)| *n == "core.orthant.ilps");
        assert!(
            ilps.is_some_and(|(_, c)| *c > 0),
            "{name}: the run solves orthant ILPs"
        );
        let expected = normalized(&unbudgeted).to_pretty();
        for spec in caps {
            assert_eq!(
                normalized(&run(spec)).to_pretty(),
                expected,
                "{name} under {spec:?}"
            );
        }
    }
}
