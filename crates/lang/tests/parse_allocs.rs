//! Allocation ceiling of the `.aov` front end: parsing examples 1, 2
//! and 4 (lexing, parsing and lowering to the IR) stays at or under 600
//! heap allocations. The count is charged to a scope open on this
//! thread only, so tests running in parallel do not leak into it.

use aov_lang::{corpus, parse};

const CEILING: u64 = 600;

#[test]
fn parsing_the_paper_examples_stays_under_its_allocation_ceiling() {
    let sources: Vec<&str> = ["example1", "example2", "example4"]
        .iter()
        .map(|name| corpus::source(name).expect("corpus program"))
        .collect();
    // Warm-up: one-time thread-local set-up must not be charged.
    parse(sources[0]).expect("example1 parses");
    let scope = aov_support::alloc::scope();
    for src in &sources {
        parse(src).expect("example parses");
    }
    let allocs = scope.stats().allocs;
    drop(scope);
    assert!(
        allocs <= CEILING,
        "parsing examples 1, 2 and 4 made {allocs} allocations (ceiling {CEILING})"
    );
}
