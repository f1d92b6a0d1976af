//! One merged metrics report: span aggregates plus the global solver
//! counters (`aov-support::counters`).
//!
//! The counters (simplex pivots, branch-and-bound nodes, FM
//! eliminations, memo hits/misses, …) say *how much* work the solvers
//! did; the flame table says *where the time went*. A snapshot puts
//! both in a single `Json` document so one report answers both
//! questions. Callers pass a counter *delta* (see
//! `aov_support::counters::delta`) so multi-run processes attribute
//! counts to the run that caused them.

use crate::flame::FlameTable;
use crate::SpanRecord;
use aov_support::{Json, ToJson};

/// Merges the flame table of `records` with a counter delta into one
/// report. `counters` is `(name, increment)` as produced by
/// `aov_support::counters::delta` (or a raw snapshot for whole-process
/// totals). LP-memo hit/miss counts additionally get a derived
/// `hit_rate` entry.
pub fn snapshot(records: &[SpanRecord], counters: &[(String, u64)]) -> Json {
    let flame = FlameTable::build(records);
    let counter_json: Vec<Json> = counters
        .iter()
        .map(|(k, v)| Json::obj().field("name", k.as_str()).field("count", *v))
        .collect();
    let find = |name: &str| {
        counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    };
    let hits = find("lp.memo.hits");
    let misses = find("lp.memo.misses");
    let lookups = hits + misses;
    let memo = Json::obj()
        .field("hits", hits)
        .field("misses", misses)
        .field(
            "hit_rate",
            if lookups == 0 {
                Json::Null
            } else {
                Json::Float(hits as f64 / lookups as f64)
            },
        );
    let alloc = aov_support::alloc::stats();
    let alloc_json = Json::obj()
        .field("allocs", alloc.allocs)
        .field("bytes", alloc.bytes)
        .field("live", alloc.live)
        .field("peak", alloc.peak)
        .field("max_bits", alloc.max_bits);
    Json::obj()
        .field("spans", flame.to_json())
        .field("counters", counter_json)
        .field("memo", memo)
        .field("alloc", alloc_json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_spans_and_counters() {
        let records = vec![SpanRecord {
            id: 1,
            name: "lp.simplex".to_string(),
            dur_ns: 500,
            ..SpanRecord::default()
        }];
        let counters = vec![
            ("lp.memo.hits".to_string(), 3),
            ("lp.memo.misses".to_string(), 1),
            ("lp.simplex.pivots".to_string(), 42),
        ];
        let j = snapshot(&records, &counters);
        let Some(Json::Arr(spans)) = j.get("spans") else {
            panic!("spans missing");
        };
        assert_eq!(spans[0].get("name"), Some(&Json::Str("lp.simplex".into())));
        let Some(Json::Arr(cs)) = j.get("counters") else {
            panic!("counters missing");
        };
        assert_eq!(cs.len(), 3);
        let memo = j.get("memo").unwrap();
        assert_eq!(memo.get("hits"), Some(&Json::Int(3)));
        assert_eq!(memo.get("hit_rate"), Some(&Json::Float(0.75)));
    }

    #[test]
    fn no_lookups_yields_null_rate() {
        let j = snapshot(&[], &[]);
        assert_eq!(j.get("memo").unwrap().get("hit_rate"), Some(&Json::Null));
    }
}
