//! Self-time/total-time aggregation of span records into a flame table.

use crate::SpanRecord;
use aov_support::{Json, ToJson};

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlameRow {
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of span durations (includes time spent in child spans; a
    /// name that nests under itself counts each level).
    pub total_ns: u64,
    /// Sum of span durations minus each span's direct children — time
    /// attributable to the span's own code.
    pub self_ns: u64,
    /// Median single-span duration (nearest-rank).
    pub p50_ns: u64,
    /// 95th-percentile single-span duration (nearest-rank).
    pub p95_ns: u64,
    /// Heap allocations charged to spans of this name themselves
    /// (self-bytes semantics, like `self_ns`).
    pub allocs: u64,
    /// Heap bytes charged to spans of this name themselves.
    pub alloc_bytes: u64,
    /// Largest per-span high-water mark of net live bytes.
    pub alloc_peak: u64,
    /// Largest numeric bit-width reported inside any span of this name.
    pub max_bits: u64,
}

/// A flame table: one [`FlameRow`] per span name, sorted by descending
/// self time (ties by name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlameTable {
    rows: Vec<FlameRow>,
}

/// Nearest-rank percentile of a sorted sample (`q` clamped to
/// 0..=100). Degenerate samples are explicit rather than falling out
/// of the rank arithmetic: an empty sample reports 0 and a singleton
/// reports its only element for every `q`, so p95 of a span called
/// once is the span's own duration — well-defined, if uninformative.
fn percentile(sorted: &[u64], q: u64) -> u64 {
    match sorted {
        [] => 0,
        [only] => *only,
        _ => {
            let rank = (q.min(100) * sorted.len() as u64)
                .div_ceil(100)
                .clamp(1, sorted.len() as u64) as usize;
            sorted[rank - 1]
        }
    }
}

impl FlameTable {
    /// Aggregates finished spans (as returned by
    /// [`drain`](crate::drain)) into a table.
    pub fn build(records: &[SpanRecord]) -> FlameTable {
        // Direct-children time per parent id, for self-time.
        let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for r in records {
            if let Some(p) = r.parent {
                *child_ns.entry(p).or_insert(0) += r.dur_ns;
            }
        }
        let mut by_name: Vec<(String, Vec<&SpanRecord>)> = Vec::new();
        for r in records {
            match by_name.iter_mut().find(|(n, _)| *n == r.name) {
                Some((_, rs)) => rs.push(r),
                None => by_name.push((r.name.clone(), vec![r])),
            }
        }
        let mut rows: Vec<FlameRow> = by_name
            .into_iter()
            .map(|(name, rs)| {
                let mut durs: Vec<u64> = rs.iter().map(|r| r.dur_ns).collect();
                durs.sort_unstable();
                let total_ns: u64 = durs.iter().sum();
                let self_ns: u64 = rs
                    .iter()
                    .map(|r| {
                        r.dur_ns
                            .saturating_sub(child_ns.get(&r.id).copied().unwrap_or(0))
                    })
                    .sum();
                FlameRow {
                    name,
                    count: rs.len() as u64,
                    total_ns,
                    self_ns,
                    p50_ns: percentile(&durs, 50),
                    p95_ns: percentile(&durs, 95),
                    allocs: rs.iter().map(|r| r.alloc_allocs).sum(),
                    alloc_bytes: rs.iter().map(|r| r.alloc_bytes).sum(),
                    alloc_peak: rs.iter().map(|r| r.alloc_peak).max().unwrap_or(0),
                    max_bits: rs.iter().map(|r| r.max_bits).max().unwrap_or(0),
                }
            })
            .collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
        FlameTable { rows }
    }

    /// All rows, in display order (descending self time).
    pub fn rows(&self) -> &[FlameRow] {
        &self.rows
    }

    /// The row of one span name.
    pub fn row(&self, name: &str) -> Option<&FlameRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Renders the table as aligned text, one row per span name.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<34} {:>8} {:>12} {:>12} {:>11} {:>11}\n",
            "span", "calls", "self", "total", "p50", "p95"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<34} {:>8} {:>12} {:>12} {:>11} {:>11}\n",
                r.name,
                r.count,
                format_ns(r.self_ns),
                format_ns(r.total_ns),
                format_ns(r.p50_ns),
                format_ns(r.p95_ns),
            ));
        }
        out
    }

    /// Renders the memory/numeric companion table (`--profile --mem`):
    /// the same rows, with the heap and bit-width columns instead of
    /// the percentile columns.
    pub fn render_mem(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<34} {:>8} {:>10} {:>12} {:>12} {:>9}\n",
            "span", "calls", "allocs", "bytes", "peak", "max_bits"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<34} {:>8} {:>10} {:>12} {:>12} {:>9}\n",
                r.name,
                r.count,
                r.allocs,
                format_bytes(r.alloc_bytes),
                format_bytes(r.alloc_peak),
                r.max_bits,
            ));
        }
        out
    }
}

impl ToJson for FlameRow {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("name", self.name.as_str())
            .field("count", self.count)
            .field("total_ns", self.total_ns)
            .field("self_ns", self.self_ns)
            .field("p50_ns", self.p50_ns)
            .field("p95_ns", self.p95_ns)
            .field("allocs", self.allocs)
            .field("alloc_bytes", self.alloc_bytes)
            .field("alloc_peak", self.alloc_peak)
            .field("max_bits", self.max_bits)
    }
}

impl ToJson for FlameTable {
    fn to_json(&self) -> Json {
        self.rows.to_json()
    }
}

/// Human-readable byte counts (`412 B`, `3.2 KiB`, `1.3 MiB`, `2.1 GiB`).
pub fn format_bytes(b: u64) -> String {
    let b = b as f64;
    if b >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.1} GiB", b / (1024.0 * 1024.0 * 1024.0))
    } else if b >= 1024.0 * 1024.0 {
        format!("{:.1} MiB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{b:.0} B")
    }
}

/// Human-readable nanoseconds (`412 ns`, `3.214 µs`, `1.250 ms`, `2.100 s`).
pub fn format_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            dur_ns,
            ..SpanRecord::default()
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        // a(100) -> b(60) -> c(10); a's self = 40, b's = 50, c's = 10.
        let records = vec![
            rec(1, None, "a", 0, 100),
            rec(2, Some(1), "b", 10, 60),
            rec(3, Some(2), "c", 20, 10),
        ];
        let t = FlameTable::build(&records);
        assert_eq!(t.row("a").unwrap().self_ns, 40);
        assert_eq!(t.row("a").unwrap().total_ns, 100);
        assert_eq!(t.row("b").unwrap().self_ns, 50);
        assert_eq!(t.row("c").unwrap().self_ns, 10);
        // Sorted by descending self time.
        let names: Vec<&str> = t.rows().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["b", "a", "c"]);
    }

    #[test]
    fn counts_and_percentiles() {
        let records: Vec<SpanRecord> = (0..100)
            .map(|i| rec(i + 1, None, "x", i * 10, i + 1))
            .collect();
        let t = FlameTable::build(&records);
        let row = t.row("x").unwrap();
        assert_eq!(row.count, 100);
        assert_eq!(row.total_ns, 5050);
        assert_eq!(row.p50_ns, 50);
        assert_eq!(row.p95_ns, 95);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[7], 95), 7);
        assert_eq!(percentile(&[1, 2], 50), 1);
        assert_eq!(percentile(&[1, 2], 95), 2);
    }

    #[test]
    fn percentile_well_defined_below_two_samples() {
        // Degenerate samples: every quantile of an empty sample is 0,
        // every quantile of a singleton is the sole element — in
        // particular p95 of a single-call span equals its duration and
        // never reads out of bounds.
        for q in [0, 1, 50, 95, 100, 250] {
            assert_eq!(percentile(&[], q), 0, "q={q}");
            assert_eq!(percentile(&[42], q), 42, "q={q}");
        }
        // Out-of-range q clamps instead of over-ranking.
        assert_eq!(percentile(&[1, 2, 3], 100), 3);
        assert_eq!(percentile(&[1, 2, 3], 7000), 3);
        assert_eq!(percentile(&[1, 2, 3], 0), 1);
        // A single-call span's row has p50 == p95 == its duration.
        let t = FlameTable::build(&[rec(1, None, "once", 0, 1234)]);
        let row = t.row("once").unwrap();
        assert_eq!(row.p50_ns, 1234);
        assert_eq!(row.p95_ns, 1234);
    }

    #[test]
    fn alloc_columns_aggregate_sum_and_max() {
        let mut a = rec(1, None, "m", 0, 10);
        a.alloc_allocs = 3;
        a.alloc_bytes = 1000;
        a.alloc_peak = 800;
        a.max_bits = 64;
        let mut b = rec(2, None, "m", 20, 10);
        b.alloc_allocs = 2;
        b.alloc_bytes = 500;
        b.alloc_peak = 900;
        b.max_bits = 130;
        let t = FlameTable::build(&[a, b]);
        let row = t.row("m").unwrap();
        assert_eq!(row.allocs, 5);
        assert_eq!(row.alloc_bytes, 1500);
        assert_eq!(row.alloc_peak, 900, "peak is a max, not a sum");
        assert_eq!(row.max_bits, 130);
        let mem = t.render_mem();
        assert!(mem.contains("max_bits"), "{mem}");
        assert!(mem.contains("1.5 KiB"), "{mem}");
        let j = t.to_json();
        let aov_support::Json::Arr(rows) = &j else {
            panic!("expected array");
        };
        assert_eq!(rows[0].get("alloc_bytes"), Some(&Json::Int(1500)));
        assert_eq!(rows[0].get("max_bits"), Some(&Json::Int(130)));
    }

    #[test]
    fn render_and_json_shape() {
        let records = vec![rec(1, None, "a", 0, 1500)];
        let t = FlameTable::build(&records);
        assert!(t.render().contains("1.500 µs"));
        let j = t.to_json();
        let aov_support::Json::Arr(rows) = &j else {
            panic!("expected array");
        };
        assert_eq!(rows[0].get("name"), Some(&Json::Str("a".into())));
        assert_eq!(rows[0].get("count"), Some(&Json::Int(1)));
    }
}
