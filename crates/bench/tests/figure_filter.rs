//! The figure-id filter of `all_figures`: chosen figures run over a
//! context of only the examples they need and render exactly as in the
//! full run pinned by `golden_all_figures.rs`; an unknown id is refused.

use aov_bench::{select_figures, FigureCtx};

/// The golden test's source; its pinned text is the one copy both tests
/// compare against.
const GOLDEN_SOURCE: &str = include_str!("golden_all_figures.rs");

/// One figure's slice of the pinned `all_figures --quick` text: from
/// its `== id ` header up to the next header.
fn pinned_figure(id: &str) -> &'static str {
    let open = "const RENDER: &str = r#\"";
    let start = GOLDEN_SOURCE.find(open).expect("pinned text") + open.len();
    let len = GOLDEN_SOURCE[start..]
        .find("\"#;")
        .expect("pinned text ends");
    let pinned = &GOLDEN_SOURCE[start..start + len];
    let from = pinned
        .find(&format!("== {id} "))
        .unwrap_or_else(|| panic!("{id} is pinned"));
    let to = pinned[from + 1..]
        .find("\n== ")
        .map_or(pinned.len(), |k| from + 1 + k + 1);
    &pinned[from..to]
}

#[test]
fn chosen_figures_match_their_pinned_slices() {
    let specs = select_figures(&["fig15", "fig05"]).expect("known ids");
    let ctx = FigureCtx::for_figures(&specs).expect("pipelines run");
    assert!(ctx.has("example1"));
    for other in ["example2", "example3", "example4"] {
        assert!(!ctx.has(other), "{other} ran but no chosen figure needs it");
    }
    let reports: Vec<_> = specs.iter().map(|s| (s.run)(&ctx, false)).collect();
    let ids: Vec<&str> = reports.iter().map(|r| r.id.as_str()).collect();
    assert_eq!(ids, ["fig05", "fig15"]);
    for r in &reports {
        assert_eq!(r.render(), pinned_figure(&r.id));
    }
}

#[test]
fn unknown_figure_id_is_rejected() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .args(["fig05", "fig99"])
        .output()
        .expect("all_figures starts");
    assert_eq!(out.status.code(), Some(64));
    assert!(
        out.stdout.is_empty(),
        "no figure runs before the ids are checked"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"fig99\""), "{stderr}");
    for spec in aov_bench::figure_specs() {
        assert!(
            stderr.contains(spec.id),
            "{} missing from: {stderr}",
            spec.id
        );
    }
}
