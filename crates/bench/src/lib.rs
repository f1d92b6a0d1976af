//! Regeneration harness for every figure of the paper's evaluation.
//!
//! Each `figNN` function recomputes one paper artifact and returns a
//! [`FigureReport`] with the series/rows the paper prints, a short
//! conclusion, and a pass/fail against the expected qualitative shape.
//! The figures are *engine-driven*: analysis results (AOVs, Problem 1
//! OVs, transformed code) come out of [`aov_engine::Pipeline`] reports
//! held in a [`FigureCtx`], so the heavy analyses (Example 3's AOV in
//! particular) run once per suite instead of once per figure.
//!
//! `cargo run -p aov-bench --bin all_figures -- [--quick] [ID…]`
//! regenerates every figure (the data recorded in `EXPERIMENTS.md`), or
//! only the named ones; `transformed_code` prints the original and
//! transformed code of all four examples. The timing benchmark is the
//! standalone `perfbench/` crate.

use aov_core::{problems, transform::StorageTransform, uov, OccupancyVector};
use aov_engine::{EngineError, Health, Pipeline, Report};
use aov_ir::{examples, Program};
use aov_linalg::{AffineExpr, QVector};
use aov_machine::{experiments, MachineConfig};
use aov_schedule::{Analysis, Schedule};
use aov_support::{Json, ToJson};

/// A regenerated artifact: headline result plus printable lines.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Figure identifier (e.g. `"fig05"`).
    pub id: String,
    /// One-line title.
    pub title: String,
    /// What the paper reports.
    pub paper: String,
    /// What this reproduction measures.
    pub measured: String,
    /// Whether the qualitative claim is reproduced.
    pub reproduced: bool,
    /// Printable detail lines (series, code, constraint systems).
    pub lines: Vec<String>,
}

impl FigureReport {
    /// Renders the report for terminals.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} — {}\n   paper:    {}\n   measured: {}\n   reproduced: {}\n",
            self.id, self.title, self.paper, self.measured, self.reproduced
        );
        for l in &self.lines {
            out.push_str("   | ");
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

impl ToJson for FigureReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("id", self.id.as_str())
            .field("title", self.title.as_str())
            .field("paper", self.paper.as_str())
            .field("measured", self.measured.as_str())
            .field("reproduced", self.reproduced)
            .field(
                "lines",
                self.lines
                    .iter()
                    .map(|l| Json::from(l.as_str()))
                    .collect::<Vec<_>>(),
            )
    }
}

/// The paper's four example programs, in order.
pub const EXAMPLES: [&str; 4] = ["example1", "example2", "example3", "example4"];

fn program_by_name(name: &str) -> Option<Program> {
    match name {
        "example1" => Some(examples::example1()),
        "example2" => Some(examples::example2()),
        "example3" => Some(examples::example3()),
        "example4" => Some(examples::example4()),
        _ => None,
    }
}

/// Shared context for engine-driven figures: one instrumented
/// [`Pipeline`] report per example, computed once and consumed by every
/// figure that needs that example's analysis results.
#[derive(Debug)]
pub struct FigureCtx {
    entries: Vec<(String, Program, Report)>,
}

impl FigureCtx {
    /// Runs the instrumented pipeline (LP memoization on) for each named
    /// example and captures the reports.
    ///
    /// # Errors
    ///
    /// [`EngineError`] when a name is unknown or a pipeline stage fails.
    pub fn build(names: &[&str]) -> Result<FigureCtx, EngineError> {
        let mut entries = Vec::new();
        for name in names {
            let program = program_by_name(name).ok_or_else(|| {
                EngineError::Unsupported(format!(
                    "unknown example {name:?} (expected example1..example4)"
                ))
            })?;
            let report = Pipeline::new(program.clone()).memoize(true).run()?;
            reject_degraded(name, &report)?;
            entries.push((name.to_string(), program, report));
        }
        Ok(FigureCtx { entries })
    }

    /// A context over all four examples.
    ///
    /// # Errors
    ///
    /// As for [`FigureCtx::build`].
    pub fn build_all() -> Result<FigureCtx, EngineError> {
        FigureCtx::build(&EXAMPLES)
    }

    /// A context over just the examples `specs` need, in example order.
    ///
    /// # Errors
    ///
    /// As for [`FigureCtx::build`].
    pub fn for_figures(specs: &[&FigureSpec]) -> Result<FigureCtx, EngineError> {
        let needed: Vec<&str> = EXAMPLES
            .into_iter()
            .filter(|e| specs.iter().any(|s| s.needs.contains(e)))
            .collect();
        FigureCtx::build(&needed)
    }

    /// Whether this context holds a report for `name`.
    pub fn has(&self, name: &str) -> bool {
        self.entries.iter().any(|(n, _, _)| n == name)
    }

    /// The pipeline report of one example.
    ///
    /// # Panics
    ///
    /// When the context was not built with that example — a figure
    /// asked for an analysis its suite never ran.
    pub fn report(&self, name: &str) -> &Report {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, r)| r)
            .unwrap_or_else(|| panic!("FigureCtx has no report for {name:?}"))
    }

    /// The program of one example (same availability as
    /// [`FigureCtx::report`]).
    ///
    /// # Panics
    ///
    /// As for [`FigureCtx::report`].
    pub fn program(&self, name: &str) -> &Program {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, p, _)| p)
            .unwrap_or_else(|| panic!("FigureCtx has no program for {name:?}"))
    }

    /// The AOV result of one example's report.
    ///
    /// # Panics
    ///
    /// As for [`FigureCtx::report`], or when the report is degraded
    /// (healthy runs are enforced at build time; externally supplied
    /// reports must be complete too).
    pub fn aov(&self, name: &str) -> &aov_core::problems::OvResult {
        self.report(name)
            .aov
            .as_ref()
            .unwrap_or_else(|| panic!("report for {name:?} has no AOV (degraded run)"))
    }

    /// The transformed code of one example's report.
    ///
    /// # Panics
    ///
    /// As for [`FigureCtx::aov`].
    pub fn code(&self, name: &str) -> &str {
        self.report(name)
            .code
            .as_deref()
            .unwrap_or_else(|| panic!("report for {name:?} has no code (degraded run)"))
    }
}

/// The figures measure the paper's results; a degraded pipeline
/// (budget trip, fault, unschedulable input) has none to measure, so
/// the context rejects it instead of reporting partial numbers.
fn reject_degraded(name: &str, report: &Report) -> Result<(), EngineError> {
    if report.health() == Health::Ok {
        return Ok(());
    }
    let reasons: Vec<String> = report
        .stages
        .iter()
        .filter(|s| s.outcome.class() != "ok")
        .map(|s| format!("{}: {}", s.name, s.outcome.reason().unwrap_or("")))
        .collect();
    Err(EngineError::Unsupported(format!(
        "pipeline for {name} did not complete cleanly ({}); figures require healthy runs",
        reasons.join("; ")
    )))
}

/// Figure 3: shortest OV for Example 1 under the row-parallel schedule.
///
/// Engine-driven: the row schedule is pinned into the pipeline with
/// [`Pipeline::with_schedule`] and the OV read back from its Problem 1
/// stage; the exact search cross-checks the LP answer.
pub fn fig03(ctx: &FigureCtx) -> FigureReport {
    let p = ctx.program("example1");
    let row = Schedule::uniform_for(p, &[AffineExpr::from_i64(&[0, 1, 0, 0], 0)]);
    let report = Pipeline::new(p.clone())
        .memoize(true)
        .with_schedule(row.clone())
        .run()
        .expect("solvable");
    let analysis = Analysis::new(p).expect("example1 linearizes");
    let search = problems::ov_for_schedule_search(&analysis, &row, 6).expect("solvable");
    let v = report
        .ov
        .as_ref()
        .expect("problem1 ran")
        .vector_for("A")
        .expect("array A")
        .clone();
    let agree = search.vector_for("A") == Some(&v);
    FigureReport {
        id: "fig03".into(),
        title: "OV for the row-parallel schedule of Example 1".into(),
        paper: "shortest valid occupancy vector (0, 1)".into(),
        measured: format!("LP method: {v}; exact search agrees: {agree}"),
        reproduced: v.components() == [0, 1] && agree,
        lines: vec![
            format!("schedule: Θ(i,j) = j"),
            format!("storage constraints instantiated at Θ; ILP minimum: {v}"),
        ],
    }
}

/// Figure 4: the schedules valid for Example 1 under OV (0, 2).
pub fn fig04(ctx: &FigureCtx) -> FigureReport {
    let p = ctx.program("example1");
    let v = OccupancyVector::new(vec![0, 2]);
    let analysis = Analysis::new(p).expect("example1 linearizes");
    let space = analysis.space();
    let poly = problems::schedules_for_ov(&analysis, &[v]).expect("solvable");
    let sid = aov_ir::StmtId(0);
    let dim = space.dim();
    // Admissible slope interval a/b at fixed b; the paper's lower bound
    // −1/2 is only approached asymptotically (the inhomogeneous "−1" of
    // the causality constraints vanishes as b grows).
    let slope_range = |b_val: i64| -> (f64, f64) {
        let mut fixed = poly.clone();
        fixed.add_constraint(aov_polyhedra::Constraint::eq0(
            &AffineExpr::var(dim, space.iter_coeff(sid, 1))
                - &AffineExpr::constant(dim, b_val.into()),
        ));
        let a_expr = AffineExpr::var(dim, space.iter_coeff(sid, 0));
        let fixed = aov_core::check::lp_model(&fixed);
        let amin = fixed.minimum(&a_expr).expect("bounded").to_f64() / b_val as f64;
        let amax = fixed.maximum(&a_expr).expect("bounded").to_f64() / b_val as f64;
        (amin, amax)
    };
    let (lo6, hi6) = slope_range(6);
    let (lo60, hi60) = slope_range(60);
    let (lo600, hi600) = slope_range(600);
    // Upper bound is exactly 1/2 (attained at b = 2a); lower bound
    // strictly decreases toward −1/2 without reaching it.
    let ok =
        hi6 == 0.5 && hi60 == 0.5 && hi600 == 0.5 && lo60 < lo6 && lo600 < lo60 && lo600 > -0.5;
    let mut lines = vec![
        format!("slope range at b = 6:   [{lo6:.5}, {hi6:.5}]"),
        format!("slope range at b = 60:  [{lo60:.5}, {hi60:.5}]"),
        format!("slope range at b = 600: [{lo600:.5}, {hi600:.5}] (→ (-1/2, 1/2])"),
    ];
    for (a, b, expect) in [
        (0i64, 1i64, true),
        (1, 3, true),
        (-1, 3, true),
        (2, 3, false),
        (1, 0, false),
    ] {
        let mut pt = QVector::zeros(dim);
        pt[space.iter_coeff(sid, 0)] = a.into();
        pt[space.iter_coeff(sid, 1)] = b.into();
        let inside = poly.contains(&pt);
        lines.push(format!(
            "Θ = {a}i + {b}j: valid = {inside} (expected {expect})"
        ));
    }
    FigureReport {
        id: "fig04".into(),
        title: "schedules valid for OV (0,2) on Example 1".into(),
        paper: "slopes a/b in (-1/2, 1/2), upper end approached / lower asymptotic".into(),
        measured: format!(
            "upper bound exactly 1/2; lower bound {lo6:.4} → {lo600:.4} approaching -1/2"
        ),
        reproduced: ok,
        lines,
    }
}

/// Figure 5 (+ §5.1.4): the AOV of Example 1, vs the UOV baseline.
///
/// Engine-driven: the AOV comes from the pipeline report's Problem 3
/// stage; exact search and the UOV baseline cross-check it.
pub fn fig05(ctx: &FigureCtx) -> FigureReport {
    let p = ctx.program("example1");
    let aov = ctx
        .aov("example1")
        .vector_for("A")
        .expect("array A")
        .clone();
    let analysis = Analysis::new(p).expect("example1 linearizes");
    let search = problems::aov_search_with(&analysis, 6).expect("solvable");
    let uov = uov::shortest_uov(p, analysis.deps(), aov_ir::ArrayId(0), 6).expect("stencil");
    FigureReport {
        id: "fig05".into(),
        title: "AOV of Example 1 vs the Strout et al. UOV".into(),
        paper: "AOV (1,2), shorter (Euclidean) than the UOV (0,3)".into(),
        measured: format!(
            "AOV {aov} (search agrees: {}), UOV {uov}; |AOV|₂² = {} vs |UOV|₂² = {}",
            search.vector_for("A") == Some(&aov),
            aov.euclidean_sq(),
            uov.euclidean_sq()
        ),
        reproduced: aov.components() == [1, 2]
            && uov.components() == [0, 3]
            && aov.euclidean_sq() < uov.euclidean_sq(),
        lines: vec!["any legal affine schedule may run against the transformed storage".into()],
    }
}

/// Figure 6: transformed code of Example 1 under the AOV.
///
/// Engine-driven: both the AOV and the transformed code come from the
/// pipeline report (Example 1 has a single array, so the report's code
/// is exactly the single-transform code).
pub fn fig06(ctx: &FigureCtx) -> FigureReport {
    let p = ctx.program("example1");
    let a = p.array_by_name("A").unwrap();
    let v = ctx
        .aov("example1")
        .vector_for("A")
        .expect("array A")
        .clone();
    let t = StorageTransform::new(p, a, &v).expect("transformable");
    let (n, m) = (100i64, 100i64);
    let orig = t.original_size(&[n, m]);
    let new = t.transformed_size(&[n, m]);
    FigureReport {
        id: "fig06".into(),
        title: "transformed code for Example 1 (AOV)".into(),
        paper: "A[2i−j+m]: storage n·m → 2n+m".into(),
        measured: format!("storage {orig} → {new} at (n,m) = ({n},{m})"),
        reproduced: new == 2 * n + m - 2 && new < orig,
        lines: ctx.code("example1").lines().map(str::to_string).collect(),
    }
}

/// Figure 9: Example 2's AOVs and transformed code.
///
/// Engine-driven: vectors and code from the Example 2 pipeline report.
pub fn fig09(ctx: &FigureCtx) -> FigureReport {
    let p = ctx.program("example2");
    let va = ctx
        .aov("example2")
        .vector_for("A")
        .expect("array A")
        .clone();
    let vb = ctx
        .aov("example2")
        .vector_for("B")
        .expect("array B")
        .clone();
    let ts: Vec<StorageTransform> = [("A", &va), ("B", &vb)]
        .into_iter()
        .map(|(n, v)| StorageTransform::new(p, p.array_by_name(n).unwrap(), v).unwrap())
        .collect();
    let (n, m) = (100i64, 100i64);
    let sizes: Vec<String> = ts
        .iter()
        .map(|t| {
            format!(
                "{}: {} → {}",
                t.array_name(),
                t.original_size(&[n, m]),
                t.transformed_size(&[n, m])
            )
        })
        .collect();
    let ok = va.components() == [1, 1] && vb.components() == [1, 1];
    let mut lines = sizes;
    lines.extend(ctx.code("example2").lines().map(str::to_string));
    FigureReport {
        id: "fig09".into(),
        title: "AOVs and transformed code for Example 2".into(),
        paper: "v_A = v_B = (1,1); arrays collapse to n+m vectors".into(),
        measured: format!("v_A = {va}, v_B = {vb}"),
        reproduced: ok,
        lines,
    }
}

/// Figure 11: Example 3's AOV and transformed code (the Z-emptiness
/// pruning case).
///
/// Engine-driven: reuses the Example 3 pipeline report, so the heaviest
/// analysis in the suite runs once per suite instead of once per figure.
pub fn fig11(ctx: &FigureCtx) -> FigureReport {
    let p = ctx.program("example3");
    let v = ctx
        .aov("example3")
        .vector_for("D")
        .expect("array D")
        .clone();
    let d = p.array_by_name("D").unwrap();
    let t = StorageTransform::new(p, d, &v).expect("transformable");
    let (x, y, z) = (50i64, 50, 50);
    let orig = t.original_size(&[x, y, z]);
    let new = t.transformed_size(&[x, y, z]);
    FigureReport {
        id: "fig11".into(),
        title: "AOV and transformed storage for Example 3".into(),
        paper: "v = (1,1,1); 3-d cube collapses to a 2-d array".into(),
        measured: format!(
            "v = {v}; storage {orig} → {new} at {x}³ ({}d → {}d)",
            3,
            t.transformed_dim()
        ),
        reproduced: v.components() == [1, 1, 1] && t.transformed_dim() == 2 && new < orig,
        lines: vec!["boundary storage constraints pruned: Z = ∅ for v ≥ (1,1,1) (§5.3)".into()],
    }
}

/// Figure 14: Example 4's AOVs (non-uniform dependences).
///
/// Engine-driven: vectors from the Example 4 pipeline report; the exact
/// checker validates both our vector and the paper's.
pub fn fig14(ctx: &FigureCtx) -> FigureReport {
    let p = ctx.program("example4");
    let va = ctx
        .aov("example4")
        .vector_for("A")
        .expect("array A")
        .clone();
    let vb = ctx
        .aov("example4")
        .vector_for("B")
        .expect("array B")
        .clone();
    // The paper's hand derivation reports (1,1); our exact dependence
    // domains admit the shorter (1,0), which the exact checker confirms.
    let analysis = Analysis::new(p).expect("example4 linearizes");
    let checker = aov_core::check::Checker::new(&analysis);
    let a = p.array_by_name("A").unwrap();
    let paper_valid = checker.valid_for_all_schedules(a, &[1, 1]).unwrap_or(false);
    let ours_valid = checker
        .valid_for_all_schedules(a, va.components())
        .unwrap_or(false);
    FigureReport {
        id: "fig14".into(),
        title: "AOVs for Example 4 (non-uniform dependences)".into(),
        paper: "v_A = (1,1), v_B = 1".into(),
        measured: format!(
            "v_A = {va} (exact-checker valid: {ours_valid}), v_B = {vb}; the paper's (1,1) also checks: {paper_valid}"
        ),
        reproduced: vb.components() == [1] && ours_valid && paper_valid,
        lines: vec![
            "deviation: exact dependence domains (S2 reads A[i][n-i] only for i <= n-1) \
             admit v_A = (1,0), protected by causality Θ1(i+1,·) >= Θ2(i)+1"
                .into(),
        ],
    }
}

/// Figure 15: Example 2 speedups (diagonal strips).
pub fn fig15(full_scale: bool) -> FigureReport {
    let cfg = MachineConfig::scaled_down();
    let (n, m) = if full_scale { (384, 384) } else { (128, 128) };
    let procs: Vec<usize> = if full_scale {
        vec![1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 70]
    } else {
        vec![1, 2, 4, 8, 16]
    };
    let pts = experiments::example2_speedup(&cfg, n, m, &procs);
    let lines: Vec<String> = pts
        .iter()
        .map(|p| {
            format!(
                "P={:>3}  original {:>7.2}  transformed {:>7.2}",
                p.procs, p.original, p.transformed
            )
        })
        .collect();
    let always_ahead = pts.iter().all(|p| p.transformed > p.original);
    let last = pts.last().unwrap();
    let mid = &pts[pts.len() / 2];
    let plateau = last.original < mid.original * 2.0;
    FigureReport {
        id: "fig15".into(),
        title: format!("speedup vs processors, Example 2 ({n}×{m})"),
        paper: "same trend for both; little improvement past ~16 procs; transformed ahead by a sizable constant factor".into(),
        measured: format!(
            "transformed ahead at every P: {always_ahead}; saturation: {plateau}; final gap {:.2}×",
            last.transformed / last.original
        ),
        reproduced: always_ahead && last.transformed / last.original > 1.3,
        lines,
    }
}

/// Figure 16: Example 3 speedups (blocked wavefront, superlinear).
pub fn fig16(full_scale: bool) -> FigureReport {
    let cfg = MachineConfig::memory_bound();
    let (x, y, z) = if full_scale {
        (48, 96, 96)
    } else {
        (24, 48, 48)
    };
    let procs: Vec<usize> = if full_scale {
        vec![1, 2, 4, 6, 8, 10, 12, 14, 16]
    } else {
        vec![1, 2, 4, 8]
    };
    let pts = experiments::example3_speedup(&cfg, x, y, z, &procs);
    let lines: Vec<String> = pts
        .iter()
        .map(|p| {
            format!(
                "P={:>3}  original {:>7.2}  transformed {:>7.2}",
                p.procs, p.original, p.transformed
            )
        })
        .collect();
    let ahead = pts.iter().all(|p| p.transformed >= p.original);
    let superlinear = pts.iter().any(|p| p.transformed > p.procs as f64);
    FigureReport {
        id: "fig16".into(),
        title: format!("speedup vs processors, Example 3 ({x}×{y}×{z})"),
        paper: "transformed substantially better; superlinear speedup from improved caching".into(),
        measured: format!(
            "transformed ahead everywhere: {ahead}; superlinear point exists: {superlinear}"
        ),
        reproduced: ahead && superlinear,
        lines,
    }
}

/// Extra: observed storage cells from dynamic runs (confirms the static
/// size predictions of the transforms).
pub fn storage_footprints(ctx: &FigureCtx) -> FigureReport {
    let p = ctx.program("example1");
    let row = Schedule::uniform_for(p, &[AffineExpr::from_i64(&[0, 1, 0, 0], 0)]);
    let a = p.array_by_name("A").unwrap();
    let (n, m) = (12i64, 10i64);
    let instances = aov_interp::exec::Instances::new(p, &[n, m]).unwrap();
    let mut lines = Vec::new();
    let mut all_ok = true;
    for v in [vec![0, 1], vec![1, 2], vec![0, 2]] {
        let ov = OccupancyVector::new(v.clone());
        let t = StorageTransform::new(p, a, &ov).unwrap();
        let (_, stats) = instances.run(&row, std::slice::from_ref(&t)).unwrap();
        let predicted = t.transformed_size(&[n, m]);
        let used = stats.cells_used[0] as i64;
        let ok = used <= predicted;
        all_ok &= ok;
        lines.push(format!(
            "v = {ov}: predicted {predicted} cells, observed {used} (within bound: {ok})"
        ));
    }
    FigureReport {
        id: "storage".into(),
        title: "observed vs predicted storage footprints (Example 1)".into(),
        paper: "(implicit) the transformed array bounds hold at runtime".into(),
        measured: "dynamic footprints within static bounds".into(),
        reproduced: all_ok,
        lines,
    }
}

/// One entry of the figure registry: identifier, the examples whose
/// pipeline reports (or programs) it consumes, and how to run it.
pub struct FigureSpec {
    /// Figure identifier (`"fig05"`, `"storage"`, …).
    pub id: &'static str,
    /// Examples whose reports or programs the figure reads from its
    /// [`FigureCtx`]; the machine sweeps need none.
    pub needs: &'static [&'static str],
    /// Regenerates the figure; the flag is `full_scale` for the machine
    /// sweeps (ignored by analysis figures).
    pub run: fn(&FigureCtx, bool) -> FigureReport,
}

/// Every figure, in the paper's order.
pub fn figure_specs() -> &'static [FigureSpec] {
    &[
        FigureSpec {
            id: "fig03",
            needs: &["example1"],
            run: |ctx, _| fig03(ctx),
        },
        FigureSpec {
            id: "fig04",
            needs: &["example1"],
            run: |ctx, _| fig04(ctx),
        },
        FigureSpec {
            id: "fig05",
            needs: &["example1"],
            run: |ctx, _| fig05(ctx),
        },
        FigureSpec {
            id: "fig06",
            needs: &["example1"],
            run: |ctx, _| fig06(ctx),
        },
        FigureSpec {
            id: "fig09",
            needs: &["example2"],
            run: |ctx, _| fig09(ctx),
        },
        FigureSpec {
            id: "fig11",
            needs: &["example3"],
            run: |ctx, _| fig11(ctx),
        },
        FigureSpec {
            id: "fig14",
            needs: &["example4"],
            run: |ctx, _| fig14(ctx),
        },
        FigureSpec {
            id: "fig15",
            needs: &[],
            run: |_, full| fig15(full),
        },
        FigureSpec {
            id: "fig16",
            needs: &[],
            run: |_, full| fig16(full),
        },
        FigureSpec {
            id: "storage",
            needs: &["example1"],
            run: |ctx, _| storage_footprints(ctx),
        },
    ]
}

/// The registry entries named by `ids`, in registry order; every
/// figure when `ids` is empty.
///
/// # Errors
///
/// An unknown id, named together with every known id.
pub fn select_figures(ids: &[&str]) -> Result<Vec<&'static FigureSpec>, String> {
    let specs = figure_specs();
    if let Some(bad) = ids.iter().find(|id| !specs.iter().any(|s| s.id == **id)) {
        let known: Vec<&str> = specs.iter().map(|s| s.id).collect();
        return Err(format!(
            "unknown figure id {bad:?} (known: {})",
            known.join(", ")
        ));
    }
    Ok(specs
        .iter()
        .filter(|s| ids.is_empty() || ids.contains(&s.id))
        .collect())
}

/// All reports the context can produce (figure order); a full context
/// yields all ten.
pub fn all_reports(ctx: &FigureCtx, full_scale: bool) -> Vec<FigureReport> {
    figure_specs()
        .iter()
        .filter(|spec| spec.needs.iter().all(|n| ctx.has(n)))
        .map(|spec| (spec.run)(ctx, full_scale))
        .collect()
}

/// Helper for benches: the Example 1 row schedule.
pub fn example1_row_schedule() -> (aov_ir::Program, Schedule) {
    let p = examples::example1();
    let s = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[0, 1, 0, 0], 0)]);
    (p, s)
}
