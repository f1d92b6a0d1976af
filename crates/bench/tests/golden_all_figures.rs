//! Golden text of `all_figures --quick`: every figure's rendering, in
//! the order the binary prints them, pinned byte for byte. The binary
//! adds only the path it wrote and a count line. A change that moves any
//! figure — an AOV, a transformed program, a storage size, a simulated
//! speedup — fails here.

const RENDER: &str = r#"== fig03 — OV for the row-parallel schedule of Example 1
   paper:    shortest valid occupancy vector (0, 1)
   measured: LP method: (0, 1); exact search agrees: true
   reproduced: true
   | schedule: Θ(i,j) = j
   | storage constraints instantiated at Θ; ILP minimum: (0, 1)
== fig04 — schedules valid for OV (0,2) on Example 1
   paper:    slopes a/b in (-1/2, 1/2), upper end approached / lower asymptotic
   measured: upper bound exactly 1/2; lower bound -0.4167 → -0.4992 approaching -1/2
   reproduced: true
   | slope range at b = 6:   [-0.41667, 0.50000]
   | slope range at b = 60:  [-0.49167, 0.50000]
   | slope range at b = 600: [-0.49917, 0.50000] (→ (-1/2, 1/2])
   | Θ = 0i + 1j: valid = true (expected true)
   | Θ = 1i + 3j: valid = true (expected true)
   | Θ = -1i + 3j: valid = true (expected true)
   | Θ = 2i + 3j: valid = false (expected false)
   | Θ = 1i + 0j: valid = false (expected false)
== fig05 — AOV of Example 1 vs the Strout et al. UOV
   paper:    AOV (1,2), shorter (Euclidean) than the UOV (0,3)
   measured: AOV (1, 2) (search agrees: true), UOV (0, 3); |AOV|₂² = 5 vs |UOV|₂² = 9
   reproduced: true
   | any legal affine schedule may run against the transformed storage
== fig06 — transformed code for Example 1 (AOV)
   paper:    A[2i−j+m]: storage n·m → 2n+m
   measured: storage 10000 → 298 at (n,m) = (100,100)
   reproduced: true
   | A[2*n + m - 2] : transformed under v = (1, 2)
   | // statement S
   | for i = 1 to n {
   |   for j = 1 to m {
   |     A[-2*i + j + 2*n - 1] = f(A[-2*i + j + 2*n + 2], A[-2*i + j + 2*n - 2], A[-2*i + j + 2*n - 4])
   |   }
   | }
== fig09 — AOVs and transformed code for Example 2
   paper:    v_A = v_B = (1,1); arrays collapse to n+m vectors
   measured: v_A = (1, 1), v_B = (1, 1)
   reproduced: true
   | A: 10000 → 199
   | B: 10000 → 199
   | A[n + m - 1] : transformed under v = (1, 1)
   | B[n + m - 1] : transformed under v = (1, 1)
   | // statement S1
   | for i = 1 to n {
   |   for j = 1 to m {
   |     A[-i + j + n - 1] = f(B[-i + j + n])
   |   }
   | }
   | // statement S2
   | for i = 1 to n {
   |   for j = 1 to m {
   |     B[-i + j + n - 1] = g(A[-i + j + n - 2])
   |   }
   | }
== fig11 — AOV and transformed storage for Example 3
   paper:    v = (1,1,1); 3-d cube collapses to a 2-d array
   measured: v = (1, 1, 1); storage 125000 → 9801 at 50³ (3d → 2d)
   reproduced: true
   | boundary storage constraints pruned: Z = ∅ for v ≥ (1,1,1) (§5.3)
== fig14 — AOVs for Example 4 (non-uniform dependences)
   paper:    v_A = (1,1), v_B = 1
   measured: v_A = (1, 0) (exact-checker valid: true), v_B = 1; the paper's (1,1) also checks: true
   reproduced: true
   | deviation: exact dependence domains (S2 reads A[i][n-i] only for i <= n-1) admit v_A = (1,0), protected by causality Θ1(i+1,·) >= Θ2(i)+1
== fig15 — speedup vs processors, Example 2 (128×128)
   paper:    same trend for both; little improvement past ~16 procs; transformed ahead by a sizable constant factor
   measured: transformed ahead at every P: true; saturation: true; final gap 1.33×
   reproduced: true
   | P=  1  original    1.00  transformed    1.06
   | P=  2  original    1.86  transformed    2.07
   | P=  4  original    3.15  transformed    3.81
   | P=  8  original    4.39  transformed    5.79
   | P= 16  original    4.46  transformed    5.92
== fig16 — speedup vs processors, Example 3 (24×48×48)
   paper:    transformed substantially better; superlinear speedup from improved caching
   measured: transformed ahead everywhere: true; superlinear point exists: true
   reproduced: true
   | P=  1  original    1.00  transformed    1.34
   | P=  2  original    1.84  transformed    2.43
   | P=  4  original    3.11  transformed    3.90
   | P=  8  original    4.21  transformed    4.89
== storage — observed vs predicted storage footprints (Example 1)
   paper:    (implicit) the transformed array bounds hold at runtime
   measured: dynamic footprints within static bounds
   reproduced: true
   | v = (0, 1): predicted 12 cells, observed 12 (within bound: true)
   | v = (1, 2): predicted 32 cells, observed 32 (within bound: true)
   | v = (0, 2): predicted 24 cells, observed 24 (within bound: true)
"#;

#[test]
fn all_figures_quick_matches_pinned_text() {
    let ctx = aov_bench::FigureCtx::build_all().expect("pipelines run");
    let reports = aov_bench::all_reports(&ctx, false);
    let rendered: String = reports.iter().map(|r| r.render()).collect();
    assert_eq!(rendered, RENDER);
    assert_eq!(reports.len(), 10);
    assert!(reports.iter().all(|r| r.reproduced));
}
