//! The paper's §6 experiments: speedup curves for Examples 2 and 3
//! (Figures 15 and 16).

use crate::cache::Cache;
use crate::layout::{Layout, ELEM_BYTES};
use crate::parallel::{cyclic_assignment, independent_time, wavefront_time, WorkCost};
use crate::MachineConfig;

/// One point of a speedup curve: speedups of the original and the
/// transformed code over the sequential original.
#[derive(Debug, Clone)]
pub struct SpeedupPoint {
    pub procs: usize,
    pub original: f64,
    pub transformed: f64,
}

/// Storage variants of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Original,
    Transformed,
}

// ---------------------------------------------------------------------
// Example 2 (Figure 15): diagonal strips, no synchronization
// ---------------------------------------------------------------------

/// Absolute simulated time of Example 2 (`n × m`, two statements) under
/// `procs` processors with the given storage variant.
///
/// Strips follow the zero-communication processor mapping
/// `π(S1) = i − j`, `π(S2) = i − j + 1` (Lim & Lam): each strip is a
/// dependent chain, strips are mutually independent and assigned
/// cyclically.
pub fn example2_time(cfg: &MachineConfig, n: i64, m: i64, procs: usize, variant: Variant) -> u64 {
    let (a_layout, b_layout) = example2_layouts(n, m, variant);
    // Strips c = i − j ∈ [1−m, n−1]… every S1 instance has c ∈ [1−m, n−1].
    let strips: Vec<i64> = (1 - m..=n - 1).collect();
    let assign = cyclic_assignment(strips.len(), procs);
    let mut per_proc: Vec<WorkCost> = vec![WorkCost::default(); procs];
    let mut caches: Vec<Cache> = (0..procs).map(|_| Cache::new(cfg.cache.clone())).collect();
    for (sidx, &c) in strips.iter().enumerate() {
        let p = assign[sidx];
        let cache = &mut caches[p];
        let cost = &mut per_proc[p];
        // Walk the chain: S1(i, j) with i − j = c, then S2(i, j+1).
        let i0 = 1.max(c + 1);
        let j0 = i0 - c;
        let (mut i, mut j) = (i0, j0);
        while i <= n && j <= m {
            // S1(i, j): read B[i-1][j], write A[i][j].
            cost.ops += 1;
            for addr in [b_layout.addr(&[i - 1, j]), a_layout.addr(&[i, j])] {
                if cache.access(addr) {
                    cost.hits += 1;
                } else {
                    cost.misses += 1;
                }
            }
            // S2(i, j+1): read A[i][j], write B[i][j+1].
            if j < m {
                cost.ops += 1;
                for addr in [a_layout.addr(&[i, j]), b_layout.addr(&[i, j + 1])] {
                    if cache.access(addr) {
                        cost.hits += 1;
                    } else {
                        cost.misses += 1;
                    }
                }
            }
            i += 1;
            j += 1;
        }
    }
    independent_time(cfg, &per_proc)
}

fn example2_layouts(n: i64, m: i64, variant: Variant) -> (Layout, Layout) {
    match variant {
        Variant::Original => {
            let a = Layout::Original {
                base: 0,
                dims: vec![n, m],
            };
            let base = a.footprint();
            (
                a,
                Layout::Original {
                    base,
                    dims: vec![n, m],
                },
            )
        }
        Variant::Transformed => {
            let a = Layout::DiagonalCollapse2D { base: 0, m };
            let base = a.footprint() + 2 * m * ELEM_BYTES;
            (a, Layout::DiagonalCollapse2D { base, m })
        }
    }
}

/// Figure 15: speedup vs processors for Example 2 (both variants,
/// relative to the sequential original).
pub fn example2_speedup(cfg: &MachineConfig, n: i64, m: i64, procs: &[usize]) -> Vec<SpeedupPoint> {
    let point = example2_points(cfg, n, m);
    procs.iter().map(|&p| point(p)).collect()
}

/// The points of [`example2_speedup`]'s curve, one processor count per
/// call. The sequential original is simulated once, here; each point is
/// an independent deterministic simulation, so callers may evaluate
/// points on any thread in any order.
pub fn example2_points(
    cfg: &MachineConfig,
    n: i64,
    m: i64,
) -> impl Fn(usize) -> SpeedupPoint + Sync + '_ {
    let baseline = example2_time(cfg, n, m, 1, Variant::Original) as f64;
    move |p| SpeedupPoint {
        procs: p,
        original: baseline / example2_time(cfg, n, m, p, Variant::Original) as f64,
        transformed: baseline / example2_time(cfg, n, m, p, Variant::Transformed) as f64,
    }
}

// ---------------------------------------------------------------------
// Example 3 (Figure 16): blocked wavefront over the DP cube
// ---------------------------------------------------------------------

/// Absolute simulated time of Example 3 (`x × y × z` DP cube) under
/// `procs` processors: the `j` axis is split into per-processor panels,
/// the `i` axis forms pipeline stages, and each block's cost comes from
/// trace-driven per-processor cache simulation.
pub fn example3_time(
    cfg: &MachineConfig,
    x: i64,
    y: i64,
    z: i64,
    procs: usize,
    variant: Variant,
) -> u64 {
    let d_layout = match variant {
        Variant::Original => Layout::Original {
            base: 0,
            dims: vec![x, y, z],
        },
        Variant::Transformed => Layout::DiagonalCollapse3D {
            base: 0,
            ymax: y,
            zmax: z,
            xmax: x,
        },
    };
    // Panel bounds over j (contiguous, near-equal blocks).
    let panels: Vec<(i64, i64)> = (0..procs)
        .map(|p| {
            let lo = 1 + y * p as i64 / procs as i64;
            let hi = y * (p as i64 + 1) / procs as i64;
            (lo, hi)
        })
        .collect();
    let offsets: [(i64, i64, i64); 7] = [
        (-1, -1, -1),
        (0, -1, -1),
        (-1, 0, -1),
        (-1, -1, 0),
        (-1, 0, 0),
        (0, -1, 0),
        (0, 0, -1),
    ];
    let mut caches: Vec<Cache> = (0..procs).map(|_| Cache::new(cfg.cache.clone())).collect();
    let mut blocks: Vec<Vec<u64>> = Vec::with_capacity(x as usize);
    for i in 1..=x {
        let mut row = Vec::with_capacity(procs);
        for (p, &(jlo, jhi)) in panels.iter().enumerate() {
            let cache = &mut caches[p];
            cache.reset_stats();
            let mut ops = 0u64;
            for j in jlo.max(1)..=jhi {
                for k in 1..=z {
                    ops += 1;
                    // Write D[i][j][k].
                    cache.access(d_layout.addr(&[i, j, k]));
                    // 7 stencil reads (clamped at the boundary).
                    for &(oi, oj, ok) in &offsets {
                        let (ri, rj, rk) = (i + oi, j + oj, k + ok);
                        if ri >= 1 && rj >= 1 && rk >= 1 {
                            cache.access(d_layout.addr(&[ri, rj, rk]));
                        }
                    }
                }
            }
            let st = cache.stats();
            let cost = WorkCost {
                ops,
                hits: st.hits,
                misses: st.misses,
            };
            row.push(cost.cycles(cfg));
        }
        blocks.push(row);
    }
    wavefront_time(cfg, &blocks)
}

/// Figure 16: speedup vs processors for Example 3.
pub fn example3_speedup(
    cfg: &MachineConfig,
    x: i64,
    y: i64,
    z: i64,
    procs: &[usize],
) -> Vec<SpeedupPoint> {
    let point = example3_points(cfg, x, y, z);
    procs.iter().map(|&p| point(p)).collect()
}

/// The points of [`example3_speedup`]'s curve, one processor count per
/// call (see [`example2_points`]).
pub fn example3_points(
    cfg: &MachineConfig,
    x: i64,
    y: i64,
    z: i64,
) -> impl Fn(usize) -> SpeedupPoint + Sync + '_ {
    let baseline = example3_time(cfg, x, y, z, 1, Variant::Original) as f64;
    move |p| SpeedupPoint {
        procs: p,
        original: baseline / example3_time(cfg, x, y, z, p, Variant::Original) as f64,
        transformed: baseline / example3_time(cfg, x, y, z, p, Variant::Transformed) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::scaled_down()
    }

    /// Figure 15's qualitative shape at test scale: the transformed
    /// variant wins at every processor count, both speed up with more
    /// processors before flattening.
    #[test]
    fn fig15_shape() {
        let pts = example2_speedup(&cfg(), 128, 128, &[1, 2, 4, 8, 16]);
        for w in &pts {
            assert!(
                w.transformed > w.original,
                "transformed must lead at P={}: {w:?}",
                w.procs
            );
        }
        // Speedup grows initially.
        assert!(pts[1].original > pts[0].original);
        assert!(pts[1].transformed > pts[0].transformed);
        // The constant-factor gap is sizable (paper: roughly 2×-4×).
        let gap = pts.last().unwrap().transformed / pts.last().unwrap().original;
        assert!(gap > 1.3, "gap {gap}");
    }

    /// Figure 16's qualitative shape: transformed substantially better;
    /// superlinear speedup appears once per-processor panels fit in
    /// cache.
    #[test]
    fn fig16_shape() {
        let cfg = MachineConfig::memory_bound();
        let pts = example3_speedup(&cfg, 24, 48, 48, &[1, 2, 4, 8]);
        for w in &pts {
            assert!(
                w.transformed >= w.original,
                "transformed must not lose at P={}: {w:?}",
                w.procs
            );
        }
        let superlinear = pts.iter().any(|w| w.transformed > w.procs as f64);
        assert!(superlinear, "expected a superlinear point: {pts:?}");
    }

    #[test]
    fn example2_transformed_uses_fewer_misses_via_time() {
        let cfg = cfg();
        let t_orig = example2_time(&cfg, 96, 96, 1, Variant::Original);
        let t_trans = example2_time(&cfg, 96, 96, 1, Variant::Transformed);
        assert!(
            t_trans < t_orig,
            "transformed {t_trans} vs original {t_orig}"
        );
    }

    #[test]
    fn example3_times_decrease_with_processors() {
        let cfg = cfg();
        let t1 = example3_time(&cfg, 16, 32, 32, 1, Variant::Transformed);
        let t4 = example3_time(&cfg, 16, 32, 32, 4, Variant::Transformed);
        assert!(t4 < t1);
    }
}
