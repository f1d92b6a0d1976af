//! The paper's answers, written down by hand: the Affine Occupancy
//! Vector of every array in Examples 1–4 (Thies et al., PLDI 2001,
//! Figures 5, 9, 11 and 14). Every solve the benchmark times is checked
//! against this table.

/// `(array, AOV components)` for every array of one program.
type Aovs = &'static [(&'static str, &'static [i64])];

/// `(program, AOVs)`.
const AOVS: &[(&str, Aovs)] = &[
    ("example1", &[("A", &[1, 2])]),
    ("example2", &[("A", &[1, 1]), ("B", &[1, 1])]),
    ("example3", &[("D", &[1, 1, 1])]),
    ("example4", &[("A", &[1, 0]), ("B", &[1])]),
];

/// The expected AOVs of `program`, one `(array, components)` pair per
/// array, or `None` for a program the paper does not solve.
fn aov(program: &str) -> Option<Aovs> {
    AOVS.iter().find(|(p, _)| *p == program).map(|(_, a)| *a)
}

/// Checks `got` (array name and components, in array order) against
/// the paper's answer for `program`.
pub fn check(program: &str, got: &[(String, Vec<i64>)]) -> Result<(), String> {
    let want = aov(program).ok_or_else(|| format!("no expected AOV for {program}"))?;
    let matches = want.len() == got.len()
        && want
            .iter()
            .zip(got)
            .all(|((wa, wv), (ga, gv))| wa == ga && *wv == gv.as_slice());
    if matches {
        Ok(())
    } else {
        Err(format!("{program}: AOV {got:?}, paper says {want:?}"))
    }
}
