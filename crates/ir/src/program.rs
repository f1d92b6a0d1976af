//! Programs: arrays, parameters, statements, accesses.

use crate::Expr;
use aov_linalg::{AffineExpr, VarSet};
use aov_polyhedra::{Constraint, Polyhedron};
use std::fmt;

/// Identifier of an array in a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub usize);

/// Identifier of a statement in a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub usize);

/// An array of the program. Its data space equals the iteration space of
/// the statement(s) writing it (single-assignment form, §3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Array {
    name: String,
    dim: usize,
}

impl Array {
    /// Array name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// A read access `A[g(i, N)]` of a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    array: ArrayId,
    /// One affine index expression per array dimension, over the
    /// statement space (iters ++ params).
    index: Vec<AffineExpr>,
}

impl Access {
    /// The accessed array.
    pub fn array(&self) -> ArrayId {
        self.array
    }

    /// Index expressions (over statement iters ++ params).
    pub fn index(&self) -> &[AffineExpr] {
        &self.index
    }
}

/// A statement `S(i): A[i] = body(reads…)` with a polyhedral domain.
#[derive(Debug, Clone)]
pub struct Statement {
    name: String,
    iters: Vec<String>,
    /// Domain over (iters ++ params).
    domain: Polyhedron,
    writes: ArrayId,
    reads: Vec<Access>,
    body: Expr,
}

impl Statement {
    /// Statement name (e.g. `"S1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Loop index names, outermost first.
    pub fn iters(&self) -> &[String] {
        &self.iters
    }

    /// Number of enclosing loops.
    pub fn depth(&self) -> usize {
        self.iters.len()
    }

    /// Iteration domain over (iters ++ params).
    pub fn domain(&self) -> &Polyhedron {
        &self.domain
    }

    /// The array written (at index = iteration vector).
    pub fn writes(&self) -> ArrayId {
        self.writes
    }

    /// The read accesses.
    pub fn reads(&self) -> &[Access] {
        &self.reads
    }

    /// The body expression.
    pub fn body(&self) -> &Expr {
        &self.body
    }

    /// Variable names of the statement space (iters ++ params).
    pub fn space(&self, params: &VarSet) -> VarSet {
        let mut vs = VarSet::new();
        for it in &self.iters {
            vs.add(it.clone());
        }
        for p in params.names() {
            vs.add(p.clone());
        }
        vs
    }
}

/// A single-assignment affine program (the paper's input domain).
///
/// Build with [`ProgramBuilder`]; see [`crate::examples`] for the paper's
/// programs.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    params: VarSet,
    /// Domain of structural parameters (over params only).
    param_domain: Polyhedron,
    arrays: Vec<Array>,
    statements: Vec<Statement>,
}

impl Program {
    /// Program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Structural parameters.
    pub fn params(&self) -> &VarSet {
        &self.params
    }

    /// Number of structural parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Constraints on the structural parameters.
    pub fn param_domain(&self) -> &Polyhedron {
        &self.param_domain
    }

    /// All arrays.
    pub fn arrays(&self) -> &[Array] {
        &self.arrays
    }

    /// All statements.
    pub fn statements(&self) -> &[Statement] {
        &self.statements
    }

    /// An array by id.
    pub fn array(&self, id: ArrayId) -> &Array {
        &self.arrays[id.0]
    }

    /// A statement by id.
    pub fn statement(&self, id: StmtId) -> &Statement {
        &self.statements[id.0]
    }

    /// Statement ids in order.
    pub fn stmt_ids(&self) -> impl Iterator<Item = StmtId> {
        (0..self.statements.len()).map(StmtId)
    }

    /// Ids of statements writing `array`.
    pub fn writers_of(&self, array: ArrayId) -> Vec<StmtId> {
        self.stmt_ids()
            .filter(|&s| self.statement(s).writes == array)
            .collect()
    }

    /// Looks up an array by name.
    pub fn array_by_name(&self, name: &str) -> Option<ArrayId> {
        self.arrays.iter().position(|a| a.name == name).map(ArrayId)
    }

    /// Looks up a statement by name.
    pub fn stmt_by_name(&self, name: &str) -> Option<StmtId> {
        self.statements
            .iter()
            .position(|s| s.name == name)
            .map(StmtId)
    }

    /// Where two writers of one array would both assign a cell: their
    /// domains' intersection within the parameter domain (both domains
    /// live in the array's data space, see [`Program::validate`]).
    pub fn writer_joint(&self, w1: StmtId, w2: StmtId) -> Polyhedron {
        let depth = self.statement(w1).depth();
        self.statement(w1)
            .domain()
            .intersect(self.statement(w2).domain())
            .intersect(&self.embed_param_domain(depth))
    }

    /// Checks the single-assignment structural invariants:
    ///
    /// * every array is written by at least one statement,
    /// * each writer of an array has depth equal to the array's dimension
    ///   (data space = iteration space),
    /// * the domains of two writers of the same array are disjoint (each
    ///   cell is assigned once), checked jointly with the parameter
    ///   domain.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (aid, a) in self.arrays.iter().enumerate() {
            let writers = self.writers_of(ArrayId(aid));
            if writers.is_empty() {
                return Err(format!("array {} is never written", a.name));
            }
            for &w in &writers {
                if self.statement(w).depth() != a.dim {
                    return Err(format!(
                        "statement {} (depth {}) writes {}-d array {}",
                        self.statement(w).name,
                        self.statement(w).depth(),
                        a.dim,
                        a.name
                    ));
                }
            }
            for (x, &w1) in writers.iter().enumerate() {
                for &w2 in writers.iter().skip(x + 1) {
                    if !self.writer_joint(w1, w2).is_empty() {
                        return Err(format!(
                            "writers {} and {} of array {} overlap",
                            self.statement(w1).name,
                            self.statement(w2).name,
                            a.name
                        ));
                    }
                }
            }
        }
        for s in &self.statements {
            for acc in s.reads() {
                let arr = self.array(acc.array);
                if acc.index.len() != arr.dim {
                    return Err(format!(
                        "access to {} in {} has {} indices, array has {}",
                        arr.name,
                        s.name,
                        acc.index.len(),
                        arr.dim
                    ));
                }
                for e in &acc.index {
                    if e.dim() != s.depth() + self.num_params() {
                        return Err(format!("access index in {} over wrong space", s.name));
                    }
                }
            }
        }
        Ok(())
    }

    /// The parameter domain lifted to a statement space with `depth`
    /// leading iteration dimensions.
    pub fn embed_param_domain(&self, depth: usize) -> Polyhedron {
        let np = self.num_params();
        let dim = depth + np;
        let map: Vec<usize> = (depth..dim).collect();
        Polyhedron::from_constraints(
            dim,
            self.param_domain
                .constraints()
                .iter()
                .map(|c| {
                    let e = c.expr().embed(dim, &map);
                    if c.is_equality() {
                        Constraint::eq0(e)
                    } else {
                        Constraint::ge0(e)
                    }
                })
                .collect(),
        )
    }

    /// A statement's domain intersected with the (embedded) parameter
    /// domain — the set of `(i, N)` that can actually occur.
    pub fn full_domain(&self, s: StmtId) -> Polyhedron {
        let st = self.statement(s);
        st.domain().intersect(&self.embed_param_domain(st.depth()))
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {} params {:?}", self.name, self.params.names())?;
        for s in &self.statements {
            let space = s.space(&self.params);
            writeln!(
                f,
                "  {}{:?}: writes {}",
                s.name, s.iters, self.arrays[s.writes.0].name
            )?;
            writeln!(f, "    domain {}", s.domain.display(&space))?;
            for (k, acc) in s.reads.iter().enumerate() {
                let idx: Vec<String> = acc
                    .index
                    .iter()
                    .map(|e| e.display(&space).to_string())
                    .collect();
                writeln!(
                    f,
                    "    read#{k}: {}[{}]",
                    self.arrays[acc.array.0].name,
                    idx.join("][")
                )?;
            }
            writeln!(f, "    body {}", s.body)?;
        }
        Ok(())
    }
}

/// Builder for [`Program`]s.
///
/// # Examples
///
/// ```
/// use aov_ir::{ProgramBuilder, Expr};
/// use aov_linalg::AffineExpr;
///
/// let mut b = ProgramBuilder::new("copy");
/// let n = b.param_min("n", 1);
/// let a = b.array("A", 1);
/// let mut s = b.statement("S", &["i"]);
/// s.bound(0, s.constant(1), s.param(n)); // 1 <= i <= n
/// s.writes(a);
/// let r = s.read(a, vec![s.iter(0) - s.constant(1)]);
/// s.body(Expr::call("f", vec![Expr::Read(r)]));
/// b.add_statement(s);
/// let p = b.build().unwrap();
/// assert_eq!(p.statements()[0].name(), "S");
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    params: VarSet,
    param_constraints: Vec<Constraint>,
    arrays: Vec<Array>,
    statements: Vec<Statement>,
}

impl ProgramBuilder {
    /// Starts a new program.
    pub fn new<S: Into<String>>(name: S) -> Self {
        ProgramBuilder {
            name: name.into(),
            params: VarSet::new(),
            param_constraints: Vec::new(),
            arrays: Vec::new(),
            statements: Vec::new(),
        }
    }

    /// Adds a structural parameter.
    pub fn param<S: Into<String>>(&mut self, name: S) -> usize {
        self.params.add(name)
    }

    /// Adds a structural parameter with a lower bound (e.g. `n >= 1`).
    ///
    /// The constraint is recorded in the parameter domain; the domain may
    /// be unbounded above (handled by the ray form of Theorem 1).
    pub fn param_min<S: Into<String>>(&mut self, name: S, min: i64) -> usize {
        let k = self.param(name);
        self.param_constraints
            .push(PendingParamMin { k, min }.into());
        k
    }

    /// Adds an arbitrary constraint over the parameters (dimension =
    /// number of parameters *at build time*; smaller expressions are
    /// padded).
    pub fn param_constraint(&mut self, c: Constraint) {
        self.param_constraints.push(c);
    }

    /// Declares an array.
    pub fn array<S: Into<String>>(&mut self, name: S, dim: usize) -> ArrayId {
        let id = ArrayId(self.arrays.len());
        self.arrays.push(Array {
            name: name.into(),
            dim,
        });
        id
    }

    /// Starts a statement with the given loop indices (outermost first).
    pub fn statement<S: Into<String>>(&mut self, name: S, iters: &[&str]) -> StatementBuilder {
        StatementBuilder::new(name.into(), iters, self.params.len())
    }

    /// Adds a finished statement.
    ///
    /// # Panics
    ///
    /// Panics if the statement has no written array or no body.
    pub fn add_statement(&mut self, s: StatementBuilder) -> StmtId {
        let id = StmtId(self.statements.len());
        self.statements.push(s.finish());
        id
    }

    /// Builds and validates the program.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation (see [`Program::validate`]).
    pub fn build(self) -> Result<Program, String> {
        let np = self.params.len();
        let mut cs = Vec::new();
        for c in self.param_constraints {
            // Pad to the final parameter count.
            let e = c.expr();
            assert!(e.dim() <= np, "parameter constraint over too many dims");
            let map: Vec<usize> = (0..e.dim()).collect();
            let e = e.embed(np, &map);
            cs.push(if c.is_equality() {
                Constraint::eq0(e)
            } else {
                Constraint::ge0(e)
            });
        }
        let p = Program {
            name: self.name,
            params: self.params,
            param_domain: Polyhedron::from_constraints(np, cs),
            arrays: self.arrays,
            statements: self.statements,
        };
        p.validate()?;
        Ok(p)
    }
}

/// Internal helper so `param_min` can be written before all params exist.
struct PendingParamMin {
    k: usize,
    min: i64,
}

impl From<PendingParamMin> for Constraint {
    fn from(p: PendingParamMin) -> Constraint {
        // x_k - min >= 0 over a space of k+1 dims; padded at build time.
        Constraint::ge0(
            &AffineExpr::var(p.k + 1, p.k) - &AffineExpr::constant(p.k + 1, p.min.into()),
        )
    }
}

/// Builder for a single [`Statement`].
#[derive(Debug, Clone)]
pub struct StatementBuilder {
    name: String,
    iters: Vec<String>,
    num_params: usize,
    constraints: Vec<Constraint>,
    writes: Option<ArrayId>,
    reads: Vec<Access>,
    body: Option<Expr>,
}

impl StatementBuilder {
    fn new(name: String, iters: &[&str], num_params: usize) -> Self {
        StatementBuilder {
            name,
            iters: iters.iter().map(|s| s.to_string()).collect(),
            num_params,
            constraints: Vec::new(),
            writes: None,
            reads: Vec::new(),
            body: None,
        }
    }

    /// Dimension of the statement space (iters ++ params).
    pub fn dim(&self) -> usize {
        self.iters.len() + self.num_params
    }

    /// Affine expression for loop index `k`.
    pub fn iter(&self, k: usize) -> AffineExpr {
        assert!(k < self.iters.len(), "iter index out of range");
        AffineExpr::var(self.dim(), k)
    }

    /// Affine expression for structural parameter `k`.
    pub fn param(&self, k: usize) -> AffineExpr {
        assert!(k < self.num_params, "param index out of range");
        AffineExpr::var(self.dim(), self.iters.len() + k)
    }

    /// Affine constant over the statement space.
    pub fn constant(&self, v: i64) -> AffineExpr {
        AffineExpr::constant(self.dim(), v.into())
    }

    /// Adds `lo <= iter_k <= hi`.
    pub fn bound(&mut self, k: usize, lo: AffineExpr, hi: AffineExpr) {
        let it = self.iter(k);
        self.constraints.push(Constraint::ge(it.clone(), lo));
        self.constraints.push(Constraint::le(it, hi));
    }

    /// Adds an arbitrary domain constraint (over iters ++ params).
    pub fn constraint(&mut self, c: Constraint) {
        assert_eq!(c.dim(), self.dim(), "constraint dimension mismatch");
        self.constraints.push(c);
    }

    /// Sets the written array.
    pub fn writes(&mut self, a: ArrayId) {
        self.writes = Some(a);
    }

    /// Adds a read access; returns its index for [`Expr::Read`].
    pub fn read(&mut self, a: ArrayId, index: Vec<AffineExpr>) -> usize {
        for e in &index {
            assert_eq!(e.dim(), self.dim(), "access index dimension mismatch");
        }
        self.reads.push(Access { array: a, index });
        self.reads.len() - 1
    }

    /// Sets the body expression.
    pub fn body(&mut self, e: Expr) {
        self.body = Some(e);
    }

    fn finish(self) -> Statement {
        let dim = self.iters.len() + self.num_params;
        Statement {
            name: self.name,
            iters: self.iters,
            domain: Polyhedron::from_constraints(dim, self.constraints),
            writes: self.writes.expect("statement writes no array"),
            reads: self.reads,
            body: self.body.expect("statement has no body"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_program() -> Program {
        let mut b = ProgramBuilder::new("p");
        let n = b.param_min("n", 1);
        let a = b.array("A", 1);
        let mut s = b.statement("S", &["i"]);
        s.bound(0, s.constant(1), s.param(n));
        s.writes(a);
        let r = s.read(a, vec![&s.iter(0) - &s.constant(1)]);
        s.body(Expr::call("f", vec![Expr::Read(r)]));
        b.add_statement(s);
        b.build().unwrap()
    }

    #[test]
    fn builder_roundtrip() {
        let p = simple_program();
        assert_eq!(p.name(), "p");
        assert_eq!(p.num_params(), 1);
        assert_eq!(p.arrays().len(), 1);
        assert_eq!(p.statements().len(), 1);
        let s = &p.statements()[0];
        assert_eq!(s.depth(), 1);
        assert_eq!(s.reads().len(), 1);
        assert_eq!(p.writers_of(ArrayId(0)), vec![StmtId(0)]);
        assert_eq!(p.array_by_name("A"), Some(ArrayId(0)));
        assert_eq!(p.stmt_by_name("S"), Some(StmtId(0)));
        assert_eq!(p.array_by_name("zzz"), None);
    }

    #[test]
    fn validation_catches_unwritten_array() {
        let mut b = ProgramBuilder::new("bad");
        b.param_min("n", 1);
        let a = b.array("A", 1);
        let _b2 = b.array("B", 1);
        let mut s = b.statement("S", &["i"]);
        s.bound(0, s.constant(1), s.constant(10));
        s.writes(a);
        s.body(Expr::Const(0));
        b.add_statement(s);
        let err = b.build().unwrap_err();
        assert!(err.contains("never written"), "{err}");
    }

    #[test]
    fn validation_catches_dim_mismatch() {
        let mut b = ProgramBuilder::new("bad");
        let a = b.array("A", 2); // 2-d array
        let mut s = b.statement("S", &["i"]); // 1-d statement
        s.bound(0, s.constant(1), s.constant(10));
        s.writes(a);
        s.body(Expr::Const(0));
        b.add_statement(s);
        assert!(b.build().is_err());
    }

    #[test]
    fn validation_catches_overlapping_writers() {
        let mut b = ProgramBuilder::new("bad");
        let a = b.array("A", 1);
        for name in ["S1", "S2"] {
            let mut s = b.statement(name, &["i"]);
            s.bound(0, s.constant(1), s.constant(10));
            s.writes(a);
            s.body(Expr::Const(0));
            b.add_statement(s);
        }
        let err = b.build().unwrap_err();
        assert!(err.contains("overlap"), "{err}");
    }

    #[test]
    fn disjoint_writers_allowed() {
        // Like the paper's Example 3: boundary writer + interior writer.
        let mut b = ProgramBuilder::new("ok");
        let a = b.array("A", 1);
        let mut s1 = b.statement("S1", &["i"]);
        s1.bound(0, s1.constant(1), s1.constant(1)); // i == 1
        s1.writes(a);
        s1.body(Expr::Const(0));
        b.add_statement(s1);
        let mut s2 = b.statement("S2", &["i"]);
        s2.bound(0, s2.constant(2), s2.constant(10));
        s2.writes(a);
        s2.body(Expr::Const(1));
        b.add_statement(s2);
        assert!(b.build().is_ok());
    }

    #[test]
    fn full_domain_includes_params() {
        let p = simple_program();
        // (i, n) = (5, 3) violates i <= n.
        let full = p.full_domain(StmtId(0));
        assert!(!full.contains(&aov_linalg::QVector::from_i64(&[5, 3])));
        assert!(full.contains(&aov_linalg::QVector::from_i64(&[3, 5])));
        // (i, n) = (1, 0) violates n >= 1.
        assert!(!full.contains(&aov_linalg::QVector::from_i64(&[1, 0])));
    }
}
