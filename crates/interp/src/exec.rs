//! Lowered execution: a program's instances at one parameter point, their
//! schedule-free reference values, and time-stepped runs under a
//! schedule with original or transformed storage.

use crate::domain::{denominator_lcm, BoxIndex, Domain, Rows, WrittenCells};
use crate::funcs::{self, Symbol};
use crate::InterpError;
use aov_core::transform::StorageTransform;
use aov_ir::{ArrayId, Expr, Program, Statement, StmtId};
use aov_schedule::Schedule;

/// Statistics of a scheduled run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of distinct time steps executed.
    pub time_steps: usize,
    /// Total statement instances.
    pub instances: usize,
    /// Cells used per array (observed storage footprint).
    pub cells_used: Vec<usize>,
    /// Maximum instances executed in one time step (ideal parallelism).
    pub max_width: usize,
}

/// The value of every statement instance, in the order of
/// [`Instances::points`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Values(Vec<i64>);

impl Values {
    /// The values in instance order.
    pub fn as_slice(&self) -> &[i64] {
        &self.0
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no instances.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Where one read of one instance takes its value from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// A cell no instance writes: its input value ([`funcs::initial`]).
    Input(i64),
    /// The cell written by this instance.
    Instance(u32),
}

/// One step of a lowered statement body, in postfix order.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read(usize),
    Const(i64),
    Iter(usize),
    Call(Symbol, usize),
}

/// A statement lowered at the parameter point.
#[derive(Debug, Clone)]
struct Stmt {
    depth: usize,
    array: ArrayId,
    /// Its instances are `first..first + count`.
    first: u32,
    count: u32,
    /// Its instances' points, flattened in instance order.
    points: Vec<i64>,
    /// Per instance, the source of each read access.
    sources: Vec<Source>,
    reads: usize,
    body: Vec<Op>,
}

/// A program's statement instances at one parameter point, lowered once
/// so that the reference and every scheduled run share them.
///
/// Lowering turns every statement domain, read access and body into
/// integer rows and postfix code with the parameters folded in. The
/// instances are enumerated over each domain's bounding box (a small
/// Fourier–Motzkin projection of the integer rows, no LP), and every read
/// is resolved once to the instance that writes its cell or to its input
/// value. Instances are numbered statement by statement in
/// [`Program::stmt_ids`] order, each statement's in lexicographic order.
#[derive(Debug, Clone)]
pub struct Instances<'p> {
    program: &'p Program,
    params: Vec<i64>,
    stmts: Vec<Stmt>,
    /// Per instance, its statement.
    stmt_of: Vec<u32>,
    written: WrittenCells,
}

impl<'p> Instances<'p> {
    /// Lowers `program` at `params` and enumerates its instances.
    ///
    /// # Errors
    ///
    /// [`InterpError::Unsupported`] for a wrong parameter count, an
    /// unbounded domain, a non-integer index, a cell written twice or a
    /// function symbol applied to the wrong number of arguments;
    /// [`InterpError::Overflow`] when a bound, index or box size leaves
    /// `i64`/`usize`.
    pub fn new(program: &'p Program, params: &[i64]) -> Result<Self, InterpError> {
        if params.len() != program.num_params() {
            return Err(InterpError::Unsupported(format!(
                "{} takes {} parameter(s), got {}",
                program.name(),
                program.num_params(),
                params.len()
            )));
        }
        let mut domains = Vec::with_capacity(program.statements().len());
        let mut stmts = Vec::with_capacity(program.statements().len());
        let mut first = vec![0u32];
        let mut stmt_of = Vec::new();
        for (sidx, st) in program.statements().iter().enumerate() {
            let domain = Domain::new(st, params)?;
            let mut points = Vec::new();
            let count = domain.points_into(&mut points)?;
            let start = first[sidx];
            let count = u32::try_from(count)
                .ok()
                .filter(|&c| start.checked_add(c).is_some_and(|end| end < u32::MAX))
                .ok_or_else(|| InterpError::Overflow("more than u32::MAX instances".into()))?;
            first.push(start + count);
            stmt_of.extend(std::iter::repeat_n(sidx as u32, count as usize));
            let mut body = Vec::new();
            lower_body(st.body(), st, params, &mut body)?;
            stmts.push(Stmt {
                depth: st.depth(),
                array: st.writes(),
                first: start,
                count,
                points,
                sources: Vec::new(),
                reads: st.reads().len(),
                body,
            });
            domains.push(domain);
        }
        let points: Vec<&[i64]> = stmts.iter().map(|s| s.points.as_slice()).collect();
        let written = WrittenCells::build(program, &domains, &first, &points)?;
        let mut index = Vec::new();
        for (st, lowered) in program.statements().iter().zip(&mut stmts) {
            let mut reads = Vec::with_capacity(st.reads().len());
            for acc in st.reads() {
                let mut rows = Rows::new(st.depth());
                for e in acc.index() {
                    rows.push(e, params)?;
                }
                let input = funcs::Mixer::initial(program.array(acc.array()).name());
                reads.push((acc.array(), rows, input));
            }
            let mut sources = Vec::with_capacity(lowered.count as usize * reads.len());
            for i in lowered.first..lowered.first + lowered.count {
                let x = point_of(lowered, i);
                for (array, rows, input) in &reads {
                    index.clear();
                    for r in 0..rows.len() {
                        index.push(rows.eval(r, x)?);
                    }
                    sources.push(match written.producer(*array, &index) {
                        Some(j) => Source::Instance(j),
                        None => Source::Input(input.mix(&index)),
                    });
                }
            }
            lowered.sources = sources;
        }
        Ok(Instances {
            program,
            params: params.to_vec(),
            stmts,
            stmt_of,
            written,
        })
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.stmt_of.len()
    }

    /// Whether the program has no instance at the parameter point.
    pub fn is_empty(&self) -> bool {
        self.stmt_of.is_empty()
    }

    /// Every instance's statement and point, in instance order.
    pub fn points(&self) -> impl Iterator<Item = (StmtId, &[i64])> + '_ {
        self.stmts.iter().enumerate().flat_map(|(sidx, st)| {
            (st.first..st.first + st.count).map(move |i| (StmtId(sidx), point_of(st, i)))
        })
    }

    /// The value of instance `point` of statement `s` in `values`, if
    /// that instance exists.
    pub fn value(&self, values: &Values, s: StmtId, point: &[i64]) -> Option<i64> {
        let i = self.written.producer(self.stmts[s.0].array, point)?;
        (self.stmt_of[i as usize] as usize == s.0).then(|| values.0[i as usize])
    }

    #[cfg(test)]
    pub(crate) fn written(&self) -> &WrittenCells {
        &self.written
    }

    fn stmt(&self, i: u32) -> &Stmt {
        &self.stmts[self.stmt_of[i as usize] as usize]
    }

    /// Evaluates instance `i`'s body with `read(k)` the value of its read
    /// access `k`.
    fn eval(&self, i: u32, read: impl Fn(Source) -> i64, stack: &mut Vec<i64>) -> i64 {
        let st = self.stmt(i);
        let at = (i - st.first) as usize;
        let sources = &st.sources[at * st.reads..(at + 1) * st.reads];
        let x = &st.points[at * st.depth..(at + 1) * st.depth];
        stack.clear();
        for op in &st.body {
            match *op {
                Op::Read(k) => stack.push(read(sources[k])),
                Op::Const(v) => stack.push(v),
                Op::Iter(k) => stack.push(x[k]),
                Op::Call(sym, argc) => {
                    let base = stack.len() - argc;
                    let v = sym.apply(&stack[base..]);
                    stack.truncate(base);
                    stack.push(v);
                }
            }
        }
        stack[0]
    }

    /// Per-instance reference values: each instance evaluated once, after
    /// the instances it reads, in dataflow order. Single assignment makes
    /// these the values of every legal schedule (paper §3.2), so no
    /// schedule is needed.
    ///
    /// # Errors
    ///
    /// [`InterpError::Cycle`] when an instance depends on its own value:
    /// then no execution order exists.
    pub fn reference(&self) -> Result<Values, InterpError> {
        const PENDING: u8 = 0;
        const ACTIVE: u8 = 1;
        const DONE: u8 = 2;
        let n = self.len();
        let mut state = vec![PENDING; n];
        let mut values = vec![0i64; n];
        // The path of instances being evaluated, each with its next read.
        let mut path: Vec<(u32, usize)> = Vec::new();
        let mut stack = Vec::new();
        for root in 0..n as u32 {
            if state[root as usize] != PENDING {
                continue;
            }
            state[root as usize] = ACTIVE;
            path.push((root, 0));
            while let Some((i, next)) = path.last_mut() {
                let st = self.stmt(*i);
                let at = (*i - st.first) as usize;
                let sources = &st.sources[at * st.reads..(at + 1) * st.reads];
                let mut producer = None;
                while let Some(source) = sources.get(*next) {
                    if let Source::Instance(j) = *source {
                        match state[j as usize] {
                            DONE => {}
                            ACTIVE => return Err(InterpError::Cycle(self.describe(j))),
                            _ => {
                                producer = Some(j);
                                break;
                            }
                        }
                    }
                    *next += 1;
                }
                if let Some(j) = producer {
                    state[j as usize] = ACTIVE;
                    path.push((j, 0));
                    continue;
                }
                let i = *i;
                let v = self.eval(
                    i,
                    |s| match s {
                        Source::Input(v) => v,
                        Source::Instance(j) => values[j as usize],
                    },
                    &mut stack,
                );
                values[i as usize] = v;
                state[i as usize] = DONE;
                path.pop();
            }
        }
        Ok(Values(values))
    }

    /// Executes the program under `sched`, honoring the paper's §4.3
    /// convention that *reads precede writes within a time step*. Arrays
    /// with a transform in `transforms` use its storage, the others their
    /// original storage.
    ///
    /// Returns the value computed by every statement instance plus run
    /// statistics. Reads of data-space points never written by the
    /// program resolve to deterministic [`funcs::initial`] values (input
    /// data); reads of cells whose producing write has not happened yet
    /// resolve to [`funcs::missing`] markers (only reachable under an
    /// illegal schedule or an invalid occupancy vector).
    ///
    /// Time keys are Θ scaled by one common positive denominator, so they
    /// are exact integers in the order of Θ; instances with equal keys run
    /// in instance order.
    ///
    /// # Errors
    ///
    /// [`InterpError::Overflow`] when a time key or storage cell leaves
    /// `i64`; [`InterpError::Unsupported`] when the schedule or a
    /// transform does not fit the program.
    pub fn run(
        &self,
        sched: &Schedule,
        transforms: &[StorageTransform],
    ) -> Result<(Values, RunStats), InterpError> {
        let n = self.len();
        let thetas = sched.thetas();
        if thetas.len() != self.stmts.len() {
            return Err(InterpError::Unsupported(format!(
                "a schedule of {} statements for {} statements",
                thetas.len(),
                self.stmts.len()
            )));
        }
        let scale = denominator_lcm(thetas)?;
        let mut order: Vec<(i64, u32)> = Vec::with_capacity(n);
        for (st, theta) in self.stmts.iter().zip(thetas) {
            let mut rows = Rows::new(st.depth);
            rows.push_scaled(theta, &self.params, scale)?;
            for i in st.first..st.first + st.count {
                order.push((rows.numer(0, point_of(st, i))?, i));
            }
        }
        order.sort_unstable();

        let (cell, bases) = self.cells(transforms)?;
        let total = bases.last().copied().unwrap_or(0);
        let mut store = vec![0i64; total];
        let mut written = vec![false; total];
        let mut values = vec![0i64; n];
        let mut stats = RunStats {
            instances: n,
            ..RunStats::default()
        };
        let mut writes: Vec<(usize, i64)> = Vec::new();
        let mut stack = Vec::new();
        let mut at = 0;
        while at < n {
            // One time step: [at, end).
            let t = order[at].0;
            let end = at + order[at..].iter().take_while(|(k, _)| *k == t).count();
            stats.time_steps += 1;
            stats.max_width = stats.max_width.max(end - at);
            // Phase 1: evaluate all bodies (reads see the previous step).
            for &(_, i) in &order[at..end] {
                let v = self.eval(
                    i,
                    |s| match s {
                        Source::Input(v) => v,
                        Source::Instance(j) => {
                            let c = cell[j as usize];
                            if written[c] {
                                store[c]
                            } else {
                                self.missing(j)
                            }
                        }
                    },
                    &mut stack,
                );
                values[i as usize] = v;
                writes.push((cell[i as usize], v));
            }
            // Phase 2: apply all writes.
            for (c, v) in writes.drain(..) {
                store[c] = v;
                written[c] = true;
            }
            at = end;
        }
        stats.cells_used = bases
            .windows(2)
            .map(|w| written[w[0]..w[1]].iter().filter(|&&b| b).count())
            .collect();
        Ok((Values(values), stats))
    }

    /// The storage cell each instance writes, in one flat store holding
    /// every array from its base (`bases[a]..bases[a + 1]`): an original
    /// array over its written box, a transformed one over the bounding
    /// box of its written cells' images.
    fn cells(
        &self,
        transforms: &[StorageTransform],
    ) -> Result<(Vec<usize>, Vec<usize>), InterpError> {
        let mut cell = vec![0usize; self.len()];
        let mut bases = vec![0usize];
        for (aidx, array) in self.program.arrays().iter().enumerate() {
            let a = ArrayId(aidx);
            let base = bases[aidx];
            let writers = || {
                self.stmts
                    .iter()
                    .filter(move |st| st.array == a)
                    .flat_map(|st| (st.first..st.first + st.count).map(move |i| (st, i)))
            };
            let len = match transforms.iter().find(|t| t.array() == a) {
                None => {
                    for (_, i) in writers() {
                        cell[i as usize] = base + self.written.offset_of(i);
                    }
                    self.written.box_len(a)
                }
                Some(t) => {
                    let mut rows = Rows::new(array.dim());
                    for c in t.coords().iter().chain(t.mod_coord()) {
                        rows.push(c, &self.params)?;
                    }
                    let (dims, modulated) = (rows.len(), t.mod_coord().is_some());
                    let mut image = Vec::new();
                    let mut bounds: Option<(Vec<i64>, Vec<i64>)> = None;
                    for (st, i) in writers() {
                        let start = image.len();
                        for r in 0..dims {
                            let v = rows.eval(r, point_of(st, i))?;
                            let v = if modulated && r + 1 == dims {
                                v.rem_euclid(t.modulation())
                            } else {
                                v
                            };
                            image.push(v);
                        }
                        let c = &image[start..];
                        let (lo, hi) = bounds.get_or_insert_with(|| (c.to_vec(), c.to_vec()));
                        for k in 0..dims {
                            lo[k] = lo[k].min(c[k]);
                            hi[k] = hi[k].max(c[k]);
                        }
                    }
                    let index = match bounds {
                        Some((lo, hi)) => BoxIndex::new(lo, &hi)?,
                        None => BoxIndex::empty(dims),
                    };
                    for (k, (_, i)) in writers().enumerate() {
                        let off = index
                            .offset(&image[k * dims..(k + 1) * dims])
                            .expect("images lie in their bounding box");
                        cell[i as usize] = base + off;
                    }
                    index.len()
                }
            };
            bases.push(
                base.checked_add(len)
                    .ok_or_else(|| InterpError::Overflow("total storage exceeds usize".into()))?,
            );
        }
        Ok((cell, bases))
    }

    /// The marker a read of instance `j`'s cell sees before `j` writes it.
    fn missing(&self, j: u32) -> i64 {
        let st = self.stmt(j);
        funcs::missing(self.program.array(st.array).name(), point_of(st, j))
    }

    /// Instance `i` as `S[i, j]`.
    fn describe(&self, i: u32) -> String {
        let st = self.stmt(i);
        let name = self
            .program
            .statement(StmtId(self.stmt_of[i as usize] as usize))
            .name();
        format!("{name}{:?}", point_of(st, i))
    }
}

/// Instance `i`'s point; `i` must be an instance of `st`.
fn point_of(st: &Stmt, i: u32) -> &[i64] {
    let at = (i - st.first) as usize;
    &st.points[at * st.depth..(at + 1) * st.depth]
}

/// Appends the postfix code of `e`, a body of `st`, to `out`.
fn lower_body(
    e: &Expr,
    st: &Statement,
    params: &[i64],
    out: &mut Vec<Op>,
) -> Result<(), InterpError> {
    let unsupported =
        |what: String| InterpError::Unsupported(format!("{} body: {what}", st.name()));
    let op = match e {
        Expr::Read(k) if *k < st.reads().len() => Op::Read(*k),
        Expr::Iter(k) if *k < st.depth() => Op::Iter(*k),
        Expr::Param(k) if *k < params.len() => Op::Const(params[*k]),
        Expr::Const(v) => Op::Const(*v),
        Expr::Call(name, args) => {
            for a in args {
                lower_body(a, st, params, out)?;
            }
            let sym = Symbol::resolve(name);
            if !sym.accepts(args.len()) {
                return Err(unsupported(format!("{name} of {} arguments", args.len())));
            }
            Op::Call(sym, args.len())
        }
        other => return Err(unsupported(format!("{other} is out of range"))),
    };
    out.push(op);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aov_ir::examples::{example1, example2, example3, prefix_sum};
    use aov_linalg::AffineExpr;

    fn reference<'p>(p: &'p Program, params: &[i64]) -> (Instances<'p>, Values) {
        let instances = Instances::new(p, params).unwrap();
        let values = instances.reference().unwrap();
        (instances, values)
    }

    #[test]
    fn prefix_sum_computes_real_sums() {
        let p = prefix_sum();
        let (instances, vals) = reference(&p, &[5]);
        // P[i] = add(P[i-1], i); P[0] is input data (initial hash).
        let p0 = crate::funcs::initial("P", &[0]);
        let s = p.stmt_by_name("S").unwrap();
        assert_eq!(instances.value(&vals, s, &[1]), Some(p0.wrapping_add(1)));
        assert_eq!(
            instances.value(&vals, s, &[3]),
            Some(p0.wrapping_add(1 + 2 + 3))
        );
        assert_eq!(instances.value(&vals, s, &[6]), None);
        assert_eq!(vals.len(), 5);
    }

    #[test]
    fn reference_is_schedule_independent() {
        let p = example1();
        let (instances, ref_vals) = reference(&p, &[5, 4]);
        // Run under a legal schedule (Θ = i + 2j) with original storage:
        // identical instance values.
        let skew = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[1, 2, 0, 0], 0)]);
        let (vals, _) = instances.run(&skew, &[]).unwrap();
        assert_eq!(ref_vals, vals);
    }

    #[test]
    fn two_phase_semantics_reads_precede_writes() {
        // Under Θ = j with v = (0,1), consumers at time t read values
        // produced at t−1 even though the same cells are overwritten at
        // t. This only works with the reads-then-writes convention.
        use aov_core::OccupancyVector;
        let p = example1();
        let row = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[0, 1, 0, 0], 0)]);
        let a = p.array_by_name("A").unwrap();
        let t = StorageTransform::new(&p, a, &OccupancyVector::new(vec![0, 1])).unwrap();
        let (instances, reference) = reference(&p, &[5, 4]);
        let (vals, stats) = instances.run(&row, &[t]).unwrap();
        assert_eq!(vals, reference);
        // Storage really is one row (n cells).
        assert_eq!(stats.cells_used, vec![5]);
        assert_eq!(stats.time_steps, 4);
        assert_eq!(stats.max_width, 5);
    }

    #[test]
    fn invalid_vector_breaks_semantics() {
        use aov_core::OccupancyVector;
        let p = example1();
        // Θ = i + 2j is legal; v = (0,1) is NOT valid for it (the paper's
        // Fig. 4 analysis: (0,1) only works for flat schedules).
        let skew = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[1, 2, 0, 0], 0)]);
        let a = p.array_by_name("A").unwrap();
        let t = StorageTransform::new(&p, a, &OccupancyVector::new(vec![0, 1])).unwrap();
        let (instances, reference) = reference(&p, &[6, 5]);
        let (vals, _) = instances.run(&skew, &[t]).unwrap();
        assert_ne!(vals, reference);
    }

    #[test]
    fn example2_runs_both_statements() {
        let p = example2();
        let (_, vals) = reference(&p, &[3, 3]);
        assert_eq!(vals.len(), 18); // 2 statements × 9 points
    }

    #[test]
    fn example3_min_plus_recurrence() {
        let p = example3();
        let (instances, vals) = reference(&p, &[3, 3, 3]);
        assert_eq!(vals.len(), 27);
        let s2 = p.stmt_by_name("S2").unwrap();
        assert!(instances.value(&vals, s2, &[2, 2, 2]).is_some());
    }

    /// `A[i][j] = f(A[j][i])`: instance `(1, 1)` reads its own cell, and
    /// `(1, 2)` and `(2, 1)` read each other's.
    fn transpose_cycle() -> Program {
        let mut b = aov_ir::ProgramBuilder::new("transpose");
        let n = b.param_min("n", 1);
        let a = b.array("A", 2);
        let mut s = b.statement("S", &["i", "j"]);
        s.bound(0, s.constant(1), s.param(n));
        s.bound(1, s.constant(1), s.param(n));
        s.writes(a);
        let r = s.read(a, vec![s.iter(1), s.iter(0)]);
        s.body(Expr::call("f", vec![Expr::Read(r)]));
        b.add_statement(s);
        b.build().unwrap()
    }

    #[test]
    fn dataflow_cycle_is_a_stated_failure() {
        let p = transpose_cycle();
        let instances = Instances::new(&p, &[3]).unwrap();
        let err = instances.reference().unwrap_err();
        assert_eq!(err, InterpError::Cycle("S[1, 1]".into()));
        assert!(
            err.to_string().contains("dataflow cycle through S[1, 1]"),
            "{err}"
        );
        let sched = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[1, 1, 0], 0)]);
        assert!(!crate::validate::semantics_preserved(&p, &[3], &sched, &[]));
        // `unschedulable` has no one-dimensional affine schedule, but its
        // instances are acyclic (the lexicographic order runs them).
        let q = aov_ir::examples::unschedulable();
        let instances = Instances::new(&q, &[3, 3]).unwrap();
        assert_eq!(instances.reference().unwrap().len(), 9);
    }

    #[test]
    fn overflowing_index_is_an_error_not_a_wrap() {
        // prefix_sum reads P[i - 1]; with n near i64::MAX the box and the
        // index stay in range, so force the overflow through a scaled
        // access: B[i] = g(B[i·2^62 + n]).
        let mut b = aov_ir::ProgramBuilder::new("huge");
        let n = b.param_min("n", 1);
        let arr = b.array("B", 1);
        let mut s = b.statement("S", &["i"]);
        s.bound(0, s.constant(1), s.param(n));
        s.writes(arr);
        let big = &s.iter(0).scale(&aov_numeric::Rational::from(1i64 << 62)) + &s.param(n);
        let r = s.read(arr, vec![big]);
        s.body(Expr::call("g", vec![Expr::Read(r)]));
        b.add_statement(s);
        let p = b.build().unwrap();
        assert!(Instances::new(&p, &[1]).is_ok());
        let err = Instances::new(&p, &[2]).unwrap_err();
        assert!(matches!(err, InterpError::Overflow(_)), "{err}");
        // A time key: Θ = 2^62·i overflows at i = 2.
        let q = prefix_sum();
        let theta = AffineExpr::from_i64(&[1 << 62, 0], 0);
        let sched = Schedule::uniform_for(&q, &[theta]);
        let instances = Instances::new(&q, &[1]).unwrap();
        assert!(instances.run(&sched, &[]).is_ok());
        let instances = Instances::new(&q, &[2]).unwrap();
        let err = instances.run(&sched, &[]).unwrap_err();
        assert!(matches!(err, InterpError::Overflow(_)), "{err}");
    }
}
