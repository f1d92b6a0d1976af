//! Work budgets.
//!
//! A [`Budget`] is a few atomics threaded by reference from the engine
//! down into the simplex pivot loop and the branch-and-bound node loop.
//! Solvers *tick* it at pivot/node granularity.
//!
//! Determinism contract: the exceeded error carries only the resource,
//! the configured limit, and the checkpoint site — never the observed
//! count. A solve is one sequential loop whose incumbents depend on its
//! input alone, so the work it ticks does too, and the same budget
//! trips with the same error at the same stage on every run. The budget
//! only counts: a limit the run never reaches changes none of its work.
//! Wall-clock deadlines are the documented exception: they are
//! inherently timing-dependent.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Which budgeted resource ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// Simplex pivot limit.
    Pivots,
    /// Branch-and-bound node limit.
    Nodes,
    /// Wall-clock deadline.
    WallClock,
}

impl Resource {
    /// Stable lower-case name used in diagnostics and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Resource::Pivots => "pivots",
            Resource::Nodes => "nodes",
            Resource::WallClock => "wall_clock",
        }
    }
}

/// A budget checkpoint fired. Deliberately carries no observed counts:
/// the (resource, limit, site) triple alone identifies the trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    pub resource: Resource,
    /// The configured limit (milliseconds for [`Resource::WallClock`]).
    pub limit: u64,
    /// The checkpoint that observed the trip (e.g. `"lp.simplex"`).
    pub site: &'static str,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.resource {
            Resource::Pivots => write!(
                f,
                "budget exceeded at {}: pivot limit {}",
                self.site, self.limit
            ),
            Resource::Nodes => write!(
                f,
                "budget exceeded at {}: node limit {}",
                self.site, self.limit
            ),
            Resource::WallClock => {
                write!(
                    f,
                    "budget exceeded at {}: deadline {} ms",
                    self.site, self.limit
                )
            }
        }
    }
}

impl std::error::Error for BudgetExceeded {}

/// The limits of one run and the work ticked against them so far.
pub struct Budget {
    /// `u64::MAX` means unlimited.
    max_pivots: u64,
    max_nodes: u64,
    deadline: Option<Instant>,
    deadline_ms: u64,
    pivots: AtomicU64,
    nodes: AtomicU64,
}

/// How often (in ticks) the wall-clock deadline is polled; counting
/// ticks is atomic-cheap, `Instant::now` is not.
const DEADLINE_STRIDE: u64 = 64;

impl Budget {
    /// A budget with no limits; ticks only count.
    #[must_use]
    pub fn unlimited() -> Budget {
        Budget::new(None, None, None)
    }

    /// A budget with optional pivot/node/wall-clock limits. The
    /// deadline clock starts now.
    #[must_use]
    pub fn new(max_pivots: Option<u64>, max_nodes: Option<u64>, max_millis: Option<u64>) -> Budget {
        Budget {
            max_pivots: max_pivots.unwrap_or(u64::MAX),
            max_nodes: max_nodes.unwrap_or(u64::MAX),
            deadline: max_millis.map(|ms| Instant::now() + Duration::from_millis(ms)),
            deadline_ms: max_millis.unwrap_or(0),
            pivots: AtomicU64::new(0),
            nodes: AtomicU64::new(0),
        }
    }

    /// Pivots ticked so far (for reporting).
    #[must_use]
    pub fn pivots_spent(&self) -> u64 {
        self.pivots.load(Ordering::Relaxed)
    }

    /// Nodes ticked so far (for reporting).
    #[must_use]
    pub fn nodes_spent(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    /// One simplex pivot at `site`.
    ///
    /// # Errors
    ///
    /// [`BudgetExceeded`] when the pivot limit or the deadline trips.
    pub fn tick_pivot(&self, site: &'static str) -> Result<(), BudgetExceeded> {
        let count = self.pivots.fetch_add(1, Ordering::Relaxed);
        if count >= self.max_pivots {
            return Err(self.exceeded(Resource::Pivots, site));
        }
        self.common_checks(count, site)
    }

    /// One branch-and-bound node at `site`.
    ///
    /// # Errors
    ///
    /// [`BudgetExceeded`] when the node limit or the deadline trips.
    pub fn tick_node(&self, site: &'static str) -> Result<(), BudgetExceeded> {
        let count = self.nodes.fetch_add(1, Ordering::Relaxed);
        if count >= self.max_nodes {
            return Err(self.exceeded(Resource::Nodes, site));
        }
        self.common_checks(count, site)
    }

    /// A coarse checkpoint (stage or orthant boundary): observes the
    /// deadline without charging any resource.
    ///
    /// # Errors
    ///
    /// [`BudgetExceeded`] when the deadline trips.
    pub fn check(&self, site: &'static str) -> Result<(), BudgetExceeded> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(self.exceeded(Resource::WallClock, site));
            }
        }
        Ok(())
    }

    fn common_checks(&self, count: u64, site: &'static str) -> Result<(), BudgetExceeded> {
        if count.is_multiple_of(DEADLINE_STRIDE) {
            // Piggyback the flight-recorder heartbeat on the deadline
            // stride: one ring event per DEADLINE_STRIDE ticks keeps
            // the amortized cost sub-nanosecond while the ring tail
            // still shows budget progress leading into a failure.
            aov_trace::recorder::record(
                aov_trace::recorder::EventKind::BudgetTick,
                site,
                self.pivots_spent(),
                self.nodes_spent(),
            );
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    return Err(self.exceeded(Resource::WallClock, site));
                }
            }
        }
        Ok(())
    }

    fn exceeded(&self, resource: Resource, site: &'static str) -> BudgetExceeded {
        let limit = match resource {
            Resource::Pivots => self.max_pivots,
            Resource::Nodes => self.max_nodes,
            Resource::WallClock => self.deadline_ms,
        };
        // Cold path: stamp the trip into the flight recorder, labelled
        // with the span active on the tripping thread (works with full
        // tracing off — lite spans keep the label stack) so the crash
        // bundle names *where* the budget died, not just the checkpoint.
        let label = aov_trace::current_span_label();
        let spent = match resource {
            Resource::Pivots => self.pivots_spent(),
            Resource::Nodes => self.nodes_spent(),
            Resource::WallClock => 0,
        };
        aov_trace::recorder::record(
            aov_trace::recorder::EventKind::BudgetTrip,
            label.as_deref().unwrap_or(site),
            limit,
            spent,
        );
        BudgetExceeded {
            resource,
            limit,
            site,
        }
    }
}

impl fmt::Debug for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Budget")
            .field(
                "max_pivots",
                &(self.max_pivots != u64::MAX).then_some(self.max_pivots),
            )
            .field(
                "max_nodes",
                &(self.max_nodes != u64::MAX).then_some(self.max_nodes),
            )
            .field("deadline_ms", &self.deadline.map(|_| self.deadline_ms))
            .field("pivots", &self.pivots_spent())
            .field("nodes", &self.nodes_spent())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.tick_pivot("t").unwrap();
            b.tick_node("t").unwrap();
        }
        assert_eq!(b.pivots_spent(), 10_000);
    }

    #[test]
    fn pivot_limit_trips_at_configured_count() {
        let b = Budget::new(Some(5), None, None);
        for _ in 0..5 {
            b.tick_pivot("lp.simplex").unwrap();
        }
        let e = b.tick_pivot("lp.simplex").unwrap_err();
        assert_eq!(e.resource, Resource::Pivots);
        assert_eq!(e.limit, 5);
        assert_eq!(e.site, "lp.simplex");
    }

    #[test]
    fn node_limit_independent_of_pivots() {
        let b = Budget::new(Some(100), Some(2), None);
        b.tick_pivot("p").unwrap();
        b.tick_node("n").unwrap();
        b.tick_node("n").unwrap();
        assert_eq!(b.tick_node("n").unwrap_err().resource, Resource::Nodes);
        b.tick_pivot("p").unwrap();
    }

    #[test]
    fn expired_deadline_trips_check() {
        let b = Budget::new(None, None, Some(0));
        std::thread::sleep(Duration::from_millis(2));
        let e = b.check("stage").unwrap_err();
        assert_eq!(e.resource, Resource::WallClock);
        assert_eq!(e.limit, 0);
    }

    #[test]
    fn error_payload_never_contains_spent_counts() {
        let b = Budget::new(Some(3), None, None);
        let _ = b.tick_pivot("s");
        let _ = b.tick_pivot("s");
        let _ = b.tick_pivot("s");
        let e = b.tick_pivot("s").unwrap_err();
        // Rendering depends only on (resource, limit, site).
        assert_eq!(e.to_string(), "budget exceeded at s: pivot limit 3");
    }
}
