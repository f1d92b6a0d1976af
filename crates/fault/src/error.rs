//! The unified error taxonomy for the solver stack.
//!
//! Every layer (`aov-lp`, `aov-schedule`, `aov-core`, `aov-engine`)
//! funnels its recoverable failures into [`AovError`] so that the
//! engine's degradation ladder can decide — from the variant alone —
//! whether a stage `Degraded` (the pipeline can still produce a useful
//! report) or `Failed` (nothing downstream is meaningful). Panics are
//! reserved for genuine invariant violations; anything an adversarial
//! input or a budget can trigger is a value of this type.

use crate::budget::BudgetExceeded;
use std::fmt;

/// A recoverable failure anywhere in the solver stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AovError {
    /// An LP/ILP that a caller required to be feasible was not.
    Infeasible { context: String },
    /// An LP/ILP that a caller required to be bounded was not.
    Unbounded { context: String },
    /// A work or wall-clock budget tripped.
    BudgetExceeded(BudgetExceeded),
    /// An orthant solve or a scoped worker panicked; the panic was
    /// caught at that boundary and converted into a value instead of
    /// unwinding further.
    WorkerPanic {
        /// The isolating site (e.g. `"aov.orthant"`) or stage name.
        stage: String,
        /// The panic payload, downcast to a string when possible.
        payload: String,
    },
    /// The program admits no one-dimensional affine schedule. The
    /// detail names the violated dependence when known.
    Unschedulable { detail: String },
    /// The input program/arguments are malformed.
    InvalidInput { detail: String },
    /// An unexpected internal failure that was contained (also used by
    /// chaos injection for the "injected solver error" fault class).
    Internal { detail: String },
}

impl AovError {
    /// Short machine-readable class name, used in reports and tests.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            AovError::Infeasible { .. } => "infeasible",
            AovError::Unbounded { .. } => "unbounded",
            AovError::BudgetExceeded(_) => "budget_exceeded",
            AovError::WorkerPanic { .. } => "worker_panic",
            AovError::Unschedulable { .. } => "unschedulable",
            AovError::InvalidInput { .. } => "invalid_input",
            AovError::Internal { .. } => "internal",
        }
    }

    /// Converts a caught panic payload (from `std::panic::catch_unwind`)
    /// into a [`AovError::WorkerPanic`].
    #[must_use]
    pub fn from_panic(stage: &str, payload: &(dyn std::any::Any + Send)) -> AovError {
        let text = payload
            .downcast_ref::<&'static str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        AovError::WorkerPanic {
            stage: stage.to_string(),
            payload: text,
        }
    }
}

impl fmt::Display for AovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AovError::Infeasible { context } => write!(f, "infeasible: {context}"),
            AovError::Unbounded { context } => write!(f, "unbounded: {context}"),
            AovError::BudgetExceeded(b) => write!(f, "{b}"),
            AovError::WorkerPanic { stage, payload } => {
                write!(f, "worker panic in {stage}: {payload}")
            }
            AovError::Unschedulable { detail } => write!(f, "unschedulable: {detail}"),
            AovError::InvalidInput { detail } => write!(f, "invalid input: {detail}"),
            AovError::Internal { detail } => write!(f, "internal error: {detail}"),
        }
    }
}

impl std::error::Error for AovError {
    /// The budget trip is the one variant wrapping a structured cause;
    /// exposing it lets diagnostic bundles walk `source()` chains
    /// uniformly instead of special-casing each layer's wrapper.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AovError::BudgetExceeded(b) => Some(b),
            _ => None,
        }
    }
}

impl From<BudgetExceeded> for AovError {
    fn from(b: BudgetExceeded) -> Self {
        AovError::BudgetExceeded(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{BudgetExceeded, Resource};

    #[test]
    fn class_names_are_stable() {
        let cases: Vec<(AovError, &str)> = vec![
            (
                AovError::Infeasible {
                    context: "x".into(),
                },
                "infeasible",
            ),
            (
                AovError::Unbounded {
                    context: "x".into(),
                },
                "unbounded",
            ),
            (
                AovError::BudgetExceeded(BudgetExceeded {
                    resource: Resource::Pivots,
                    limit: 10,
                    site: "lp.simplex",
                }),
                "budget_exceeded",
            ),
            (
                AovError::WorkerPanic {
                    stage: "aov.orthant".into(),
                    payload: "boom".into(),
                },
                "worker_panic",
            ),
            (
                AovError::Unschedulable { detail: "d".into() },
                "unschedulable",
            ),
            (
                AovError::InvalidInput { detail: "d".into() },
                "invalid_input",
            ),
            (AovError::Internal { detail: "d".into() }, "internal"),
        ];
        for (e, class) in cases {
            assert_eq!(e.class(), class);
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn panic_payload_downcasts() {
        let e = AovError::from_panic("stage", &"static str" as &(dyn std::any::Any + Send));
        match e {
            AovError::WorkerPanic { payload, .. } => assert_eq!(payload, "static str"),
            other => panic!("unexpected {other:?}"),
        }
        let owned: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        let e = AovError::from_panic("stage", owned.as_ref());
        match e {
            AovError::WorkerPanic { payload, .. } => assert_eq!(payload, "owned"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
