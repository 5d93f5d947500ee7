//! Errors produced during query execution.

use std::fmt;

use perm_algebra::AlgebraError;
use perm_storage::CatalogError;

/// Errors raised by the evaluator, executor or optimizer.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// An error bubbled up from the algebra layer (typing, column resolution, arithmetic).
    Algebra(AlgebraError),
    /// An error from the catalog (missing table, arity mismatch on insert, ...).
    Catalog(CatalogError),
    /// The configured result-size budget was exceeded.
    ///
    /// Provenance queries can blow up combinatorially (the paper reports 38 million result
    /// tuples for TPC-H query 11); the benchmark harness uses this to reproduce the paper's
    /// "query stopped" (black table cell) behaviour.
    RowBudgetExceeded {
        /// The configured budget.
        budget: usize,
    },
    /// The configured wall-clock timeout was exceeded.
    Timeout {
        /// The configured timeout in milliseconds.
        millis: u64,
    },
    /// The query was cancelled (client request, session shutdown or a dropped stream).
    ///
    /// Raised cooperatively: the engine checks its [`crate::CancelToken`] at morsel
    /// boundaries and join probe strides, so cancellation lands within one scheduling quantum
    /// and never mid-operator.
    Cancelled,
    /// A memory reservation was denied by the resource governor.
    ///
    /// The payload is the governor's explanation (which limit was hit and at what size);
    /// the service layer maps this to a clean wire error instead of letting the process OOM.
    ResourceExhausted(String),
    /// Integer arithmetic overflowed the 64-bit value range.
    ///
    /// The engine (typed kernels and per-row fallback alike) and the reference evaluator
    /// surface integer overflow as this error with the same payload, so differential tests can
    /// assert identical failure behaviour; silent wrapping would instead produce
    /// path-dependent results.
    ArithmeticOverflow {
        /// The operation that overflowed ("addition", "multiplication", ...).
        operation: String,
    },
    /// A scalar subquery used as a value returned more than one row.
    ///
    /// SQL requires a scalar subquery to produce at most one row; silently taking the first row
    /// would make results depend on physical tuple order.
    ScalarSubqueryTooManyRows,
    /// A parameter slot (`$n`) was evaluated without a bound value.
    ///
    /// Raised when a parameterized plan is executed with fewer parameters than it references
    /// (see [`crate::Executor::with_params`]) or when one reaches the tree-walking interpreter,
    /// which never carries bindings.
    UnboundParameter {
        /// Zero-based parameter index (`$1` has index 0).
        index: usize,
    },
    /// Any other execution failure.
    Internal(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Algebra(e) => write!(f, "{e}"),
            ExecError::Catalog(e) => write!(f, "{e}"),
            ExecError::RowBudgetExceeded { budget } => {
                write!(f, "execution aborted: result exceeded row budget of {budget}")
            }
            ExecError::Timeout { millis } => {
                write!(f, "execution aborted: timeout of {millis} ms exceeded")
            }
            ExecError::Cancelled => write!(f, "query cancelled"),
            ExecError::ResourceExhausted(msg) => write!(f, "resource exhausted: {msg}"),
            ExecError::ArithmeticOverflow { operation } => {
                write!(f, "arithmetic overflow in {operation}")
            }
            ExecError::ScalarSubqueryTooManyRows => {
                write!(f, "scalar subquery returned more than one row")
            }
            ExecError::UnboundParameter { index } => {
                write!(f, "parameter ${} has no bound value", index + 1)
            }
            ExecError::Internal(msg) => write!(f, "execution error: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Algebra(e) => Some(e),
            ExecError::Catalog(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AlgebraError> for ExecError {
    fn from(e: AlgebraError) -> Self {
        match e {
            // Checked `Value` arithmetic reports overflow through the algebra layer; surface it
            // as the dedicated executor error so kernels and fallbacks raise the identical value.
            AlgebraError::ArithmeticOverflow { operation } => {
                ExecError::ArithmeticOverflow { operation }
            }
            // More text than one column can address is a resource limit like any other.
            AlgebraError::ColumnTooLarge { .. } => ExecError::ResourceExhausted(e.to_string()),
            other => ExecError::Algebra(other),
        }
    }
}

impl From<CatalogError> for ExecError {
    fn from(e: CatalogError) -> Self {
        match e {
            CatalogError::TooLarge(msg) => ExecError::ResourceExhausted(msg),
            other => ExecError::Catalog(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_budget_and_timeout() {
        assert!(ExecError::RowBudgetExceeded { budget: 10 }.to_string().contains("10"));
        assert!(ExecError::Timeout { millis: 500 }.to_string().contains("500"));
    }

    #[test]
    fn conversions_from_layer_errors() {
        let e: ExecError = AlgebraError::Internal("x".into()).into();
        assert!(matches!(e, ExecError::Algebra(_)));
        let e: ExecError = CatalogError::NotFound("t".into()).into();
        assert!(matches!(e, ExecError::Catalog(_)));
    }
}
