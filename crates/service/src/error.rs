//! The error type of the query service.

use std::fmt;

use perm_exec::ExecError;
use perm_sql::SqlError;
use perm_storage::CatalogError;

/// Errors surfaced by the service layer (engine, sessions, wire protocol).
///
/// Every variant carries enough context to be reported to a remote client as a single line of
/// text, and [`std::error::Error::source`] exposes the underlying layer error for callers that
/// want to walk the chain.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// SQL front-end error (lexing, parsing, analysis).
    Sql(SqlError),
    /// Execution error (including row-budget / timeout aborts and unbound parameters).
    Exec(ExecError),
    /// Catalog error.
    Catalog(CatalogError),
    /// `EXECUTE` referenced a prepared statement that does not exist in this session.
    UnknownPrepared(String),
    /// A prepared statement was executed with the wrong number of parameters.
    ParameterCount {
        /// Name of the prepared statement.
        name: String,
        /// Number of `$n` slots the statement references.
        expected: usize,
        /// Number of values that were bound.
        got: usize,
    },
    /// The requested operation is not supported (e.g. preparing a DDL statement).
    Unsupported(String),
    /// A malformed wire-protocol request.
    Protocol(String),
    /// An internal server failure (a caught panic in a worker or connection thread). The query
    /// that hit it fails with this error; the server itself keeps serving.
    Internal(String),
}

impl ServiceError {
    /// Convenience constructor for unsupported-operation errors.
    pub fn unsupported(msg: impl Into<String>) -> ServiceError {
        ServiceError::Unsupported(msg.into())
    }

    /// Convenience constructor for protocol errors.
    pub fn protocol(msg: impl Into<String>) -> ServiceError {
        ServiceError::Protocol(msg.into())
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Sql(e) => write!(f, "{e}"),
            ServiceError::Exec(e) => write!(f, "{e}"),
            ServiceError::Catalog(e) => write!(f, "{e}"),
            ServiceError::UnknownPrepared(name) => {
                write!(f, "prepared statement '{name}' does not exist")
            }
            ServiceError::ParameterCount { name, expected, got } => {
                write!(f, "prepared statement '{name}' expects {expected} parameter(s), got {got}")
            }
            ServiceError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            ServiceError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServiceError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Sql(e) => Some(e),
            ServiceError::Exec(e) => Some(e),
            ServiceError::Catalog(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SqlError> for ServiceError {
    fn from(e: SqlError) -> Self {
        ServiceError::Sql(e)
    }
}

impl From<ExecError> for ServiceError {
    fn from(e: ExecError) -> Self {
        ServiceError::Exec(e)
    }
}

impl From<CatalogError> for ServiceError {
    fn from(e: CatalogError) -> Self {
        // An append refused for its size is a resource limit, as it is in the executor.
        match ExecError::from(e) {
            ExecError::Catalog(e) => ServiceError::Catalog(e),
            limit => ServiceError::Exec(limit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_source_chain() {
        let e = ServiceError::from(ExecError::RowBudgetExceeded { budget: 9 });
        assert!(e.to_string().contains('9'));
        assert!(e.source().is_some());
        let e = ServiceError::ParameterCount { name: "q".into(), expected: 2, got: 1 };
        assert!(e.to_string().contains("expects 2"));
        assert!(e.source().is_none());
        let e = ServiceError::from(CatalogError::NotFound("t".into()));
        assert!(e.source().unwrap().to_string().contains('t'));
    }
}
