//! Error type shared by the algebra layer.

use std::fmt;

/// Errors raised while constructing or type-checking algebra expressions and plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgebraError {
    /// An attribute name could not be resolved against a schema.
    UnknownAttribute {
        /// The attribute name (possibly qualified) that failed to resolve.
        name: String,
        /// The attribute names that were available.
        available: Vec<String>,
    },
    /// An attribute name resolved to more than one attribute.
    AmbiguousAttribute {
        /// The ambiguous name.
        name: String,
    },
    /// A column index was out of bounds for the schema it was resolved against.
    ColumnIndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The width of the schema.
        width: usize,
    },
    /// A value or expression did not have the type an operation required.
    TypeMismatch {
        /// Human-readable description of the context.
        context: String,
        /// The type (or type family) the operation required.
        expected: String,
        /// The type that was actually found.
        actual: String,
        /// Path from the plan root to the offending operator (empty when the error was not
        /// raised by plan verification, e.g. for runtime value arithmetic).
        path: Vec<String>,
    },
    /// Inputs of a set operation were not union compatible.
    NotUnionCompatible {
        /// Width of the left input.
        left_width: usize,
        /// Width of the right input.
        right_width: usize,
    },
    /// A value could not be parsed from its textual form.
    ParseValue {
        /// The text that failed to parse.
        text: String,
        /// The target type.
        target: String,
    },
    /// Arithmetic failed (division by zero on integers, ...).
    Arithmetic(String),
    /// Integer arithmetic overflowed the 64-bit value range.
    ///
    /// Raised by checked `Value` arithmetic instead of silently wrapping (release) or panicking
    /// (debug); the executor surfaces it as `ExecError::ArithmeticOverflow` so that the row,
    /// vectorized and parallel pipelines all report the identical error.
    ArithmeticOverflow {
        /// The operation that overflowed ("addition", "multiplication", ...).
        operation: String,
    },
    /// A text column would hold more bytes than its 32-bit offsets address (4 GiB): raised
    /// where text is laid end to end — a join's build side, a sort's input, an append — before
    /// any of it is copied. The executor surfaces it as `ExecError::ResourceExhausted`.
    ColumnTooLarge {
        /// The text the column would hold, in bytes.
        bytes: u64,
    },
    /// Catch-all for invariant violations.
    Internal(String),
}

impl AlgebraError {
    /// A [`AlgebraError::TypeMismatch`] raised outside plan verification (no operator path).
    pub fn type_mismatch(
        context: impl Into<String>,
        expected: impl ToString,
        actual: impl ToString,
    ) -> AlgebraError {
        let (expected, actual) = (expected.to_string(), actual.to_string());
        AlgebraError::TypeMismatch { context: context.into(), expected, actual, path: Vec::new() }
    }
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::UnknownAttribute { name, available } => {
                write!(f, "unknown attribute '{name}' (available: {})", available.join(", "))
            }
            AlgebraError::AmbiguousAttribute { name } => {
                write!(f, "ambiguous attribute reference '{name}'")
            }
            AlgebraError::ColumnIndexOutOfBounds { index, width } => {
                write!(f, "column index {index} out of bounds for schema of width {width}")
            }
            AlgebraError::TypeMismatch { context, expected, actual, path } => {
                write!(f, "type mismatch in {context}: expected {expected}, got {actual}")?;
                if !path.is_empty() {
                    write!(f, " (at {})", path.join(" > "))?;
                }
                Ok(())
            }
            AlgebraError::NotUnionCompatible { left_width, right_width } => {
                write!(
                    f,
                    "set operation inputs are not union compatible ({left_width} vs {right_width} columns)"
                )
            }
            AlgebraError::ParseValue { text, target } => {
                write!(f, "cannot parse '{text}' as {target}")
            }
            AlgebraError::Arithmetic(msg) => write!(f, "arithmetic error: {msg}"),
            AlgebraError::ArithmeticOverflow { operation } => {
                write!(f, "arithmetic overflow in {operation}")
            }
            AlgebraError::ColumnTooLarge { bytes } => {
                write!(f, "a text column of {bytes} bytes exceeds the 4 GiB one column can hold")
            }
            AlgebraError::Internal(msg) => write!(f, "internal algebra error: {msg}"),
        }
    }
}

impl std::error::Error for AlgebraError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_attribute_lists_candidates() {
        let err = AlgebraError::UnknownAttribute {
            name: "shop.zip".into(),
            available: vec!["name".into(), "numempl".into()],
        };
        let text = err.to_string();
        assert!(text.contains("shop.zip"));
        assert!(text.contains("numempl"));
    }

    #[test]
    fn display_type_mismatch_mentions_both_sides() {
        let err = AlgebraError::TypeMismatch {
            context: "addition".into(),
            expected: "Int".into(),
            actual: "Text".into(),
            path: vec![],
        };
        assert!(err.to_string().contains("Int"));
        assert!(err.to_string().contains("Text"));
    }

    #[test]
    fn display_type_mismatch_renders_operator_path() {
        let err = AlgebraError::TypeMismatch {
            context: "selection predicate".into(),
            expected: "BOOL".into(),
            actual: "TEXT".into(),
            path: vec!["Projection".into(), "Join(left)".into(), "Selection".into()],
        };
        assert!(err.to_string().contains("Projection > Join(left) > Selection"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&AlgebraError::Internal("x".into()));
    }
}
