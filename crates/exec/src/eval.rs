//! Scalar expression evaluation with SQL three-valued logic: the tree-walking interpreter of
//! the reference evaluator ([`evaluate`]), and the per-value operator, function and `LIKE`
//! semantics the engine's compiled kernels share with it.

use perm_algebra::value::{add_months_to_days, civil_from_days};
use perm_algebra::{BinaryOperator, ScalarExpr, ScalarFunction, Tuple, UnaryOperator, Value};

use crate::error::ExecError;

/// Evaluate a scalar expression against a tuple.
///
/// Column references index into the tuple; the caller is responsible for handing in a tuple that
/// matches the schema the expression was bound against (the executor guarantees this).
pub fn evaluate(expr: &ScalarExpr, tuple: &Tuple) -> Result<Value, ExecError> {
    match expr {
        ScalarExpr::Column { index, name } => tuple.get(*index).cloned().ok_or_else(|| {
            ExecError::Internal(format!(
                "column {name} (#{index}) out of bounds for tuple of arity {}",
                tuple.arity()
            ))
        }),
        ScalarExpr::Literal(v) => Ok(v.clone()),
        // The interpreter never carries parameter bindings; the executor substitutes them when
        // compiling expressions (see `crate::compile`).
        ScalarExpr::Parameter { index } => Err(ExecError::UnboundParameter { index: *index }),
        ScalarExpr::BinaryOp { op, left, right } => evaluate_binary(*op, left, right, tuple),
        ScalarExpr::UnaryOp { op, expr } => unary_op_value(*op, evaluate(expr, tuple)?),
        ScalarExpr::Function { func, args } => {
            let values = args.iter().map(|a| evaluate(a, tuple)).collect::<Result<Vec<_>, _>>()?;
            evaluate_function(*func, &values)
        }
        ScalarExpr::Case { operand, branches, else_expr } => {
            let operand_value = operand.as_ref().map(|o| evaluate(o, tuple)).transpose()?;
            for (when, then) in branches {
                let matched = match &operand_value {
                    Some(op_val) => {
                        let w = evaluate(when, tuple)?;
                        op_val.sql_eq(&w).unwrap_or(false)
                    }
                    None => evaluate(when, tuple)?.as_bool().unwrap_or(false),
                };
                if matched {
                    return evaluate(then, tuple);
                }
            }
            match else_expr {
                Some(e) => evaluate(e, tuple),
                None => Ok(Value::Null),
            }
        }
        ScalarExpr::Cast { expr, data_type } => Ok(evaluate(expr, tuple)?.cast(*data_type)?),
        ScalarExpr::Sublink { .. } => Err(ExecError::Internal(
            "unresolved sublink reached the evaluator; the executor substitutes uncorrelated \
             sublinks before evaluation"
                .into(),
        )),
        ScalarExpr::InList { expr, list, negated } => {
            let needle = evaluate(expr, tuple)?;
            if needle.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for candidate in list {
                let v = evaluate(candidate, tuple)?;
                match needle.sql_eq(&v) {
                    Some(true) => return Ok(Value::Bool(!negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
    }
}

/// Evaluate a predicate: `true` only if the expression evaluates to SQL TRUE.
pub fn evaluate_predicate(expr: &ScalarExpr, tuple: &Tuple) -> Result<bool, ExecError> {
    Ok(evaluate(expr, tuple)?.as_bool().unwrap_or(false))
}

fn evaluate_binary(
    op: BinaryOperator,
    left: &ScalarExpr,
    right: &ScalarExpr,
    tuple: &Tuple,
) -> Result<Value, ExecError> {
    // AND/OR use short-circuit three-valued logic.
    if op == BinaryOperator::And || op == BinaryOperator::Or {
        let l = evaluate(left, tuple)?.as_bool();
        match (op, l) {
            (BinaryOperator::And, Some(false)) => return Ok(Value::Bool(false)),
            (BinaryOperator::Or, Some(true)) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let r = evaluate(right, tuple)?.as_bool();
        return Ok(logical_combine(op, l, r));
    }

    binary_op_values(op, &evaluate(left, tuple)?, &evaluate(right, tuple)?)
}

/// Combine the boolean views of two operands under AND/OR three-valued logic (after the caller
/// has applied short-circuiting).
pub(crate) fn logical_combine(op: BinaryOperator, l: Option<bool>, r: Option<bool>) -> Value {
    match (op, l, r) {
        (BinaryOperator::And, Some(true), Some(true)) => Value::Bool(true),
        (BinaryOperator::And, _, Some(false)) => Value::Bool(false),
        (BinaryOperator::And, _, _) => Value::Null,
        (BinaryOperator::Or, Some(false), Some(false)) => Value::Bool(false),
        (BinaryOperator::Or, _, Some(true)) => Value::Bool(true),
        (BinaryOperator::Or, _, _) => Value::Null,
        _ => unreachable!("only AND/OR reach logical_combine"),
    }
}

/// Apply a unary operator to an evaluated operand.
pub(crate) fn unary_op_value(op: UnaryOperator, v: Value) -> Result<Value, ExecError> {
    Ok(match op {
        UnaryOperator::Not => match v.as_bool() {
            Some(b) => Value::Bool(!b),
            None => Value::Null,
        },
        UnaryOperator::Neg => v.neg()?,
        UnaryOperator::IsNull => Value::Bool(v.is_null()),
        UnaryOperator::IsNotNull => Value::Bool(!v.is_null()),
    })
}

/// Apply a non-logical binary operator to two evaluated operands (SQL three-valued semantics).
pub(crate) fn binary_op_values(
    op: BinaryOperator,
    l: &Value,
    r: &Value,
) -> Result<Value, ExecError> {
    // Null-safe comparisons are defined even for NULL operands.
    match op {
        BinaryOperator::IsNotDistinctFrom => return Ok(Value::Bool(l == r)),
        BinaryOperator::IsDistinctFrom => return Ok(Value::Bool(l != r)),
        _ => {}
    }

    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }

    Ok(match op {
        BinaryOperator::Add => l.add(r)?,
        BinaryOperator::Sub => l.sub(r)?,
        BinaryOperator::Mul => l.mul(r)?,
        BinaryOperator::Div => l.div(r)?,
        BinaryOperator::Mod => l.rem(r)?,
        BinaryOperator::Eq => bool_or_null(l.sql_eq(r)),
        BinaryOperator::NotEq => bool_or_null(l.sql_eq(r).map(|b| !b)),
        BinaryOperator::Lt => bool_or_null(l.sql_cmp(r).map(|o| o == std::cmp::Ordering::Less)),
        BinaryOperator::LtEq => {
            bool_or_null(l.sql_cmp(r).map(|o| o != std::cmp::Ordering::Greater))
        }
        BinaryOperator::Gt => bool_or_null(l.sql_cmp(r).map(|o| o == std::cmp::Ordering::Greater)),
        BinaryOperator::GtEq => bool_or_null(l.sql_cmp(r).map(|o| o != std::cmp::Ordering::Less)),
        BinaryOperator::Like => like_value(l, r, false)?,
        BinaryOperator::NotLike => like_value(l, r, true)?,
        BinaryOperator::And
        | BinaryOperator::Or
        | BinaryOperator::IsNotDistinctFrom
        | BinaryOperator::IsDistinctFrom => unreachable!("handled above"),
    })
}

fn bool_or_null(b: Option<bool>) -> Value {
    match b {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

fn like_value(value: &Value, pattern: &Value, negated: bool) -> Result<Value, ExecError> {
    match (value.as_text(), pattern.as_text()) {
        (Some(v), Some(p)) => {
            let m = like_match(v, p);
            Ok(Value::Bool(if negated { !m } else { m }))
        }
        _ => Err(ExecError::Internal(format!(
            "LIKE requires text operands, got {} and {}",
            value.data_type(),
            pattern.data_type()
        ))),
    }
}

/// SQL `LIKE` pattern matching: `%` matches any sequence, `_` matches exactly one character.
pub fn like_match(value: &str, pattern: &str) -> bool {
    fn rec(v: &[char], p: &[char]) -> bool {
        match p.first() {
            None => v.is_empty(),
            Some('%') => {
                // Match zero or more characters.
                if rec(v, &p[1..]) {
                    return true;
                }
                (1..=v.len()).any(|i| rec(&v[i..], &p[1..]))
            }
            Some('_') => !v.is_empty() && rec(&v[1..], &p[1..]),
            Some(c) => v.first() == Some(c) && rec(&v[1..], &p[1..]),
        }
    }
    let v: Vec<char> = value.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&v, &p)
}

pub(crate) fn evaluate_function(func: ScalarFunction, args: &[Value]) -> Result<Value, ExecError> {
    use ScalarFunction::*;
    // COALESCE is the only function that accepts NULL arguments meaningfully.
    if func == Coalesce {
        return Ok(args.iter().find(|v| !v.is_null()).cloned().unwrap_or(Value::Null));
    }
    if args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    let arg = |i: usize| -> Result<&Value, ExecError> {
        args.get(i)
            .ok_or_else(|| ExecError::Internal(format!("{}: missing argument {i}", func.name())))
    };
    Ok(match func {
        Substring => {
            let s = arg(0)?.as_text().unwrap_or_default().to_string();
            let start = arg(1)?.as_i64().unwrap_or(1).max(1) as usize;
            let chars: Vec<char> = s.chars().collect();
            let from = (start - 1).min(chars.len());
            let taken: String = match args.get(2) {
                Some(len) => {
                    let n = len.as_i64().unwrap_or(0).max(0) as usize;
                    chars[from..].iter().take(n).collect()
                }
                None => chars[from..].iter().collect(),
            };
            Value::text(taken)
        }
        Upper => Value::text(arg(0)?.as_text().unwrap_or_default().to_uppercase()),
        Lower => Value::text(arg(0)?.as_text().unwrap_or_default().to_lowercase()),
        Length => Value::Int(arg(0)?.as_text().unwrap_or_default().chars().count() as i64),
        Abs => match arg(0)? {
            Value::Int(i) => Value::Int(i.abs()),
            Value::Float(f) => Value::Float(f.abs()),
            other => {
                return Err(ExecError::Internal(format!(
                    "abs: unsupported type {}",
                    other.data_type()
                )))
            }
        },
        Round => {
            let x = arg(0)?.as_f64().unwrap_or(0.0);
            let digits = args.get(1).and_then(Value::as_i64).unwrap_or(0);
            let factor = 10f64.powi(digits as i32);
            Value::Float((x * factor).round() / factor)
        }
        Floor => Value::Float(arg(0)?.as_f64().unwrap_or(0.0).floor()),
        Ceil => Value::Float(arg(0)?.as_f64().unwrap_or(0.0).ceil()),
        Coalesce => unreachable!("handled above"),
        Concat => {
            let mut out = String::new();
            for v in args {
                out.push_str(&v.to_string());
            }
            Value::text(out)
        }
        ExtractYear | ExtractMonth | ExtractDay => {
            let days = match arg(0)? {
                Value::Date(d) => *d,
                other => {
                    return Err(ExecError::Internal(format!(
                        "extract: expected DATE argument, got {}",
                        other.data_type()
                    )))
                }
            };
            let (y, m, d) = civil_from_days(days);
            match func {
                ExtractYear => Value::Int(y as i64),
                ExtractMonth => Value::Int(m as i64),
                _ => Value::Int(d as i64),
            }
        }
        DateAddYears | DateAddMonths | DateAddDays => {
            let days = match arg(0)? {
                Value::Date(d) => *d,
                other => {
                    return Err(ExecError::Internal(format!(
                        "date arithmetic: expected DATE argument, got {}",
                        other.data_type()
                    )))
                }
            };
            let n = arg(1)?.as_i64().unwrap_or(0) as i32;
            let result = match func {
                DateAddYears => add_months_to_days(days, n * 12),
                DateAddMonths => add_months_to_days(days, n),
                _ => days + n,
            };
            Value::Date(result)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::tuple;

    fn lit(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::literal(v)
    }

    #[test]
    fn three_valued_and_or() {
        let t = Tuple::empty();
        let null = ScalarExpr::Literal(Value::Null);
        // NULL AND FALSE = FALSE, NULL AND TRUE = NULL
        let e = ScalarExpr::binary(BinaryOperator::And, null.clone(), lit(false));
        assert_eq!(evaluate(&e, &t).unwrap(), Value::Bool(false));
        let e = ScalarExpr::binary(BinaryOperator::And, null.clone(), lit(true));
        assert_eq!(evaluate(&e, &t).unwrap(), Value::Null);
        // NULL OR TRUE = TRUE, NULL OR FALSE = NULL
        let e = ScalarExpr::binary(BinaryOperator::Or, null.clone(), lit(true));
        assert_eq!(evaluate(&e, &t).unwrap(), Value::Bool(true));
        let e = ScalarExpr::binary(BinaryOperator::Or, null, lit(false));
        assert_eq!(evaluate(&e, &t).unwrap(), Value::Null);
    }

    #[test]
    fn comparison_with_null_is_null_but_predicate_is_false() {
        let t = Tuple::empty();
        let e = lit(1i64).eq(ScalarExpr::Literal(Value::Null));
        assert_eq!(evaluate(&e, &t).unwrap(), Value::Null);
        assert!(!evaluate_predicate(&e, &t).unwrap());
    }

    #[test]
    fn null_safe_equality() {
        let t = Tuple::empty();
        let e = ScalarExpr::Literal(Value::Null).null_safe_eq(ScalarExpr::Literal(Value::Null));
        assert_eq!(evaluate(&e, &t).unwrap(), Value::Bool(true));
        let e = ScalarExpr::Literal(Value::Null).null_safe_eq(lit(1i64));
        assert_eq!(evaluate(&e, &t).unwrap(), Value::Bool(false));
    }

    #[test]
    fn column_references_read_the_tuple() {
        let t = tuple!["Merdies", 3];
        let e = ScalarExpr::column(1, "numempl").eq(lit(3i64));
        assert!(evaluate_predicate(&e, &t).unwrap());
        let e = ScalarExpr::column(0, "name").eq(lit("Joba"));
        assert!(!evaluate_predicate(&e, &t).unwrap());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("PROMO BURNISHED", "PROMO%"));
        assert!(like_match("anything", "%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("green almond", "%green%"));
        assert!(!like_match("", "_"));
        let t = Tuple::empty();
        let e = ScalarExpr::binary(BinaryOperator::Like, lit("MEDIUM POLISHED"), lit("MEDIUM%"));
        assert_eq!(evaluate(&e, &t).unwrap(), Value::Bool(true));
        let e = ScalarExpr::binary(BinaryOperator::NotLike, lit("MEDIUM POLISHED"), lit("MEDIUM%"));
        assert_eq!(evaluate(&e, &t).unwrap(), Value::Bool(false));
    }

    #[test]
    fn case_expression_simple_and_searched() {
        let t = tuple![2];
        // Searched CASE
        let searched = ScalarExpr::Case {
            operand: None,
            branches: vec![
                (ScalarExpr::column(0, "x").eq(lit(1i64)), lit("one")),
                (ScalarExpr::column(0, "x").eq(lit(2i64)), lit("two")),
            ],
            else_expr: Some(Box::new(lit("other"))),
        };
        assert_eq!(evaluate(&searched, &t).unwrap(), Value::text("two"));
        // Simple CASE
        let simple = ScalarExpr::Case {
            operand: Some(Box::new(ScalarExpr::column(0, "x"))),
            branches: vec![(lit(5i64), lit("five"))],
            else_expr: None,
        };
        assert_eq!(evaluate(&simple, &t).unwrap(), Value::Null);
    }

    #[test]
    fn in_list_three_valued() {
        let t = Tuple::empty();
        let e = ScalarExpr::InList {
            expr: Box::new(lit(2i64)),
            list: vec![lit(1i64), lit(2i64)],
            negated: false,
        };
        assert_eq!(evaluate(&e, &t).unwrap(), Value::Bool(true));
        let e = ScalarExpr::InList {
            expr: Box::new(lit(3i64)),
            list: vec![lit(1i64), ScalarExpr::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(evaluate(&e, &t).unwrap(), Value::Null);
        let e = ScalarExpr::InList {
            expr: Box::new(lit(3i64)),
            list: vec![lit(1i64), lit(2i64)],
            negated: true,
        };
        assert_eq!(evaluate(&e, &t).unwrap(), Value::Bool(true));
    }

    #[test]
    fn scalar_functions() {
        let t = Tuple::empty();
        let call = |func, args: Vec<ScalarExpr>| ScalarExpr::Function { func, args };
        assert_eq!(
            evaluate(
                &call(ScalarFunction::Substring, vec![lit("Customer#42"), lit(10i64), lit(2i64)]),
                &t
            )
            .unwrap(),
            Value::text("42")
        );
        assert_eq!(
            evaluate(&call(ScalarFunction::Upper, vec![lit("brass")]), &t).unwrap(),
            Value::text("BRASS")
        );
        assert_eq!(
            evaluate(
                &call(ScalarFunction::Coalesce, vec![ScalarExpr::Literal(Value::Null), lit(7i64)]),
                &t
            )
            .unwrap(),
            Value::Int(7)
        );
        let d = ScalarExpr::Literal(Value::date_from_str("1994-01-01").unwrap());
        let plus_year = call(ScalarFunction::DateAddYears, vec![d.clone(), lit(1i64)]);
        assert_eq!(evaluate(&plus_year, &t).unwrap().to_string(), "1995-01-01");
        let month = call(ScalarFunction::ExtractMonth, vec![d]);
        assert_eq!(evaluate(&month, &t).unwrap(), Value::Int(1));
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        let t = Tuple::empty();
        let e = ScalarExpr::binary(BinaryOperator::Mul, lit(6i64), lit(7i64));
        assert_eq!(evaluate(&e, &t).unwrap(), Value::Int(42));
        let e = ScalarExpr::binary(BinaryOperator::Div, lit(1i64), lit(0i64));
        assert!(evaluate(&e, &t).is_err());
    }
}
