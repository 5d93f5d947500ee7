//! Property-based tests for the algebra layer: value semantics, date arithmetic, schema
//! resolution and plan invariants that the rest of the system silently relies on.

use proptest::prelude::*;

use perm_algebra::value::{
    add_months_to_days, civil_from_days, days_from_civil, format_date, parse_date,
};
use perm_algebra::{Attribute, DataType, PlanBuilder, ScalarExpr, Schema, Value};

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-1000.0f64..1000.0).prop_map(Value::Float),
        "[a-z]{0,6}".prop_map(Value::text),
        (-20000i32..20000).prop_map(Value::Date),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Calendar conversion round-trips for every day in a ~170-year window.
    #[test]
    fn civil_date_round_trip(days in -30000i32..32000) {
        let (y, m, d) = civil_from_days(days);
        prop_assert_eq!(days_from_civil(y, m, d), days);
        let text = format_date(days);
        prop_assert_eq!(parse_date(&text).unwrap(), days);
    }

    /// Adding months is monotone and inverse-consistent at month granularity.
    #[test]
    fn add_months_is_monotone(days in -10000i32..10000, months in -48i32..48) {
        let shifted = add_months_to_days(days, months);
        if months > 0 {
            prop_assert!(shifted > days - 32, "adding months should not move far backwards");
        }
        if months < 0 {
            prop_assert!(shifted < days + 32);
        }
        // Shifting forward then backward lands within one month-length of the original day
        // (clamping at month ends loses at most a few days).
        let back = add_months_to_days(shifted, -months);
        prop_assert!((back - days).abs() <= 3, "round trip drifted: {days} -> {shifted} -> {back}");
    }

    /// Grouping equality (`Eq`) is reflexive and symmetric, and hashing is consistent with it.
    #[test]
    fn value_grouping_equality_laws(a in value_strategy(), b in value_strategy()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        prop_assert_eq!(&a, &a);
        prop_assert_eq!(a == b, b == a);
        if a == b {
            prop_assert_eq!(h(&a), h(&b));
        }
    }

    /// The total order used for sorting is antisymmetric and consistent with equality.
    #[test]
    fn value_total_order_consistency(a in value_strategy(), b in value_strategy()) {
        use std::cmp::Ordering;
        let ab = a.cmp(&b);
        let ba = b.cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        if ab == Ordering::Equal {
            prop_assert_eq!(&a, &b);
        }
    }

    /// SQL comparison is only defined when neither side is NULL, and then agrees with the total
    /// order for same-type operands.
    #[test]
    fn sql_cmp_agrees_with_total_order(a in value_strategy(), b in value_strategy()) {
        match a.sql_cmp(&b) {
            None => prop_assert!(
                a.is_null() || b.is_null() || a.data_type() != b.data_type(),
                "sql_cmp returned None for comparable operands {a:?} vs {b:?}"
            ),
            Some(ord) => prop_assert_eq!(ord, a.cmp(&b)),
        }
    }

    /// Schema resolution: every attribute can be found under its plain and qualified name after
    /// concatenation, as long as the plain name is unambiguous.
    #[test]
    fn schema_concat_resolution(n_left in 1usize..5, n_right in 1usize..5) {
        let left = Schema::new(
            (0..n_left).map(|i| Attribute::qualified("l", format!("a{i}"), DataType::Int)).collect(),
        );
        let right = Schema::new(
            (0..n_right).map(|i| Attribute::qualified("r", format!("b{i}"), DataType::Text)).collect(),
        );
        let combined = left.clone().concat(right.clone());
        prop_assert_eq!(combined.arity(), n_left + n_right);
        for i in 0..n_left {
            prop_assert_eq!(combined.resolve(&format!("l.a{i}")).unwrap(), i);
            prop_assert_eq!(combined.resolve(&format!("a{i}")).unwrap(), i);
        }
        for i in 0..n_right {
            prop_assert_eq!(combined.resolve(&format!("r.b{i}")).unwrap(), n_left + i);
        }
    }

    /// Expression column-shift composes additively and never loses referenced columns.
    #[test]
    fn expression_shift_composes(base in 0usize..5, shift_a in 0usize..7, shift_b in 0usize..7) {
        let expr = ScalarExpr::column(base, "c")
            .eq(ScalarExpr::literal(1i64))
            .and(ScalarExpr::column(base + 1, "d").not_eq(ScalarExpr::literal(2i64)));
        let once = expr.shift_columns(shift_a).shift_columns(shift_b);
        let combined = expr.shift_columns(shift_a + shift_b);
        prop_assert_eq!(once, combined);
    }

    /// Plans built from arbitrary small schemas validate and report consistent schema arity.
    #[test]
    fn plan_builder_projection_arity(cols in 1usize..6, keep in 1usize..6) {
        let keep = keep.min(cols);
        let schema = Schema::new(
            (0..cols).map(|i| Attribute::new(format!("c{i}"), DataType::Int)).collect(),
        );
        let builder = PlanBuilder::scan("t", schema, 0);
        let names: Vec<String> = (0..keep).map(|i| format!("c{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let plan = builder.project_columns(&name_refs).unwrap().build();
        plan.verify().unwrap();
        prop_assert_eq!(plan.schema().arity(), keep);
    }
}
