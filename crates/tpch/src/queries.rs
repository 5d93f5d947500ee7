//! The TPC-H benchmark queries supported by Perm and a seeded parameter generator (`qgen`
//! equivalent).
//!
//! The paper evaluates the fifteen TPC-H queries that do not require correlated sublinks:
//! 1, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16 and 19 (§V: "we can not compute the
//! provenance of queries 2, 4, 17, 18, 20, 21 and 22"). The templates below follow the official
//! query definitions with two pragmatic adaptations:
//!
//! * Q15's `revenue` view is inlined (the view body appears as a derived table and inside the
//!   scalar sublink) so the query is self-contained.
//! * Q19's join predicate `p_partkey = l_partkey`, which the official text repeats inside each
//!   disjunct, is factored out in front of the disjunction — a semantically identical form that
//!   lets a simple optimizer recognise the equi-join.
//!
//! Each template substitutes randomised parameters from a seeded RNG, mirroring the paper's use
//! of the TPC-H query generator to produce 100 parameter variants per query.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use perm_algebra::value::format_date;

use crate::dbgen::{
    NATIONS, REGIONS, SEGMENTS, SHIP_MODES, TYPE_SYLLABLE_1, TYPE_SYLLABLE_2, TYPE_SYLLABLE_3,
};

/// The TPC-H query numbers supported by the Perm prototype (and this reproduction).
pub fn supported_query_ids() -> Vec<u32> {
    vec![1, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19]
}

/// The TPC-H query numbers that require correlated sublinks and are therefore unsupported,
/// matching the paper.
pub fn unsupported_query_ids() -> Vec<u32> {
    vec![2, 4, 17, 18, 20, 21, 22]
}

/// A parameterised TPC-H query template.
#[derive(Debug, Clone)]
pub struct TpchQueryTemplate {
    /// The official query number.
    pub id: u32,
    /// A short description of what the query computes.
    pub description: &'static str,
}

impl TpchQueryTemplate {
    /// Generate the query text with parameters drawn from `rng`.
    pub fn generate(&self, rng: &mut SmallRng) -> String {
        query_sql(self.id, rng)
    }

    /// Generate the SQL-PLE provenance variant (`SELECT PROVENANCE ...`) of the query.
    pub fn generate_provenance(&self, rng: &mut SmallRng) -> String {
        add_provenance_keyword(&self.generate(rng))
    }
}

/// The template for a supported TPC-H query.
///
/// # Panics
/// Panics if `id` is not one of [`supported_query_ids`].
pub fn tpch_query(id: u32) -> TpchQueryTemplate {
    let description = match id {
        1 => "pricing summary report (aggregation over most of lineitem)",
        3 => "shipping priority (customer/orders/lineitem join, top-10)",
        5 => "local supplier volume (six-way join)",
        6 => "forecasting revenue change (selective aggregation)",
        7 => "volume shipping (two nation references, derived table)",
        8 => "national market share (eight-way join, CASE aggregation)",
        9 => "product type profit measure (six-way join, LIKE)",
        10 => "returned item reporting (top-20 customers)",
        11 => "important stock identification (HAVING with scalar sublink)",
        12 => "shipping modes and order priority (CASE aggregation)",
        13 => "customer distribution (outer join, nested aggregation)",
        14 => "promotion effect (CASE / LIKE aggregation)",
        15 => "top supplier (derived table + scalar sublink, view inlined)",
        16 => "parts/supplier relationship (NOT IN sublink, count distinct)",
        19 => "discounted revenue (disjunctive predicate)",
        other => panic!("TPC-H query {other} is not supported by Perm (correlated sublinks)"),
    };
    TpchQueryTemplate { id, description }
}

/// All supported query templates.
pub fn all_templates() -> Vec<TpchQueryTemplate> {
    supported_query_ids().into_iter().map(tpch_query).collect()
}

/// Deterministic RNG for a `(query, variant)` pair — the equivalent of running qgen with a seed.
pub fn variant_rng(query: u32, variant: u64) -> SmallRng {
    SmallRng::seed_from_u64(0x5EED_0000 + u64::from(query) * 1_000 + variant)
}

/// Insert the SQL-PLE `PROVENANCE` keyword into the outermost SELECT of a query.
pub fn add_provenance_keyword(sql: &str) -> String {
    let trimmed = sql.trim_start();
    let rest = &trimmed["SELECT".len()..];
    format!("SELECT PROVENANCE{rest}")
}

fn date_in(rng: &mut SmallRng, year_lo: i32, year_hi: i32) -> String {
    let year = rng.gen_range(year_lo..=year_hi);
    let month = rng.gen_range(1..=12u32);
    format_date(perm_algebra::value::days_from_civil(year, month, 1))
}

fn pick<'a>(rng: &mut SmallRng, items: &'a [&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

fn nation(rng: &mut SmallRng) -> &'static str {
    NATIONS[rng.gen_range(0..NATIONS.len())].0
}

fn query_sql(id: u32, rng: &mut SmallRng) -> String {
    match id {
        1 => {
            let delta = rng.gen_range(60..=120);
            format!(
                "SELECT l_returnflag, l_linestatus, \
                        sum(l_quantity) AS sum_qty, \
                        sum(l_extendedprice) AS sum_base_price, \
                        sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
                        sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, \
                        avg(l_quantity) AS avg_qty, \
                        avg(l_extendedprice) AS avg_price, \
                        avg(l_discount) AS avg_disc, \
                        count(*) AS count_order \
                 FROM lineitem \
                 WHERE l_shipdate <= date '1998-12-01' - interval '{delta}' day \
                 GROUP BY l_returnflag, l_linestatus \
                 ORDER BY l_returnflag, l_linestatus"
            )
        }
        3 => {
            let segment = pick(rng, &SEGMENTS);
            let date = date_in(rng, 1995, 1995);
            format!(
                "SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue, o_orderdate, o_shippriority \
                 FROM customer, orders, lineitem \
                 WHERE c_mktsegment = '{segment}' AND c_custkey = o_custkey AND l_orderkey = o_orderkey \
                   AND o_orderdate < date '{date}' AND l_shipdate > date '{date}' \
                 GROUP BY l_orderkey, o_orderdate, o_shippriority \
                 ORDER BY revenue DESC, o_orderdate LIMIT 10"
            )
        }
        5 => {
            let region = pick(rng, &REGIONS);
            let date = format!("{}-01-01", rng.gen_range(1993..=1997));
            format!(
                "SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue \
                 FROM customer, orders, lineitem, supplier, nation, region \
                 WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey \
                   AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
                   AND r_name = '{region}' AND o_orderdate >= date '{date}' \
                   AND o_orderdate < date '{date}' + interval '1' year \
                 GROUP BY n_name ORDER BY revenue DESC"
            )
        }
        6 => {
            let date = format!("{}-01-01", rng.gen_range(1993..=1997));
            let discount = rng.gen_range(2..=9) as f64 / 100.0;
            let quantity = rng.gen_range(24..=25);
            format!(
                "SELECT sum(l_extendedprice * l_discount) AS revenue \
                 FROM lineitem \
                 WHERE l_shipdate >= date '{date}' AND l_shipdate < date '{date}' + interval '1' year \
                   AND l_discount BETWEEN {lo:.2} AND {hi:.2} AND l_quantity < {quantity}",
                lo = discount - 0.01,
                hi = discount + 0.01
            )
        }
        7 => {
            let n1 = nation(rng);
            let mut n2 = nation(rng);
            while n2 == n1 {
                n2 = nation(rng);
            }
            format!(
                "SELECT supp_nation, cust_nation, l_year, sum(volume) AS revenue \
                 FROM (SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation, \
                              extract(year FROM l_shipdate) AS l_year, \
                              l_extendedprice * (1 - l_discount) AS volume \
                       FROM supplier, lineitem, orders, customer, nation n1, nation n2 \
                       WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND c_custkey = o_custkey \
                         AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey \
                         AND ((n1.n_name = '{n1}' AND n2.n_name = '{n2}') OR (n1.n_name = '{n2}' AND n2.n_name = '{n1}')) \
                         AND l_shipdate BETWEEN date '1995-01-01' AND date '1996-12-31') AS shipping \
                 GROUP BY supp_nation, cust_nation, l_year \
                 ORDER BY supp_nation, cust_nation, l_year"
            )
        }
        8 => {
            let nation_name = nation(rng);
            let region = pick(rng, &REGIONS);
            let p_type = format!(
                "{} {} {}",
                pick(rng, &TYPE_SYLLABLE_1),
                pick(rng, &TYPE_SYLLABLE_2),
                pick(rng, &TYPE_SYLLABLE_3)
            );
            format!(
                "SELECT o_year, sum(CASE WHEN nation = '{nation_name}' THEN volume ELSE 0 END) / sum(volume) AS mkt_share \
                 FROM (SELECT extract(year FROM o_orderdate) AS o_year, \
                              l_extendedprice * (1 - l_discount) AS volume, n2.n_name AS nation \
                       FROM part, supplier, lineitem, orders, customer, nation n1, nation n2, region \
                       WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey AND l_orderkey = o_orderkey \
                         AND o_custkey = c_custkey AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey \
                         AND r_name = '{region}' AND s_nationkey = n2.n_nationkey \
                         AND o_orderdate BETWEEN date '1995-01-01' AND date '1996-12-31' \
                         AND p_type = '{p_type}') AS all_nations \
                 GROUP BY o_year ORDER BY o_year"
            )
        }
        9 => {
            let color = pick(
                rng,
                &["green", "blue", "almond", "antique", "azure", "beige", "blush", "brown"],
            );
            format!(
                "SELECT nation, o_year, sum(amount) AS sum_profit \
                 FROM (SELECT n_name AS nation, extract(year FROM o_orderdate) AS o_year, \
                              l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity AS amount \
                       FROM part, supplier, lineitem, partsupp, orders, nation \
                       WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey AND ps_partkey = l_partkey \
                         AND p_partkey = l_partkey AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey \
                         AND p_name LIKE '%{color}%') AS profit \
                 GROUP BY nation, o_year ORDER BY nation, o_year DESC"
            )
        }
        10 => {
            let date = format!("{}-0{}-01", rng.gen_range(1993..=1994), rng.gen_range(1..=9));
            format!(
                "SELECT c_custkey, c_name, sum(l_extendedprice * (1 - l_discount)) AS revenue, \
                        c_acctbal, n_name, c_address, c_phone, c_comment \
                 FROM customer, orders, lineitem, nation \
                 WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
                   AND o_orderdate >= date '{date}' AND o_orderdate < date '{date}' + interval '3' month \
                   AND l_returnflag = 'R' AND c_nationkey = n_nationkey \
                 GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment \
                 ORDER BY revenue DESC LIMIT 20"
            )
        }
        11 => {
            let nation_name = nation(rng);
            let fraction = 0.0001;
            format!(
                "SELECT ps_partkey, sum(ps_supplycost * ps_availqty) AS part_value \
                 FROM partsupp, supplier, nation \
                 WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = '{nation_name}' \
                 GROUP BY ps_partkey \
                 HAVING sum(ps_supplycost * ps_availqty) > \
                   (SELECT sum(ps_supplycost * ps_availqty) * {fraction} \
                    FROM partsupp, supplier, nation \
                    WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = '{nation_name}') \
                 ORDER BY part_value DESC"
            )
        }
        12 => {
            let m1 = pick(rng, &SHIP_MODES);
            let mut m2 = pick(rng, &SHIP_MODES);
            while m2 == m1 {
                m2 = pick(rng, &SHIP_MODES);
            }
            let date = format!("{}-01-01", rng.gen_range(1993..=1997));
            format!(
                "SELECT l_shipmode, \
                        sum(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) AS high_line_count, \
                        sum(CASE WHEN o_orderpriority <> '1-URGENT' AND o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END) AS low_line_count \
                 FROM orders, lineitem \
                 WHERE o_orderkey = l_orderkey AND l_shipmode IN ('{m1}', '{m2}') \
                   AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate \
                   AND l_receiptdate >= date '{date}' AND l_receiptdate < date '{date}' + interval '1' year \
                 GROUP BY l_shipmode ORDER BY l_shipmode"
            )
        }
        13 => {
            let word1 = pick(rng, &["special", "pending", "unusual", "express"]);
            let word2 = pick(rng, &["packages", "requests", "accounts", "deposits"]);
            format!(
                "SELECT c_count, count(*) AS custdist \
                 FROM (SELECT c_custkey, count(o_orderkey) AS c_count \
                       FROM customer LEFT OUTER JOIN orders \
                         ON c_custkey = o_custkey AND o_comment NOT LIKE '%{word1}%{word2}%' \
                       GROUP BY c_custkey) AS c_orders \
                 GROUP BY c_count ORDER BY custdist DESC, c_count DESC"
            )
        }
        14 => {
            let date = format!("{}-0{}-01", rng.gen_range(1993..=1997), rng.gen_range(1..=9));
            format!(
                "SELECT 100.00 * sum(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (1 - l_discount) ELSE 0 END) \
                        / sum(l_extendedprice * (1 - l_discount)) AS promo_revenue \
                 FROM lineitem, part \
                 WHERE l_partkey = p_partkey AND l_shipdate >= date '{date}' \
                   AND l_shipdate < date '{date}' + interval '1' month"
            )
        }
        15 => {
            let date = format!("{}-0{}-01", rng.gen_range(1993..=1997), rng.gen_range(1..=9));
            let revenue_body = format!(
                "SELECT l_suppkey AS supplier_no, sum(l_extendedprice * (1 - l_discount)) AS total_revenue \
                 FROM lineitem \
                 WHERE l_shipdate >= date '{date}' AND l_shipdate < date '{date}' + interval '3' month \
                 GROUP BY l_suppkey"
            );
            format!(
                "SELECT s_suppkey, s_name, s_address, s_phone, total_revenue \
                 FROM supplier, ({revenue_body}) AS revenue \
                 WHERE s_suppkey = supplier_no AND total_revenue = \
                   (SELECT max(total_revenue) FROM ({revenue_body}) AS revenue_inner) \
                 ORDER BY s_suppkey"
            )
        }
        16 => {
            let brand = format!("Brand#{}{}", rng.gen_range(1..=5), rng.gen_range(1..=5));
            let p_type = format!("{} {}", pick(rng, &TYPE_SYLLABLE_1), pick(rng, &TYPE_SYLLABLE_2));
            let mut sizes: Vec<String> = Vec::new();
            while sizes.len() < 8 {
                let s = rng.gen_range(1..=50).to_string();
                if !sizes.contains(&s) {
                    sizes.push(s);
                }
            }
            format!(
                "SELECT p_brand, p_type, p_size, count(DISTINCT ps_suppkey) AS supplier_cnt \
                 FROM partsupp, part \
                 WHERE p_partkey = ps_partkey AND p_brand <> '{brand}' AND p_type NOT LIKE '{p_type}%' \
                   AND p_size IN ({sizes}) \
                   AND ps_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_comment LIKE '%Customer%Complaints%') \
                 GROUP BY p_brand, p_type, p_size \
                 ORDER BY supplier_cnt DESC, p_brand, p_type, p_size",
                sizes = sizes.join(", ")
            )
        }
        19 => {
            let b1 = format!("Brand#{}{}", rng.gen_range(1..=5), rng.gen_range(1..=5));
            let b2 = format!("Brand#{}{}", rng.gen_range(1..=5), rng.gen_range(1..=5));
            let b3 = format!("Brand#{}{}", rng.gen_range(1..=5), rng.gen_range(1..=5));
            let q1 = rng.gen_range(1..=10);
            let q2 = rng.gen_range(10..=20);
            let q3 = rng.gen_range(20..=30);
            format!(
                "SELECT sum(l_extendedprice * (1 - l_discount)) AS revenue \
                 FROM lineitem, part \
                 WHERE p_partkey = l_partkey AND l_shipinstruct = 'DELIVER IN PERSON' \
                   AND l_shipmode IN ('AIR', 'REG AIR') \
                   AND ((p_brand = '{b1}' AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG') \
                         AND l_quantity >= {q1} AND l_quantity <= {q1} + 10 AND p_size BETWEEN 1 AND 5) \
                     OR (p_brand = '{b2}' AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK') \
                         AND l_quantity >= {q2} AND l_quantity <= {q2} + 10 AND p_size BETWEEN 1 AND 10) \
                     OR (p_brand = '{b3}' AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG') \
                         AND l_quantity >= {q3} AND l_quantity <= {q3} + 10 AND p_size BETWEEN 1 AND 15))"
            )
        }
        other => panic!("TPC-H query {other} is not supported"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbgen::{generate_catalog, TpchScale};
    use perm_core::PermDb;

    #[test]
    fn fifteen_supported_and_seven_unsupported_queries() {
        assert_eq!(supported_query_ids().len(), 15);
        assert_eq!(unsupported_query_ids().len(), 7);
        let mut all: Vec<u32> = supported_query_ids();
        all.extend(unsupported_query_ids());
        all.sort_unstable();
        assert_eq!(all, (1..=22).collect::<Vec<_>>());
    }

    #[test]
    fn templates_generate_deterministic_sql() {
        for id in supported_query_ids() {
            let a = tpch_query(id).generate(&mut variant_rng(id, 0));
            let b = tpch_query(id).generate(&mut variant_rng(id, 0));
            assert_eq!(a, b, "query {id} must be deterministic for a fixed variant");
            let c = tpch_query(id).generate(&mut variant_rng(id, 1));
            // Different variants usually differ (Q1 only varies a number, so check containment
            // of the SELECT keyword as a minimum).
            assert!(c.starts_with("SELECT"));
        }
    }

    #[test]
    fn provenance_variant_adds_the_keyword_to_the_outer_select_only() {
        let sql = tpch_query(13).generate(&mut variant_rng(13, 0));
        let prov = add_provenance_keyword(&sql);
        assert!(prov.starts_with("SELECT PROVENANCE"));
        assert_eq!(prov.matches("PROVENANCE").count(), 1);
    }

    #[test]
    fn all_supported_queries_parse_analyze_and_execute_at_tiny_scale() {
        let catalog = generate_catalog(TpchScale::test(), 11);
        let db = PermDb::with_catalog(catalog, Default::default());
        for id in supported_query_ids() {
            let sql = tpch_query(id).generate(&mut variant_rng(id, 0));
            let result = db.execute_sql(&sql);
            assert!(result.is_ok(), "query {id} failed: {:?}\nSQL: {sql}", result.err());
        }
    }

    #[test]
    fn all_supported_queries_compute_provenance_at_tiny_scale() {
        let catalog = generate_catalog(TpchScale::test(), 11);
        let db = PermDb::with_catalog(catalog, Default::default());
        for id in supported_query_ids() {
            let sql = tpch_query(id).generate_provenance(&mut variant_rng(id, 0));
            let result = db.execute_sql(&sql);
            assert!(
                result.is_ok(),
                "provenance of query {id} failed: {:?}\nSQL: {sql}",
                result.err()
            );
            let relation = result.unwrap();
            assert!(
                !relation.schema().provenance_indices().is_empty(),
                "provenance of query {id} should expose provenance attributes"
            );
        }
    }
}
