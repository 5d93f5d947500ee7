//! Seeded workload generation: the program under test only ever sees the SQL produced here.
//!
//! Every workload is an endless sequence of fixed-size *blocks*. A block contains each of the
//! workload's operation shapes exactly once, in a seeded order, and is a pure function of
//! `(seed, block index)`. The measured run counts whole blocks only, so every run of a workload
//! carries the same mix of cheap and expensive operations and its throughput and percentiles
//! do not depend on where the window happened to cut the sequence.

use perm_tpch::queries::{add_provenance_keyword, tpch_query, variant_rng};
use perm_tpch::TpchScale;

/// The TPC-H queries of `tpch_prov_stream`, each sent normal and `PROVENANCE`.
const TPCH_QUERY_IDS: [u32; 5] = [3, 7, 11, 12, 15];
/// Parameter variant of the TPC-H texts: the one `BENCH_tpch.json` measures. It is fixed, and
/// so is [`CATALOG_SEED`], because what a TPC-H query costs depends on both (Q11 returns anything
/// from no row to 25 000 depending on the nation drawn): with either drawn from `--seed`, two
/// seeds would be two different workloads. The seed orders the operations.
const TPCH_VARIANT: u64 = 0;
/// Seed of the generated TPC-H data, for every workload.
pub const CATALOG_SEED: u64 = 42;
/// fig13 SPJ shapes: number of leaf subqueries.
const SPJ_SHAPES: std::ops::RangeInclusive<usize> = 1..=6;
/// fig12 set-operation shapes: number of set operators.
const SETOP_SHAPES: std::ops::RangeInclusive<usize> = 1..=4;
/// Literal draws per (shape, normal/provenance) in `spj_point`'s pool: 6 x 2 x 4 = 48 texts,
/// which fits the engine's 128-entry plan cache.
const POOL_DRAWS: usize = 4;
/// `$1` values each prepared statement is executed with.
const PARAM_DRAWS: usize = 4;
/// Leaf range starts of one query lie this close together, and leaf ranges are at least this
/// wide plus one, so the leaves always overlap and every SPJ result is non-empty.
const LEAF_SPREAD: u64 = 8;
/// Set-operation leaves are `LEAF_SPREAD + 1 ..= LEAF_SPREAD + SETOP_WIDTHS` keys wide. They are
/// kept narrow because the provenance of `UNION ALL` over overlapping ranges joins every copy of
/// a key back to every leaf that holds it: five fig12-wide leaves return thousands of rows, and
/// `compile_cold` is to be about compiling.
const SETOP_WIDTHS: u64 = 8;
/// Table the `mixed_rw` writer overwrites (the paper's stored provenance).
pub const SCRATCH_TABLE: &str = "prov_scratch";
/// Interval of the `mixed_rw` open-loop writer.
pub const WRITE_INTERVAL_MS: u64 = 200;
/// In-process passes have no clock to schedule the writer by: one write per this many reads.
pub const READS_PER_WRITE: usize = 16;

/// A workload, by its final name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SpjPoint,
    CompileCold,
    TpchProvStream,
    MixedRw,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::SpjPoint, Workload::CompileCold, Workload::TpchProvStream, Workload::MixedRw];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SpjPoint => "spj_point",
            Workload::CompileCold => "compile_cold",
            Workload::TpchProvStream => "tpch_prov_stream",
            Workload::MixedRw => "mixed_rw",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Do this workload's plans stay cached, so that it is warmed with its whole pool?
    pub fn cached(self) -> bool {
        self != Workload::CompileCold
    }

    /// Operations the traced pass replays (400 / 400 / 60 / 400 in the issue's order).
    pub fn traced_ops(self) -> usize {
        match self {
            Workload::TpchProvStream => 60,
            _ => 400,
        }
    }
}

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed (`stream` and `index` keep blocks,
    /// writes and pools independent of each other).
    fn for_stream(seed: u64, stream: u64, index: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mixed = rng.next_u64() ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
        Rng(mixed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i as u64) as usize);
        }
    }
}

/// What kind of request an operation is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// `query <sql>`.
    Query,
    /// `exec <name> (<param>)` of a statement prepared at set-up.
    Exec { name: String, param: i64 },
    /// `query SELECT PROVENANCE ... INTO prov_scratch ...` (the `mixed_rw` writer).
    Write,
}

/// One operation: the wire request, and the literal SQL it is equivalent to (what the oracle
/// and the in-process passes run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub sql: String,
    pub provenance: bool,
}

impl Op {
    fn query(sql: String, provenance: bool) -> Op {
        Op { kind: OpKind::Query, sql, provenance }
    }

    /// The request frame `Client::send` is given.
    pub fn request(&self) -> String {
        match &self.kind {
            OpKind::Query | OpKind::Write => format!("query {}", self.sql),
            OpKind::Exec { name, param } => format!("exec {name} ({param})"),
        }
    }
}

/// A statement prepared at set-up: `$1` is the start of the first leaf's key range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prepared {
    pub name: String,
    pub sql: String,
    leaves: Vec<(u64, u64)>,
    params: Vec<i64>,
}

/// One leaf of the artificial queries: a key-range selection on `part` (fig12/fig13).
fn leaf_sql(lo: &str, hi: u64) -> String {
    format!("SELECT p_partkey, p_size FROM part WHERE p_partkey BETWEEN {lo} AND {hi}")
}

/// A fig13 select-project-join query over `leaves` (`(lo, hi)` key ranges), consecutive leaves
/// equi-joined on `p_partkey`. `first_lo` replaces the first leaf's range start (`$1`, or the
/// value bound to it).
fn spj_sql(
    leaves: &[(u64, u64)],
    provenance: bool,
    into: Option<&str>,
    first_lo: Option<&str>,
) -> String {
    let from: Vec<String> = leaves
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi))| {
            let lo = first_lo.filter(|_| i == 0).map_or(lo.to_string(), str::to_string);
            format!("({}) AS s{i}", leaf_sql(&lo, hi))
        })
        .collect();
    let joins: Vec<String> =
        (1..leaves.len()).map(|i| format!("s{}.p_partkey = s{i}.p_partkey", i - 1)).collect();
    let mut sql = String::from("SELECT ");
    if provenance {
        sql.push_str("PROVENANCE ");
    }
    sql.push_str("s0.p_partkey, s0.p_size ");
    if let Some(table) = into {
        sql.push_str(&format!("INTO {table} "));
    }
    sql.push_str(&format!("FROM {}", from.join(", ")));
    if !joins.is_empty() {
        sql.push_str(&format!(" WHERE {}", joins.join(" AND ")));
    }
    sql
}

/// A fig12 set-operation query: `leaves` key-range selections combined by `UNION ALL` and
/// `INTERSECT ALL` in turn (fig12 draws the operators; a fixed pattern keeps what one shape
/// costs the same from block to block and from seed to seed).
fn setop_sql(leaves: &[(u64, u64)], provenance: bool) -> String {
    let mut sql = String::new();
    for (i, &(lo, hi)) in leaves.iter().enumerate() {
        if i > 0 {
            sql.push_str(if i % 2 == 1 { " UNION ALL " } else { " INTERSECT ALL " });
        }
        sql.push_str(&leaf_sql(&lo.to_string(), hi));
    }
    if provenance {
        sql = add_provenance_keyword(&sql);
    }
    sql
}

/// Generates a workload's statements from the seed.
#[derive(Debug, Clone)]
pub struct Generator {
    workload: Workload,
    seed: u64,
    /// Rows of `part` at the fixed scale; bounds every key range.
    parts: u64,
    /// `spj_point` / `mixed_rw`: `[shape][provenance][draw]` query texts.
    spj_pool: Vec<[Vec<String>; 2]>,
    /// `tpch_prov_stream`: the ten cached texts.
    tpch_pool: Vec<Op>,
    prepared: Vec<Prepared>,
}

/// Stream identifiers for [`Rng::for_stream`].
mod stream {
    pub const POOL: u64 = 1;
    pub const BLOCK: u64 = 2;
    pub const WRITE: u64 = 3;
    pub const COLD: u64 = 4;
}

impl Generator {
    pub fn new(workload: Workload, seed: u64) -> Generator {
        let parts = TpchScale::small().parts() as u64;
        let mut generator = Generator {
            workload,
            seed,
            parts,
            spj_pool: Vec::new(),
            tpch_pool: Vec::new(),
            prepared: Vec::new(),
        };
        match workload {
            Workload::SpjPoint | Workload::MixedRw => generator.build_spj_pool(),
            Workload::TpchProvStream => {
                for id in TPCH_QUERY_IDS {
                    let normal = tpch_query(id).generate(&mut variant_rng(id, TPCH_VARIANT));
                    generator.tpch_pool.push(Op::query(add_provenance_keyword(&normal), true));
                    generator.tpch_pool.push(Op::query(normal, false));
                }
            }
            Workload::CompileCold => {}
        }
        generator
    }

    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Overlapping key ranges for `n` leaves: the first starts at one of [`starts`]
    /// (Generator::starts) keys, the others within [`LEAF_SPREAD`] after it, and each is
    /// `LEAF_SPREAD + 1` plus one of `widths` keys wide. `digit(radix)` supplies each choice as
    /// a number below `radix`.
    fn leaves_from(
        &self,
        n: usize,
        widths: u64,
        digit: &mut dyn FnMut(u64) -> u64,
    ) -> Vec<(u64, u64)> {
        let base = digit(self.starts()) + 1;
        (0..n)
            .map(|i| {
                let lo = if i == 0 { base } else { base + digit(LEAF_SPREAD + 1) };
                (lo, lo + LEAF_SPREAD + 1 + digit(widths))
            })
            .collect()
    }

    /// Range starts that keep the widest leaf inside `part`.
    fn starts(&self) -> u64 {
        self.parts - self.parts / 4 - LEAF_SPREAD
    }

    /// Widths of SPJ leaves: up to a quarter of `part`, as in fig13.
    fn spj_widths(&self) -> u64 {
        self.parts / 4 - LEAF_SPREAD
    }

    /// Randomly drawn SPJ leaves.
    fn leaves(&self, rng: &mut Rng, n: usize) -> Vec<(u64, u64)> {
        self.leaves_from(n, self.spj_widths(), &mut |radix| rng.range(0, radix - 1))
    }

    fn build_spj_pool(&mut self) {
        let mut rng = Rng::for_stream(self.seed, stream::POOL, 0);
        for n in SPJ_SHAPES {
            let mut texts = [Vec::new(), Vec::new()];
            for _ in 0..POOL_DRAWS {
                let leaves = self.leaves(&mut rng, n);
                texts[0].push(spj_sql(&leaves, false, None, None));
                texts[1].push(spj_sql(&leaves, true, None, None));
            }
            self.spj_pool.push(texts);
            let leaves = self.leaves(&mut rng, n);
            let start = leaves[0].0;
            let params =
                (0..PARAM_DRAWS).map(|_| (start + rng.range(0, LEAF_SPREAD)) as i64).collect();
            self.prepared.push(Prepared {
                name: format!("p{n}"),
                sql: spj_sql(&leaves, true, None, Some("$1")),
                leaves,
                params,
            });
        }
    }

    /// Statements to `prepare` on each reader connection at set-up.
    pub fn prepared(&self) -> &[Prepared] {
        &self.prepared
    }

    /// Operations run once at set-up so caches are full before timing. Cached workloads send
    /// every pooled text (prepared statements are planned by `prepare` itself); `compile_cold`
    /// sends one block that the run itself never reaches.
    pub fn warm_pool(&self) -> Vec<Op> {
        match self.workload {
            Workload::CompileCold => self.block(self.cold_period() - 1),
            Workload::TpchProvStream => self.tpch_pool.clone(),
            Workload::SpjPoint | Workload::MixedRw => {
                let mut ops = Vec::new();
                for texts in &self.spj_pool {
                    for (provenance, variants) in texts.iter().enumerate() {
                        ops.extend(variants.iter().map(|t| Op::query(t.clone(), provenance == 1)));
                    }
                }
                ops
            }
        }
    }

    fn exec_op(&self, statement: &Prepared, param: i64) -> Op {
        Op {
            kind: OpKind::Exec { name: statement.name.clone(), param },
            sql: spj_sql(&statement.leaves, true, None, Some(&param.to_string())),
            provenance: true,
        }
    }

    /// Operations per block.
    pub fn block_len(&self) -> usize {
        match self.workload {
            // 12 pooled queries (each shape normal and PROVENANCE) + every 4th op an exec.
            Workload::SpjPoint | Workload::MixedRw => 16,
            Workload::CompileCold => 2 * (SPJ_SHAPES.count() + SETOP_SHAPES.count()),
            Workload::TpchProvStream => self.tpch_pool.len(),
        }
    }

    /// The `index`-th block of the closed-loop sequence.
    pub fn block(&self, index: u64) -> Vec<Op> {
        let mut rng = Rng::for_stream(self.seed, stream::BLOCK, index);
        match self.workload {
            Workload::TpchProvStream => {
                let mut ops = self.tpch_pool.clone();
                rng.shuffle(&mut ops);
                ops
            }
            Workload::SpjPoint | Workload::MixedRw => {
                let mut queries: Vec<Op> = Vec::new();
                for texts in &self.spj_pool {
                    for (provenance, variants) in texts.iter().enumerate() {
                        let draw = rng.range(0, variants.len() as u64 - 1) as usize;
                        queries.push(Op::query(variants[draw].clone(), provenance == 1));
                    }
                }
                rng.shuffle(&mut queries);
                let mut ops = Vec::with_capacity(self.block_len());
                for (i, query) in queries.into_iter().enumerate() {
                    ops.push(query);
                    if i % 3 == 2 {
                        let statement =
                            &self.prepared[rng.range(0, self.prepared.len() as u64 - 1) as usize];
                        let param = statement.params[rng.range(0, PARAM_DRAWS as u64 - 1) as usize];
                        ops.push(self.exec_op(statement, param));
                    }
                }
                ops
            }
            Workload::CompileCold => {
                let mut ops = Vec::with_capacity(self.block_len());
                for n in SPJ_SHAPES {
                    let leaves = self.cold_leaves(&mut rng, index, n, self.spj_widths());
                    for provenance in [false, true] {
                        ops.push(Op::query(spj_sql(&leaves, provenance, None, None), provenance));
                    }
                }
                for n in SETOP_SHAPES {
                    let leaves = self.cold_leaves(&mut rng, index, n + 1, SETOP_WIDTHS);
                    for provenance in [false, true] {
                        ops.push(Op::query(setop_sql(&leaves, provenance), provenance));
                    }
                }
                rng.shuffle(&mut ops);
                ops
            }
        }
    }

    /// Number of blocks before `compile_cold` could repeat a text.
    fn cold_period(&self) -> u64 {
        self.starts() * self.spj_widths()
    }

    /// Leaves of a never-seen text. The block index goes through a seeded bijection of
    /// `0..cold_period()` and the result is spelled out, digit by digit, as the leading choices
    /// of [`leaves_from`](Generator::leaves_from); the choices left over when the digits run
    /// out are drawn from `rng`. Two blocks within one period therefore differ in a digit, and
    /// a shape's text cannot repeat.
    fn cold_leaves(&self, rng: &mut Rng, block: u64, n: usize, widths: u64) -> Vec<(u64, u64)> {
        let period = self.cold_period();
        let mut setup = Rng::for_stream(self.seed, stream::COLD, n as u64 * 100 + widths);
        let offset = setup.range(0, period - 1);
        let mut step = setup.range(1, period - 1) | 1;
        while gcd(step, period) != 1 {
            step += 2;
        }
        // Widened: `step * block` can exceed u64.
        let mut code = ((u128::from(step) * u128::from(block % period) + u128::from(offset))
            % u128::from(period)) as u64;
        // How many values the digits not yet taken can still tell apart.
        let mut unspent = period;
        self.leaves_from(n, widths, &mut |radix| {
            if unspent <= 1 {
                return rng.range(0, radix - 1);
            }
            let digit = code % radix;
            code /= radix;
            unspent = unspent.div_ceil(radix);
            digit
        })
    }

    /// The `index`-th statement of the `mixed_rw` writer: a seed-drawn SPJ shape whose
    /// provenance overwrites [`SCRATCH_TABLE`], so stored state stays bounded.
    pub fn write_op(&self, index: u64) -> Op {
        let mut rng = Rng::for_stream(self.seed, stream::WRITE, index);
        let n = rng.range(*SPJ_SHAPES.start() as u64, *SPJ_SHAPES.end() as u64) as usize;
        let leaves = self.leaves(&mut rng, n);
        Op {
            kind: OpKind::Write,
            sql: spj_sql(&leaves, true, Some(SCRATCH_TABLE), None),
            provenance: true,
        }
    }

    /// Is `op` in the class whose latency and throughput the end-to-end metrics report?
    /// `tpch_prov_stream` reports its five `PROVENANCE` texts: five equally frequent classes
    /// put the median inside the third and the 90th percentile inside the slowest, whereas ten
    /// would put both on a boundary between two queries. Writes are never primary.
    pub fn is_primary(&self, op: &Op) -> bool {
        match self.workload {
            Workload::TpchProvStream => op.provenance,
            _ => op.kind != OpKind::Write,
        }
    }

    /// The deterministic operation sequence of the in-process passes: the closed-loop blocks
    /// in order, with one writer statement after every [`READS_PER_WRITE`] reads on `mixed_rw`.
    pub fn replay(&self, count: usize) -> Vec<Op> {
        let mut ops = Vec::with_capacity(count + self.block_len());
        let mut block = 0u64;
        let mut writes = 0u64;
        while ops.len() < count {
            for op in self.block(block) {
                ops.push(op);
            }
            block += 1;
            if self.workload == Workload::MixedRw {
                debug_assert_eq!(self.block_len(), READS_PER_WRITE);
                ops.push(self.write_op(writes));
                writes += 1;
            }
        }
        ops.truncate(count);
        ops
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn op_list(workload: Workload, seed: u64, blocks: u64) -> Vec<String> {
        let generator = Generator::new(workload, seed);
        let mut out: Vec<String> = generator.warm_pool().iter().map(Op::request).collect();
        out.extend(generator.prepared().iter().map(|p| p.sql.clone()));
        for b in 0..blocks {
            out.extend(generator.block(b).iter().map(Op::request));
        }
        out.extend((0..blocks).map(|i| generator.write_op(i).request()));
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_op_list() {
        for workload in Workload::ALL {
            assert_eq!(op_list(workload, 42, 20), op_list(workload, 42, 20), "{workload:?}");
        }
    }

    #[test]
    fn different_seeds_give_different_literals() {
        for workload in Workload::ALL {
            assert_ne!(op_list(workload, 42, 20), op_list(workload, 7, 20), "{workload:?}");
        }
        // ... except on TPC-H, whose texts are fixed: there the seed only orders them.
        let texts = |seed| Generator::new(Workload::TpchProvStream, seed).warm_pool();
        assert_eq!(texts(42), texts(7));
        let spj = |seed| Generator::new(Workload::SpjPoint, seed).warm_pool();
        assert!(spj(42).iter().zip(spj(7)).all(|(a, b)| a.sql != b.sql));
    }

    #[test]
    fn compile_cold_never_repeats_a_text_within_10000_ops() {
        let generator = Generator::new(Workload::CompileCold, 42);
        let mut seen = HashSet::new();
        let mut ops = 0;
        for op in generator.warm_pool() {
            assert!(seen.insert(op.sql));
        }
        for block in 0.. {
            for op in generator.block(block) {
                assert!(seen.insert(op.sql.clone()), "repeated text in block {block}: {}", op.sql);
                ops += 1;
            }
            if ops >= 10_000 {
                break;
            }
        }
    }

    #[test]
    fn blocks_hold_every_shape_once() {
        let spj = Generator::new(Workload::SpjPoint, 42);
        assert_eq!(spj.warm_pool().len(), 48);
        for block in 0..10 {
            let ops = spj.block(block);
            assert_eq!(ops.len(), spj.block_len());
            for (i, op) in ops.iter().enumerate() {
                assert_eq!(matches!(op.kind, OpKind::Exec { .. }), i % 4 == 3, "every 4th op");
            }
            assert_eq!(ops.iter().filter(|op| op.provenance).count(), 6 + 4);
        }
        let tpch = Generator::new(Workload::TpchProvStream, 42);
        let pool: HashSet<String> = tpch.warm_pool().into_iter().map(|op| op.sql).collect();
        assert_eq!(pool.len(), 10);
        for block in 0..10 {
            let texts: HashSet<String> = tpch.block(block).into_iter().map(|op| op.sql).collect();
            assert_eq!(texts, pool);
        }
        let cold = Generator::new(Workload::CompileCold, 42);
        assert_eq!(cold.block(0).len(), 20);
    }

    #[test]
    fn exec_ops_inline_their_parameter() {
        let generator = Generator::new(Workload::SpjPoint, 42);
        let op = generator.block(0).into_iter().find(|op| op.kind != OpKind::Query).unwrap();
        let OpKind::Exec { name, param } = &op.kind else { panic!("not an exec: {op:?}") };
        let statement = generator.prepared().iter().find(|p| &p.name == name).unwrap();
        assert_eq!(statement.sql.replace("$1", &param.to_string()), op.sql);
        assert_eq!(op.request(), format!("exec {name} ({param})"));
    }

    #[test]
    fn replay_interleaves_one_write_per_block_on_mixed_rw() {
        let generator = Generator::new(Workload::MixedRw, 42);
        let ops = generator.replay(400);
        assert_eq!(ops.len(), 400);
        let writes = ops.iter().filter(|op| op.kind == OpKind::Write).count();
        assert_eq!(writes, 400 / (READS_PER_WRITE + 1));
        assert!(ops
            .iter()
            .filter(|op| op.kind == OpKind::Write)
            .all(|op| !generator.is_primary(op)));
        assert!(ops[READS_PER_WRITE].sql.contains("INTO prov_scratch"));
    }
}
