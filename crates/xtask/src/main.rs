//! `cargo xtask` — repo-local automation for the Perm workspace.
//!
//! The only subcommand today is `lint`: a source-level static-analysis pass enforcing
//! repo-specific rules that clippy cannot express (see [`lint`] for the rule catalogue and
//! `docs/ANALYZER.md` for the rationale). CI runs it as a blocking job.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => match lint::run() {
            Ok(0) => {
                println!("xtask lint: clean");
                ExitCode::SUCCESS
            }
            Ok(n) => {
                eprintln!("xtask lint: {n} violation(s)");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("xtask lint: {e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("usage: cargo xtask lint");
            ExitCode::FAILURE
        }
    }
}

/// A single rule violation: file, line and message.
struct Violation {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule, self.message)
    }
}

mod lint {
    use super::*;

    /// Rule identifiers, usable in `// xtask-allow: <rule>` escapes on the offending line or
    /// the line directly above it.
    const RULE_NO_EXPECT: &str = "no-expect";
    const RULE_KERNEL_ARITH: &str = "kernel-unchecked-arith";
    const RULE_INSTANT_IN_LOOP: &str = "instant-in-loop";
    const RULE_FORBID_UNSAFE: &str = "forbid-unsafe";
    const RULE_DENY_UNWRAP: &str = "deny-unwrap-header";
    const RULE_LISTED_FILE: &str = "listed-file-missing";
    const RULE_ROW_VIEW: &str = "row-view-in-served-path";
    const RULE_BOXED_TEXT: &str = "boxed-text-column";
    const RULE_THREAD: &str = "thread-in-served-path";
    const RULE_OWNED_NAME: &str = "owned-name-in-plan";

    /// Vectorized kernel files: integer arithmetic here must go through checked kernels
    /// (`i64::checked_add` & friends), never plain `+`/`-`/`*` closures or `wrapping_*`.
    const KERNEL_FILES: &[&str] = &["crates/exec/src/vector.rs", "crates/algebra/src/chunk.rs"];

    /// Hot-path files: `Instant::now()` must not appear lexically inside a `for`/`while`/
    /// `loop` body (deadline checks read the clock once per chunk/morsel in straight-line
    /// helpers, never per row).
    const HOT_PATH_FILES: &[&str] = &[
        "crates/exec/src/vector.rs",
        "crates/exec/src/executor.rs",
        "crates/exec/src/eval.rs",
        "crates/exec/src/parallel.rs",
        "crates/exec/src/pull.rs",
        "crates/algebra/src/chunk.rs",
        "crates/algebra/src/keys.rs",
    ];

    /// The served path (directories or single files): a query is answered from chunks, so the
    /// relation-to-rows adapters `Relation::tuples` / `into_tuples` must not be called here.
    const SERVED_PATH: &[&str] =
        &["crates/exec/src", "crates/service/src", "crates/storage/src/catalog.rs"];

    /// The row-at-a-time oracle: inside [`SERVED_PATH`] but exempt from `row-view-in-served-path`.
    const ORACLE_FILES: &[&str] = &["crates/exec/src/reference.rs"];

    /// The compiled evaluator: expressions and join conditions run column-wise only, so these
    /// files must not box a row either (`.tuple_at(` / `Tuple::new(`) — the way back to a
    /// per-row fallback.
    const EVALUATOR_FILES: &[&str] = &["crates/exec/src/vector.rs", "crates/exec/src/compile.rs"];

    /// The engine's operators: keys are hashed and compared in their columns, so inside a
    /// `for`/`while`/`loop` body — a per-row loop — these files must not box a value or a row
    /// (`.value(` / `Tuple::new(`).
    const ENGINE_FILES: &[&str] = &["crates/exec/src/parallel.rs", "crates/exec/src/pull.rs"];

    /// Where a statement is planned and its result streamed: a query runs on the thread that
    /// pulls its stream and on the engine's worker pool, so these files must not start a
    /// thread of their own (`thread::spawn` / `thread::Builder`) — a thread per query.
    const THREADLESS_FILES: &[&str] = &[
        "crates/service/src/stream.rs",
        "crates/service/src/session.rs",
        "crates/service/src/engine.rs",
    ];

    /// The plan IR: a name held by a schema, an expression or a plan node is a shared
    /// `perm_algebra::Name`, so a field here must not own a `String`.
    const PLAN_IR_FILES: &[&str] = &[
        "crates/algebra/src/schema.rs",
        "crates/algebra/src/expr.rs",
        "crates/algebra/src/plan.rs",
    ];

    /// Run every rule over the workspace; returns the violation count.
    pub fn run() -> Result<usize, std::io::Error> {
        let root = workspace_root()?;
        let mut violations = Vec::new();

        let sources = workspace_sources(&root)?;
        let scanned: Vec<&Path> =
            sources.iter().map(|file| file.strip_prefix(&root).unwrap_or(file)).collect();
        check_listed_files(&scanned, &mut violations);
        for (file, &rel) in sources.iter().zip(&scanned) {
            let text = std::fs::read_to_string(file)?;
            scan_expect(rel, &text, &mut violations);
            if rel.starts_with("crates") {
                scan_boxed_text(rel, &text, &mut violations);
            }
            if KERNEL_FILES.iter().any(|k| rel == Path::new(k)) {
                scan_kernel_arith(rel, &text, &mut violations);
            }
            if HOT_PATH_FILES.iter().any(|k| rel == Path::new(k)) {
                scan_instant_in_loop(rel, &text, &mut violations);
            }
            if SERVED_PATH.iter().any(|k| rel.starts_with(k))
                && !ORACLE_FILES.iter().any(|k| rel == Path::new(k))
            {
                scan_row_view(rel, &text, &mut violations);
            }
            if THREADLESS_FILES.iter().any(|k| rel == Path::new(k)) {
                scan_thread_spawn(rel, &text, &mut violations);
            }
            if PLAN_IR_FILES.iter().any(|k| rel == Path::new(k)) {
                scan_owned_name(rel, &text, &mut violations);
            }
        }
        for file in crate_roots(&root)? {
            let text = std::fs::read_to_string(&file)?;
            let rel = file.strip_prefix(&root).unwrap_or(&file).to_path_buf();
            scan_crate_root_headers(&rel, &text, &mut violations);
        }

        for v in &violations {
            eprintln!("{v}");
        }
        Ok(violations.len())
    }

    /// Rule `listed-file-missing`: every path in the rule scopes ([`KERNEL_FILES`],
    /// [`HOT_PATH_FILES`], [`SERVED_PATH`], [`ORACLE_FILES`], [`EVALUATOR_FILES`],
    /// [`ENGINE_FILES`], [`THREADLESS_FILES`], [`PLAN_IR_FILES`]) must be, or contain, one of
    /// the scanned sources.
    /// The per-file rules only run on listed paths, so a rename or delete would otherwise switch
    /// them off without a word.
    fn check_listed_files(scanned: &[&Path], out: &mut Vec<Violation>) {
        for (list, files) in [
            ("KERNEL_FILES", KERNEL_FILES),
            ("HOT_PATH_FILES", HOT_PATH_FILES),
            ("SERVED_PATH", SERVED_PATH),
            ("ORACLE_FILES", ORACLE_FILES),
            ("EVALUATOR_FILES", EVALUATOR_FILES),
            ("ENGINE_FILES", ENGINE_FILES),
            ("THREADLESS_FILES", THREADLESS_FILES),
            ("PLAN_IR_FILES", PLAN_IR_FILES),
        ] {
            for listed in files {
                if !scanned.iter().any(|p| p.starts_with(listed)) {
                    out.push(Violation {
                        file: PathBuf::from(listed),
                        line: 1,
                        rule: RULE_LISTED_FILE,
                        message: format!(
                            "listed in {list} but not among the workspace sources: update the list in crates/xtask/src/main.rs"
                        ),
                    });
                }
            }
        }
    }

    /// The workspace root: `cargo xtask` runs with the manifest dir of the xtask crate.
    fn workspace_root() -> Result<PathBuf, std::io::Error> {
        let manifest = std::env::var("CARGO_MANIFEST_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("."));
        // crates/xtask -> workspace root is two levels up.
        let root = manifest
            .ancestors()
            .find(|p| p.join("Cargo.toml").is_file() && p.join("crates").is_dir())
            .map(Path::to_path_buf)
            .unwrap_or(manifest);
        root.canonicalize()
    }

    /// All non-test Rust sources of the workspace's own crates: `src/` trees of the root
    /// package and every `crates/*` member. Vendored shims (`vendor/`), integration tests
    /// (`tests/`) and benches are out of scope.
    fn workspace_sources(root: &Path) -> Result<Vec<PathBuf>, std::io::Error> {
        let mut dirs = vec![root.join("src")];
        for entry in std::fs::read_dir(root.join("crates"))? {
            let dir = entry?.path().join("src");
            if dir.is_dir() {
                dirs.push(dir);
            }
        }
        let mut files = Vec::new();
        for dir in dirs {
            collect_rs(&dir, &mut files)?;
        }
        files.sort();
        Ok(files)
    }

    fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), std::io::Error> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                collect_rs(&path, out)?;
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
        Ok(())
    }

    /// Crate roots that must carry the safety headers: every `crates/*/src/lib.rs` or
    /// `crates/*/src/main.rs`, the facade `src/lib.rs` and the `src/bin/*.rs` binaries.
    fn crate_roots(root: &Path) -> Result<Vec<PathBuf>, std::io::Error> {
        let mut roots = vec![root.join("src/lib.rs")];
        if let Ok(bins) = std::fs::read_dir(root.join("src/bin")) {
            for entry in bins {
                let path = entry?.path();
                if path.extension().is_some_and(|e| e == "rs") {
                    roots.push(path);
                }
            }
        }
        for entry in std::fs::read_dir(root.join("crates"))? {
            let dir = entry?.path();
            for name in ["src/lib.rs", "src/main.rs"] {
                let candidate = dir.join(name);
                if candidate.is_file() {
                    roots.push(candidate);
                }
            }
        }
        roots.sort();
        Ok(roots)
    }

    /// Does `line` (or the line above it) carry an `// xtask-allow: <rule>` escape?
    fn allowed(lines: &[&str], idx: usize, rule: &str) -> bool {
        let marker = format!("xtask-allow: {rule}");
        lines[idx].contains(&marker)
            || (idx > 0
                && lines[idx - 1].trim_start().starts_with("//")
                && lines[idx - 1].contains(&marker))
    }

    /// Strip a trailing `// ...` line comment (naive: does not see through string literals
    /// containing `//`, which the workspace's sources avoid on matching lines).
    fn code_of(line: &str) -> &str {
        match line.find("//") {
            Some(pos) => &line[..pos],
            None => line,
        }
    }

    /// Tracks `#[cfg(test)] mod` regions by brace depth so in-file unit tests are exempt,
    /// mirroring clippy's `allow-unwrap-in-tests`.
    struct TestRegions {
        depth: i32,
        pending_cfg_test: bool,
        /// Brace depth at which the active test module was opened.
        region_start: Option<i32>,
    }

    impl TestRegions {
        fn new() -> TestRegions {
            TestRegions { depth: 0, pending_cfg_test: false, region_start: None }
        }

        /// Feed one line; returns whether the *line itself* is inside (or opens) a test region.
        fn observe(&mut self, line: &str) -> bool {
            let code = code_of(line);
            let trimmed = code.trim_start();
            if trimmed.starts_with("#[cfg(test)]") {
                self.pending_cfg_test = true;
            } else if self.pending_cfg_test && trimmed.starts_with("mod ") {
                if self.region_start.is_none() {
                    self.region_start = Some(self.depth);
                }
                self.pending_cfg_test = false;
            } else if !trimmed.is_empty() && !trimmed.starts_with("#[") {
                self.pending_cfg_test = false;
            }
            let in_region_before = self.region_start.is_some();
            for c in code.chars() {
                match c {
                    '{' => self.depth += 1,
                    '}' => {
                        self.depth -= 1;
                        if self.region_start.is_some_and(|start| self.depth <= start) {
                            self.region_start = None;
                        }
                    }
                    _ => {}
                }
            }
            in_region_before || self.region_start.is_some()
        }
    }

    /// Rule `no-expect`: no `.lock().unwrap()` and no `.expect(` outside tests. Clippy's
    /// `unwrap_used`/`expect_used` cover the general case per-crate; this rule is the
    /// workspace-wide backstop that cannot be switched off by editing one crate's attributes.
    fn scan_expect(file: &Path, text: &str, out: &mut Vec<Violation>) {
        // Patterns (and the messages quoting them) are built by concatenation so the linter
        // does not flag its own source. `.expect("` (with an opening string literal) is
        // `Option`/`Result::expect` — a bare `.expect(` would also match the SQL parser's
        // token-level `expect(TokenKind)` helper.
        let lock_unwrap: String = [".lock()", ".unwrap()"].concat();
        let expect: String = [".ex", "pect(\""].concat();
        let lines: Vec<&str> = text.lines().collect();
        let mut tests = TestRegions::new();
        for (i, line) in lines.iter().enumerate() {
            let in_test = tests.observe(line);
            if in_test {
                continue;
            }
            let code = code_of(line);
            if code.contains(&lock_unwrap) && !allowed(&lines, i, RULE_NO_EXPECT) {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: i + 1,
                    rule: RULE_NO_EXPECT,
                    message: format!(
                        "`{lock_unwrap}` outside tests: propagate poisoning or use parking_lot"
                    ),
                });
            }
            if code.contains(&expect) && !allowed(&lines, i, RULE_NO_EXPECT) {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: i + 1,
                    rule: RULE_NO_EXPECT,
                    message: format!(
                        "`{}...)` outside tests: return a structured error instead",
                        &expect
                    ),
                });
            }
        }
    }

    /// Rule `kernel-unchecked-arith`: vectorized integer kernels must use checked arithmetic.
    /// Flags `|x, y| x + y`-style closures on lines without a float marker, and any
    /// `wrapping_add`/`wrapping_sub`/`wrapping_mul`.
    fn scan_kernel_arith(file: &Path, text: &str, out: &mut Vec<Violation>) {
        let lines: Vec<&str> = text.lines().collect();
        let mut tests = TestRegions::new();
        for (i, line) in lines.iter().enumerate() {
            let in_test = tests.observe(line);
            if in_test {
                continue;
            }
            let code = code_of(line);
            let floaty = code.contains("f64") || code.contains("float");
            if !floaty && arith_closure(code) && !allowed(&lines, i, RULE_KERNEL_ARITH) {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: i + 1,
                    rule: RULE_KERNEL_ARITH,
                    message:
                        "unchecked integer arithmetic closure in a vectorized kernel: use i64::checked_* via the checked kernel helpers"
                            .into(),
                });
            }
            if ["wrapping_add", "wrapping_sub", "wrapping_mul"].iter().any(|w| code.contains(w))
                && !allowed(&lines, i, RULE_KERNEL_ARITH)
            {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: i + 1,
                    rule: RULE_KERNEL_ARITH,
                    message: "wrapping integer arithmetic in a vectorized kernel: overflow must be an error, never a silent wrap"
                        .into(),
                });
            }
        }
    }

    /// Matches two-argument closures computing bare `+`/`-`/`*` over their parameters,
    /// e.g. `|x, y| x + y` (the shape of an `arith_kernel` combiner).
    fn arith_closure(code: &str) -> bool {
        fn is_ident(t: &str) -> bool {
            let mut chars = t.chars();
            chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
        }
        let mut rest = code;
        while let Some(start) = rest.find('|') {
            let after_open = &rest[start + 1..];
            let Some(close) = after_open.find('|') else { break };
            let params: Vec<&str> = after_open[..close].split(',').map(str::trim).collect();
            let body = after_open[close + 1..].trim_start();
            if params.len() == 2 && params.iter().all(|p| is_ident(p)) {
                let body_end = body.find([',', ')', ';']).unwrap_or(body.len());
                let tokens: Vec<&str> = body[..body_end].split_whitespace().collect();
                if let [a, op, b] = tokens.as_slice() {
                    if is_ident(a) && is_ident(b) && matches!(*op, "+" | "-" | "*") {
                        return true;
                    }
                }
            }
            rest = &after_open[close + 1..];
        }
        false
    }

    /// For each line, whether it lies lexically inside a `for`/`while`/`loop` body (the line
    /// that opens the loop included).
    fn lines_in_loops(lines: &[&str]) -> Vec<bool> {
        let mut depth: i32 = 0;
        let mut loop_starts: Vec<i32> = Vec::new();
        let mut in_loop = Vec::with_capacity(lines.len());
        for line in lines {
            let code = code_of(line);
            let trimmed = code.trim_start();
            let opens_loop = trimmed.starts_with("for ")
                || trimmed.starts_with("while ")
                || trimmed.starts_with("loop {")
                || trimmed == "loop";
            if opens_loop {
                loop_starts.push(depth);
            }
            in_loop.push(!loop_starts.is_empty());
            for c in code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        while loop_starts.last().is_some_and(|s| depth <= *s) {
                            loop_starts.pop();
                        }
                    }
                    _ => {}
                }
            }
        }
        in_loop
    }

    /// Rule `instant-in-loop`: in hot-path files, `Instant::now()` must not appear lexically
    /// inside a `for`/`while`/`loop` body.
    fn scan_instant_in_loop(file: &Path, text: &str, out: &mut Vec<Violation>) {
        let lines: Vec<&str> = text.lines().collect();
        for (i, in_loop) in lines_in_loops(&lines).into_iter().enumerate() {
            if in_loop
                && code_of(lines[i]).contains("Instant::now()")
                && !allowed(&lines, i, RULE_INSTANT_IN_LOOP)
            {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: i + 1,
                    rule: RULE_INSTANT_IN_LOOP,
                    message: "`Instant::now()` inside a loop body in a hot-path file: hoist the clock read to chunk/morsel granularity"
                        .into(),
                });
            }
        }
    }

    /// Rule `boxed-text-column`: no `Vec<Arc<str>>` in non-test code under `crates/`. A text
    /// column is offsets over one byte buffer (`Array::Text`); a vector of shared strings is
    /// the box per value that representation replaced.
    fn scan_boxed_text(file: &Path, text: &str, out: &mut Vec<Violation>) {
        // Built by concatenation so the linter does not flag its own source.
        let boxed: String = ["Vec<Arc", "<str>>"].concat();
        let lines: Vec<&str> = text.lines().collect();
        let mut tests = TestRegions::new();
        for (i, line) in lines.iter().enumerate() {
            if tests.observe(line) {
                continue;
            }
            if code_of(line).contains(&boxed) && !allowed(&lines, i, RULE_BOXED_TEXT) {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: i + 1,
                    rule: RULE_BOXED_TEXT,
                    message: format!(
                        "`{boxed}` is a heap box per text value: keep text in `Array::Text` (offsets over one byte buffer)"
                    ),
                });
            }
        }
    }

    /// Rule `row-view-in-served-path`: no `.tuples()` / `.into_tuples()` / `.iter_tuples(` in
    /// non-test code of the served path. Stored relations and operator outputs are chunk lists
    /// and every row view is built on demand, so one such call boxes a whole input per query;
    /// nor a `HashMap<Tuple` / `HashSet<Tuple` — rows are compared where they lie
    /// (`hash_rows` / `rows_equal`). In [`EVALUATOR_FILES`] boxing a single row
    /// (`.tuple_at(` / `Tuple::new(`) is flagged too, and in [`ENGINE_FILES`] boxing a value or
    /// a row (`.value(` / `Tuple::new(`) inside a loop body: join and group-by keys are hashed
    /// and compared in place, and what is boxed once per group sits outside the row loops.
    fn scan_row_view(file: &Path, text: &str, out: &mut Vec<Violation>) {
        let mut needles =
            vec![".tuples()", ".into_tuples()", ".iter_tuples(", "HashMap<Tuple", "HashSet<Tuple"];
        if EVALUATOR_FILES.iter().any(|k| file == Path::new(k)) {
            needles.extend([".tuple_at(", "Tuple::new("]);
        }
        let in_loop_needles: &[&str] = match ENGINE_FILES.iter().any(|k| file == Path::new(k)) {
            true => &[".value(", "Tuple::new("],
            false => &[],
        };
        let lines: Vec<&str> = text.lines().collect();
        let in_loops = lines_in_loops(&lines);
        let mut tests = TestRegions::new();
        for (i, line) in lines.iter().enumerate() {
            if tests.observe(line) {
                continue;
            }
            let code = code_of(line);
            let found = |needles: &[&str]| needles.iter().any(|call| code.contains(call));
            if allowed(&lines, i, RULE_ROW_VIEW) {
                continue;
            }
            if found(&needles) {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: i + 1,
                    rule: RULE_ROW_VIEW,
                    message: "row view in the served path: read `chunks()` and evaluate column-wise (rows are for the oracle, baselines and tests)"
                        .into(),
                });
            } else if in_loops[i] && found(in_loop_needles) {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: i + 1,
                    rule: RULE_ROW_VIEW,
                    message: "boxed value in a per-row loop of the engine: hash and compare keys in their columns (`hash_rows` / `rows_equal`), box once per group outside the loop"
                        .into(),
                });
            }
        }
    }

    /// Rule `thread-in-served-path`: no `thread::spawn` / `thread::Builder` in non-test code of
    /// [`THREADLESS_FILES`]. A query already runs on the thread that pulls its stream, which
    /// the worker pool counts as one of its workers; a thread per query costs a spawn and a
    /// hand-off on every request and buys no parallelism.
    fn scan_thread_spawn(file: &Path, text: &str, out: &mut Vec<Violation>) {
        let lines: Vec<&str> = text.lines().collect();
        let mut tests = TestRegions::new();
        for (i, line) in lines.iter().enumerate() {
            if tests.observe(line) {
                continue;
            }
            let code = code_of(line);
            if ["thread::spawn", "thread::Builder"].iter().any(|call| code.contains(call))
                && !allowed(&lines, i, RULE_THREAD)
            {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: i + 1,
                    rule: RULE_THREAD,
                    message: "a thread started where a query is planned or streamed: run the query on the thread that pulls its stream and the engine's worker pool"
                        .into(),
                });
            }
        }
    }

    /// Rule `owned-name-in-plan`: no `String` in a field of a `struct` or `enum` declared in
    /// non-test code of [`PLAN_IR_FILES`] — bare, or inside a `Vec`, an `Option` or a tuple. A
    /// rewritten plan repeats each provenance attribute name at every operator it passes, so an
    /// owned name there is a heap string per repetition; a `Name` is one refcount bump.
    fn scan_owned_name(file: &Path, text: &str, out: &mut Vec<Violation>) {
        let lines: Vec<&str> = text.lines().collect();
        let mut tests = TestRegions::new();
        let mut depth: i32 = 0;
        // The brace depth outside the `struct` / `enum` being declared, while inside it.
        let mut declaration: Option<i32> = None;
        for (i, line) in lines.iter().enumerate() {
            let in_test = tests.observe(line);
            let code = code_of(line);
            let trimmed = code.trim_start();
            let item = trimmed
                .strip_prefix("pub(crate) ")
                .or_else(|| trimmed.strip_prefix("pub "))
                .unwrap_or(trimmed);
            if declaration.is_none() && (item.starts_with("struct ") || item.starts_with("enum ")) {
                declaration = Some(depth);
            }
            if declaration.is_some()
                && !in_test
                && has_word(code, "String")
                && !allowed(&lines, i, RULE_OWNED_NAME)
            {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: i + 1,
                    rule: RULE_OWNED_NAME,
                    message: "an owned `String` in a plan IR type: hold names as `perm_algebra::Name` (`Arc<str>`), allocated once and shared"
                        .into(),
                });
            }
            for c in code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if declaration.is_some_and(|outside| depth <= outside)
                && (code.contains('}') || code.contains(';'))
            {
                declaration = None;
            }
        }
    }

    /// Does `word` occur in `code` as a whole identifier?
    fn has_word(code: &str, word: &str) -> bool {
        let ident = |c: Option<char>| c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        code.match_indices(word).any(|(at, _)| {
            !ident(code[..at].chars().next_back()) && !ident(code[at + word.len()..].chars().next())
        })
    }

    /// Rules `forbid-unsafe` and `deny-unwrap-header`: every crate root must carry
    /// `#![forbid(unsafe_code)]` and `#![deny(clippy::unwrap_used, clippy::expect_used)]`.
    fn scan_crate_root_headers(file: &Path, text: &str, out: &mut Vec<Violation>) {
        if !text.contains("#![forbid(unsafe_code)]") {
            out.push(Violation {
                file: file.to_path_buf(),
                line: 1,
                rule: RULE_FORBID_UNSAFE,
                message: "crate root is missing `#![forbid(unsafe_code)]`".into(),
            });
        }
        if !text.contains("#![deny(clippy::unwrap_used, clippy::expect_used)]") {
            out.push(Violation {
                file: file.to_path_buf(),
                line: 1,
                rule: RULE_DENY_UNWRAP,
                message:
                    "crate root is missing `#![deny(clippy::unwrap_used, clippy::expect_used)]` (tests are exempt via clippy.toml)"
                        .into(),
            });
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn the_engine_may_not_box_a_value_inside_a_row_loop() {
            let text = "\
fn aggregate(morsel: &AggMorsel) {
    let empty = Tuple::new(vec![]);
    for i in 0..morsel.rows {
        let key = Tuple::new(morsel.keys.iter().map(|k| k.value(i)).collect());
        // xtask-allow: row-view-in-served-path — the accumulator takes a `Value`
        acc.update(arg.value(i));
        while chained {
            let v = column.value(i);
        }
    }
    let output = groups.iter().map(|g| Tuple::new(g.key.value(0))).collect();
}
#[cfg(test)]
mod tests {
    fn t(a: &Array) { for i in 0..2 { a.value(i); } }
}
";
            for (file, expected) in [
                ("crates/exec/src/parallel.rs", vec![4, 8]),
                // Only the engine's operators are held to it.
                ("crates/exec/src/executor.rs", vec![]),
            ] {
                let mut violations = Vec::new();
                scan_row_view(Path::new(file), text, &mut violations);
                assert_eq!(
                    violations.iter().map(|v| (v.line, v.rule)).collect::<Vec<_>>(),
                    expected.into_iter().map(|line| (line, RULE_ROW_VIEW)).collect::<Vec<_>>(),
                    "{file}"
                );
            }
        }

        #[test]
        fn a_vector_of_shared_strings_is_flagged_outside_tests_and_escapes() {
            let boxed: String = ["Vec<Arc", "<str>>"].concat();
            let text = format!(
                "\
struct Column {{ values: {boxed} }}
type Names = {boxed}; // xtask-allow: boxed-text-column
// mentions {boxed} only in a comment
fn one(value: Arc<str>, many: Vec<Arc<Array>>) {{}}
#[cfg(test)]
mod tests {{
    fn model() -> {boxed} {{ Vec::new() }}
}}
"
            );
            let mut violations = Vec::new();
            scan_boxed_text(Path::new("crates/algebra/src/chunk.rs"), &text, &mut violations);
            assert_eq!(violations.len(), 1, "only the bare field in non-test code");
            assert_eq!((violations[0].line, violations[0].rule), (1, RULE_BOXED_TEXT));
        }

        #[test]
        fn a_listed_file_that_is_not_scanned_is_a_violation() {
            let all: Vec<&Path> = KERNEL_FILES
                .iter()
                .chain(HOT_PATH_FILES)
                .chain(ORACLE_FILES)
                .chain(EVALUATOR_FILES)
                .chain(ENGINE_FILES)
                .chain(THREADLESS_FILES)
                .chain(PLAN_IR_FILES)
                .chain(&["crates/storage/src/catalog.rs"])
                .map(Path::new)
                .collect();
            let mut violations = Vec::new();
            check_listed_files(&all, &mut violations);
            assert!(violations.is_empty(), "every listed file present: no violation");

            // Drop one file, as a rename or delete would.
            let gone = Path::new(HOT_PATH_FILES[0]);
            let remaining: Vec<&Path> = all.iter().copied().filter(|p| *p != gone).collect();
            check_listed_files(&remaining, &mut violations);
            assert!(!violations.is_empty());
            assert!(violations.iter().all(|v| v.rule == RULE_LISTED_FILE && v.file == gone));

            // A served-path directory with no source left under it is reported too, beside each
            // file listed under it.
            let no_service: Vec<&Path> =
                all.iter().copied().filter(|p| !p.starts_with("crates/service/src")).collect();
            violations.clear();
            check_listed_files(&no_service, &mut violations);
            let expected: Vec<&Path> =
                ["crates/service/src"].iter().chain(THREADLESS_FILES).map(Path::new).collect();
            assert_eq!(violations.iter().map(|v| v.file.as_path()).collect::<Vec<_>>(), expected);
        }

        #[test]
        fn a_thread_per_query_is_flagged_outside_tests_and_escapes() {
            let text = "\
fn spawn_producer(rx: Receiver) {
    let handle = std::thread::spawn(move || produce());
    let named = thread::Builder::new().name(\"perm-stream\".into());
    let pool = WorkerPool::new(2); // mentions thread::spawn only in a comment
    // xtask-allow: thread-in-served-path
    let watchdog = thread::spawn(|| ());
}
#[cfg(test)]
mod tests {
    fn t() { std::thread::spawn(|| ()).join().unwrap(); }
}
";
            for file in THREADLESS_FILES {
                let mut violations = Vec::new();
                scan_thread_spawn(Path::new(file), text, &mut violations);
                assert_eq!(
                    violations.iter().map(|v| (v.line, v.rule)).collect::<Vec<_>>(),
                    vec![(2, RULE_THREAD), (3, RULE_THREAD)],
                    "{file}"
                );
            }
        }

        #[test]
        fn an_owned_name_in_a_plan_type_is_flagged_outside_tests_and_escapes() {
            let text = "\
pub struct Attribute {
    pub name: String,
    pub qualifier: Option<Name>,
}
pub enum LogicalPlan {
    Projection { exprs: Vec<(ScalarExpr, String)>, distinct: bool },
    Rewritten(Vec<String>),
    Alias {
        alias: Option<String>, // xtask-allow: owned-name-in-plan
        label: ToString,
    },
}
pub struct Label(String);
struct Unit;
impl Attribute {
    pub fn qualified_name(&self) -> String { String::new() }
}
#[cfg(test)]
mod tests {
    struct Fixture { name: String }
}
";
            for file in PLAN_IR_FILES {
                let mut violations = Vec::new();
                scan_owned_name(Path::new(file), text, &mut violations);
                assert_eq!(
                    violations.iter().map(|v| (v.line, v.rule)).collect::<Vec<_>>(),
                    [2, 6, 7, 13].map(|line| (line, RULE_OWNED_NAME)),
                    "{file}: only fields of plan types in non-test code"
                );
            }
        }

        #[test]
        fn row_views_are_flagged_outside_tests_and_escapes() {
            let text = "\
fn served(r: &Relation) {
    let rows = r.tuples();
    let owned = r.clone().into_tuples(); // xtask-allow: row-view-in-served-path
    // xtask-allow: row-view-in-served-path
    let again = r.tuples();
    let key = Tuple::new(vec![]); // mentions .tuples() only in a comment
    let chunk_rows = chunk.iter_tuples();
    let counts: HashMap<Tuple, usize> = HashMap::new();
    let set: HashSet<Tuple> = HashSet::new(); // xtask-allow: row-view-in-served-path
    let keys: HashSet<Value> = HashSet::new();
}
#[cfg(test)]
mod tests {
    fn t(r: &Relation) { assert!(r.tuples().is_empty() && chunk.iter_tuples().count() == 0); }
}
";
            let mut violations = Vec::new();
            scan_row_view(Path::new("crates/service/src/engine.rs"), text, &mut violations);
            assert_eq!(
                violations.iter().map(|v| (v.line, v.rule)).collect::<Vec<_>>(),
                [2, 7, 8].map(|line| (line, RULE_ROW_VIEW)),
                "only the bare calls and row-keyed maps in non-test code"
            );
        }

        #[test]
        fn the_compiled_evaluator_may_not_box_a_row() {
            let text = "\
fn kernel(chunk: &DataChunk) {
    let row = chunk.tuple_at(0);
    let sparse = Tuple::new(vec![]);
}
#[cfg(test)]
mod tests {
    fn t(chunk: &DataChunk) { chunk.tuple_at(0); }
}
";
            for (file, expected) in [
                ("crates/exec/src/vector.rs", vec![2, 3]),
                ("crates/exec/src/compile.rs", vec![2, 3]),
                // The engine may box a row where no loop runs (see the next test).
                ("crates/exec/src/parallel.rs", vec![]),
            ] {
                let mut violations = Vec::new();
                scan_row_view(Path::new(file), text, &mut violations);
                assert_eq!(
                    violations.iter().map(|v| v.line).collect::<Vec<_>>(),
                    expected,
                    "{file}"
                );
            }
        }
    }
}
