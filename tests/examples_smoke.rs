//! Smoke test: every `examples/*.rs` must build and run to completion.
//!
//! Plain `cargo test` already *compiles* all examples (cargo builds example targets for the
//! test profile), so compilation rot is caught for free. Actually *running* them re-invokes
//! cargo, which serializes on the build lock — that is fine in CI but wasteful locally, so the
//! run-tests are `#[ignore]` by default and CI executes them explicitly:
//!
//! ```text
//! cargo test -q --test examples_smoke -- --ignored --test-threads 1
//! ```

use std::process::Command;

/// Runs `cargo run --release --example <name>` with the same cargo that runs this test.
fn run_example(name: &str) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .args(["run", "-q", "--release", "--example", name])
        .env("CARGO_TERM_COLOR", "never")
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo for example {name}: {e}"));
    assert!(
        output.status.success(),
        "example {name} failed with {}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
}

#[test]
#[ignore = "re-invokes cargo; run explicitly (CI does) with --ignored"]
fn quickstart_runs() {
    run_example("quickstart");
}

#[test]
#[ignore = "re-invokes cargo; run explicitly (CI does) with --ignored"]
fn sql_shell_runs() {
    run_example("sql_shell");
}

#[test]
#[ignore = "re-invokes cargo; run explicitly (CI does) with --ignored"]
fn shop_provenance_runs() {
    run_example("shop_provenance");
}

#[test]
#[ignore = "re-invokes cargo; run explicitly (CI does) with --ignored"]
fn incremental_provenance_runs() {
    run_example("incremental_provenance");
}

#[test]
#[ignore = "re-invokes cargo; run explicitly (CI does) with --ignored"]
fn tpch_provenance_runs() {
    run_example("tpch_provenance");
}

#[test]
#[ignore = "re-invokes cargo; run explicitly (CI does) with --ignored"]
fn warehouse_debugging_runs() {
    run_example("warehouse_debugging");
}
