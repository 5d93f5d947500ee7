//! An interactive SQL shell for the Perm provenance system.
//!
//! Reads `;`-terminated statements from standard input and prints results, including provenance
//! queries via the SQL-PLE `PROVENANCE` keyword. Starts with the paper's example database loaded
//! (`--empty` starts with an empty catalog, `--tpch` loads a small TPC-H database instead).
//!
//! ```text
//! cargo run --release --example sql_shell
//! perm> SELECT PROVENANCE name, sum(price) AS total FROM shop, sales, items
//!       WHERE name = sName AND itemId = id GROUP BY name;
//! ...
//! perm> \q
//! ```
//!
//! Shell commands: `\d` lists tables and views, `\plan <query>` shows the optimized plan
//! (after provenance rewriting), `\q` quits.

use std::io::{BufRead, Write};

use perm::prelude::*;

fn main() -> Result<(), PermError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let db = if args.iter().any(|a| a == "--empty") {
        PermDb::new()
    } else if args.iter().any(|a| a == "--tpch") {
        let catalog = generate_catalog(TpchScale::new(0.001), 1);
        PermDb::with_catalog(catalog, SessionOptions::default().with_row_budget(5_000_000))
    } else {
        let db = PermDb::new();
        db.execute_script(
            "CREATE TABLE shop  (name TEXT, numEmpl INT);
             CREATE TABLE sales (sName TEXT, itemId INT);
             CREATE TABLE items (id INT, price INT);
             INSERT INTO shop  VALUES ('Merdies', 3), ('Joba', 14);
             INSERT INTO sales VALUES ('Merdies', 1), ('Merdies', 2), ('Merdies', 2), ('Joba', 3), ('Joba', 3);
             INSERT INTO items VALUES (1, 100), (2, 10), (3, 25);",
        )?;
        db
    };

    println!("perm-rs SQL shell — SELECT PROVENANCE ... computes Why-provenance; \\d lists tables; \\q quits.");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    prompt(buffer.is_empty());

    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();

        // Shell meta-commands only apply when not inside a multi-line statement.
        if buffer.is_empty() && trimmed.starts_with('\\') {
            match handle_meta(&db, trimmed) {
                MetaResult::Quit => break,
                MetaResult::Handled => {
                    prompt(true);
                    continue;
                }
            }
        }

        buffer.push_str(&line);
        buffer.push('\n');
        if !trimmed.ends_with(';') {
            prompt(false);
            continue;
        }

        let statement = buffer.trim().trim_end_matches(';').to_string();
        buffer.clear();
        if statement.is_empty() {
            prompt(true);
            continue;
        }
        match db.execute_sql(&statement) {
            Ok(result) => {
                if result.schema().is_empty() {
                    println!("ok");
                } else {
                    println!("{result}");
                    println!("({} rows)", result.num_rows());
                }
            }
            Err(e) => println!("error: {e}"),
        }
        prompt(true);
    }
    Ok(())
}

enum MetaResult {
    Handled,
    Quit,
}

fn handle_meta(db: &PermDb, command: &str) -> MetaResult {
    match command.split_whitespace().next().unwrap_or("") {
        "\\q" | "\\quit" => return MetaResult::Quit,
        "\\d" => {
            println!("tables: {}", db.catalog().table_names().join(", "));
            let views = db.catalog().view_names();
            if !views.is_empty() {
                println!("views:  {}", views.join(", "));
            }
        }
        "\\plan" => {
            let sql = command.trim_start_matches("\\plan").trim().trim_end_matches(';');
            if sql.is_empty() {
                println!("usage: \\plan SELECT ...");
            } else {
                match db.plan_sql(sql) {
                    Ok(plan) => println!("{}", plan.display_tree()),
                    Err(e) => println!("error: {e}"),
                }
            }
        }
        other => println!("unknown command '{other}' (try \\d, \\plan, \\q)"),
    }
    MetaResult::Handled
}

fn prompt(fresh: bool) {
    print!("{}", if fresh { "perm> " } else { "   -> " });
    let _ = std::io::stdout().flush();
}
