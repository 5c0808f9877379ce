//! `tsda_analyze` — run the workspace lints from the command line.
//!
//! ```text
//! tsda_analyze [--root DIR] [--config FILE] [--format text|json]
//!              [--explain RULE] [--fix-stale] [--verbose]
//! ```
//!
//! `--fix-stale` rewrites the config file in place, deleting every
//! `[[allow]]` block the run reported as unused (stale) while leaving
//! all other lines — comments included — byte-for-byte intact.
//!
//! Exit codes (stable, for CI):
//!
//! * `0` — no unallowlisted findings.
//! * `1` — at least one unallowlisted finding (report on stdout).
//! * `2` — usage, IO, or config error (message on stderr).

use std::path::PathBuf;
use std::process::ExitCode;
use tsda_analyze::config::Config;
use tsda_analyze::docs;

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    json: bool,
    fix_stale: bool,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: find_workspace_root(),
        config: None,
        json: false,
        fix_stale: false,
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--config" => args.config = Some(PathBuf::from(value("--config")?)),
            "--format" => {
                args.json = match value("--format")?.as_str() {
                    "text" => false,
                    "json" => true,
                    other => return Err(format!("--format must be text or json, got {other:?}")),
                };
            }
            "--explain" => {
                let rule = value("--explain")?;
                return match docs::explain(&rule) {
                    Some(text) => {
                        println!("{text}");
                        std::process::exit(0);
                    }
                    None => Err(format!(
                        "unknown rule {rule:?}; known rules: {}",
                        docs::RULE_DOCS.iter().map(|d| d.id).collect::<Vec<_>>().join(", ")
                    )),
                };
            }
            "--fix-stale" => args.fix_stale = true,
            "--verbose" | "-v" => args.verbose = true,
            "--help" | "-h" => {
                println!(
                    "usage: tsda_analyze [--root DIR] [--config FILE] [--format text|json] \
                     [--explain RULE] [--fix-stale] [--verbose]\n\
                     exit codes: 0 clean, 1 findings, 2 usage/config error\n\
                     rules: {}",
                    docs::RULE_DOCS.iter().map(|d| d.id).collect::<Vec<_>>().join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Walk up from the current directory to the first `analyze.toml`, so
/// the bin works from any crate dir; fall back to `.`.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("analyze.toml").is_file() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let cfg_path = args.config.clone().unwrap_or_else(|| args.root.join("analyze.toml"));
    let text = std::fs::read_to_string(&cfg_path)
        .map_err(|e| format!("read config {}: {e}", cfg_path.display()))?;
    let cfg = Config::parse(&text).map_err(|e| format!("{}: {e}", cfg_path.display()))?;
    let mut report = tsda_analyze::analyze(&args.root, &cfg)?;

    if args.fix_stale {
        if report.unused_allow.is_empty() {
            println!("no stale allowlist entries in {}", cfg_path.display());
        } else {
            let pruned = tsda_analyze::config::prune_stale(&text, &report.unused_allow);
            std::fs::write(&cfg_path, &pruned)
                .map_err(|e| format!("write config {}: {e}", cfg_path.display()))?;
            println!(
                "pruned {} stale allowlist entrie(s) from {}",
                report.unused_allow.len(),
                cfg_path.display()
            );
            report.unused_allow.clear();
        }
    }

    if args.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_text(args.verbose));
        if args.verbose {
            for (rule, ms) in &report.timings {
                println!("timing: {rule} {ms:.3} ms");
            }
        }
    }
    Ok(report.is_clean())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("tsda_analyze: {e}");
            ExitCode::from(2)
        }
    }
}
