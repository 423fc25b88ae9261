//! The `sst-analyze` CLI.
//!
//! ```text
//! sst-analyze lint [--root DIR] [--baseline FILE] [--deny]
//!                  [--fail-stale] [--write-baseline]
//! sst-analyze check-sync [--preemptions N] [--max-schedules N]
//!                        [--min-schedules N]
//! ```
//!
//! `lint` is the default subcommand, so the CI invocation is just
//! `cargo run -p sst-analyze -- --deny --fail-stale`.
//!
//! Exit codes: 0 clean, 1 findings/violations under the requested
//! gates, 2 usage or I/O error.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use sst_analyze::baseline::Baseline;
use sst_analyze::check_sync::{explore, ExploreOpts, ExploreReport, Model};
use sst_analyze::models::{AdmissionModel, PoolModel};
use sst_analyze::rules::{lint_source, Finding, RuleConfig};
use sst_analyze::workspace::collect_sources;

/// `println!` that ends the process cleanly (status 0) once stdout's
/// reader has gone away (`… | head`), where the std macro panics.
macro_rules! println {
    ($($arg:tt)*) => {
        crate::write_stdout(&format!("{}\n", format_args!($($arg)*)))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some("lint") => ("lint", &args[1..]),
        Some("check-sync") => ("check-sync", &args[1..]),
        Some("--help" | "-h" | "help") => {
            write_stdout(USAGE);
            return ExitCode::SUCCESS;
        }
        // Bare flags default to `lint`.
        _ => ("lint", &args[..]),
    };
    let result = match cmd {
        "lint" => run_lint(rest),
        _ => run_check_sync(rest),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("sst-analyze: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
sst-analyze — workspace invariant linter + interleaving checker

USAGE:
  sst-analyze [lint] [--root DIR] [--baseline FILE] [--deny]
              [--fail-stale] [--write-baseline]
  sst-analyze check-sync [--preemptions N] [--max-schedules N]
              [--min-schedules N]

lint flags:
  --root DIR         workspace root to walk (default: auto-detected)
  --baseline FILE    findings baseline (default: ROOT/analyze-baseline.txt)
  --deny             exit 1 on findings not in the baseline
  --fail-stale       exit 1 on baseline entries with no matching finding
  --write-baseline   rewrite the baseline from current findings and exit

check-sync flags:
  --preemptions N    preemption bound per schedule (default 3)
  --max-schedules N  stop each model after N schedules (default 2000000)
  --min-schedules N  exit 1 unless total distinct schedules >= N
";

/// Finds the workspace root: the nearest ancestor of the current
/// directory holding a `Cargo.toml` with a `[workspace]` table.
fn detect_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the current directory".into());
        }
    }
}

fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn run_lint(rest: &[String]) -> Result<ExitCode, String> {
    let mut args = rest.to_vec();
    let root = match take_value(&mut args, "--root")? {
        Some(r) => PathBuf::from(r),
        None => detect_root()?,
    };
    let baseline_path = take_value(&mut args, "--baseline")?
        .map_or_else(|| root.join("analyze-baseline.txt"), PathBuf::from);
    let deny = take_flag(&mut args, "--deny");
    let fail_stale = take_flag(&mut args, "--fail-stale");
    let write = take_flag(&mut args, "--write-baseline");
    if let Some(unknown) = args.first() {
        return Err(format!("unknown lint argument `{unknown}`\n\n{USAGE}"));
    }

    let cfg = RuleConfig::workspace();
    let sources = collect_sources(&root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut findings: Vec<Finding> = Vec::new();
    for file in &sources {
        findings.extend(lint_source(&file.rel_path, &file.source, &cfg));
    }

    if write {
        let text = Baseline::render(&findings);
        std::fs::write(&baseline_path, text)
            .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
        println!(
            "lint: wrote {} baseline entr{} to {}",
            findings.len(),
            if findings.len() == 1 { "y" } else { "ies" },
            baseline_path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => Baseline::parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
        Err(e) => return Err(format!("reading {}: {e}", baseline_path.display())),
    };
    let diff = baseline.diff(&findings);

    for f in &diff.new {
        println!("NEW   {}:{} [{}] {}", f.path, f.line, f.rule, f.what);
        println!("      fingerprint: {}", f.fingerprint);
    }
    for f in &diff.known {
        println!("known {}:{} [{}] {}", f.path, f.line, f.rule, f.what);
    }
    for fp in &diff.stale {
        println!("STALE baseline entry with no finding: {fp}");
    }
    println!(
        "lint: {} file(s), {} finding(s) ({} new, {} grandfathered), {} stale baseline entr{}",
        sources.len(),
        findings.len(),
        diff.new.len(),
        diff.known.len(),
        diff.stale.len(),
        if diff.stale.len() == 1 { "y" } else { "ies" },
    );

    let deny_hit = deny && !diff.new.is_empty();
    let stale_hit = fail_stale && !diff.stale.is_empty();
    if deny_hit {
        println!("lint: FAIL — new findings (fix, pragma-allow with a reason, or discuss)");
    }
    if stale_hit {
        println!("lint: FAIL — stale baseline entries (prune them; the baseline only shrinks)");
    }
    Ok(if deny_hit || stale_hit {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn run_check_sync(rest: &[String]) -> Result<ExitCode, String> {
    let mut args = rest.to_vec();
    let parse = |v: Option<String>, what: &str| -> Result<Option<u64>, String> {
        v.map(|s| {
            s.parse::<u64>()
                .map_err(|_| format!("{what} wants a number, got `{s}`"))
        })
        .transpose()
    };
    let preemptions = parse(take_value(&mut args, "--preemptions")?, "--preemptions")?;
    let max_schedules = parse(take_value(&mut args, "--max-schedules")?, "--max-schedules")?;
    let min_schedules =
        parse(take_value(&mut args, "--min-schedules")?, "--min-schedules")?.unwrap_or(0);
    if let Some(unknown) = args.first() {
        return Err(format!(
            "unknown check-sync argument `{unknown}`\n\n{USAGE}"
        ));
    }

    let mut opts = ExploreOpts::default();
    if let Some(p) = preemptions {
        opts.preemption_bound = u32::try_from(p).map_err(|_| "--preemptions too large")?;
    }
    if let Some(m) = max_schedules {
        opts.max_schedules = m;
    }

    // The checked configurations: both protocols at sizes that keep
    // exhaustive exploration under a second while covering 2–3 racing
    // threads (where interleaving bugs live).
    let mut total: u64 = 0;
    let mut failed = false;
    let mut run = |name: String, report: ExploreReport| {
        total += report.schedules;
        match &report.violation {
            None => println!(
                "check-sync: {name}: OK — {} schedule(s), {} truncated, {} preemption-pruned",
                report.schedules, report.truncated, report.preemption_pruned
            ),
            Some((v, sched)) => {
                failed = true;
                println!("check-sync: {name}: VIOLATION — {}", v.msg);
                println!("check-sync:   schedule: {sched:?}");
            }
        }
    };

    let pool_configs = [(1usize, 1u32), (2, 2), (2, 3)];
    for (workers, tasks) in pool_configs {
        let m = PoolModel::correct(workers, tasks);
        run(
            format!("{} [{workers}w/{tasks}t]", m.name()),
            explore(&m, &opts),
        );
    }
    for (sessions, fail_first) in [(2usize, false), (3, false), (3, true)] {
        let m = AdmissionModel::correct(sessions, fail_first);
        run(
            format!("{} [{sessions}s fail_first={fail_first}]", m.name()),
            explore(&m, &opts),
        );
    }

    println!("check-sync: total {total} schedule(s) explored");
    if failed {
        println!("check-sync: FAIL — invariant violation");
        return Ok(ExitCode::FAILURE);
    }
    if total < min_schedules {
        println!("check-sync: FAIL — explored {total} < required {min_schedules} schedules");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Writes `text` to stdout; a closed reader (`BrokenPipe`) is a clean
/// exit, any other write error fails the run.
fn write_stdout(text: &str) {
    if let Err(e) = std::io::stdout().lock().write_all(text.as_bytes()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("sst-analyze: stdout: {e}");
        std::process::exit(2);
    }
}
