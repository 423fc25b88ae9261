//! Figure reproduction driver.
//!
//! Usage:
//! ```text
//! repro [--paper] [--quick] [--seed N] [--jobs N] all | figNN [figNN ...] | list
//! ```
//!
//! `--jobs N` runs independent figures concurrently on `N` worker
//! threads (`--jobs 0` = one per core). Reports are printed in request
//! order regardless of completion order, so the output stream is
//! byte-identical to a sequential run.

use rayon::prelude::*;
use sst_bench::figures::{run_one, ALL};
use sst_bench::{Ctx, Scale};
use std::io::Write;

/// `println!` that ends the process cleanly (status 0) once stdout's
/// reader has gone away (`… | head`), where the std macro panics.
macro_rules! println {
    ($($arg:tt)*) => {
        crate::write_stdout(&format!("{}\n", format_args!($($arg)*)))
    };
}

/// Order-preserving dedup: keeps the first occurrence of each target.
/// (`Vec::dedup` only collapses *adjacent* repeats, so
/// `repro fig02 fig03 fig02` used to run fig02 twice.)
fn dedupe_preserving(targets: Vec<String>) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    targets
        .into_iter()
        .filter(|t| seen.insert(t.clone()))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut seed = 20050607u64;
    let mut jobs = 1usize;
    let mut targets: Vec<String> = Vec::new();
    let mut iter = args.into_iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--paper" => scale = Scale::Paper,
            "--quick" => scale = Scale::Quick,
            "--seed" => {
                seed = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--jobs" => {
                let n: usize = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--jobs needs an integer (0 = one per core)"));
                jobs = if n == 0 {
                    rayon::current_num_threads()
                } else {
                    n
                };
            }
            "list" => {
                for id in ALL {
                    println!("{id}");
                }
                return;
            }
            "all" => targets.extend(ALL.iter().map(|s| s.to_string())),
            other if ALL.contains(&other) => targets.push(other.to_string()),
            other => die(&format!("unknown argument '{other}' (try 'list')")),
        }
    }
    if targets.is_empty() {
        die(
            "usage: repro [--paper] [--quick] [--seed N] [--jobs N] all | list | figNN [figNN ...]",
        );
    }
    let targets = dedupe_preserving(targets);
    let ctx = Ctx::new(scale, seed);
    eprintln!(
        "# scale={scale:?} seed={seed} jobs={jobs} synth_len={} real_duration={}s instances={}",
        ctx.synth_len(),
        ctx.real_duration(),
        ctx.instances()
    );
    if jobs <= 1 {
        for id in &targets {
            let start = std::time::Instant::now();
            match run_one(id, &ctx) {
                Some(report) => {
                    println!("{report}");
                    eprintln!("# {id} done in {:.1}s", start.elapsed().as_secs_f64());
                }
                None => eprintln!("# unknown figure id '{id}' (try 'list')"),
            }
        }
    } else {
        // Independent figures fan out across threads; results are
        // collected and printed in request order.
        let results: Vec<(String, Option<String>, f64)> = rayon::with_num_threads(jobs, || {
            targets
                .into_par_iter()
                .map(|id| {
                    let start = std::time::Instant::now();
                    let rendered = run_one(&id, &ctx).map(|r| r.to_string());
                    (id, rendered, start.elapsed().as_secs_f64())
                })
                .collect()
        });
        for (id, rendered, secs) in results {
            match rendered {
                Some(report) => {
                    println!("{report}");
                    eprintln!("# {id} done in {secs:.1}s");
                }
                None => eprintln!("# unknown figure id '{id}' (try 'list')"),
            }
        }
    }
}

/// Writes `text` to stdout; a closed reader (`BrokenPipe`) is a clean
/// exit, any other write error fails the run.
fn write_stdout(text: &str) {
    if let Err(e) = std::io::stdout().lock().write_all(text.as_bytes()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        die(&format!("stdout: {e}"));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::dedupe_preserving;

    #[test]
    fn dedupe_keeps_first_occurrence_order() {
        let input = ["fig02", "fig03", "fig02", "fig05", "fig03", "fig02"]
            .map(String::from)
            .to_vec();
        assert_eq!(
            dedupe_preserving(input),
            ["fig02", "fig03", "fig05"].map(String::from)
        );
    }

    #[test]
    fn dedupe_handles_empty_and_unique() {
        assert!(dedupe_preserving(Vec::new()).is_empty());
        let unique = ["a", "b", "c"].map(String::from).to_vec();
        assert_eq!(dedupe_preserving(unique.clone()), unique);
    }
}
