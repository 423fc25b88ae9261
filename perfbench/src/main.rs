//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload od-exact|flow-churn|paper-sweep --seed N --seconds S --trace 0|1
//!           [--out DIR] [--rustc VERSION] [--commit SHA]
//! perfbench --record-golden        # print the paper-sweep golden table
//! ```
//!
//! Each run builds its inputs from `--seed`, sets the system up several
//! times (reporting the median set-up time), then repeats the workload
//! until `--seconds` have passed and reports means over the
//! repetitions. Every repetition's output is checked; failed or
//! mismatched operations are counted against those attempted. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `perfbench/README.md` for what each
//! workload and metric means.

mod metrics;
mod pipeline;
mod sweep;
mod trace;

use metrics::RunOutput;
use std::time::Duration;

/// A deliberate defect, injected only by the self-check tests to prove
/// that each correctness check counts failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    None,
    /// Flip one byte of the encoded assembled snapshot.
    FlipSnapshotByte,
    /// Drop the second collector's session without its `Bye`.
    DropSession,
    /// Perturb one computed paper-sweep value before the golden check.
    PerturbSweepValue,
}

enum Workload {
    Pipeline(&'static pipeline::PipelineSpec),
    Sweep,
}

fn workload(name: &str) -> Option<Workload> {
    match name {
        "od-exact" => Some(Workload::Pipeline(&pipeline::OD_EXACT)),
        "flow-churn" => Some(Workload::Pipeline(&pipeline::FLOW_CHURN)),
        "paper-sweep" => Some(Workload::Sweep),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut rustc = "unknown".to_string();
    let mut commit = "unknown".to_string();
    while let Some(flag) = it.next() {
        if flag == "--record-golden" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |what: &str| -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{what}: cannot parse '{value}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num("--seed")?),
            "--seconds" => seconds = Some(num("--seconds")?),
            "--trace" => trace = Some(num("--trace")?),
            "--out" => out = Some(value.clone()),
            "--rustc" => rustc = value.clone(),
            "--commit" => commit = value.clone(),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if self::workload(&workload).is_none() {
        return Err(format!(
            "unknown workload '{workload}' (od-exact, flow-churn, paper-sweep)"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace,
        out,
        rustc,
        commit,
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{}", sweep::golden_table());
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut tracer = trace::Tracer::new(args.trace);
    let out: RunOutput = match workload(&args.workload).expect("validated") {
        Workload::Sweep => sweep::run(&sweep::PAPER, args.seed, budget, &mut tracer, Fault::None),
        Workload::Pipeline(spec) => {
            match pipeline::run(spec, args.seed, budget, &mut tracer, Fault::None) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", spec.name);
                    std::process::exit(1);
                }
            }
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let record = out.record_json(
        &args.workload,
        args.seed,
        args.trace,
        nproc,
        &args.rustc,
        &args.commit,
    );
    eprint!("{}", out.table(&args.workload));
    println!("record {record}");
    if let Some(dir) = &args.out {
        let stem = format!(
            "{dir}/{}-seed{}-trace{}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(format!("{stem}.json"), format!("{record}\n")))
            .and_then(|()| {
                if args.trace {
                    std::fs::write(format!("{stem}.spans.jsonl"), tracer.to_jsonl())
                } else {
                    Ok(())
                }
            });
        if let Err(e) = written {
            eprintln!("perfbench: writing {stem}.*: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", out.result_json(args.trace));
}
