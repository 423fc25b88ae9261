//! `trace-tool` — synthesize, inspect, and convert packet traces.
//!
//! ```text
//! trace-tool synth [--seed N] [--duration SECS] OUT.sst   # synthesize a Bell-Labs-like trace
//! trace-tool info IN.sst                                  # summary statistics
//! trace-tool top IN.sst [K]                               # top-K OD pairs by volume
//! trace-tool rates IN.sst DT                              # binned rate series (rate per line)
//! ```
//!
//! Traces are stored in the crate's compact binary format
//! (`sst_nettrace::codec`).

use sst_nettrace::{decode, encode, PacketTrace, TraceSynthesizer};
use std::io::Write;

/// `println!` that ends the process cleanly (status 0) once stdout's
/// reader has gone away (`… | head`), where the std macro panics.
macro_rules! println {
    ($($arg:tt)*) => {
        crate::write_stdout(&format!("{}\n", format_args!($($arg)*)))
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.into_iter();
    match it.next().as_deref() {
        Some("synth") => synth(it.collect()),
        Some("info") => info(&load(&expect_path(it.next()))),
        Some("top") => {
            let path = expect_path(it.next());
            let k = it.next().and_then(|s| s.parse().ok()).unwrap_or(10);
            top(&load(&path), k);
        }
        Some("rates") => {
            let path = expect_path(it.next());
            let dt: f64 = it
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| die("rates needs a bin width in seconds"));
            rates(&load(&path), dt);
        }
        _ => die("usage: trace-tool synth|info|top|rates …  (see --help in the module docs)"),
    }
}

fn synth(rest: Vec<String>) {
    let mut seed = 1u64;
    let mut duration = 60.0f64;
    let mut out: Option<String> = None;
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--duration" => {
                duration = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--duration needs seconds"));
            }
            other if out.is_none() => out = Some(other.to_string()),
            other => die(&format!("unexpected argument '{other}'")),
        }
    }
    let out = out.unwrap_or_else(|| die("synth needs an output path"));
    let trace = TraceSynthesizer::bell_labs_like()
        .duration(duration)
        .synthesize(seed);
    let bytes = encode(&trace);
    std::fs::write(&out, &bytes).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    eprintln!(
        "wrote {out}: {} packets, {} flows, {:.0}s, {} bytes on disk",
        trace.len(),
        trace.flows().len(),
        trace.duration(),
        bytes.len()
    );
}

fn info(trace: &PacketTrace) {
    println!("packets      : {}", trace.len());
    println!("flows        : {}", trace.flows().len());
    println!("od pairs     : {}", trace.od_pair_count());
    println!("duration     : {:.3} s", trace.duration());
    println!("total bytes  : {}", trace.total_bytes());
    println!("mean rate    : {:.1} B/s", trace.mean_rate());
    if !trace.is_empty() {
        let sizes: Vec<f64> = trace.packets().iter().map(|p| p.size as f64).collect();
        let mean_size = sizes.iter().sum::<f64>() / sizes.len() as f64;
        println!("mean pkt size: {mean_size:.1} B");
    }
}

fn top(trace: &PacketTrace, k: usize) {
    println!("{:>12} {:>12} {:>14}", "src", "dst", "bytes");
    for ((a, b), bytes) in trace.od_volumes().into_iter().take(k) {
        println!("{a:>12} {b:>12} {bytes:>14}");
    }
}

fn rates(trace: &PacketTrace, dt: f64) {
    if dt <= 0.0 {
        die("bin width must be positive");
    }
    let ts = trace.to_rate_series(dt);
    let stdout = std::io::stdout();
    let mut w = std::io::BufWriter::new(stdout.lock());
    for v in ts.values() {
        writeln!(w, "{v}").expect("stdout");
    }
}

fn load(path: &str) -> PacketTrace {
    let bytes = std::fs::read(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    decode(&bytes).unwrap_or_else(|e| die(&format!("decode {path}: {e}")))
}

fn expect_path(arg: Option<String>) -> String {
    arg.unwrap_or_else(|| die("missing trace path"))
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
