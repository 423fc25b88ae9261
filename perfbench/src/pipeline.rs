//! The two collector-stack workloads: one generator thread drives two
//! sequenced collectors (`SequencedSender`, wire v4 diff frames) that
//! stream to a single-loop `MultiLoopServer` on a Unix listener; the
//! assembled snapshot is checked against an unsharded `MonitorEngine`.

use crate::metrics::{self, RunOutput};
use crate::trace::{self, Tracer};
use crate::Fault;
use sst_core::summary::Compactable;
use sst_monitor::retry::{Backoff, SequencedSender};
use sst_monitor::transport::{MultiLoopServer, ServeOptions, ServeReport, SessionStream};
use sst_monitor::{
    decode_snapshot, encode_snapshot, Aggregator, AggregatorSet, Collector, EngineSnapshot,
    MonitorConfig, MonitorEngine, SamplerSpec,
};
use sst_nettrace::TraceSynthesizer;
use std::collections::BTreeMap;
use std::io;
use std::os::linux::net::SocketAddrExt;
use std::os::unix::net::{SocketAddr, UnixListener, UnixStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How stream keys are derived from the packet trace.
#[derive(Clone, Copy, Debug)]
pub enum Keying {
    /// Unordered OD pair: a few thousand hot keys.
    Od,
    /// Full 5-tuple: tens of thousands of keys, most short-lived.
    Flow,
}

#[derive(Clone, Debug)]
pub struct PipelineSpec {
    pub name: &'static str,
    /// Synthetic trace duration in seconds (`TraceSynthesizer::duration`).
    pub duration_s: f64,
    pub keying: Keying,
    /// Bound exact state: collectors get `max_exact_keys(4096)` and
    /// `evict_idle_after(100000)`, the aggregator `max_exact_keys(4096)`.
    /// Off, the assembled snapshot must equal the reference byte for
    /// byte; on, only its totals must (floats may differ by an ulp).
    pub tiered: bool,
    /// Serve-side idle limit. It only ends a run whose collectors died;
    /// a healthy session is never idle this long.
    pub idle_guard: Duration,
}

pub const OD_EXACT: PipelineSpec = PipelineSpec {
    name: "od-exact",
    duration_s: 120_000.0,
    keying: Keying::Od,
    tiered: false,
    idle_guard: Duration::from_secs(30),
};

pub const FLOW_CHURN: PipelineSpec = PipelineSpec {
    name: "flow-churn",
    duration_s: 120_000.0,
    keying: Keying::Flow,
    tiered: true,
    idle_guard: Duration::from_secs(30),
};

/// Points per collector flush — `monitor_tool forward`'s default.
const FLUSH_EVERY: usize = 1 << 14;
const COLLECTORS: u64 = 2;
const MAX_EXACT_KEYS: usize = 4096;
const EVICT_IDLE_TICKS: u64 = 100_000;
/// Reconnect budget per sender (none is needed on a healthy run).
const RETRIES: u32 = 3;
/// The serve dispatcher's wake-up tick (`MultiLoopServer`'s 100 ms
/// readiness wait), in microseconds.
const TICK_US: u64 = 100_000;
/// 2⁶⁴ / φ: consecutive multiples are evenly spread modulo 2⁶⁴.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
/// Distinguishes the listeners of one process.
static NEXT_SOCKET: AtomicU64 = AtomicU64::new(0);
/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 5;

/// The collector engine shape of `monitor_tool`'s `Workload::config`:
/// BSS (interval 10, ε 1, 16 pre-samples, L 4), 2 shards, a
/// packet-size tail ladder.
fn collector_config(spec: &PipelineSpec, seed: u64) -> MonitorConfig {
    let config = MonitorConfig::default()
        .sampler(SamplerSpec::Bss {
            interval: 10,
            epsilon: 1.0,
            n_pre: 16,
            l: 4,
        })
        .shards(2)
        .seed(seed)
        .tail_thresholds(vec![64.0, 256.0, 576.0, 1024.0, 1400.0]);
    if spec.tiered {
        config
            .max_exact_keys(MAX_EXACT_KEYS)
            .evict_idle_after(EVICT_IDLE_TICKS)
    } else {
        config
    }
}

fn aggregator(spec: &PipelineSpec) -> Aggregator {
    if spec.tiered {
        Aggregator::new().max_exact_keys(MAX_EXACT_KEYS)
    } else {
        Aggregator::new()
    }
}

/// The single-process baseline the assembled snapshot is checked
/// against. Exact: one unsharded engine over every point. Tiered: idle
/// eviction counts ticks per engine and a collector only sees its own
/// partition, so the baseline is one unsharded engine per partition, fed
/// the same flush-sized batches (a batch sweeps once, at its end), merged.
fn reference(
    spec: &PipelineSpec,
    seed: u64,
    points: &[(u64, f64)],
    parts: &[Vec<(u64, f64)>],
) -> EngineSnapshot {
    let engine_over = |pts: &[(u64, f64)]| {
        let mut engine = MonitorEngine::new(collector_config(spec, seed).shards(1));
        for chunk in pts.chunks(FLUSH_EVERY) {
            engine.offer_batch(chunk);
        }
        engine.full_snapshot()
    };
    if spec.tiered {
        parts.iter().fold(EngineSnapshot::default(), |acc, part| {
            acc.merge(engine_over(part))
        })
    } else {
        engine_over(points)
    }
}

/// What every repetition's result is checked against.
struct Reference {
    /// Exact workloads compare the encoded snapshot byte for byte.
    bytes: Vec<u8>,
    /// Tiered workloads compare these totals.
    totals: [u64; 5],
}

/// Totals the tiered check compares: offered, kept, inspected, moment
/// count, tail total.
fn totals(snap: &EngineSnapshot) -> [u64; 5] {
    let s = snap.sampler_totals();
    let agg = snap.aggregate();
    [
        s.offered as u64,
        s.kept as u64,
        s.inspected as u64,
        agg.moments.count(),
        agg.tail.total(),
    ]
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn connector(addr: SocketAddr) -> impl FnMut() -> io::Result<SessionStream> {
    move || UnixStream::connect_addr(&addr).map(SessionStream::from)
}

/// One measured repetition.
struct Rep {
    bind_s: f64,
    result_s: f64,
    ingest_s: f64,
    flush_ms: Vec<f64>,
    state_bytes: f64,
    wire_bytes: f64,
    attempted: u64,
    failed: u64,
    layers: BTreeMap<&'static str, f64>,
}

/// Runs `spec` for `budget` (at least one repetition) after the set-up.
pub fn run(
    spec: &PipelineSpec,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
    fault: Fault,
) -> io::Result<RunOutput> {
    let mut synth_s = Vec::new();
    let mut keying_s = Vec::new();
    let mut setup = None;
    for rep in 0..SETUP_REPS {
        // Free the previous set-up first, so that two are never alive.
        drop(setup.take());
        let o = tracer.begin("nettrace.synth", rep as u64);
        let trace = TraceSynthesizer::bell_labs_like()
            .duration(spec.duration_s)
            .synthesize(seed);
        synth_s.push(tracer.end(o).as_secs_f64());
        let o = tracer.begin("nettrace.keying", rep as u64);
        let points = match spec.keying {
            Keying::Od => trace.od_keyed_points(),
            Keying::Flow => trace.flow_keyed_points(),
        };
        let parts: Vec<Vec<(u64, f64)>> = (0..COLLECTORS)
            .map(|c| {
                points
                    .iter()
                    .copied()
                    .filter(|&(k, _)| k % COLLECTORS == c)
                    .collect()
            })
            .collect();
        keying_s.push(tracer.end(o).as_secs_f64());
        drop(trace);
        setup = Some((points, parts));
    }
    let (points, parts) = setup.expect("at least one set-up");
    let n_points = points.len() as f64;
    let keys = {
        let mut k: Vec<u64> = points.iter().map(|&(k, _)| k).collect();
        k.sort_unstable();
        k.dedup();
        k.len()
    };

    let t = Instant::now();
    let want = reference(spec, seed, &points, &parts);
    let want = Reference {
        bytes: encode_snapshot(&want).to_vec(),
        totals: totals(&want),
    };
    let reference_s = t.elapsed().as_secs_f64();
    drop(points);

    let repeated = metrics::repeat(budget, 1, tracer, |iter, _, tracer| {
        repetition(spec, seed, iter, &parts, tracer, fault, &want)
    })?;

    let mut out = RunOutput {
        input: format!("{} points over {keys} keys", n_points as u64),
        iterations: repeated.all().count(),
        ..RunOutput::default()
    };
    let flush_ms: Vec<f64> = repeated
        .measured()
        .flat_map(|r| r.flush_ms.iter().copied())
        .collect();
    out.attempted = repeated.all().map(|r| r.attempted).sum();
    out.failed = repeated.all().map(|r| r.failed).sum();
    let e2e = &mut out.e2e;
    e2e.insert(
        "setup_s",
        metrics::median(&synth_s) + metrics::median(&keying_s) + repeated.typical(|r| r.bind_s),
    );
    e2e.insert("time_to_result_s", repeated.typical(|r| r.result_s));
    e2e.insert(
        "ingest_pts_per_s",
        n_points / repeated.typical(|r| r.ingest_s),
    );
    e2e.insert("flush_p50_ms", metrics::percentile(&flush_ms, 50.0));
    e2e.insert("flush_p90_ms", metrics::percentile(&flush_ms, 90.0));
    e2e.insert(
        "wire_bytes_per_pt",
        repeated.typical(|r| r.wire_bytes) / n_points,
    );
    e2e.insert("state_kib", repeated.typical(|r| r.state_bytes) / 1024.0);
    e2e.insert("peak_rss_mib", repeated.peak_rss_mib());
    out.finish_counts();

    out.layers = repeated.typical_map(|r| &r.layers);
    out.layers
        .insert("nettrace.synth_s", metrics::median(&synth_s));
    out.layers
        .insert("nettrace.keying_s", metrics::median(&keying_s));
    out.layers.insert("monitor.engine.reference_s", reference_s);
    if tracer.enabled() {
        metrics::add_attribution(&mut out.layers, tracer.spans(), &repeated, |r| r.result_s);
    }
    Ok(out)
}

fn repetition(
    spec: &PipelineSpec,
    seed: u64,
    iter: u64,
    parts: &[Vec<(u64, f64)>],
    tracer: &mut Tracer,
    fault: Fault,
    want: &Reference,
) -> io::Result<Rep> {
    let bind_start = Instant::now();
    // Abstract-namespace socket: nothing is written to the file system.
    let socket = NEXT_SOCKET.fetch_add(1, Ordering::Relaxed);
    let addr =
        SocketAddr::from_abstract_name(format!("perfbench-{}-{socket}", std::process::id()))?;
    let mut server = MultiLoopServer::new(
        vec![aggregator(spec)],
        ServeOptions {
            collectors: COLLECTORS as usize,
            accept_timeout: Some(spec.idle_guard),
        },
    );
    server.add_unix_listener(UnixListener::bind_addr(&addr)?)?;

    std::thread::scope(|scope| -> io::Result<Rep> {
        let serve = scope.spawn(move || {
            let start = Instant::now();
            let res = server.run();
            (res, start, Instant::now())
        });
        let mut attempted = 0u64;
        let mut failed = 0u64;
        // Connect (an empty flush sends the `Hello`) as part of set-up.
        let mut senders: Vec<_> = (0..COLLECTORS)
            .map(|id| {
                SequencedSender::new(
                    Collector::new_sequenced(id, collector_config(spec, seed)),
                    connector(addr.clone()),
                    Backoff::new(50, 3200, seed ^ id),
                    RETRIES,
                )
            })
            .collect();
        for sender in &mut senders {
            attempted += 1;
            failed += u64::from(sender.flush().is_err());
        }
        let bind_s = bind_start.elapsed().as_secs_f64();
        // The serve dispatcher wakes on a fixed tick counted from its
        // last accept, so the result lands on a tick boundary. Starting
        // each repetition at another phase of that tick (an evenly
        // spread sequence from a seeded offset) makes the mean time to
        // result carry the tick's expected cost instead of jumping by a
        // whole tick whenever ingest crosses a boundary.
        let phase = splitmix64(seed).wrapping_add(iter.wrapping_mul(GOLDEN_GAMMA));
        std::thread::sleep(Duration::from_micros(((phase >> 32) * TICK_US) >> 32));

        let root = tracer.begin(trace::ROOT, iter);
        let t0 = Instant::now();
        let mut flush_ms = Vec::new();
        let mut offer_s = 0.0;
        // The collectors take turns, one flush interval each.
        let chunks: Vec<Vec<&[(u64, f64)]>> = parts
            .iter()
            .map(|p| p.chunks(FLUSH_EVERY).collect())
            .collect();
        let rounds = chunks.iter().map(Vec::len).max().unwrap_or(0);
        let mut op = 0u64;
        for round in 0..rounds {
            for (sender, mine) in senders.iter_mut().zip(&chunks) {
                let Some(chunk) = mine.get(round) else {
                    continue;
                };
                let o = tracer.begin("monitor.ingest.offer", op);
                sender.collector_mut().offer_batch(chunk);
                offer_s += tracer.end(o).as_secs_f64();
                let o = tracer.begin("monitor.topology.flush", op);
                let res = sender.flush();
                flush_ms.push(tracer.end(o).as_secs_f64() * 1e3);
                attempted += 1;
                failed += u64::from(res.is_err());
                op += 1;
            }
        }
        let mut collectors = Vec::new();
        let (mut reconnects, mut resyncs, mut finish_s) = (0u64, 0u64, 0.0);
        for (id, sender) in senders.into_iter().enumerate() {
            reconnects += u64::from(sender.reconnects());
            attempted += 1;
            if fault == Fault::DropSession && id == 1 {
                failed += 1;
                drop(sender);
                continue;
            }
            let o = tracer.begin("monitor.retry.finish", id as u64);
            let res = sender.finish();
            finish_s += tracer.end(o).as_secs_f64();
            match res {
                Ok(c) => {
                    resyncs += u64::from(c.resyncs());
                    collectors.push(c);
                }
                Err(_) => failed += 1,
            }
        }
        let acked = Instant::now();

        let o = tracer.begin("monitor.transport.drain", iter);
        let (served, run_start, run_end) = serve.join().expect("serve thread panicked");
        tracer.end(o);
        let (aggs, report): (AggregatorSet, ServeReport) = served?;
        let o = tracer.begin("monitor.topology.snapshot", iter);
        let snap = aggs.snapshot();
        let snapshot_s = tracer.end(o).as_secs_f64();
        let o = tracer.begin("monitor.codec.encode", iter);
        let bytes = encode_snapshot(&snap);
        let encode_s = tracer.end(o).as_secs_f64();
        let result_s = tracer.end(root).as_secs_f64();
        tracer.record("monitor.transport.run", iter, "serve", run_start, run_end);

        // Correctness: every session completed, and the encoded result
        // matches the reference.
        let mut bytes = bytes.to_vec();
        if fault == Fault::FlipSnapshotByte {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 1;
        }
        attempted += 1 + report.failures.len() as u64 + report.aborted as u64;
        failed += report.failures.len() as u64
            + report.aborted as u64
            + COLLECTORS.saturating_sub(report.completed as u64);
        let matches = if spec.tiered {
            decode_snapshot(&bytes).is_ok_and(|got| totals(&got) == want.totals)
        } else {
            bytes == want.bytes
        };
        failed += u64::from(!matches);

        let sessions = &report.sessions;
        let wire_bytes: u64 = sessions.iter().map(|s| s.bytes).sum();
        let diff_bytes: u64 = sessions.iter().map(|s| s.diff_bytes).sum();
        let collector_bytes: usize = collectors
            .iter()
            .map(|c| c.engine().estimated_state_bytes())
            .sum();
        let agg_bytes = aggs.estimated_state_bytes();
        let points: usize = parts.iter().map(Vec::len).sum();
        let (evicted, retired) = collectors
            .iter()
            .map(|c| c.engine().lifecycle_stats())
            .fold((0, 0), |(e, r), s| (e + s.evicted, r + s.retired));
        // Sketching on both ends, as assembled: the collectors' promotions
        // and demotions plus the finals the aggregator demoted to keep its
        // retired store under `max_exact_keys`. Bytes: the collectors'
        // sketch tiers plus the assembled sketch image.
        let sketch = snap.sketch();
        let tier_bytes: usize = collectors
            .iter()
            .filter_map(|c| c.engine().tier_stats())
            .map(|t| t.sketch_state_bytes)
            .sum();
        let sketch_bytes = tier_bytes + sketch.map_or(0, Compactable::estimated_bytes);
        let layers = BTreeMap::from([
            ("monitor.ingest.offer_s", offer_s),
            (
                "monitor.ingest.offer_ns_per_pt",
                offer_s * 1e9 / points as f64,
            ),
            (
                "monitor.topology.flush_s",
                flush_ms.iter().sum::<f64>() / 1e3,
            ),
            ("monitor.topology.flushes", flush_ms.len() as f64),
            ("monitor.retry.finish_s", finish_s),
            ("monitor.retry.reconnects", reconnects as f64),
            ("monitor.retry.resyncs", resyncs as f64),
            ("monitor.lifecycle.evicted", evicted as f64),
            ("monitor.lifecycle.retired", retired as f64),
            (
                "monitor.sketch.promotions",
                sketch.map_or(0, |s| s.promotions) as f64,
            ),
            (
                "monitor.sketch.demotions",
                sketch.map_or(0, |s| s.demotions) as f64,
            ),
            (
                "monitor.sketch.sketched_keys",
                sketch.map_or(0, |s| s.distinct_keys()) as f64,
            ),
            ("monitor.sketch.state_bytes", sketch_bytes as f64),
            ("monitor.wire.bytes", wire_bytes as f64),
            (
                "monitor.wire.frames",
                sessions.iter().map(|s| s.frames).sum::<usize>() as f64,
            ),
            ("monitor.wire.diff_bytes", diff_bytes as f64),
            (
                "monitor.wire.full_bytes",
                sessions.iter().map(|s| s.full_bytes).sum::<u64>() as f64,
            ),
            (
                "monitor.wire.diff_ratio",
                diff_bytes as f64 / wire_bytes.max(1) as f64,
            ),
            (
                "monitor.transport.run_s",
                (run_end - run_start).as_secs_f64(),
            ),
            (
                "monitor.transport.drain_s",
                run_end.saturating_duration_since(acked).as_secs_f64(),
            ),
            ("monitor.transport.completed", report.completed as f64),
            ("monitor.transport.failures", report.failures.len() as f64),
            ("monitor.transport.aborted", report.aborted as f64),
            ("monitor.transport.probes", report.probes as f64),
            ("monitor.topology.snapshot_s", snapshot_s),
            ("monitor.topology.agg_state_bytes", agg_bytes as f64),
            ("monitor.codec.encode_s", encode_s),
            ("monitor.codec.snapshot_bytes", bytes.len() as f64),
        ]);
        Ok(Rep {
            bind_s,
            result_s,
            ingest_s: (acked - t0).as_secs_f64(),
            flush_ms,
            state_bytes: (collector_bytes + agg_bytes) as f64,
            wire_bytes: wire_bytes as f64,
            attempted,
            failed,
            layers,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ~60k-point trace; a dead collector ends the serve within 2 s.
    fn small(spec: &PipelineSpec) -> PipelineSpec {
        PipelineSpec {
            duration_s: 3000.0,
            idle_guard: Duration::from_secs(2),
            ..spec.clone()
        }
    }

    fn run_small(spec: &PipelineSpec, trace: bool, fault: Fault) -> RunOutput {
        run(
            &small(spec),
            3,
            Duration::ZERO,
            &mut Tracer::new(trace),
            fault,
        )
        .expect("pipeline runs")
    }

    #[test]
    fn healthy_pipelines_have_no_errors() {
        for spec in [&OD_EXACT, &FLOW_CHURN] {
            let out = run_small(spec, false, Fault::None);
            assert_eq!(out.failed, 0, "{}: {out:?}", spec.name);
            assert_eq!(out.e2e["ok_rate"], 1.0);
        }
    }

    #[test]
    fn a_flipped_snapshot_byte_is_an_error() {
        let out = run_small(&OD_EXACT, false, Fault::FlipSnapshotByte);
        assert!(out.error_rate() > 0.0, "{out:?}");
    }

    #[test]
    fn a_dropped_session_is_an_error() {
        for spec in [&OD_EXACT, &FLOW_CHURN] {
            let out = run_small(spec, false, Fault::DropSession);
            assert!(out.error_rate() > 0.0, "{}: {out:?}", spec.name);
        }
    }

    #[test]
    fn traced_run_attributes_the_whole_result() {
        let out = run_small(&OD_EXACT, true, Fault::None);
        let l = &out.layers;
        let attributed: f64 = l
            .iter()
            .filter(|(k, _)| k.starts_with("self."))
            .map(|(_, v)| v)
            .sum();
        assert!((attributed - l["trace.result_s"]).abs() < 1e-9, "{l:?}");
        assert!(l["self.monitor.ingest_s"] > 0.0 && l["self.monitor.topology_s"] > 0.0);
        assert!(l.contains_key("trace.overhead_s") && l["trace.spans"] > 0.0);
        assert_eq!(l["monitor.transport.completed"], 2.0);
    }
}
