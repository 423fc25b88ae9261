//! `monitor-tool` — drive the layered monitoring stack over synthetic
//! packet traces: run a standalone engine, inspect/merge snapshots, or
//! assemble a collector → aggregator topology over Unix sockets.
//!
//! ```text
//! monitor-tool run [--seed N] [--duration SECS] [--shards N]
//!                  [--interval C] [--snapshot OUT.ssm]
//!                  [--evict-idle TICKS] [--max-streams N] [--compact BYTES]
//!                  [--max-exact-keys N] [--sketch-bytes B]
//!     synthesize a Bell-Labs-like trace, ingest it as per-OD-pair
//!     streams (batched through the worker pool), print the link report,
//!     optionally write the snapshot. --max-exact-keys enables the
//!     two-tier store: at most N exact live streams, the long tail in
//!     a fixed-memory sketch of --sketch-bytes bytes (default 256 KiB)
//! monitor-tool info IN.ssm          # decode a snapshot, print the report
//! monitor-tool merge OUT.ssm IN.ssm [IN.ssm …]
//!     merge snapshots (disjoint or overlapping key sets) into one
//! monitor-tool serve SOCKET [--tcp HOST:PORT] --collectors N [--out OUT.ssm]
//!                  [--accept-timeout SECS] [--backend poll|epoll]
//!                  [--loops N] [--report-sessions] [--threaded]
//!                  [--max-exact-keys N] [--sketch-bytes B]
//!     accept collector sessions on a Unix socket (and, with --tcp, a
//!     TCP listener) until N sessions *delivered frames and closed
//!     cleanly*, assemble them, print the merged report. The default
//!     transport is the event loop on the platform-default readiness
//!     backend (epoll on Linux; --backend poll for the portable
//!     baseline); --loops N shards sessions across N event loops (one
//!     per core) behind an accept dispatcher, and --report-sessions
//!     prints per-session delivery counters so the loop balance is
//!     inspectable. --threaded keeps the historical
//!     one-blocking-thread-per-connection path (Unix socket only).
//!     Hostile sessions — garbage bytes, mid-frame disconnects,
//!     connect-and-close probes — are logged and isolated, never
//!     fatal, on every transport. --max-exact-keys caps each session's
//!     *retired* store server-side (overflow finals demote into a
//!     per-session sketch); --sketch-bytes compacts sketch images.
//! monitor-tool forward TARGET [--tcp] [--id K] [--partition I/N] [--seed N]
//!                  [--duration SECS] [--interval C] [--flush-every P]
//!                  [--evict-idle TICKS] [--compact BYTES]
//!                  [--max-exact-keys N] [--sketch-bytes B]
//!                  [--retry N] [--backoff-ms B]
//!     synthesize the shared trace, keep only keys hashing to partition
//!     I of N, and stream Hello/Delta/Evicted/Bye frames to TARGET —
//!     a Unix socket path, or host:port with --tcp. With --retry N the
//!     session is *sequenced* (wire v3): every frame carries a seq,
//!     acks trim an in-flight window, and up to N reconnects — connect
//!     *and* mid-stream failures alike — replay the unacked tail (or
//!     resync from a full snapshot after a serve restart) on a capped
//!     exponential backoff starting at B ms (default 50).
//! ```
//!
//! With the default (no-eviction) configuration, `serve` + N×`forward`
//! on the same seed reproduce, byte for byte, the snapshot `run`
//! computes single-process — the wire-boundary merge-equivalence
//! guarantee, demoable from the shell, on either transport. With
//! `--evict-idle` the clocks differ (each forwarder counts only its
//! partition's points, `run` counts all), so a key that reappears after
//! eviction restarts its sampler at different logical times: *totals*
//! stay exact, but kept sample sets — and hence the bytes — can diverge
//! from `run`'s.

use sst_monitor::retry::{Backoff, SequencedSender};
use sst_monitor::topology::{Aggregator, AggregatorSet};
use sst_monitor::transport::{
    pump_blocking, BackendKind, EventLoopServer, MultiLoopServer, ServeOptions, ServeReport,
    SessionStream, FALLBACK_ID_BASE,
};
use sst_monitor::Collector;
use sst_monitor::{
    decode_snapshot, encode_snapshot, EngineSnapshot, MonitorConfig, MonitorEngine, SamplerSpec,
};
use sst_nettrace::TraceSynthesizer;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

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
        Some("run") => run(it.collect()),
        Some("info") => {
            let path = it
                .next()
                .unwrap_or_else(|| die("info needs a snapshot path"));
            report(&load(&path));
        }
        Some("merge") => {
            let out = it
                .next()
                .unwrap_or_else(|| die("merge needs an output path"));
            let inputs: Vec<String> = it.collect();
            if inputs.is_empty() {
                die("merge needs at least one input snapshot");
            }
            let mut merged = EngineSnapshot::default();
            for p in &inputs {
                merged = merged.merge(load(p));
            }
            let bytes = encode_snapshot(&merged);
            std::fs::write(&out, &bytes).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
            eprintln!(
                "merged {} snapshots into {out}: {} streams, {} bytes",
                inputs.len(),
                merged.stream_count(),
                bytes.len()
            );
            report(&merged);
        }
        Some("serve") => serve(it.collect()),
        Some("forward") => forward(it.collect()),
        _ => die("usage: monitor-tool run|info|merge|serve|forward …  (see the module docs)"),
    }
}

/// Shared trace + engine shape so `run` and N×`forward` agree.
struct Workload {
    seed: u64,
    duration: f64,
    interval: usize,
    evict_idle: Option<u64>,
    max_streams: Option<usize>,
    compact: Option<usize>,
    max_exact_keys: Option<usize>,
    sketch_bytes: Option<usize>,
}

impl Workload {
    fn points(&self) -> Vec<(u64, f64)> {
        let trace = TraceSynthesizer::bell_labs_like()
            .duration(self.duration)
            .synthesize(self.seed);
        eprintln!(
            "trace: {} packets over {} OD pairs, {:.0}s",
            trace.len(),
            trace.od_pair_count(),
            trace.duration()
        );
        trace.od_keyed_points()
    }

    fn config(&self, shards: usize) -> MonitorConfig {
        let mut config = MonitorConfig::default()
            .sampler(if self.interval <= 1 {
                SamplerSpec::TakeAll
            } else {
                SamplerSpec::Bss {
                    interval: self.interval,
                    epsilon: 1.0,
                    n_pre: 16,
                    l: 4,
                }
            })
            .shards(shards)
            .seed(self.seed)
            // Packet sizes are 40..1500 bytes: a ladder on that scale.
            .tail_thresholds(vec![64.0, 256.0, 576.0, 1024.0, 1400.0]);
        if let Some(t) = self.evict_idle {
            config = config.evict_idle_after(t);
        }
        if let Some(n) = self.max_streams {
            config = config.max_streams(n);
        }
        if let Some(b) = self.compact {
            config = config.compact_budget(b);
        }
        if let Some(n) = self.max_exact_keys {
            config = config.max_exact_keys(n);
        }
        if let Some(b) = self.sketch_bytes {
            config = config.sketch_bytes(b);
        }
        config
    }
}

fn run(rest: Vec<String>) {
    let mut w = Workload {
        seed: 1,
        duration: 120.0,
        interval: 10,
        evict_idle: None,
        max_streams: None,
        compact: None,
        max_exact_keys: None,
        sketch_bytes: None,
    };
    let mut shards = 4usize;
    let mut snapshot_path: Option<String> = None;
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match a.as_str() {
            "--seed" => w.seed = parse(&num("--seed"), "--seed"),
            "--duration" => w.duration = parse(&num("--duration"), "--duration"),
            "--shards" => shards = parse(&num("--shards"), "--shards"),
            "--interval" => w.interval = parse(&num("--interval"), "--interval"),
            "--snapshot" => snapshot_path = Some(num("--snapshot")),
            "--evict-idle" => w.evict_idle = Some(parse(&num("--evict-idle"), "--evict-idle")),
            "--max-streams" => {
                w.max_streams = Some(parse(&num("--max-streams"), "--max-streams"));
            }
            "--compact" => w.compact = Some(parse(&num("--compact"), "--compact")),
            "--max-exact-keys" => {
                w.max_exact_keys = Some(parse(&num("--max-exact-keys"), "--max-exact-keys"));
            }
            "--sketch-bytes" => {
                w.sketch_bytes = Some(parse(&num("--sketch-bytes"), "--sketch-bytes"));
            }
            other => die(&format!("unexpected argument '{other}'")),
        }
    }
    let points = w.points();
    let mut engine = MonitorEngine::new(w.config(shards));
    // Stream the trace through in batches, as a collector would.
    for chunk in points.chunks(1 << 16) {
        engine.offer_batch(chunk);
    }
    engine.maintain();
    let stats = engine.lifecycle_stats();
    if stats.evicted > 0 {
        eprintln!(
            "lifecycle: {} evicted, {} retired, {} live, ~{} KiB state",
            stats.evicted,
            stats.retired,
            engine.stream_count(),
            engine.estimated_state_bytes() >> 10
        );
    }
    if let Some(t) = engine.tier_stats() {
        eprintln!(
            "tier: {} exact, ~{} sketched, {} promotions, {} demotions, ~{} KiB sketch",
            t.exact_keys,
            t.sketched_keys,
            t.promotions,
            t.demotions,
            t.sketch_state_bytes >> 10
        );
    }
    let snap = engine.full_snapshot();
    // The file first: a reader closing stdout early ends the run
    // during the report.
    if let Some(path) = snapshot_path {
        let bytes = encode_snapshot(&snap);
        std::fs::write(&path, &bytes).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        eprintln!("wrote {path}: {} bytes", bytes.len());
    }
    report(&snap);
}

fn serve(rest: Vec<String>) {
    let mut it = rest.into_iter();
    let socket = it
        .next()
        .unwrap_or_else(|| die("serve needs a socket path"));
    let mut collectors = 1usize;
    let mut out: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut accept_timeout: Option<Duration> = None;
    let mut threaded = false;
    let mut backend: Option<BackendKind> = None;
    let mut loops = 1usize;
    let mut report_sessions = false;
    let mut max_exact_keys: Option<usize> = None;
    let mut sketch_bytes: Option<usize> = None;
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match a.as_str() {
            "--collectors" => collectors = parse(&num("--collectors"), "--collectors"),
            "--out" => out = Some(num("--out")),
            "--tcp" => tcp = Some(num("--tcp")),
            "--accept-timeout" => {
                let secs: f64 = parse(&num("--accept-timeout"), "--accept-timeout");
                // try_from rejects NaN, infinity, and out-of-range;
                // the explicit check below rejects zero and negatives.
                match Duration::try_from_secs_f64(secs) {
                    Ok(d) if !d.is_zero() => accept_timeout = Some(d),
                    _ => die("--accept-timeout needs a positive (finite) number of seconds"),
                }
            }
            "--backend" => {
                backend = Some(num("--backend").parse().unwrap_or_else(|e: String| die(&e)));
            }
            "--loops" => {
                loops = parse(&num("--loops"), "--loops");
                if loops == 0 {
                    die("--loops needs at least 1");
                }
            }
            "--report-sessions" => report_sessions = true,
            "--max-exact-keys" => {
                max_exact_keys = Some(parse(&num("--max-exact-keys"), "--max-exact-keys"));
            }
            "--sketch-bytes" => {
                sketch_bytes = Some(parse(&num("--sketch-bytes"), "--sketch-bytes"));
            }
            "--threaded" => threaded = true,
            "--event-loop" => threaded = false, // The default; kept for explicitness.
            other => die(&format!("unexpected argument '{other}'")),
        }
    }
    if threaded && (backend.is_some() || loops > 1 || report_sessions) {
        die("--backend/--loops/--report-sessions need the event-loop transport (drop --threaded)");
    }
    let kind = backend.unwrap_or_default();
    let _ = std::fs::remove_file(&socket);
    let listener =
        UnixListener::bind(&socket).unwrap_or_else(|e| die(&format!("bind {socket}: {e}")));
    let mode = if threaded {
        "threaded".to_string()
    } else if loops > 1 {
        format!("{loops} event loops, {kind}")
    } else {
        format!("event loop, {kind}")
    };
    eprintln!("listening on {socket} for {collectors} collector(s) [{mode}]");
    // :0 resolves to an ephemeral port; print the real one so
    // forwarders (and tests) can find it.
    let tcp_listener = tcp.as_ref().map(|addr| {
        let l = TcpListener::bind(addr).unwrap_or_else(|e| die(&format!("bind {addr}: {e}")));
        match l.local_addr() {
            Ok(a) => eprintln!("listening on tcp {a}"),
            Err(_) => eprintln!("listening on tcp {addr}"),
        }
        l
    });
    let opts = ServeOptions {
        collectors,
        accept_timeout,
    };
    let make_agg = || {
        let mut a = Aggregator::new();
        if let Some(n) = max_exact_keys {
            a = a.max_exact_keys(n);
        }
        if let Some(b) = sketch_bytes {
            a = a.sketch_bytes(b);
        }
        a
    };
    let (aggs, rep) = if threaded {
        if tcp_listener.is_some() {
            die("--tcp needs the event-loop transport (drop --threaded)");
        }
        let (agg, rep) = serve_threaded(listener, make_agg(), collectors, accept_timeout);
        (AggregatorSet::new(vec![agg]), rep)
    } else if loops > 1 {
        let mut server =
            MultiLoopServer::new((0..loops).map(|_| make_agg()).collect(), opts).with_backend(kind);
        server
            .add_unix_listener(listener)
            .unwrap_or_else(|e| die(&format!("register unix listener: {e}")));
        if let Some(l) = tcp_listener {
            server
                .add_tcp_listener(l)
                .unwrap_or_else(|e| die(&format!("register tcp listener: {e}")));
        }
        server
            .run()
            .unwrap_or_else(|e| die(&format!("event loops: {e}")))
    } else {
        let mut server = EventLoopServer::new(make_agg(), opts).with_backend(kind);
        server
            .add_unix_listener(listener)
            .unwrap_or_else(|e| die(&format!("register unix listener: {e}")));
        if let Some(l) = tcp_listener {
            server
                .add_tcp_listener(l)
                .unwrap_or_else(|e| die(&format!("register tcp listener: {e}")));
        }
        let (agg, rep) = server
            .run()
            .unwrap_or_else(|e| die(&format!("event loop: {e}")));
        (AggregatorSet::new(vec![agg]), rep)
    };
    let _ = std::fs::remove_file(&socket);
    for f in &rep.failures {
        eprintln!(
            "session failed ({}, id {}): {} — isolated, kept serving",
            f.peer,
            f.session.map_or("unknown".into(), |s| s.to_string()),
            f.error
        );
    }
    if rep.probes > 0 {
        eprintln!("ignored {} connect-and-close probe(s)", rep.probes);
    }
    if report_sessions {
        for s in &rep.sessions {
            eprintln!(
                "session delivered: id={} peer={} loop={} frames={} bytes={} \
                 diff_bytes={} full_bytes={} resyncs={}",
                s.session.map_or("-".into(), |id| id.to_string()),
                s.peer,
                s.worker,
                s.frames,
                s.bytes,
                s.diff_bytes,
                s.full_bytes,
                s.resyncs
            );
        }
    }
    if rep.aborted > 0 {
        eprintln!(
            "dropped {} session(s) still mid-stream at shutdown",
            rep.aborted
        );
    }
    if rep.timed_out {
        eprintln!(
            "accept timeout: assembled {} of {collectors} expected collector(s)",
            rep.completed
        );
    }
    eprintln!(
        "assembled {} collector session(s), ~{} KiB aggregator state",
        aggs.collector_count(),
        aggs.estimated_state_bytes() >> 10
    );
    let snap = aggs.snapshot();
    // The file first: a reader closing stdout early ends the run
    // during the report.
    if let Some(path) = out {
        let bytes = encode_snapshot(&snap);
        std::fs::write(&path, &bytes).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        eprintln!("wrote {path}: {} bytes", bytes.len());
    }
    report(&snap);
}

/// The historical transport: one blocking thread per accepted
/// connection, aggregator behind a mutex. Kept for comparison and as a
/// fallback; shares the library's [`pump_blocking`] /
/// [`sst_monitor::SessionDriver`] state machine with the event loop,
/// so failures are isolated the same way (a bad session is logged and
/// rolled back, never fatal) and the assembled bytes are identical.
///
/// Unlike the event loop it joins every accepted session before
/// returning, so with `--accept-timeout` each session socket also gets
/// that as its read timeout — a stalled (never-closing) client then
/// fails its own session instead of holding the shutdown hostage.
/// Without the flag, a stalled client blocks shutdown forever — one
/// more reason the event loop is the default. Collector-id admission
/// (spoof rejection) is event-loop-only; this path trusts its local
/// Unix-socket peers to use distinct ids.
fn serve_threaded(
    listener: UnixListener,
    agg: Aggregator,
    collectors: usize,
    accept_timeout: Option<Duration>,
) -> (Aggregator, ServeReport) {
    listener
        .set_nonblocking(true)
        .unwrap_or_else(|e| die(&format!("listener nonblocking: {e}")));
    let agg = Mutex::new(agg);
    let completed = AtomicUsize::new(0);
    let probes = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    let last_activity = Mutex::new(Instant::now());
    let mut timed_out = false;
    std::thread::scope(|scope| {
        let mut conn = 0u64;
        loop {
            if completed.load(Ordering::SeqCst) >= collectors {
                break;
            }
            if let Some(t) = accept_timeout {
                let last = *last_activity.lock().unwrap_or_else(PoisonError::into_inner);
                if last.elapsed() >= t {
                    timed_out = true;
                    break;
                }
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    // A stalled client must not wedge the final scope
                    // join: bound each blocking read by the same idle
                    // budget (the read error then fails that session
                    // alone).
                    if let Some(t) = accept_timeout {
                        let _ = stream.set_read_timeout(Some(t));
                    }
                    // Accepting alone is not activity (a periodic
                    // prober must not defer the idle deadline) — the
                    // ActivityRead wrapper stamps delivered bytes.
                    // Legacy (Hello-less) sessions get ids past u32 so
                    // they can't collide with forwarders' small ids.
                    let fallback_id = FALLBACK_ID_BASE + conn;
                    conn += 1;
                    let (agg, completed, probes, failures, last_activity) =
                        (&agg, &completed, &probes, &failures, &last_activity);
                    scope.spawn(move || {
                        // Stamp the activity clock per read, not just
                        // at accept/exit, so a session actively
                        // streaming for longer than --accept-timeout
                        // doesn't trip the idle guard (matching the
                        // event loop's semantics).
                        let mut stream = ActivityRead {
                            inner: stream,
                            last_activity,
                        };
                        match pump_blocking(&mut stream, agg, fallback_id) {
                            Ok(0) => {
                                probes.fetch_add(1, Ordering::SeqCst);
                            }
                            Ok(_) => {
                                completed.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(e) => {
                                // One bad session must not kill the
                                // aggregator: record it, keep serving.
                                failures
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .push(sst_monitor::transport::SessionFailure {
                                        peer: "uds".into(),
                                        session: e.session,
                                        error: e.error.to_string(),
                                    });
                            }
                        }
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                // Peer resets and fd exhaustion are transient; dying
                // here would discard every completed session — the
                // total-loss failure this PR removes. Same
                // classification as the event loop's accept path.
                Err(e) if sst_monitor::transport::accept_error_is_transient(&e) => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => die(&format!("accept: {e}")),
            }
        }
    });
    let report = ServeReport {
        completed: completed.into_inner(),
        probes: probes.into_inner(),
        failures: failures
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
        aborted: 0,
        timed_out,
        sessions: Vec::new(),
    };
    // Even if a session thread panicked while holding the lock, the
    // completed sessions' state is intact (it is keyed per session):
    // recover it rather than discarding everything.
    let agg = agg.into_inner().unwrap_or_else(PoisonError::into_inner);
    (agg, report)
}

/// Read adapter for the threaded transport: stamps the shared
/// activity clock on every successful read so the accept-timeout means
/// "no session activity" there too.
struct ActivityRead<'a> {
    inner: UnixStream,
    last_activity: &'a Mutex<Instant>,
}

impl Read for ActivityRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 {
            *self
                .last_activity
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Instant::now();
        }
        Ok(n)
    }
}

fn forward(rest: Vec<String>) {
    let mut it = rest.into_iter();
    let socket = it
        .next()
        .unwrap_or_else(|| die("forward needs a socket path (or host:port with --tcp)"));
    let mut w = Workload {
        seed: 1,
        duration: 120.0,
        interval: 10,
        evict_idle: None,
        max_streams: None,
        compact: None,
        max_exact_keys: None,
        sketch_bytes: None,
    };
    let mut id: Option<u64> = None;
    let mut part = 0u64;
    let mut n_parts = 1u64;
    let mut flush_every = 1usize << 14;
    let mut tcp = false;
    let mut retry = 0u32;
    let mut backoff_ms = 50u64;
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match a.as_str() {
            "--tcp" => tcp = true,
            "--seed" => w.seed = parse(&num("--seed"), "--seed"),
            "--duration" => w.duration = parse(&num("--duration"), "--duration"),
            "--interval" => w.interval = parse(&num("--interval"), "--interval"),
            "--id" => id = Some(parse(&num("--id"), "--id")),
            "--partition" => {
                let spec = num("--partition");
                let (i, n) = spec
                    .split_once('/')
                    .unwrap_or_else(|| die("--partition expects I/N"));
                part = parse(i, "--partition");
                n_parts = parse(n, "--partition");
                if n_parts == 0 || part >= n_parts {
                    die("--partition needs I < N, N >= 1");
                }
            }
            "--flush-every" => flush_every = parse(&num("--flush-every"), "--flush-every"),
            "--evict-idle" => w.evict_idle = Some(parse(&num("--evict-idle"), "--evict-idle")),
            "--compact" => w.compact = Some(parse(&num("--compact"), "--compact")),
            "--max-exact-keys" => {
                w.max_exact_keys = Some(parse(&num("--max-exact-keys"), "--max-exact-keys"));
            }
            "--sketch-bytes" => {
                w.sketch_bytes = Some(parse(&num("--sketch-bytes"), "--sketch-bytes"));
            }
            "--retry" => retry = parse(&num("--retry"), "--retry"),
            "--backoff-ms" => backoff_ms = parse(&num("--backoff-ms"), "--backoff-ms"),
            other => die(&format!("unexpected argument '{other}'")),
        }
    }
    let points: Vec<(u64, f64)> = w
        .points()
        .into_iter()
        .filter(|&(k, _)| k % n_parts == part)
        .collect();
    let collector_id = id.unwrap_or(part);
    if retry > 0 {
        // Sequenced (wire v3) path: seq/ack window, reconnect with
        // backoff, replay or full-snapshot resync.
        let target = socket.clone();
        let connect = move || -> std::io::Result<SessionStream> {
            if tcp {
                TcpStream::connect(target.as_str()).map(SessionStream::from)
            } else {
                UnixStream::connect(target.as_str()).map(SessionStream::from)
            }
        };
        let backoff = Backoff::new(
            backoff_ms,
            backoff_ms.saturating_mul(64),
            w.seed ^ collector_id,
        );
        let mut sender = SequencedSender::new(
            Collector::new_sequenced(collector_id, w.config(2)),
            connect,
            backoff,
            retry,
        );
        for chunk in points.chunks(flush_every.max(1)) {
            sender.collector_mut().offer_batch(chunk);
            sender
                .flush()
                .unwrap_or_else(|e| die(&format!("flush: {e}")));
        }
        let reconnects = sender.reconnects();
        let collector = sender
            .finish()
            .unwrap_or_else(|e| die(&format!("finish: {e}")));
        let stats = collector.engine().lifecycle_stats();
        eprintln!(
            "forwarded {} points as collector {collector_id} (partition {part}/{n_parts}, \
             {} evicted, sequenced, {} reconnects)",
            points.len(),
            stats.evicted,
            reconnects
        );
        return;
    }
    let mut sock: Box<dyn Write> = if tcp {
        Box::new(
            TcpStream::connect(&socket).unwrap_or_else(|e| die(&format!("connect {socket}: {e}"))),
        )
    } else {
        Box::new(
            UnixStream::connect(&socket).unwrap_or_else(|e| die(&format!("connect {socket}: {e}"))),
        )
    };
    let mut collector = Collector::new(collector_id, w.config(2));
    for chunk in points.chunks(flush_every.max(1)) {
        collector.offer_batch(chunk);
        collector
            .flush(&mut sock)
            .unwrap_or_else(|e| die(&format!("flush: {e}")));
    }
    collector
        .finish(&mut sock)
        .unwrap_or_else(|e| die(&format!("finish: {e}")));
    let stats = collector.engine().lifecycle_stats();
    eprintln!(
        "forwarded {} points as collector {collector_id} (partition {part}/{n_parts}, {} evicted)",
        points.len(),
        stats.evicted
    );
}

fn report(snap: &EngineSnapshot) {
    let agg = snap.aggregate();
    let totals = snap.sampler_totals();
    println!("streams        : {}", snap.stream_count());
    if let Some(sk) = snap.sketch() {
        let tail_h = sk
            .projected_hurst()
            .map_or("(insufficient data)".to_string(), |h| format!("{h:.3}"));
        println!(
            "tier           : {} exact, ~{} sketched, {} promotions, {} demotions, \
             ~{} KiB sketch, tail Hurst {}",
            snap.stream_count(),
            sk.distinct_keys(),
            sk.promotions,
            sk.demotions,
            sst_core::summary::Compactable::estimated_bytes(sk) >> 10,
            tail_h
        );
    }
    println!(
        "offered/kept   : {} / {} (inspected {})",
        totals.offered, totals.kept, totals.inspected
    );
    println!(
        "kept mean/std  : {:.3} / {:.3}",
        agg.moments.mean(),
        agg.moments.stddev()
    );
    match agg.hurst_estimate() {
        Some(h) => println!("online Hurst   : {h:.3}"),
        None => println!("online Hurst   : (insufficient data)"),
    }
    let ladder: Vec<(f64, u64)> = agg.tail.ladder().collect();
    if !ladder.is_empty() {
        let cells: Vec<String> = ladder
            .iter()
            .map(|(t, c)| {
                format!(
                    "P(>{t:.0})={:.4}",
                    *c as f64 / agg.tail.total().max(1) as f64
                )
            })
            .collect();
        println!("tail           : {}", cells.join("  "));
    }
    println!("top streams by kept volume:");
    println!(
        "{:>18} {:>12} {:>14} {:>10}",
        "key", "kept", "volume", "mean"
    );
    for e in snap.top_streams(5) {
        println!(
            "{:>18x} {:>12} {:>14.0} {:>10.2}",
            e.key,
            e.sampler.kept,
            e.summary.kept_volume(),
            e.summary.moments.mean()
        );
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("{what}: cannot parse '{s}'")))
}

fn load(path: &str) -> EngineSnapshot {
    let bytes = std::fs::read(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    decode_snapshot(&bytes).unwrap_or_else(|e| die(&format!("decode {path}: {e}")))
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
