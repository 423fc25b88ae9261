//! Topology layer: N collector processes streaming frames to one
//! aggregator whose merged state is bit-for-bit what a single unsharded
//! engine would hold.
//!
//! A [`Collector`] wraps a [`MonitorEngine`] and speaks the
//! [`crate::wire`] protocol over any `io::Write` (an in-memory buffer,
//! a Unix socket, a file). It tracks the keys touched since the last
//! flush and ships them as cumulative `Delta` frames, plus `Evicted`
//! frames for streams its lifecycle layer retired.
//!
//! An [`Aggregator`] consumes frames from many collectors. Its state is
//! *per collector*: a live view (replaced by `Delta`/`FullSnapshot`
//! entries — they are cumulative) and a retired store (folded from
//! `Evicted` finals). Because each collector's frames are ordered
//! within its own session and state is never shared across collectors,
//! the aggregate is **independent of how sessions interleave** — feed
//! the connections concurrently or one after another, the final
//! snapshot is the same bits.
//!
//! A tiered collector ([`crate::TierConfig`]) additionally ships its
//! cumulative sketch-tier image on the last `Delta` of a flush; the
//! aggregator holds the latest image per collector (replace semantics,
//! like the live view) and folds them into its assembled snapshot. A
//! sequenced collector ships the image only when it changed since the
//! last one it sealed (a sketchless `Delta` leaves the aggregator's
//! image in place; a resync's `FullSnapshot` always carries it); the
//! unsequenced [`Collector::flush`] ships it on every flush. The
//! aggregator can also tier *itself*: [`Aggregator::max_exact_keys`]
//! caps each collector's retired store, demoting the smallest finals
//! into a per-collector sketch.
//!
//! ## The wire-boundary merge-equivalence guarantee
//!
//! For collectors watching disjoint key sets (the deployment shape: a
//! collector per link/tap), [`Aggregator::snapshot`] equals the
//! snapshot of one engine that ingested every collector's points —
//! extending the in-process N ∈ {1, 2, 8} shard pins across the wire.
//! The `topology_wire` integration tests pin this bit-for-bit over both
//! in-memory pipes and Unix sockets.

use crate::codec::{encoded_diff_len, encoded_entry_len};
use crate::diff::{apply_diff, diff_entry, StreamDiff};
use crate::engine::{EngineSnapshot, MonitorConfig, MonitorEngine, StreamEntry};
use crate::sketch::SketchSnapshot;
use crate::wire::{
    encode_frame, encode_frame_seq, read_frames, write_frame, Frame, FrameDecoder, HelloResume,
    WireError, WIRE_VERSION, WIRE_VERSION_FRAMED,
};
use bytes::Bytes;
use sst_core::stream::StreamDecision;
use sst_core::summary::{Compactable, MergeableSummary};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::io::Write;
use std::sync::{Mutex, PoisonError};

/// Sequenced-mode (wire v3) state of a [`Collector`]: the unacked
/// replay window and the eviction log behind resumable sessions.
struct SeqState {
    /// Sequence number the next sealed data frame gets.
    next_seq: u64,
    /// Highest sequence the aggregator has acknowledged.
    last_acked: Option<u64>,
    /// Encoded, unacked v3 data frames, oldest first — replayed
    /// verbatim after a reconnect.
    window: VecDeque<(u64, Bytes)>,
    /// Every evicted final shipped this session, tagged with the seq
    /// of the frame that last carried it. `Evicted` finals *merge* at
    /// the aggregator, so a resync must re-send exactly the tail the
    /// aggregator is missing — never blindly re-send everything. Kept
    /// for the session lifetime: that is what lets a `Resync{from: 0}`
    /// after a full aggregator restart rebuild byte-identical totals.
    evicted_log: Vec<(u64, StreamEntry)>,
    /// A `Bye` has been sealed; a resync must re-seal it after the
    /// re-baseline frames.
    bye_sealed: bool,
    /// Last cumulative entry shipped per live key — what the
    /// aggregator's live view holds under the seq watermark, and the
    /// base every wire-v4 `DeltaDiff` is computed against. Rebuilt
    /// from the `FullSnapshot` on resync; evicted keys drop out.
    baseline: BTreeMap<u64, StreamEntry>,
    /// `Resync` round-trips served this session. Each one says the
    /// aggregator's live view diverged from `baseline` (lost frames, a
    /// restart, or server-side compaction rewriting entries under us).
    resyncs: u32,
    /// The sketch-tier image the sealed frames leave at the aggregator:
    /// the last one sealed on a `Delta` or `FullSnapshot`. A flush whose
    /// image equals it seals none — sketchless `Delta`s leave the
    /// aggregator's image in place.
    sketch_sent: Option<SketchSnapshot>,
    /// Ship differential frames where they are smaller. Auto-cleared
    /// past [`RESYNC_DIFF_LIMIT`]: against a peer that keeps diverging
    /// (e.g. an aggregator compacting its live entries), diffs only
    /// buy resync storms — cumulative `Delta`s are then strictly
    /// better.
    diff_enabled: bool,
}

impl SeqState {
    fn new() -> Self {
        SeqState {
            next_seq: 0,
            last_acked: None,
            window: VecDeque::new(),
            evicted_log: Vec::new(),
            bye_sealed: false,
            baseline: BTreeMap::new(),
            resyncs: 0,
            sketch_sent: None,
            diff_enabled: true,
        }
    }

    fn seal(&mut self, frame: &Frame) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.window.push_back((seq, encode_frame_seq(seq, frame)));
        seq
    }
}

/// A monitoring engine that streams its state over the wire protocol.
pub struct Collector {
    id: u64,
    engine: MonitorEngine,
    /// Keys touched since the last flush.
    dirty: BTreeSet<u64>,
    /// Evicted finals drained from the engine but not yet successfully
    /// written — survives a failed flush so totals are never lost.
    pending_evicted: Vec<StreamEntry>,
    hello_sent: bool,
    /// `Some` in sequenced (wire v3) mode.
    seq: Option<SeqState>,
}

/// Target payload per `Delta`/`Evicted` frame, in (estimated) bytes —
/// 16× below [`crate::wire::MAX_FRAME_BYTES`], so even generous
/// estimate error can't reach the wire cap whatever
/// `reservoir_capacity` or ladder the config chose. Splitting is free
/// because entries are cumulative (`Delta`) or per-key finals
/// (`Evicted`).
const TARGET_FRAME_BYTES: usize = 16 << 20;

/// Resyncs a sequenced session tolerates before concluding the peer
/// can't hold its baseline (most likely a server-side `compact_budget`
/// rewriting live entries between flushes) and dropping back to
/// cumulative `Delta` frames for the rest of the session. One resync
/// is normal after a fault or aggregator restart; repeated ones mean
/// every differential flush costs a full re-baseline — strictly worse
/// than never diffing.
const RESYNC_DIFF_LIMIT: u32 = 2;

/// Splits `entries` at [`TARGET_FRAME_BYTES`] boundaries (estimated
/// entry footprint; always at least one entry per chunk).
fn frame_chunks(entries: &[StreamEntry]) -> impl Iterator<Item = &[StreamEntry]> {
    let mut rest = entries;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let mut bytes = 0usize;
        let mut n = 0usize;
        for e in rest {
            bytes += 64 + e.summary.estimated_bytes();
            if n > 0 && bytes > TARGET_FRAME_BYTES {
                break;
            }
            n += 1;
        }
        let (chunk, tail) = rest.split_at(n);
        rest = tail;
        Some(chunk)
    })
}

/// Splits `diffs` at [`TARGET_FRAME_BYTES`] boundaries of exact
/// encoded size (always at least one diff per chunk).
fn diff_chunks(diffs: &[StreamDiff]) -> impl Iterator<Item = &[StreamDiff]> {
    let mut rest = diffs;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let mut bytes = 0usize;
        let mut n = 0usize;
        for d in rest {
            bytes += encoded_diff_len(d);
            if n > 0 && bytes > TARGET_FRAME_BYTES {
                break;
            }
            n += 1;
        }
        let (chunk, tail) = rest.split_at(n);
        rest = tail;
        Some(chunk)
    })
}

impl Collector {
    /// Wraps an engine configuration as a collector with the given id.
    ///
    /// The engine's `retain_evicted` is forced **off**: evicted finals
    /// leave through `Evicted` frames and the aggregator owns them —
    /// holding a second copy here would defeat the memory bound.
    ///
    /// # Panics
    ///
    /// As [`MonitorEngine::new`] (invalid sampler spec or shard count).
    pub fn new(id: u64, config: MonitorConfig) -> Self {
        Collector {
            id,
            engine: MonitorEngine::new(config.retain_evicted(false)),
            dirty: BTreeSet::new(),
            pending_evicted: Vec::new(),
            hello_sent: false,
            seq: None,
        }
    }

    /// As [`Collector::new`], but in **sequenced** (wire v3) mode: data
    /// frames carry sequence numbers, unacked frames are retained in a
    /// replay window, and evicted finals are logged for the session
    /// lifetime so any suffix of the session can be resynced — the
    /// price of surviving aggregator restarts byte-identically.
    ///
    /// Sequenced collectors seal frames with [`Collector::seal_flush`]
    /// / [`Collector::seal_finish`] and a transport-owned writer (e.g.
    /// [`crate::retry::SequencedSender`]) ships the window; the direct
    /// [`Collector::flush`] path is for unsequenced collectors.
    ///
    /// # Panics
    ///
    /// As [`MonitorEngine::new`].
    pub fn new_sequenced(id: u64, config: MonitorConfig) -> Self {
        let mut c = Collector::new(id, config);
        c.seq = Some(SeqState::new());
        c
    }

    /// `true` when this collector speaks the sequenced (v3) protocol.
    pub fn is_sequenced(&self) -> bool {
        self.seq.is_some()
    }

    /// Enables or disables differential (`DeltaDiff`, wire v4) frames
    /// on a sequenced collector; on by default. Diffing trades memory
    /// for bytes: the collector keeps a baseline copy of every live
    /// entry it shipped (roughly doubling its summary memory) to ship
    /// only the parts that moved — ~10× fewer steady-state bytes for
    /// slowly-changing streams. Disable it for memory-bound collectors
    /// or peers known to compact live entries server-side.
    ///
    /// # Panics
    ///
    /// On an unsequenced collector — differential frames need the seq
    /// watermark and resync path.
    pub fn diff_frames(mut self, enabled: bool) -> Self {
        let st = self.seq.as_mut().expect("sequenced collector");
        st.diff_enabled = enabled;
        if !enabled {
            st.baseline.clear();
        }
        self
    }

    /// `Resync` round-trips this sequenced collector has served.
    ///
    /// # Panics
    ///
    /// On an unsequenced collector.
    pub fn resyncs(&self) -> u32 {
        self.seq.as_ref().expect("sequenced collector").resyncs
    }

    /// The collector id (sent in `Hello`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The wrapped engine (snapshots, lifecycle stats).
    pub fn engine(&self) -> &MonitorEngine {
        &self.engine
    }

    /// Offers one point of stream `key`.
    pub fn offer(&mut self, key: u64, value: f64) -> StreamDecision {
        self.dirty.insert(key);
        self.engine.offer(key, value)
    }

    /// Offers a batch of keyed points.
    pub fn offer_batch(&mut self, points: &[(u64, f64)]) {
        self.dirty.extend(points.iter().map(|&(k, _)| k));
        self.engine.offer_batch(points);
    }

    /// Ships everything pending to `w`: a `Hello` on first contact,
    /// `Evicted` frames for streams retired since the last flush, and
    /// `Delta` frames with the cumulative entries of every dirty key
    /// still live (chunked at `TARGET_FRAME_BYTES` of estimated
    /// entry footprint so no frame approaches the wire's length cap,
    /// whatever the configured reservoir size). The dirty set is
    /// cleared only once everything was written.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error. Nothing is lost on failure:
    /// undelivered evicted finals are held and re-sent on the next
    /// flush, and the dirty set keeps its keys so their cumulative
    /// entries are rebuilt from the engine then. (A *torn* frame write
    /// corrupts the byte stream itself — callers should drop the
    /// connection and open a fresh session; an at-least-once redelivery
    /// of `Evicted` finals across sessions needs the ack story the
    /// ROADMAP tracks.)
    pub fn flush(&mut self, w: &mut impl Write) -> std::io::Result<()> {
        assert!(
            self.seq.is_none(),
            "sequenced collectors seal frames (seal_flush) instead of writing directly"
        );
        if !self.hello_sent {
            write_frame(
                w,
                &Frame::Hello {
                    protocol: WIRE_VERSION_FRAMED,
                    collector_id: self.id,
                    resume: None,
                },
            )?;
            self.hello_sent = true;
        }
        // Evicted keys may sit in the dirty set; their live state is
        // gone (or fresh, in which case the deltas below re-add it).
        self.pending_evicted.extend(self.engine.drain_evicted());
        while !self.pending_evicted.is_empty() {
            let n = frame_chunks(&self.pending_evicted)
                .next()
                .expect("non-empty")
                .len();
            write_frame(w, &Frame::Evicted(self.pending_evicted[..n].to_vec()))?;
            // Drop a chunk only after its frame was fully written.
            self.pending_evicted.drain(..n);
        }
        let entries = self.engine.entries_for(self.dirty.iter().copied());
        // A tiered engine's cumulative sketch image rides the *last*
        // Delta of each flush (replace semantics at the aggregator); a
        // flush with no dirty entries ships it on an empty Delta.
        let mut sketch = self.engine.sketch_snapshot();
        let chunks: Vec<&[StreamEntry]> = frame_chunks(&entries).collect();
        let last = chunks.len().saturating_sub(1);
        for (i, chunk) in chunks.iter().enumerate() {
            let mut snap = EngineSnapshot::from_streams(chunk.to_vec());
            if i == last {
                snap = snap.with_sketch(sketch.take());
            }
            write_frame(w, &Frame::Delta(snap))?;
        }
        if let Some(sk) = sketch {
            let snap = EngineSnapshot::from_streams(Vec::new()).with_sketch(Some(sk));
            write_frame(w, &Frame::Delta(snap))?;
        }
        self.dirty.clear();
        Ok(())
    }

    /// Flushes, then closes the session with `Bye`.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn finish(&mut self, w: &mut impl Write) -> std::io::Result<()> {
        self.flush(w)?;
        write_frame(w, &Frame::Bye)
    }

    // ---- sequenced (v3) sealing API -------------------------------

    fn seq_mut(&mut self) -> &mut SeqState {
        self.seq.as_mut().expect("sequenced collector")
    }

    /// Seals everything pending into the replay window as sequenced
    /// frames: `Evicted` frames for streams retired since the last
    /// seal (each final also tagged into the eviction log), then
    /// `DeltaDiff` frames for dirty keys whose differential encoding
    /// beats the cumulative one, then `Delta` frames for the rest; a
    /// tiered engine's sketch image rides the last `Delta` when it
    /// differs from the image last sealed (a flush with nothing dirty,
    /// nothing evicted and an unchanged image seals no frame at all).
    /// Nothing is written — a transport writer ships
    /// [`Collector::unsent_window`] and trims it via
    /// [`Collector::ack`].
    ///
    /// A dirty entry ships as a diff only when all of: diffing is
    /// enabled ([`Collector::diff_frames`]), a baseline for the key
    /// exists (it was shipped before and not evicted since), the pair
    /// is structurally diffable (counters only grew, reservoir/cascade
    /// never shrank), and the encoded diff is strictly smaller than
    /// the encoded cumulative entry. Anything else falls back to the
    /// cumulative `Delta` path — correctness never depends on diffing.
    ///
    /// # Panics
    ///
    /// On an unsequenced collector.
    pub fn seal_flush(&mut self) {
        self.pending_evicted.extend(self.engine.drain_evicted());
        let evicted = std::mem::take(&mut self.pending_evicted);
        // An evicted key's baseline is gone on both sides: the
        // aggregator drops it from the live view, so a reappearing key
        // must re-ship cumulatively.
        {
            let st = self.seq.as_mut().expect("sequenced collector");
            for e in &evicted {
                st.baseline.remove(&e.key);
            }
        }
        for chunk in frame_chunks(&evicted) {
            let frame = Frame::Evicted(chunk.to_vec());
            let st = self.seq.as_mut().expect("sequenced collector");
            let seq = st.seal(&frame);
            st.evicted_log
                .extend(chunk.iter().map(|e| (seq, e.clone())));
        }
        let entries = self.engine.entries_for(self.dirty.iter().copied());
        // Partition dirty entries: diff where the differential encoding
        // wins, cumulative otherwise. Either way the new entry becomes
        // the key's baseline for the next flush.
        let mut diffs: Vec<StreamDiff> = Vec::new();
        let mut full: Vec<StreamEntry> = Vec::new();
        {
            let st = self.seq.as_mut().expect("sequenced collector");
            for e in &entries {
                let diff = if st.diff_enabled {
                    st.baseline
                        .get(&e.key)
                        .and_then(|base| diff_entry(base, e))
                        .filter(|d| encoded_diff_len(d) < encoded_entry_len(e))
                } else {
                    None
                };
                match diff {
                    Some(d) => diffs.push(d),
                    None => full.push(e.clone()),
                }
                if st.diff_enabled {
                    st.baseline.insert(e.key, e.clone());
                }
            }
        }
        for chunk in diff_chunks(&diffs) {
            self.seq_mut().seal(&Frame::DeltaDiff(chunk.to_vec()));
        }
        // As in `flush`: the cumulative sketch image rides the last
        // sealed Delta (or an empty one when nothing ships cumulative)
        // — never a DeltaDiff, whose payload is per-stream only — but
        // only when it changed since the last image sealed. Replays
        // keep the aggregator's image and every re-baseline carries
        // one, so an unchanged image is already in place.
        let st = self.seq.as_mut().expect("sequenced collector");
        let mut sketch = self
            .engine
            .sketch_snapshot()
            .filter(|sk| st.sketch_sent.as_ref() != Some(sk));
        if sketch.is_some() {
            st.sketch_sent.clone_from(&sketch);
        }
        let chunks: Vec<&[StreamEntry]> = frame_chunks(&full).collect();
        let last = chunks.len().saturating_sub(1);
        for (i, chunk) in chunks.iter().enumerate() {
            let mut snap = EngineSnapshot::from_streams(chunk.to_vec());
            if i == last {
                snap = snap.with_sketch(sketch.take());
            }
            self.seq_mut().seal(&Frame::Delta(snap));
        }
        if let Some(sk) = sketch {
            let snap = EngineSnapshot::from_streams(Vec::new()).with_sketch(Some(sk));
            self.seq_mut().seal(&Frame::Delta(snap));
        }
        self.dirty.clear();
    }

    /// Seals pending state, then a `Bye`. Idempotent across resyncs:
    /// [`Collector::handle_resync`] re-seals the `Bye` after the
    /// re-baseline frames.
    ///
    /// # Panics
    ///
    /// On an unsequenced collector.
    pub fn seal_finish(&mut self) {
        self.seal_flush();
        self.seq_mut().seal(&Frame::Bye);
        self.seq_mut().bye_sealed = true;
    }

    /// The `Hello` opening a sequenced connection: `Fresh` for a
    /// never-connected session, otherwise `Replay` from the oldest
    /// unacked frame (the aggregator skips any seq it already
    /// applied).
    ///
    /// # Panics
    ///
    /// On an unsequenced collector.
    pub fn hello(&self) -> Frame {
        let st = self.seq.as_ref().expect("sequenced collector");
        let resume = if st.next_seq == 0 && st.last_acked.is_none() {
            HelloResume::Fresh { first_seq: 0 }
        } else {
            HelloResume::Replay {
                first_seq: st.window.front().map_or(st.next_seq, |&(s, _)| s),
            }
        };
        Frame::Hello {
            protocol: WIRE_VERSION,
            collector_id: self.id,
            resume: Some(resume),
        }
    }

    /// Records an aggregator `Ack {through_seq}`: acked frames leave
    /// the replay window.
    ///
    /// # Panics
    ///
    /// On an unsequenced collector.
    pub fn ack(&mut self, through_seq: u64) {
        let st = self.seq_mut();
        while st.window.front().is_some_and(|&(s, _)| s <= through_seq) {
            st.window.pop_front();
        }
        if st.last_acked.is_none_or(|a| a < through_seq) {
            st.last_acked = Some(through_seq);
        }
    }

    /// Answers an aggregator `Resync {from_seq}`: the window is
    /// superseded wholesale by a re-baseline — the evicted finals the
    /// aggregator is missing (log entries tagged at or past
    /// `from_seq`, re-sealed under fresh seqs), then a `FullSnapshot`
    /// of the entire live engine state, then the `Bye` again if one
    /// was already sealed. Returns the `Resync`-mode `Hello` to send
    /// before the rebuilt window.
    ///
    /// # Panics
    ///
    /// On an unsequenced collector.
    pub fn handle_resync(&mut self, from_seq: u64) -> Frame {
        // Everything pending joins the baseline: dirty keys are in the
        // full snapshot, pending evictions seal first.
        self.pending_evicted.extend(self.engine.drain_evicted());
        let pending = std::mem::take(&mut self.pending_evicted);
        let st = self.seq.as_mut().expect("sequenced collector");
        st.window.clear();
        let first_seq = st.next_seq;
        // Re-send the evicted tail the aggregator is missing, fresh
        // seqs, and re-tag the log so a *second* resync stays exact.
        let mut resend: Vec<StreamEntry> = Vec::new();
        let mut kept: Vec<(u64, StreamEntry)> = Vec::new();
        for (tag, entry) in std::mem::take(&mut st.evicted_log) {
            if tag >= from_seq {
                resend.push(entry);
            } else {
                kept.push((tag, entry));
            }
        }
        resend.extend(pending);
        st.evicted_log = kept;
        for chunk in frame_chunks(&resend) {
            let frame = Frame::Evicted(chunk.to_vec());
            let st = self.seq.as_mut().expect("sequenced collector");
            let seq = st.seal(&frame);
            st.evicted_log
                .extend(chunk.iter().map(|e| (seq, e.clone())));
        }
        let snap = self.engine.snapshot();
        self.dirty.clear();
        let st = self.seq_mut();
        // The FullSnapshot re-baselines both sides at once: the
        // aggregator's live view becomes exactly these entries, so
        // they are what future diffs must be computed against. Repeated
        // resyncs mean the peer can't hold a baseline (most likely
        // server-side compaction) — give up on diffing for the session.
        st.resyncs += 1;
        if st.resyncs > RESYNC_DIFF_LIMIT {
            st.diff_enabled = false;
        }
        st.baseline.clear();
        if st.diff_enabled {
            st.baseline
                .extend(snap.streams().iter().map(|e| (e.key, e.clone())));
        }
        st.sketch_sent = snap.sketch().cloned();
        st.seal(&Frame::FullSnapshot(snap));
        if st.bye_sealed {
            st.seal(&Frame::Bye);
        }
        Frame::Hello {
            protocol: WIRE_VERSION,
            collector_id: self.id,
            resume: Some(HelloResume::Resync { first_seq }),
        }
    }

    /// The unacked window frames at or past `from_seq`, oldest first
    /// (encoded, ready to write).
    pub fn unsent_window(&self, from_seq: u64) -> impl Iterator<Item = (u64, &Bytes)> {
        self.seq
            .as_ref()
            .expect("sequenced collector")
            .window
            .iter()
            .filter(move |&&(s, _)| s >= from_seq)
            .map(|&(s, ref b)| (s, b))
    }

    /// Sequence number the next sealed frame will get.
    pub fn next_seq(&self) -> u64 {
        self.seq.as_ref().expect("sequenced collector").next_seq
    }

    /// `true` once the sealed `Bye` (and everything before it) has
    /// been acknowledged — the session is durably complete.
    pub fn finish_acked(&self) -> bool {
        let st = self.seq.as_ref().expect("sequenced collector");
        st.bye_sealed && st.window.is_empty()
    }
}

/// Per-collector state inside the aggregator.
#[derive(Default)]
struct CollectorState {
    /// Latest cumulative entry per live key (Delta/FullSnapshot
    /// replace).
    live: BTreeMap<u64, StreamEntry>,
    /// Folded evicted finals per key.
    retired: BTreeMap<u64, StreamEntry>,
    /// Latest cumulative sketch-tier image this collector reported
    /// (sketch-bearing `Delta`s and `FullSnapshot`s replace it, like
    /// the live view).
    sketch: Option<SketchSnapshot>,
    /// Retired finals *this aggregator* demoted into sketch form to
    /// honor [`Aggregator::max_exact_keys`] — additive, never replaced
    /// by collector frames (those contributions left the retired map
    /// for good).
    absorbed: Option<SketchSnapshot>,
    done: bool,
    /// Sequenced (v3) session: highest applied data-frame seq. The
    /// watermark is what makes redelivery idempotent — duplicate seqs
    /// are skipped, which matters because `Evicted` finals merge.
    last_seq: Option<u64>,
    /// This id negotiated the sequenced protocol.
    sequenced: bool,
    /// A `Resync` was requested; data frames are ignored until the
    /// `Resync`-mode `Hello` re-baselines the session.
    awaiting_resync: bool,
}

/// A suspended collector's aggregator state, parked in the
/// [`AdmissionRegistry`] between a sequenced session's failure and its
/// resumption (possibly on a different serve loop). Opaque: only
/// [`Aggregator::park_collector`] produces one and only
/// [`Aggregator::restore_collector`] consumes it.
pub struct ParkedCollector(CollectorState);

/// What [`Aggregator::feed_seq`] did with a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqOutcome {
    /// The frame was applied (or was an unsequenced frame).
    Applied,
    /// Duplicate seq — already applied in a prior connection; skipped.
    Duplicate,
    /// Dropped: the session is awaiting a resync re-baseline.
    Ignored,
    /// A gap was detected: the caller should send
    /// `Resync { from_seq }` back to the collector. Data frames are
    /// ignored until the `Resync`-mode `Hello` arrives.
    NeedResync {
        /// First sequence number the aggregator is missing.
        from_seq: u64,
    },
}

/// The `n` smallest of `pairs`, ascending — the order repeatedly
/// taking the minimum would visit them in. One selection pass plus a
/// sort of the `n` picked: O(len + n log n), not O(len · n).
fn smallest_first(pairs: impl Iterator<Item = (u64, u64)>, n: usize) -> Vec<(u64, u64)> {
    let mut all: Vec<(u64, u64)> = pairs.collect();
    if n < all.len() {
        all.select_nth_unstable(n);
        all.truncate(n);
    }
    all.sort_unstable();
    all
}

/// Assembles frames from many collectors into one mergeable state.
#[derive(Default)]
pub struct Aggregator {
    collectors: BTreeMap<u64, CollectorState>,
    /// Optional byte budget applied to incoming summaries.
    compact_budget: Option<usize>,
    /// Per-collector retired-store cap; overflow entries demote into
    /// the collector's absorbed sketch.
    max_exact_keys: Option<usize>,
    /// Byte budget applied to incoming and absorbed sketch images.
    sketch_budget: Option<usize>,
}

impl Aggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Aggregator::default()
    }

    /// Compacts every incoming summary toward `bytes` (bounds
    /// aggregator memory under huge fan-in; totals stay exact).
    pub fn compact_budget(mut self, bytes: usize) -> Self {
        self.compact_budget = Some(bytes);
        self
    }

    /// Caps each collector's **retired** store at `n` keys: beyond it,
    /// the smallest finals (minimum `(kept count, key)`) demote into a
    /// per-collector sketch — totals stay exact, per-key attribution of
    /// the demoted tail becomes approximate. The cap costs one
    /// O(retired) selection pass per `Evicted` frame that overflows it,
    /// however many finals that frame demotes. The *live* view is not
    /// capped here: live entries are cumulative views the collector
    /// replaces wholesale, so dropping one server-side would lose its
    /// totals; a collector bounds its own live table with
    /// [`crate::TierConfig`] / lifecycle eviction.
    pub fn max_exact_keys(mut self, n: usize) -> Self {
        self.max_exact_keys = Some(n);
        self
    }

    /// Compacts every incoming (and server-side absorbed) sketch image
    /// toward `bytes`. Totals stay exact.
    pub fn sketch_bytes(mut self, bytes: usize) -> Self {
        self.sketch_budget = Some(bytes);
        self
    }

    /// Applies one frame from the session of `collector_id` (the id
    /// from that session's `Hello`; transports that already know the
    /// session id may feed data frames directly). Unsequenced entry
    /// point: equivalent to [`Aggregator::feed_seq`] with no sequence
    /// number.
    ///
    /// # Errors
    ///
    /// As [`Aggregator::feed_seq`].
    pub fn feed(&mut self, collector_id: u64, frame: Frame) -> Result<(), WireError> {
        self.feed_seq(collector_id, None, frame).map(|_| ())
    }

    /// Applies one frame with its wire sequence number.
    ///
    /// Protocol-version negotiation happens here: any `Hello` is
    /// accepted, and the session runs at the highest version both
    /// sides speak — `resume: Some` means the sequenced (v3) protocol,
    /// `resume: None` the one-way framed (v2) protocol, whatever the
    /// peer's declared ceiling. A v2 peer is never rejected.
    ///
    /// Sequenced sessions are idempotent across redelivery: `last_seq`
    /// is tracked per collector (and survives re-admission), duplicate
    /// seqs are skipped, and a gap turns into a
    /// [`SeqOutcome::NeedResync`] rather than silent corruption.
    ///
    /// # Errors
    ///
    /// [`WireError::Corrupt`] on protocol violations: aggregator
    /// control frames fed as collector frames, sequenced data frames
    /// without a sequenced `Hello`, or unsequenced data frames inside
    /// a sequenced session.
    pub fn feed_seq(
        &mut self,
        collector_id: u64,
        seq: Option<u64>,
        frame: Frame,
    ) -> Result<SeqOutcome, WireError> {
        if frame.is_control() {
            return Err(WireError::Corrupt(
                "aggregator control frame from a collector",
            ));
        }
        let state = self.collectors.entry(collector_id).or_default();
        if let Frame::Hello { resume, .. } = &frame {
            match resume {
                None => {
                    // A fresh Hello restarts the session's live view (a
                    // reconnecting collector re-sends cumulative state);
                    // retired finals (and server-side absorbed sketches)
                    // were real evictions and stay. The reported sketch
                    // is cumulative like the live view: cleared here,
                    // replaced by the next sketch-bearing frame.
                    state.live.clear();
                    state.sketch = None;
                    state.done = false;
                    state.sequenced = false;
                    state.last_seq = None;
                    state.awaiting_resync = false;
                }
                Some(HelloResume::Fresh { first_seq }) => {
                    state.live.clear();
                    state.sketch = None;
                    state.done = false;
                    state.sequenced = true;
                    state.last_seq = first_seq.checked_sub(1);
                    state.awaiting_resync = false;
                }
                Some(HelloResume::Replay { first_seq }) => {
                    // Keep everything: the whole point of a replay is
                    // that prior state (and its seq watermark) stands.
                    state.done = false;
                    state.sequenced = true;
                    let expected = state.last_seq.map_or(0, |s| s + 1);
                    if *first_seq > expected {
                        state.awaiting_resync = true;
                        return Ok(SeqOutcome::NeedResync { from_seq: expected });
                    }
                    state.awaiting_resync = false;
                }
                Some(HelloResume::Resync { first_seq }) => {
                    // Re-baseline: the live view (and reported sketch)
                    // is rebuilt by the coming FullSnapshot; retired
                    // finals already applied stay (the collector
                    // re-sends only the tail past the seq watermark we
                    // reported).
                    state.live.clear();
                    state.sketch = None;
                    state.done = false;
                    state.sequenced = true;
                    state.last_seq = first_seq.checked_sub(1);
                    state.awaiting_resync = false;
                }
            }
            return Ok(SeqOutcome::Applied);
        }
        // Data frame: sequence bookkeeping before any state change.
        // The watermark advances only *after* the frame applies — a
        // differential frame that fails validation must not count as
        // applied, or the resync would skip it.
        let advance = if state.sequenced {
            let seq = seq.ok_or(WireError::Corrupt(
                "unsequenced data frame in a sequenced session",
            ))?;
            if state.awaiting_resync {
                return Ok(SeqOutcome::Ignored);
            }
            let expected = state.last_seq.map_or(0, |s| s + 1);
            if seq < expected {
                return Ok(SeqOutcome::Duplicate);
            }
            if seq > expected {
                state.awaiting_resync = true;
                return Ok(SeqOutcome::NeedResync { from_seq: expected });
            }
            Some(seq)
        } else {
            if seq.is_some() {
                return Err(WireError::Corrupt(
                    "sequenced data frame without a sequenced hello",
                ));
            }
            None
        };
        match frame {
            Frame::Hello { .. } | Frame::Ack { .. } | Frame::Resync { .. } | Frame::Shutdown => {
                unreachable!("handled above")
            }
            Frame::Delta(snap) => {
                // A sketch-bearing Delta replaces the cumulative sketch
                // view; sketchless Deltas (the non-final chunks of a
                // flush, or any untiered collector's) leave it alone.
                let sketch = snap.sketch().cloned();
                for mut e in snap.into_streams() {
                    if let Some(b) = self.compact_budget {
                        e.summary.compact(b);
                    }
                    state.live.insert(e.key, e);
                }
                if let Some(mut sk) = sketch {
                    if let Some(b) = self.sketch_budget {
                        sk.compact(b);
                    }
                    state.sketch = Some(sk);
                }
            }
            Frame::FullSnapshot(snap) => {
                // A full snapshot is the entire engine image: the
                // sketch view is replaced unconditionally (cleared for
                // an untiered engine).
                let sketch = snap.sketch().cloned();
                state.live.clear();
                for mut e in snap.into_streams() {
                    if let Some(b) = self.compact_budget {
                        e.summary.compact(b);
                    }
                    state.live.insert(e.key, e);
                }
                state.sketch = sketch.map(|mut sk| {
                    if let Some(b) = self.sketch_budget {
                        sk.compact(b);
                    }
                    sk
                });
            }
            Frame::Evicted(entries) => {
                for mut e in entries {
                    if let Some(b) = self.compact_budget {
                        e.summary.compact(b);
                    }
                    state.live.remove(&e.key);
                    use std::collections::btree_map::Entry;
                    match state.retired.entry(e.key) {
                        Entry::Vacant(v) => {
                            v.insert(e);
                        }
                        Entry::Occupied(mut o) => {
                            let held = o.get_mut();
                            held.sampler.merge_from(&e.sampler);
                            held.summary.merge_from(&e.summary);
                            if let Some(b) = self.compact_budget {
                                held.summary.compact(b);
                            }
                        }
                    }
                }
                // Retired-store tiering: beyond the cap, demote the
                // smallest finals — minimum `(kept count, key)`, a
                // deterministic total order — into the per-collector
                // absorbed sketch. Totals stay exact.
                // Nothing else touches the store while it drains, so the
                // victims are picked once per frame, in demotion order.
                let excess = self
                    .max_exact_keys
                    .map_or(0, |cap| state.retired.len().saturating_sub(cap));
                if excess > 0 {
                    let order = state
                        .retired
                        .iter()
                        .map(|(&k, e)| (e.summary.moments.count(), k));
                    for (_, victim) in smallest_first(order, excess) {
                        let e = state.retired.remove(&victim).expect("victim present");
                        let sk = state.absorbed.get_or_insert_with(SketchSnapshot::default);
                        sk.absorb_entry(&e);
                        if let Some(b) = self.sketch_budget {
                            sk.compact(b);
                        }
                    }
                }
            }
            Frame::DeltaDiff(diffs) => {
                let Some(seq) = advance else {
                    return Err(WireError::Corrupt(
                        "differential frame in an unsequenced session",
                    ));
                };
                // Diffs apply in-place against the live view. Any
                // failure — unknown key, baseline fingerprint mismatch
                // (e.g. our compact_budget rewrote the entry), or a
                // structurally invalid patch — turns into a resync at
                // this frame's seq: the watermark has not advanced, so
                // the collector re-baselines from here. A frame that
                // fails partway may leave earlier entries updated;
                // that's fine, the resync's FullSnapshot replaces the
                // live view wholesale.
                for d in &diffs {
                    let applied = state
                        .live
                        .get_mut(&d.key)
                        .is_some_and(|e| apply_diff(e, d).is_ok());
                    if !applied {
                        state.awaiting_resync = true;
                        return Ok(SeqOutcome::NeedResync { from_seq: seq });
                    }
                    if let Some(b) = self.compact_budget {
                        let e = state.live.get_mut(&d.key).expect("applied above");
                        e.summary.compact(b);
                    }
                }
            }
            Frame::Bye => state.done = true,
        }
        if let Some(seq) = advance {
            state.last_seq = Some(seq);
        }
        Ok(SeqOutcome::Applied)
    }

    /// Highest applied sequence number of `collector_id`'s session
    /// (`None` for unknown ids and unsequenced sessions).
    pub fn last_seq(&self, collector_id: u64) -> Option<u64> {
        self.collectors.get(&collector_id).and_then(|s| s.last_seq)
    }

    /// `true` once `collector_id`'s session has applied its `Bye`.
    pub fn session_done(&self, collector_id: u64) -> bool {
        self.collectors.get(&collector_id).is_some_and(|s| s.done)
    }

    /// `true` while `collector_id` is waiting out a requested resync.
    pub fn awaiting_resync(&self, collector_id: u64) -> bool {
        self.collectors
            .get(&collector_id)
            .is_some_and(|s| s.awaiting_resync)
    }

    /// Extracts `collector_id`'s whole state (live, retired, seq
    /// watermark) for parking in the [`AdmissionRegistry`] while its
    /// session is down. The collector vanishes from this aggregator —
    /// [`Aggregator::restore_collector`] puts the state back wherever
    /// the session resumes.
    pub fn park_collector(&mut self, collector_id: u64) -> Option<ParkedCollector> {
        self.collectors.remove(&collector_id).map(ParkedCollector)
    }

    /// Re-injects state parked by [`Aggregator::park_collector`]
    /// (possibly from another loop's aggregator) ahead of a resumed
    /// session's frames.
    pub fn restore_collector(&mut self, collector_id: u64, parked: ParkedCollector) {
        self.collectors.insert(collector_id, parked.0);
    }

    /// Runs a whole byte stream (one collector session) into the
    /// aggregator: reads the `Hello`, then feeds every following frame
    /// to that session. Legacy v1 snapshots (no `Hello`) are attributed
    /// to `fallback_id`.
    ///
    /// # Errors
    ///
    /// I/O errors from the reader; protocol errors as `InvalidData`.
    pub fn ingest_stream(
        &mut self,
        r: &mut impl std::io::Read,
        fallback_id: u64,
    ) -> std::io::Result<usize> {
        let mut session = fallback_id;
        let mut first = true;
        let mut result = Ok(());
        let n = read_frames(r, |frame| {
            if result.is_err() {
                return;
            }
            if first {
                if let Frame::Hello { collector_id, .. } = frame {
                    session = collector_id;
                }
                first = false;
            }
            result = self.feed(session, frame);
        })?;
        result.map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(n)
    }

    /// Discards every entry (live *and* retired) fed under
    /// `collector_id`, as if that session had never connected.
    ///
    /// Transports call this when a session fails mid-stream — a
    /// half-delivered cumulative view must not leak into the assembled
    /// snapshot, so the guarantee stays "the snapshot is exactly the
    /// completed sessions". Retired finals the failed session delivered
    /// are lost with it; redelivering them on reconnect needs the
    /// ack story the ROADMAP tracks. (Sessions are trusted to use
    /// distinct ids — a session that claims another's id already stomps
    /// its live view at `Hello` time.)
    pub fn remove_collector(&mut self, collector_id: u64) {
        self.collectors.remove(&collector_id);
    }

    /// Collector sessions seen so far.
    pub fn collector_count(&self) -> usize {
        self.collectors.len()
    }

    /// `true` once every known session has sent `Bye`.
    pub fn all_done(&self) -> bool {
        !self.collectors.is_empty() && self.collectors.values().all(|c| c.done)
    }

    /// The assembled snapshot: for every collector (ascending id),
    /// retired finals then live entries, canonically merged, plus the
    /// sketch images (each collector's reported sketch, then its
    /// server-side absorbed one) folded in the same ascending-id order.
    /// For disjoint collectors this is bit-for-bit the single-engine
    /// snapshot ([`MonitorEngine::full_snapshot`] semantics) — sketch
    /// section included for a lone tiered collector.
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut entries: Vec<StreamEntry> = Vec::new();
        let mut sketch: Option<SketchSnapshot> = None;
        for state in self.collectors.values() {
            entries.extend(state.retired.values().cloned());
            entries.extend(state.live.values().cloned());
            for sk in state.sketch.iter().chain(state.absorbed.iter()) {
                match &mut sketch {
                    None => sketch = Some(sk.clone()),
                    Some(acc) => acc.merge_from(sk),
                }
            }
        }
        EngineSnapshot::from_streams(entries).with_sketch(sketch)
    }

    /// Approximate bytes held across all per-collector state, sketch
    /// images included.
    pub fn estimated_state_bytes(&self) -> usize {
        self.collectors
            .values()
            .map(|c| {
                let entries: usize = c
                    .live
                    .values()
                    .chain(c.retired.values())
                    .map(|e| 64 + e.summary.estimated_bytes())
                    .sum();
                let sketches: usize = c
                    .sketch
                    .iter()
                    .chain(c.absorbed.iter())
                    .map(Compactable::estimated_bytes)
                    .sum();
                entries + sketches
            })
            .sum()
    }
}

/// Who holds a collector id in the admission registry.
enum IdOwner {
    /// An open session (by its transport-assigned token) is feeding
    /// under this id.
    Open(u64),
    /// A completed session delivered this id's state; nobody may claim
    /// it again within this serve run (a late "reconnect" after a
    /// clean `Bye` is indistinguishable from a spoof).
    Completed,
    /// A sequenced session failed mid-stream; its aggregator state is
    /// parked here until the collector reconnects and resumes —
    /// idempotently, thanks to the parked seq watermark.
    Suspended(Box<ParkedCollector>),
}

/// Result of [`AdmissionRegistry::claim`].
pub enum Claim {
    /// The id is granted, no prior state.
    New,
    /// The id is granted and carries the parked state of the suspended
    /// session being resumed — restore it into the claiming loop's
    /// aggregator before feeding frames.
    Resumed(Box<ParkedCollector>),
    /// Another open session owns the id, or a completed session
    /// delivered it: the claimant must be failed before the frame
    /// touches any aggregator.
    Rejected,
}

/// Collector-id admission table shared by every serve loop of one run.
///
/// An id already owned by another *open* session, or delivered by a
/// *completed* one, cannot be claimed again — a spoofed `Hello` is
/// rejected before it can reset the real collector's live view. Ids
/// free up again when their session fails, so a collector that crashed
/// mid-stream can reconnect and resend its cumulative state.
///
/// The table is its own type (rather than event-loop-private state, as
/// it originally was) because under multi-loop serving
/// ([`crate::transport::MultiLoopServer`]) sessions land on different
/// loops: admission must be global or a spoofer could dodge it by
/// connecting until the dispatcher hands it a different loop than its
/// victim. It is a small `Mutex`ed map, consulted only on the *first*
/// frame a session sends under each id (the per-session
/// [`SessionDriver`] caches ids it already fed), so cross-loop
/// contention is a handful of lock acquisitions per session, not per
/// frame.
#[derive(Default)]
pub struct AdmissionRegistry {
    owners: Mutex<BTreeMap<u64, IdOwner>>,
}

impl AdmissionRegistry {
    /// An empty registry (wrap it in an `Arc` to share across loops).
    pub fn new() -> Self {
        AdmissionRegistry::default()
    }

    /// Recovers the map even if a panicking loop thread poisoned the
    /// lock: the table holds only small plain data, never mid-mutation
    /// invariants.
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, IdOwner>> {
        self.owners.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims `id` on behalf of the session `token`: grants free ids,
    /// re-grants ids this very session holds, resumes suspended ids
    /// (handing their parked state to the claimant), and rejects ids
    /// owned by another open session or delivered by a completed one —
    /// the caller must then fail the claiming session *before* the
    /// frame touches any aggregator.
    pub fn claim(&self, id: u64, token: u64) -> Claim {
        let mut owners = self.lock();
        match owners.get(&id) {
            None => {
                owners.insert(id, IdOwner::Open(token));
                Claim::New
            }
            Some(IdOwner::Open(t)) if *t == token => Claim::New,
            Some(IdOwner::Open(_)) | Some(IdOwner::Completed) => Claim::Rejected,
            Some(IdOwner::Suspended(_)) => {
                let Some(IdOwner::Suspended(parked)) = owners.insert(id, IdOwner::Open(token))
                else {
                    unreachable!("matched Suspended above")
                };
                Claim::Resumed(parked)
            }
        }
    }

    /// Parks a failed sequenced session's aggregator state under its
    /// id, to be handed to whichever session (on whichever loop)
    /// resumes it.
    pub fn suspend(&self, id: u64, parked: ParkedCollector) {
        self.lock().insert(id, IdOwner::Suspended(Box::new(parked)));
    }

    /// Marks every id in `ids` as delivered by a completed session:
    /// within this run a later claimant would be a spoof.
    pub fn complete(&self, ids: impl Iterator<Item = u64>) {
        let mut owners = self.lock();
        for id in ids {
            owners.insert(id, IdOwner::Completed);
        }
    }

    /// Frees every id the (failed) session `token` held open, so the
    /// real collector can reconnect and resend cumulative state.
    pub fn release(&self, token: u64) {
        self.lock()
            .retain(|_, o| !matches!(o, IdOwner::Open(t) if *t == token));
    }
}

/// The per-loop aggregators of a multi-loop serve, assembled at
/// snapshot/report time.
///
/// Each serve loop owns a private [`Aggregator`] that its sessions feed
/// lock-free; nothing is shared while bytes flow. Only when the run is
/// over are the per-loop states combined — via
/// [`EngineSnapshot::merge`], whose canonical key-wise form makes the
/// assembled snapshot independent of *which* loop each collector
/// happened to land on. For collectors watching disjoint key sets the
/// result is byte-identical to one unsharded engine (and to a
/// single-loop serve of the same sessions), whatever the dispatcher's
/// placement — pinned by `tests/transport_live.rs` for 1, 2 and 4
/// loops on both readiness backends.
#[derive(Default)]
pub struct AggregatorSet {
    aggs: Vec<Aggregator>,
}

impl AggregatorSet {
    /// Wraps the per-loop aggregators a finished multi-loop run left.
    pub fn new(aggs: Vec<Aggregator>) -> Self {
        AggregatorSet { aggs }
    }

    /// How many per-loop aggregators the set holds.
    pub fn loops(&self) -> usize {
        self.aggs.len()
    }

    /// Completed collector sessions across all loops.
    pub fn collector_count(&self) -> usize {
        self.aggs.iter().map(Aggregator::collector_count).sum()
    }

    /// Approximate bytes held across every loop's per-collector state.
    pub fn estimated_state_bytes(&self) -> usize {
        self.aggs
            .iter()
            .map(Aggregator::estimated_state_bytes)
            .sum()
    }

    /// The assembled snapshot: every loop's snapshot merged
    /// canonically (the empty snapshot is the merge identity, so idle
    /// loops contribute nothing, and a single loop's snapshot is
    /// returned without a merge pass).
    pub fn snapshot(&self) -> EngineSnapshot {
        self.aggs
            .iter()
            .map(Aggregator::snapshot)
            .reduce(EngineSnapshot::merge)
            .unwrap_or_default()
    }
}

/// Why a collector session failed.
#[derive(Debug)]
pub enum SessionError {
    /// The byte stream violated the wire protocol (or carried a frame
    /// the aggregator rejected, e.g. an unsupported `Hello` version).
    Wire(WireError),
    /// The connection closed with a partial frame still buffered.
    MidFrameEof,
    /// The session tried to feed under a collector id the transport's
    /// admission policy refused (e.g. an id another session owns).
    IdRejected(u64),
    /// A *sequenced* session's connection ended (even on a clean frame
    /// boundary) before its `Bye` was applied. Unsequenced v1/v2
    /// streams complete on EOF; a sequenced collector explicitly ends
    /// with `Bye` and anything less is a torn connection the peer will
    /// resume — completing it would mark the id delivered and reject
    /// the resumption as a spoof.
    SequencedEof(u64),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Wire(e) => write!(f, "wire: {e}"),
            SessionError::MidFrameEof => f.write_str("connection closed mid-frame"),
            SessionError::IdRejected(id) => {
                write!(f, "collector id {id} already owned by another session")
            }
            SessionError::SequencedEof(id) => {
                write!(f, "sequenced session {id} disconnected before its Bye")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// The per-session state machine every transport shares: bytes in,
/// aggregator mutations out.
///
/// A `SessionDriver` owns one connection's [`FrameDecoder`] and session
/// identity. Push bytes as they arrive ([`SessionDriver::push`]), call
/// [`SessionDriver::finish`] at EOF; each completed frame is fed to the
/// [`Aggregator`] under the session's id — the id from the first
/// `Hello`, or `fallback_id` for legacy (Hello-less) `.ssm` streams,
/// whose implicit `FullSnapshot` only decodes once EOF is signalled.
///
/// The driver never touches the aggregator except through
/// [`Aggregator::feed`]/[`Aggregator::remove_collector`], so the serve
/// loops drive it over their exclusively-owned aggregator, and it is
/// unit-testable against in-memory byte slices.
pub struct SessionDriver {
    dec: FrameDecoder,
    session: Option<u64>,
    fallback_id: u64,
    frames: usize,
    /// Every collector id this session fed at least one frame under —
    /// a session that re-`Hello`s under new ids touches several, and
    /// [`SessionDriver::abort`] must roll back all of them.
    fed: BTreeSet<u64>,
    /// The session negotiated the sequenced (v3) protocol.
    sequenced: bool,
    /// Encoded aggregator → collector control frames (`Ack`, `Resync`)
    /// awaiting transport write — the transport drains this via
    /// [`SessionDriver::take_outbound`] and owns partial-write
    /// handling.
    outbound: Vec<u8>,
    /// Highest seq already queued in an `Ack`, so acks fire once per
    /// advance, not once per pushed chunk.
    acked_through: Option<u64>,
    /// Wire bytes (header + payload) received in differential
    /// (`DeltaDiff`) frames.
    diff_bytes: u64,
    /// Wire bytes received in cumulative data frames (`Delta`,
    /// `FullSnapshot`, `Evicted`).
    full_bytes: u64,
    /// `Resync` requests this session has issued.
    resyncs: u64,
}

impl SessionDriver {
    /// A fresh session; data frames arriving before any `Hello` are
    /// attributed to `fallback_id`.
    pub fn new(fallback_id: u64) -> Self {
        SessionDriver {
            dec: FrameDecoder::new(),
            session: None,
            fallback_id,
            frames: 0,
            fed: BTreeSet::new(),
            sequenced: false,
            outbound: Vec::new(),
            acked_through: None,
            diff_bytes: 0,
            full_bytes: 0,
            resyncs: 0,
        }
    }

    /// Feeds a chunk of received bytes, applying every frame that
    /// completes. Equivalent to [`SessionDriver::push_admitted`] with
    /// an admit-everything policy — for transports whose peers are
    /// trusted to use distinct ids (in-process pipes, local Unix
    /// sockets).
    ///
    /// # Errors
    ///
    /// [`SessionError::Wire`] on malformed bytes or a rejected frame;
    /// the session is then dead (callers should [`SessionDriver::abort`]
    /// and drop the connection).
    pub fn push(&mut self, bytes: &[u8], agg: &mut Aggregator) -> Result<(), SessionError> {
        self.push_admitted(bytes, agg, &mut |_, _| true)
    }

    /// As [`SessionDriver::push`], but `admit` is consulted **before**
    /// the first frame under each newly-claimed collector id is
    /// applied — returning `false` fails the session with
    /// [`SessionError::IdRejected`] *before* the frame can touch the
    /// aggregator (a spoofed `Hello` would otherwise clear the real
    /// collector's live view). Network-facing transports use this to
    /// refuse ids already owned by another live or completed session —
    /// and, handed the aggregator, to restore parked state when
    /// admitting a *resumed* session.
    ///
    /// # Errors
    ///
    /// As [`SessionDriver::push`], plus [`SessionError::IdRejected`].
    pub fn push_admitted(
        &mut self,
        bytes: &[u8],
        agg: &mut Aggregator,
        admit: &mut dyn FnMut(u64, &mut Aggregator) -> bool,
    ) -> Result<(), SessionError> {
        self.dec.push(bytes);
        self.drain(agg, admit)
    }

    /// Signals EOF: decodes anything still pending (a legacy snapshot
    /// decodes only now) and verifies the stream ended on a frame
    /// boundary. Admits everything, like [`SessionDriver::push`].
    ///
    /// # Errors
    ///
    /// [`SessionError::MidFrameEof`] if bytes of an incomplete frame
    /// remain; [`SessionError::Wire`] as [`SessionDriver::push`].
    pub fn finish(&mut self, agg: &mut Aggregator) -> Result<(), SessionError> {
        self.finish_admitted(agg, &mut |_, _| true)
    }

    /// As [`SessionDriver::finish`] with an admission policy (a legacy
    /// stream establishes its fallback id only now, at EOF).
    ///
    /// # Errors
    ///
    /// As [`SessionDriver::finish`], plus [`SessionError::IdRejected`].
    pub fn finish_admitted(
        &mut self,
        agg: &mut Aggregator,
        admit: &mut dyn FnMut(u64, &mut Aggregator) -> bool,
    ) -> Result<(), SessionError> {
        self.dec.finish();
        self.drain(agg, admit)?;
        if self.dec.pending_bytes() != 0 {
            return Err(SessionError::MidFrameEof);
        }
        // A sequenced session is complete only once its `Bye` applied:
        // a clean frame-boundary EOF without one is a torn connection
        // whose peer will reconnect and resume — completing it here
        // would mark the id delivered and spoof-reject the resumption.
        if self.sequenced {
            if let Some(id) = self.session {
                if !agg.session_done(id) {
                    return Err(SessionError::SequencedEof(id));
                }
            }
        }
        Ok(())
    }

    /// Rolls the session's contribution back out of the aggregator:
    /// every collector id it fed frames under is removed (no-op if it
    /// never delivered a frame). Call on session failure.
    pub fn abort(&self, agg: &mut Aggregator) {
        for &id in &self.fed {
            agg.remove_collector(id);
        }
    }

    /// Frames successfully fed so far. Transports use `> 0` to tell a
    /// real collector session from a connect-and-probe that must not
    /// consume a collector slot.
    pub fn frames_delivered(&self) -> usize {
        self.frames
    }

    /// Wire bytes received in differential (`DeltaDiff`) frames.
    pub fn diff_bytes(&self) -> u64 {
        self.diff_bytes
    }

    /// Wire bytes received in cumulative data frames (`Delta`,
    /// `FullSnapshot`, `Evicted`).
    pub fn full_bytes(&self) -> u64 {
        self.full_bytes
    }

    /// `Resync` requests this session has issued back to its peer.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// The session's established id (`Hello`'s collector id, or the
    /// fallback once a Hello-less data frame arrived).
    pub fn session_id(&self) -> Option<u64> {
        self.session
    }

    /// Every collector id this session has fed frames under (what
    /// [`SessionDriver::abort`] would roll back).
    pub fn fed_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.fed.iter().copied()
    }

    /// The session negotiated the sequenced (v3) protocol — on
    /// failure, transports park its state for resumption instead of
    /// rolling it back.
    pub fn is_sequenced(&self) -> bool {
        self.sequenced
    }

    /// Drains the encoded aggregator → collector control frames
    /// (`Ack`, `Resync`) queued since the last take. The transport
    /// owns writing them — including partial writes and write-interest
    /// re-arming on nonblocking sockets.
    pub fn take_outbound(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.outbound)
    }

    /// `true` when control frames are queued for the collector.
    pub fn has_outbound(&self) -> bool {
        !self.outbound.is_empty()
    }

    fn drain(
        &mut self,
        agg: &mut Aggregator,
        admit: &mut dyn FnMut(u64, &mut Aggregator) -> bool,
    ) -> Result<(), SessionError> {
        while let Some(sf) = self.dec.next_seq_frame().map_err(SessionError::Wire)? {
            let frame = sf.frame;
            let wire_bytes = self.dec.last_frame_bytes() as u64;
            match &frame {
                Frame::DeltaDiff(_) => self.diff_bytes += wire_bytes,
                Frame::Delta(_) | Frame::FullSnapshot(_) | Frame::Evicted(_) => {
                    self.full_bytes += wire_bytes;
                }
                _ => {}
            }
            let id = match (&frame, self.session) {
                (Frame::Hello { collector_id, .. }, _) => {
                    self.session = Some(*collector_id);
                    *collector_id
                }
                (_, Some(id)) => id,
                (_, None) => {
                    self.session = Some(self.fallback_id);
                    self.fallback_id
                }
            };
            if let Frame::Hello {
                resume: Some(_), ..
            } = &frame
            {
                self.sequenced = true;
            }
            // Admission runs before the frame is applied: a refused id
            // must leave no trace (not even a `Hello`'s live-view
            // reset). A granted resumption restores parked state into
            // `agg` inside the closure, ahead of this frame.
            if !self.fed.contains(&id) && !admit(id, agg) {
                return Err(SessionError::IdRejected(id));
            }
            match agg
                .feed_seq(id, sf.seq, frame)
                .map_err(SessionError::Wire)?
            {
                SeqOutcome::NeedResync { from_seq } => {
                    self.resyncs += 1;
                    self.outbound
                        .extend_from_slice(&encode_frame(&Frame::Resync { from_seq }));
                }
                SeqOutcome::Applied | SeqOutcome::Duplicate | SeqOutcome::Ignored => {}
            }
            self.frames += 1;
            self.fed.insert(id);
        }
        // Ack once per drained batch, and only when the watermark
        // moved — a per-session outbound buffer the transport flushes.
        if self.sequenced {
            if let Some(id) = self.session {
                if let Some(through) = agg.last_seq(id) {
                    if self.acked_through.is_none_or(|a| a < through) {
                        self.acked_through = Some(through);
                        self.outbound.extend_from_slice(&encode_frame(&Frame::Ack {
                            through_seq: through,
                        }));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SamplerSpec;

    fn keyed_points(n: usize, n_keys: u64) -> Vec<(u64, f64)> {
        (0..n)
            .map(|i| {
                let key = (i as u64).wrapping_mul(0x9E37_79B9) % n_keys;
                (key, 1.0 + (i % 97) as f64)
            })
            .collect()
    }

    fn config() -> MonitorConfig {
        MonitorConfig::default()
            .sampler(SamplerSpec::Systematic { interval: 4 })
            .seed(11)
    }

    #[test]
    fn two_collectors_assemble_to_the_unsharded_bits_over_a_pipe() {
        let points = keyed_points(40_000, 64);
        // Reference: one engine sees everything.
        let mut reference = MonitorEngine::new(config().shards(2));
        for &(k, v) in &points {
            reference.offer(k, v);
        }
        // Two collectors partition the keys; several flushes each.
        let mut pipes = [Vec::new(), Vec::new()];
        let mut collectors = [Collector::new(0, config()), Collector::new(1, config())];
        for (i, chunk) in points.chunks(7000).enumerate() {
            for &(k, v) in chunk {
                collectors[(k % 2) as usize].offer(k, v);
            }
            // Interleave flushes to exercise repeated deltas.
            let c = i % 2;
            collectors[c].flush(&mut pipes[c]).unwrap();
        }
        for c in 0..2 {
            collectors[c].finish(&mut pipes[c]).unwrap();
        }
        let mut agg = Aggregator::new();
        for pipe in &pipes {
            agg.ingest_stream(&mut pipe.as_slice(), 999).unwrap();
        }
        assert!(agg.all_done());
        assert_eq!(agg.collector_count(), 2);
        assert_eq!(agg.snapshot(), reference.snapshot());
    }

    #[test]
    fn interleaving_does_not_change_the_aggregate() {
        let points = keyed_points(20_000, 32);
        let mut pipes = [Vec::new(), Vec::new()];
        let mut collectors = [Collector::new(0, config()), Collector::new(1, config())];
        for chunk in points.chunks(3000) {
            for &(k, v) in chunk {
                collectors[(k % 2) as usize].offer(k, v);
            }
            for c in 0..2 {
                collectors[c].flush(&mut pipes[c]).unwrap();
            }
        }
        for c in 0..2 {
            collectors[c].finish(&mut pipes[c]).unwrap();
        }
        // Sequential sessions vs frame-interleaved sessions.
        let mut seq = Aggregator::new();
        seq.ingest_stream(&mut pipes[0].as_slice(), 0).unwrap();
        seq.ingest_stream(&mut pipes[1].as_slice(), 1).unwrap();
        let mut interleaved = Aggregator::new();
        let decoded: Vec<Vec<Frame>> = pipes
            .iter()
            .map(|p| crate::wire::decode_frames(p).unwrap())
            .collect();
        let max = decoded[0].len().max(decoded[1].len());
        for i in 0..max {
            for (c, frames) in decoded.iter().enumerate() {
                if let Some(f) = frames.get(i) {
                    interleaved.feed(c as u64, f.clone()).unwrap();
                }
            }
        }
        assert_eq!(seq.snapshot(), interleaved.snapshot());
    }

    #[test]
    fn hello_version_negotiates_down_never_rejects() {
        // A peer declaring any protocol ceiling is accepted; the
        // session simply runs at the highest version both sides speak
        // (resume: None ⇒ the one-way framed protocol).
        let mut agg = Aggregator::new();
        for protocol in [1u8, 2, 3, 77] {
            agg.feed(
                u64::from(protocol),
                Frame::Hello {
                    protocol,
                    collector_id: u64::from(protocol),
                    resume: None,
                },
            )
            .expect("negotiated, not rejected");
        }
        assert_eq!(agg.collector_count(), 4);
    }

    #[test]
    fn sequenced_replay_skips_duplicates_and_gaps_request_resync() {
        let mut engine = MonitorEngine::new(config());
        engine.offer_batch(&keyed_points(2000, 4));
        let snap = engine.snapshot();
        let mut agg = Aggregator::new();
        let hello = |resume| Frame::Hello {
            protocol: WIRE_VERSION,
            collector_id: 9,
            resume: Some(resume),
        };
        agg.feed_seq(9, None, hello(HelloResume::Fresh { first_seq: 0 }))
            .unwrap();
        assert_eq!(
            agg.feed_seq(9, Some(0), Frame::Delta(snap.clone()))
                .unwrap(),
            SeqOutcome::Applied
        );
        assert_eq!(agg.last_seq(9), Some(0));
        // Reconnect replaying from 0: the duplicate is skipped (the
        // watermark protects the non-idempotent Evicted merge), the
        // new frame applies.
        agg.feed_seq(9, None, hello(HelloResume::Replay { first_seq: 0 }))
            .unwrap();
        assert_eq!(
            agg.feed_seq(9, Some(0), Frame::Delta(snap.clone()))
                .unwrap(),
            SeqOutcome::Duplicate
        );
        assert_eq!(
            agg.feed_seq(9, Some(1), Frame::Delta(snap.clone()))
                .unwrap(),
            SeqOutcome::Applied
        );
        // A gap asks for a resync and ignores frames until the
        // re-baseline Hello.
        assert_eq!(
            agg.feed_seq(9, Some(5), Frame::Delta(snap.clone()))
                .unwrap(),
            SeqOutcome::NeedResync { from_seq: 2 }
        );
        assert!(agg.awaiting_resync(9));
        assert_eq!(
            agg.feed_seq(9, Some(6), Frame::Delta(snap.clone()))
                .unwrap(),
            SeqOutcome::Ignored
        );
        agg.feed_seq(9, None, hello(HelloResume::Resync { first_seq: 7 }))
            .unwrap();
        assert_eq!(
            agg.feed_seq(9, Some(7), Frame::FullSnapshot(snap.clone()))
                .unwrap(),
            SeqOutcome::Applied
        );
        assert_eq!(agg.snapshot(), snap);
    }

    #[test]
    fn parked_state_survives_re_admission() {
        let mut engine = MonitorEngine::new(config());
        engine.offer_batch(&keyed_points(2000, 4));
        let snap = engine.snapshot();
        let mut agg_a = Aggregator::new();
        agg_a
            .feed_seq(
                4,
                None,
                Frame::Hello {
                    protocol: WIRE_VERSION,
                    collector_id: 4,
                    resume: Some(HelloResume::Fresh { first_seq: 0 }),
                },
            )
            .unwrap();
        agg_a
            .feed_seq(4, Some(0), Frame::Delta(snap.clone()))
            .unwrap();
        // Session fails: park, hand through the registry, resume on a
        // different loop's aggregator.
        let registry = AdmissionRegistry::new();
        registry.suspend(4, agg_a.park_collector(4).expect("state"));
        assert_eq!(agg_a.collector_count(), 0);
        let Claim::Resumed(parked) = registry.claim(4, 1 << 33) else {
            panic!("suspended id resumes");
        };
        let mut agg_b = Aggregator::new();
        agg_b.restore_collector(4, *parked);
        assert_eq!(agg_b.last_seq(4), Some(0), "seq watermark travels");
        assert_eq!(agg_b.snapshot(), snap);
        // And the id is now open: a second claimant is a spoof.
        assert!(matches!(registry.claim(4, 77), Claim::Rejected));
    }

    #[test]
    fn session_driver_replays_a_collector_pipe_chunk_by_chunk() {
        let mut collector = Collector::new(5, config());
        collector.offer_batch(&keyed_points(8000, 16));
        let mut pipe = Vec::new();
        collector.finish(&mut pipe).unwrap();
        // Reference: the whole-stream ingest path.
        let mut want = Aggregator::new();
        want.ingest_stream(&mut pipe.as_slice(), 99).unwrap();
        // Driver: awkward chunk sizes, EOF at the end.
        for chunk in [1usize, 13, 4096] {
            let mut agg = Aggregator::new();
            let mut driver = SessionDriver::new(99);
            for piece in pipe.chunks(chunk) {
                driver.push(piece, &mut agg).expect("clean stream");
            }
            driver.finish(&mut agg).expect("clean eof");
            assert_eq!(driver.session_id(), Some(5));
            assert!(driver.frames_delivered() >= 2, "hello + data + bye");
            assert_eq!(agg.snapshot(), want.snapshot(), "chunk size {chunk}");
        }
    }

    #[test]
    fn session_driver_attributes_legacy_streams_to_the_fallback_id() {
        let mut engine = MonitorEngine::new(config());
        engine.offer_batch(&keyed_points(3000, 8));
        let v1 = crate::codec::encode_snapshot(&engine.snapshot());
        let mut agg = Aggregator::new();
        let mut driver = SessionDriver::new(777);
        driver.push(&v1, &mut agg).expect("buffering");
        // A legacy snapshot's length is not declared up front: nothing
        // decodes until EOF says the buffer is whole.
        driver.finish(&mut agg).expect("legacy eof");
        assert_eq!(driver.session_id(), Some(777));
        assert_eq!(driver.frames_delivered(), 1);
        assert_eq!(agg.snapshot(), engine.snapshot());
    }

    #[test]
    fn session_driver_rejects_garbage_without_touching_the_aggregator() {
        let mut agg = Aggregator::new();
        let mut driver = SessionDriver::new(1);
        assert!(matches!(
            driver.push(b"GARBAGE, NOT A FRAME", &mut agg),
            Err(SessionError::Wire(WireError::BadMagic))
        ));
        assert_eq!(driver.frames_delivered(), 0);
        driver.abort(&mut agg);
        assert_eq!(agg.collector_count(), 0);
    }

    #[test]
    fn session_driver_mid_frame_eof_aborts_cleanly() {
        // A session that dies mid-frame must report the failure and be
        // removable, leaving the aggregator as if it never connected.
        let mut collector = Collector::new(8, config());
        collector.offer_batch(&keyed_points(5000, 8));
        let mut pipe = Vec::new();
        collector.finish(&mut pipe).unwrap();
        let mut agg = Aggregator::new();
        let mut driver = SessionDriver::new(1);
        // Cut inside the final frame: earlier frames land, the cut one
        // doesn't.
        driver
            .push(&pipe[..pipe.len() - 3], &mut agg)
            .expect("whole frames are fine");
        assert!(driver.frames_delivered() > 0);
        assert!(matches!(
            driver.finish(&mut agg),
            Err(SessionError::MidFrameEof)
        ));
        assert_eq!(agg.collector_count(), 1, "partial frames were fed");
        driver.abort(&mut agg);
        assert_eq!(agg.collector_count(), 0, "abort rolls the session back");
    }

    #[test]
    fn sequenced_eof_without_bye_fails_instead_of_completing() {
        // A sequenced session torn at a frame boundary (clean EOF, no
        // Bye) must fail — its peer will resume; completing it would
        // mark the id delivered and reject the resumption as a spoof.
        let mut collector = Collector::new_sequenced(3, config());
        collector.offer_batch(&keyed_points(2000, 8));
        collector.seal_flush();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_frame(&collector.hello()));
        for (_, b) in collector.unsent_window(0) {
            bytes.extend_from_slice(b);
        }
        let mut agg = Aggregator::new();
        let mut driver = SessionDriver::new(999);
        driver.push(&bytes, &mut agg).expect("whole frames");
        assert!(matches!(
            driver.finish(&mut agg),
            Err(SessionError::SequencedEof(3))
        ));
        // With the Bye replayed on a second connection, it completes.
        collector.seal_finish();
        let mut rest = Vec::new();
        rest.extend_from_slice(&encode_frame(&collector.hello()));
        for (_, b) in collector.unsent_window(0) {
            rest.extend_from_slice(b);
        }
        let mut driver2 = SessionDriver::new(999);
        driver2.push(&rest, &mut agg).expect("replay");
        driver2.finish(&mut agg).expect("bye applied");
        assert!(agg.session_done(3));
    }

    #[test]
    fn session_driver_abort_rolls_back_every_id_it_fed() {
        // One connection re-Helloing under a second id before dying:
        // abort must remove *both* ids' state, not just the latest.
        let mut engine = MonitorEngine::new(config());
        engine.offer_batch(&keyed_points(2000, 4));
        let snap = engine.snapshot();
        let mut bytes = Vec::new();
        for f in [
            Frame::Hello {
                protocol: WIRE_VERSION,
                collector_id: 10,
                resume: None,
            },
            Frame::Delta(snap.clone()),
            Frame::Hello {
                protocol: WIRE_VERSION,
                collector_id: 11,
                resume: None,
            },
            Frame::Delta(snap),
        ] {
            bytes.extend_from_slice(&crate::wire::encode_frame(&f));
        }
        let mut agg = Aggregator::new();
        let mut driver = SessionDriver::new(1);
        driver.push(&bytes, &mut agg).expect("valid frames");
        assert_eq!(agg.collector_count(), 2);
        driver.abort(&mut agg);
        assert_eq!(agg.collector_count(), 0, "both fed ids rolled back");
    }

    #[test]
    fn redelivered_delta_is_idempotent() {
        // Deltas are cumulative: feeding the same one twice must not
        // double-count (replacement, not merge).
        let mut collector = Collector::new(3, config());
        collector.offer_batch(&keyed_points(5000, 8));
        let mut pipe = Vec::new();
        collector.finish(&mut pipe).unwrap();
        let mut once = Aggregator::new();
        once.ingest_stream(&mut pipe.as_slice(), 3).unwrap();
        let mut twice = Aggregator::new();
        twice.ingest_stream(&mut pipe.as_slice(), 3).unwrap();
        twice.ingest_stream(&mut pipe.as_slice(), 3).unwrap();
        assert_eq!(once.snapshot(), twice.snapshot());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn smallest_first_matches_repeated_min(
                pairs in proptest::collection::vec((0u64..6, 0u64..64), 0..48),
                cap in 0usize..40,
            ) {
                // Few distinct counts, so the key breaks most ties.
                let store: BTreeMap<u64, u64> = pairs.iter().map(|&(c, k)| (k, c)).collect();
                let mut naive = store.clone();
                let mut want = Vec::new();
                while naive.len() > cap {
                    let min = naive.iter().map(|(&k, &c)| (c, k)).min().expect("non-empty");
                    naive.remove(&min.1);
                    want.push(min);
                }
                let excess = store.len().saturating_sub(cap);
                let got = smallest_first(store.iter().map(|(&k, &c)| (c, k)), excess);
                prop_assert_eq!(got, want);
            }
        }
    }

    /// A tiered, never-evicting collector config: keys past 8 are
    /// sketched for good (promotion off), so the engine's full
    /// snapshot is exactly what the aggregator should assemble.
    fn tiered_config() -> MonitorConfig {
        config()
            .max_exact_keys(8)
            .promote_after(1 << 40)
            .sketch_bytes(1 << 14)
    }

    /// Sends `hello` (default: the collector's own) and its whole
    /// unacked window over a fresh in-memory session; applies the
    /// returned `Ack`s and hands back a `Resync` request, if any.
    fn connect(c: &mut Collector, agg: &mut Aggregator, hello: Option<Frame>) -> Option<u64> {
        let mut bytes = encode_frame(&hello.unwrap_or_else(|| c.hello())).to_vec();
        for (_, b) in c.unsent_window(0) {
            bytes.extend_from_slice(b);
        }
        let mut driver = SessionDriver::new(999);
        driver.push(&bytes, agg).expect("clean link");
        let mut resync = None;
        for f in crate::wire::decode_frames(&driver.take_outbound()).expect("control frames") {
            match f {
                Frame::Ack { through_seq } => c.ack(through_seq),
                Frame::Resync { from_seq } => resync = Some(from_seq),
                other => panic!("unexpected control frame {other:?}"),
            }
        }
        resync
    }

    /// Seals a flush; returns how many frames it sealed and how many of
    /// them carry a sketch image.
    fn seal_counting(c: &mut Collector) -> (u64, usize) {
        let before = c.next_seq();
        c.seal_flush();
        let mut bytes = Vec::new();
        for (_, b) in c.unsent_window(before) {
            bytes.extend_from_slice(b);
        }
        let frames = crate::wire::decode_frames(&bytes).expect("sealed frames");
        let images = frames
            .iter()
            .filter(
                |f| matches!(f, Frame::Delta(s) | Frame::FullSnapshot(s) if s.sketch().is_some()),
            )
            .count();
        (c.next_seq() - before, images)
    }

    #[test]
    fn unchanged_sketch_image_is_sealed_once() {
        let mut c = Collector::new_sequenced(6, tiered_config());
        let mut agg = Aggregator::new();
        // The first flush carries the image, even an empty one.
        c.offer_batch(&keyed_points(500, 4));
        assert_eq!(seal_counting(&mut c), (1, 1), "first flush");
        assert_eq!(connect(&mut c, &mut agg, None), None);
        assert_eq!(agg.snapshot(), c.engine().full_snapshot());
        // Idle: no dirty keys, no evictions — nothing to seal at all.
        assert_eq!(seal_counting(&mut c), (0, 0), "idle flush");
        // Exact keys only: their entries ship, the unchanged image not,
        // and the aggregator keeps the one it holds.
        c.offer_batch(&keyed_points(500, 4));
        let (frames, images) = seal_counting(&mut c);
        assert!(frames > 0);
        assert_eq!(images, 0, "unchanged image re-sealed");
        assert_eq!(connect(&mut c, &mut agg, None), None);
        assert_eq!(agg.snapshot(), c.engine().full_snapshot());
        // New keys past the exact cap change the tier: the image ships.
        let tail: Vec<(u64, f64)> = (100..300u64).map(|k| (k, 2.0)).collect();
        c.offer_batch(&tail);
        assert_eq!(seal_counting(&mut c).1, 1, "flush after a tier change");
        assert_eq!(connect(&mut c, &mut agg, None), None);
        let want = c.engine().full_snapshot();
        assert!(want.sketch().is_some_and(|sk| sk.sampler.offered > 0));
        assert_eq!(agg.snapshot(), want);
    }

    #[test]
    fn restarted_aggregator_gets_the_image_through_resync() {
        let mut c = Collector::new_sequenced(6, tiered_config());
        let mut agg = Aggregator::new();
        let mut pts = keyed_points(2_000, 4);
        pts.extend((100..300u64).map(|k| (k, 2.0)));
        c.offer_batch(&pts);
        c.seal_flush();
        assert_eq!(connect(&mut c, &mut agg, None), None);
        // The image is in place; the next flush ships exact keys only.
        c.offer_batch(&keyed_points(1_000, 4));
        assert_eq!(seal_counting(&mut c).1, 0);
        // The aggregator restarts empty: the replay has a gap, the
        // collector re-baselines, and the window lands.
        let mut restarted = Aggregator::new();
        let from = connect(&mut c, &mut restarted, None).expect("gap asks for a resync");
        assert_eq!(from, 0);
        let hello = c.handle_resync(from);
        assert_eq!(connect(&mut c, &mut restarted, Some(hello)), None);
        let want = c.engine().full_snapshot();
        assert!(want.sketch().is_some_and(|sk| sk.sampler.offered > 0));
        assert_eq!(restarted.snapshot(), want);
        // The resync's image counts as sent: an exact-only flush after
        // it seals none, and both sides still agree.
        c.offer_batch(&keyed_points(1_000, 4));
        assert_eq!(seal_counting(&mut c).1, 0);
        assert_eq!(connect(&mut c, &mut restarted, None), None);
        assert_eq!(restarted.snapshot(), c.engine().full_snapshot());
    }
}
