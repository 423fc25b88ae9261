//! Ingest layer: shard routing and per-stream sampler state.
//!
//! This is the bottom of the collector stack — it answers exactly one
//! question: *which shard owns a key, and what happens when a point for
//! that key arrives*. Everything above it (eviction, compaction, wire
//! framing, topology) treats the `ShardSet` as a deterministic keyed
//! map of live `StreamState`s.
//!
//! ## Determinism contract (inherited by every layer above)
//!
//! Every stream (key) lives on exactly one shard
//! (`splitmix(key) mod n_shards`), its sampler is seeded from
//! `(base_seed, key)` only, and its points are processed in arrival
//! order — so per-stream state is independent of the shard count and of
//! whether points arrived one by one or through a parallel batch (the
//! batch partition preserves each stream's sub-order and shards share
//! no state). The engine's merge-equivalence tests pin this bit-for-bit
//! for shard counts N ∈ {1, 2, 8}.

use crate::engine::MonitorConfig;
use crate::summary::StreamSummary;
use rayon::prelude::*;
use sst_core::bss::{BssConfigError, OnlineTuning, ThresholdPolicy};
use sst_core::stream::{
    StreamDecision, StreamSampler, StreamingBss, StreamingSimpleRandom, StreamingStratified,
    StreamingSystematic,
};
use sst_stats::rng::derive_seed;
use std::collections::HashMap;

/// Domain-separation tag for shard routing.
const SHARD_TAG: u64 = 0x5348_4152;

/// Which streaming sampler each stream runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SamplerSpec {
    /// Keep every point (pure monitoring, no thinning).
    TakeAll,
    /// Systematic 1-in-C ([`StreamingSystematic`]).
    Systematic {
        /// Sampling interval C.
        interval: usize,
    },
    /// Stratified random, one per bucket of C ([`StreamingStratified`]).
    Stratified {
        /// Bucket length C.
        interval: usize,
    },
    /// Bernoulli thinning at `rate` ([`StreamingSimpleRandom`]).
    SimpleRandom {
        /// Per-point keep probability.
        rate: f64,
    },
    /// Online-tuned Biased Systematic Sampling ([`StreamingBss`]).
    Bss {
        /// Sampling interval C.
        interval: usize,
        /// Threshold factor ε (the paper uses 1.0).
        epsilon: f64,
        /// Pre-samples before the online threshold activates.
        n_pre: usize,
        /// Extras budget L per triggered interval.
        l: usize,
    },
}

impl SamplerSpec {
    /// Builds the sampler for one stream.
    ///
    /// # Errors
    ///
    /// Propagates the underlying sampler's configuration validation.
    pub fn build(&self, seed: u64) -> Result<Box<dyn StreamSampler + Send>, BssConfigError> {
        Ok(match *self {
            SamplerSpec::TakeAll => Box::new(StreamingSystematic::new(1, seed)?),
            SamplerSpec::Systematic { interval } => {
                Box::new(StreamingSystematic::new(interval, seed)?)
            }
            SamplerSpec::Stratified { interval } => {
                Box::new(StreamingStratified::new(interval, seed)?)
            }
            SamplerSpec::SimpleRandom { rate } => Box::new(StreamingSimpleRandom::new(rate, seed)?),
            SamplerSpec::Bss {
                interval,
                epsilon,
                n_pre,
                l,
            } => Box::new(StreamingBss::new(
                interval,
                ThresholdPolicy::Online(OnlineTuning {
                    epsilon,
                    n_pre,
                    ..OnlineTuning::default()
                }),
                l,
                seed,
            )?),
        })
    }
}

/// One stream's live state: its sampler, the summary of what the
/// sampler kept, and the lifecycle layer's recency mark.
pub(crate) struct StreamState {
    pub(crate) sampler: Box<dyn StreamSampler + Send>,
    pub(crate) summary: StreamSummary,
    /// Engine tick of the stream's most recent point (drives idle and
    /// LRU eviction; ticks are per-point and unique, so recency is a
    /// total order independent of sharding).
    pub(crate) last_touch: u64,
}

/// One shard: the streams routed to it.
#[derive(Default)]
pub(crate) struct Shard {
    pub(crate) streams: HashMap<u64, StreamState>,
}

impl Shard {
    fn offer(&mut self, config: &MonitorConfig, key: u64, value: f64, tick: u64) -> StreamDecision {
        let state = self.streams.entry(key).or_insert_with(|| {
            let seed = derive_seed(config.base_seed, key);
            StreamState {
                sampler: config
                    .sampler
                    .build(seed)
                    .expect("sampler spec validated at engine construction"),
                summary: StreamSummary::new(&config.summary, seed),
                last_touch: tick,
            }
        });
        state.last_touch = tick;
        let decision = state.sampler.offer(value);
        if decision.is_kept() {
            state.summary.push(value);
        }
        decision
    }
}

/// Points below this batch size are ingested inline — the partition +
/// fan-out bookkeeping costs more than it saves.
const PAR_BATCH_MIN: usize = 4096;

/// A keyed point with its engine tick: `(key, value, tick)`.
type TickedPoint = (u64, f64, u64);

/// The sharded stream table: routing plus per-stream ingest.
pub(crate) struct ShardSet {
    shards: Vec<Shard>,
}

impl ShardSet {
    /// Creates `n` empty shards.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one shard");
        ShardSet {
            shards: (0..n).map(|_| Shard::default()).collect(),
        }
    }

    /// The shard a key routes to.
    pub(crate) fn shard_index(&self, key: u64) -> usize {
        (derive_seed(SHARD_TAG, key) % self.shards.len() as u64) as usize
    }

    /// Offers one point of stream `key` at engine tick `tick`.
    pub(crate) fn offer(
        &mut self,
        config: &MonitorConfig,
        key: u64,
        value: f64,
        tick: u64,
    ) -> StreamDecision {
        let idx = self.shard_index(key);
        self.shards[idx].offer(config, key, value, tick)
    }

    /// Offers a batch of keyed points (point `i` at tick
    /// `first_tick + i`), fanning the shards across the persistent
    /// worker pool. Exactly equivalent to offering the points one by
    /// one in order: the partition preserves each stream's sub-order
    /// (and hence its final `last_touch`) and shards share no state.
    pub(crate) fn offer_batch(
        &mut self,
        config: &MonitorConfig,
        points: &[(u64, f64)],
        first_tick: u64,
    ) {
        if self.shards.len() == 1 || points.len() < PAR_BATCH_MIN {
            for (i, &(k, v)) in points.iter().enumerate() {
                self.offer(config, k, v, first_tick + i as u64);
            }
            return;
        }
        let n = self.shards.len();
        let mut per_shard: Vec<Vec<TickedPoint>> = (0..n).map(|_| Vec::new()).collect();
        for (i, &(k, v)) in points.iter().enumerate() {
            per_shard[self.shard_index(k)].push((k, v, first_tick + i as u64));
        }
        let shards = std::mem::take(&mut self.shards);
        let work: Vec<(Shard, Vec<TickedPoint>)> = shards.into_iter().zip(per_shard).collect();
        self.shards = work
            .into_par_iter()
            .map(|(mut shard, pts)| {
                for (k, v, tick) in pts {
                    shard.offer(config, k, v, tick);
                }
                shard
            })
            .collect();
    }

    /// Streams currently tracked.
    pub(crate) fn stream_count(&self) -> usize {
        self.shards.iter().map(|s| s.streams.len()).sum()
    }

    /// The live state of `key`, if tracked.
    pub(crate) fn get(&self, key: u64) -> Option<&StreamState> {
        self.shards[self.shard_index(key)].streams.get(&key)
    }

    /// Removes and returns the live state of `key` (eviction).
    pub(crate) fn remove(&mut self, key: u64) -> Option<StreamState> {
        let idx = self.shard_index(key);
        self.shards[idx].streams.remove(&key)
    }

    /// Iterates every live `(key, state)` in shard-internal order
    /// (callers needing a canonical order sort by key).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &StreamState)> {
        self.shards
            .iter()
            .flat_map(|s| s.streams.iter().map(|(&k, st)| (k, st)))
    }

    /// Mutable iteration for in-place maintenance (live compaction).
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut StreamState)> {
        self.shards
            .iter_mut()
            .flat_map(|s| s.streams.iter_mut().map(|(&k, st)| (k, st)))
    }
}
