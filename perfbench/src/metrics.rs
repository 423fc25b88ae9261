//! The metric catalogue and the run's printed record.
//!
//! The names and units here must match `BENCHMARK.json` at the
//! repository root (a test checks it).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("time_to_result_s", "s"),
    ("ingest_pts_per_s", "pt/s"),
    ("flush_p50_ms", "ms"),
    ("flush_p90_ms", "ms"),
    ("wire_bytes_per_pt", "B/pt"),
    ("state_kib", "KiB"),
    ("peak_rss_mib", "MiB"),
    ("ok_rate", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does
/// not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nettrace.synth_s", "s"),
    ("nettrace.keying_s", "s"),
    ("monitor.ingest.offer_s", "s"),
    ("monitor.ingest.offer_ns_per_pt", "ns/pt"),
    ("monitor.topology.flush_s", "s"),
    ("monitor.topology.flushes", "count"),
    ("monitor.retry.finish_s", "s"),
    ("monitor.retry.reconnects", "count"),
    ("monitor.retry.resyncs", "count"),
    ("monitor.lifecycle.evicted", "count"),
    ("monitor.lifecycle.retired", "count"),
    ("monitor.sketch.promotions", "count"),
    ("monitor.sketch.demotions", "count"),
    ("monitor.sketch.sketched_keys", "count"),
    ("monitor.sketch.state_bytes", "B"),
    ("monitor.wire.bytes", "B"),
    ("monitor.wire.frames", "count"),
    ("monitor.wire.diff_bytes", "B"),
    ("monitor.wire.full_bytes", "B"),
    ("monitor.wire.diff_ratio", "ratio"),
    ("monitor.transport.run_s", "s"),
    ("monitor.transport.drain_s", "s"),
    ("monitor.transport.completed", "count"),
    ("monitor.transport.failures", "count"),
    ("monitor.transport.aborted", "count"),
    ("monitor.transport.probes", "count"),
    ("monitor.topology.snapshot_s", "s"),
    ("monitor.topology.agg_state_bytes", "B"),
    ("monitor.codec.encode_s", "s"),
    ("monitor.codec.snapshot_bytes", "B"),
    ("monitor.engine.reference_s", "s"),
    ("traffic.synth_s", "s"),
    ("core.systematic_s", "s"),
    ("core.stratified_s", "s"),
    ("core.simple_random_s", "s"),
    ("core.bss_s", "s"),
    ("core.samples_kept", "count"),
    ("core.bss_qualified_ratio", "ratio"),
    ("hurst.wavelet_s", "s"),
    ("hurst.rs_s", "s"),
    ("hurst.variance_time_s", "s"),
    ("hurst.periodogram_s", "s"),
    ("hurst.local_whittle_s", "s"),
    ("hurst.acf_fit_s", "s"),
    ("hurst.dfa_s", "s"),
    ("hurst.higuchi_s", "s"),
    ("hurst.abs_moment_s", "s"),
    ("hurst.residual_variance_s", "s"),
    ("hurst.failed", "count"),
    ("self.monitor.ingest_s", "s"),
    ("self.monitor.topology_s", "s"),
    ("self.monitor.retry_s", "s"),
    ("self.monitor.transport_s", "s"),
    ("self.monitor.codec_s", "s"),
    ("self.core_s", "s"),
    ("self.hurst_s", "s"),
    ("self.unattributed_s", "s"),
    ("trace.result_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.warmup_result_s", "s"),
];

/// What one benchmark run measured.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Input size, for the record.
    pub input: String,
    /// Measured repetitions of the workload.
    pub iterations: usize,
}

impl RunOutput {
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Fills `ok_rate` from the operation counts. Reported as the
    /// complement of the error rate because a benchmark metric must
    /// never read 0.
    pub fn finish_counts(&mut self) {
        self.e2e.insert("ok_rate", 1.0 - self.error_rate());
    }

    fn metrics_json(&self, trace: bool) -> String {
        let (catalogue, values) = if trace {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        let cells: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(v)
                )
            })
            .collect();
        format!("{{{}}}", cells.join(", "))
    }

    /// The final stdout line.
    pub fn result_json(&self, trace: bool) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            self.metrics_json(trace)
        )
    }

    /// Host facts, input size and every metric of the run.
    pub fn record_json(
        &self,
        workload: &str,
        seed: u64,
        trace: bool,
        nproc: usize,
        rustc: &str,
        commit: &str,
    ) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
             \"nproc\": {nproc}, \"rustc\": \"{}\", \"commit\": \"{}\", \"input\": \"{}\", \
             \"iterations\": {}, \"attempted\": {}, \"failed\": {}, \"error_rate\": {}, \
             \"metrics\": {}}}",
            json_escape(rustc),
            json_escape(commit),
            self.input,
            self.iterations,
            self.attempted,
            self.failed,
            json_num(self.error_rate()),
            self.metrics_json(trace)
        )
    }

    /// A human-readable table of the run (stderr).
    pub fn table(&self, workload: &str) -> String {
        let mut s = format!(
            "{workload}: {} ({} repetitions), error_rate {} ({} of {} operations failed)\n",
            self.input,
            self.iterations,
            self.error_rate(),
            self.failed,
            self.attempted
        );
        for (catalogue, values) in [(END_TO_END, &self.e2e), (PER_LAYER, &self.layers)] {
            for &(name, unit) in catalogue {
                if let Some(v) = values.get(name) {
                    let _ = writeln!(s, "  {name:<34} {v:>16.6} {unit}");
                }
            }
        }
        s
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .map(|c| match c {
            '"' | '\\' => format!("\\{c}"),
            c => c.to_string(),
        })
        .collect()
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` ∈ (0, 100]; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Per-key means over repetitions.
pub fn means(reps: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut by_key: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rep in reps {
        for (&k, &v) in rep {
            by_key.entry(k).or_default().push(v);
        }
    }
    by_key.into_iter().map(|(k, v)| (k, mean(&v))).collect()
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets the process's peak resident set to its current one (writing
/// 5 to `/proc/self/clear_refs`), so that `peak_rss_mib` covers only
/// what runs after the call.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The repetitions of one run. A workload may split its work into
/// several units that take turns (the paper sweep does, so that no
/// single repetition takes long); a figure for the whole workload is
/// then the sum over units of the unit's mean.
///
/// Means, not medians: the host's speed drifts over tens of seconds, and
/// a mean weighs every moment of the run alike, while the median of the
/// few repetitions a long unit gets in a run is set by whichever of them
/// lands in the middle. Sums of means are also additive, so per-layer
/// self times add up to the time to result exactly.
pub struct Repeated<R> {
    /// The first repetition (unit 0): it fills caches, the worker pool
    /// and the allocator's free lists, and is not measured.
    pub warmup: R,
    /// The measured repetitions by unit (the traced ones when tracing
    /// is on), each with its iteration number.
    pub reps: Vec<Vec<(u64, R)>>,
    /// With tracing on, the untraced repetitions run in between.
    pub twins: Vec<Vec<(u64, R)>>,
    /// By unit, the peak resident set of each measured repetition, MiB.
    pub peaks: Vec<Vec<f64>>,
}

impl<R> Repeated<R> {
    pub fn units(&self) -> usize {
        self.reps.len()
    }

    /// The unit that iteration `iter` (≥ 1) ran.
    pub fn unit_of(&self, iter: u64) -> usize {
        ((iter - 1) % self.units() as u64) as usize
    }

    pub fn all(&self) -> impl Iterator<Item = &R> {
        std::iter::once(&self.warmup).chain(
            self.reps
                .iter()
                .chain(&self.twins)
                .flatten()
                .map(|(_, r)| r),
        )
    }

    /// The measured repetitions of every unit.
    pub fn measured(&self) -> impl Iterator<Item = &R> {
        self.reps.iter().flatten().map(|(_, r)| r)
    }

    /// Sum over units of the mean of `f` over the measured repetitions.
    pub fn typical(&self, f: impl Fn(&R) -> f64) -> f64 {
        sum_of_means(&self.reps, f)
    }

    /// `typical` over the untraced repetitions of a traced run.
    pub fn typical_twin(&self, f: impl Fn(&R) -> f64) -> f64 {
        sum_of_means(&self.twins, f)
    }

    /// The peak resident set of the workload: the largest of the units'
    /// median peaks over their repetitions. A median, not the process's
    /// all-time peak, so that one repetition whose allocations happen to
    /// fragment does not set the figure.
    pub fn peak_rss_mib(&self) -> f64 {
        self.peaks.iter().map(|p| median(p)).fold(0.0, f64::max)
    }

    /// Per key: sum over units of the key's mean.
    pub fn typical_map(
        &self,
        f: impl Fn(&R) -> &BTreeMap<&'static str, f64>,
    ) -> BTreeMap<&'static str, f64> {
        sum_by_key(
            self.reps
                .iter()
                .map(|unit| means(&unit.iter().map(|(_, r)| f(r).clone()).collect::<Vec<_>>())),
        )
    }
}

fn sum_of_means<R>(by_unit: &[Vec<(u64, R)>], f: impl Fn(&R) -> f64) -> f64 {
    by_unit
        .iter()
        .map(|unit| mean(&unit.iter().map(|(_, r)| f(r)).collect::<Vec<_>>()))
        .sum()
}

fn sum_by_key(
    maps: impl Iterator<Item = BTreeMap<&'static str, f64>>,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for m in maps {
        for (k, v) in m {
            *out.entry(k).or_insert(0.0) += v;
        }
    }
    out
}

/// Runs `rep` once as a warm-up (iteration 0, unit 0), then repeats it
/// for `budget`, counted from the end of the warm-up. Iteration `i` runs
/// unit `(i - 1) % units`. Every unit runs at least once; with tracing on,
/// every unit runs at least once traced and once untraced — every other
/// round of units then runs untraced, so the tracing overhead is measured
/// in the same process. Each repetition's peak resident set is taken
/// from a reset just before it.
pub fn repeat<R, E>(
    budget: std::time::Duration,
    units: usize,
    tracer: &mut crate::trace::Tracer,
    mut rep: impl FnMut(u64, usize, &mut crate::trace::Tracer) -> Result<R, E>,
) -> Result<Repeated<R>, E> {
    assert!(units >= 1);
    let traced = tracer.enabled();
    tracer.set_enabled(false);
    let warmup = rep(0, 0, tracer)?;
    let started = std::time::Instant::now();
    let mut reps: Vec<Vec<(u64, R)>> = (0..units).map(|_| Vec::new()).collect();
    let mut twins: Vec<Vec<(u64, R)>> = (0..units).map(|_| Vec::new()).collect();
    let mut peaks: Vec<Vec<f64>> = vec![Vec::new(); units];
    if let Err(e) = reset_peak_rss() {
        eprintln!(
            "perfbench: cannot reset the peak resident set ({e}); peak_rss_mib includes set-up"
        );
    }
    let mut iter = 1u64;
    while reps.iter().any(Vec::is_empty)
        || (traced && twins.iter().any(Vec::is_empty))
        || started.elapsed() < budget
    {
        let unit = ((iter - 1) % units as u64) as usize;
        let twin = traced && ((iter - 1) / units as u64) % 2 == 1;
        tracer.set_enabled(traced && !twin);
        // Checked once above; a failure here leaves the peak cumulative.
        let _ = reset_peak_rss();
        let r = rep(iter, unit, tracer)?;
        if twin {
            twins[unit].push((iter, r));
        } else {
            peaks[unit].push(peak_rss_mib());
            reps[unit].push((iter, r));
        }
        iter += 1;
    }
    tracer.set_enabled(traced);
    Ok(Repeated {
        warmup,
        reps,
        twins,
        peaks,
    })
}

/// Adds the traced repetitions' self times by layer (per unit the mean
/// over its repetitions, summed over units), the tracing overhead
/// (traced minus untraced time to result) and the warm-up repetition's
/// time to result. Root spans carry their iteration number as op id.
pub fn add_attribution<R>(
    layers: &mut BTreeMap<&'static str, f64>,
    spans: &[crate::trace::Span],
    repeated: &Repeated<R>,
    result_s: impl Fn(&R) -> f64,
) {
    let mut by_unit: Vec<Vec<BTreeMap<&'static str, f64>>> = vec![Vec::new(); repeated.units()];
    for (r, root) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == crate::trace::ROOT)
    {
        let selfs = crate::trace::self_times(spans, r)
            .into_iter()
            .filter_map(|(layer, secs)| {
                let name = PER_LAYER.iter().map(|&(n, _)| n).find(|n| {
                    n.strip_prefix("self.").and_then(|n| n.strip_suffix("_s")) == Some(layer)
                })?;
                Some((name, secs))
            })
            .collect();
        by_unit[repeated.unit_of(root.op)].push(selfs);
    }
    layers.extend(sum_by_key(by_unit.iter().map(|unit| means(unit))));
    let traced = repeated.typical(&result_s);
    layers.insert("trace.result_s", traced);
    layers.insert(
        "trace.overhead_s",
        traced - repeated.typical_twin(&result_s),
    );
    layers.insert("trace.spans", spans.len() as f64);
    layers.insert("trace.warmup_result_s", result_s(&repeated.warmup));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn units_take_turns_traced_and_untraced() {
        let mut tracer = crate::trace::Tracer::new(true);
        let r = repeat(
            std::time::Duration::ZERO,
            3,
            &mut tracer,
            |iter, unit, t| Ok::<_, ()>((iter, unit, t.enabled())),
        )
        .unwrap();
        assert_eq!(r.warmup, (0, 0, false));
        for u in 0..3 {
            let (traced, untraced) = (&r.reps[u], &r.twins[u]);
            assert_eq!((traced.len(), untraced.len()), (1, 1));
            assert!(traced[0].1 .2 && !untraced[0].1 .2);
            assert_eq!(r.unit_of(traced[0].0), u);
            assert_eq!(r.unit_of(untraced[0].0), u);
        }
        assert!(tracer.enabled());
        // One value per unit: the sum over units of the unit means.
        assert_eq!(r.typical(|&(_, u, _)| u as f64 + 1.0), 6.0);
    }

    /// `BENCHMARK.json` at the repository root must name exactly this
    /// catalogue.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        let ours: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        for n in &ours {
            assert!(declared.contains(n), "{n} missing from BENCHMARK.json");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = ["od-exact", "flow-churn", "paper-sweep"];
        assert_eq!(declared.len(), ours.len() + workloads.len());
    }
}
