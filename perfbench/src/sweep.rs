//! The paper's sampling study at paper scale: three 2²¹-point traces
//! (H 0.8, Pareto marginal, α ∈ {1.2, 1.4, 1.6}); on each, systematic,
//! stratified, simple random and online BSS (ε 1) over the paper's nine
//! rates 1e-5…1e-1 with 21 instances per rate, then the ten Hurst
//! estimators, each called on its own. No monitor code runs here.

use crate::metrics::{self, RunOutput};
use crate::trace::{self, Tracer};
use crate::Fault;
use sst_core::bss::{BssSampler, OnlineTuning, ThresholdPolicy};
use sst_core::experiment::{run_bss_experiment, run_experiment, ExperimentResult};
use sst_core::sampler::{SimpleRandomSampler, StratifiedSampler, SystematicSampler};
use sst_hurst::{
    AbsoluteMomentEstimator, AcfFitEstimator, DfaEstimator, EstimateError, HiguchiEstimator,
    HurstEstimate, LocalWhittleEstimator, PeriodogramEstimator, ResidualVarianceEstimator,
    RsEstimator, VarianceTimeEstimator, WaveletEstimator,
};
use sst_traffic::SyntheticTraceSpec;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub struct SweepSpec {
    /// Points per trace.
    pub len: usize,
    /// Sampling instances per rate.
    pub instances: usize,
}

pub const PAPER: SweepSpec = SweepSpec {
    len: 1 << 21,
    instances: 21,
};

/// The golden check: the same sweep from a fixed seed, compared bit for
/// bit with `golden/paper_sweep.txt`. The samplers run on traces long
/// enough for all nine rates, with few instances; the estimators on
/// short traces.
const GOLDEN_SAMPLERS: SweepSpec = SweepSpec {
    len: 1 << 20,
    instances: 3,
};
const GOLDEN_ESTIMATOR_LEN: usize = 1 << 16;
const GOLDEN_SEED: u64 = 20_050_607;
const GOLDEN_TABLE: &str = include_str!("../golden/paper_sweep.txt");

const ALPHAS: [f64; 3] = [1.2, 1.4, 1.6];
const HURST: f64 = 0.8;
const MEAN: f64 = 5.68;
/// Set-ups (trace syntheses) per run; the median is reported.
const SETUP_REPS: usize = 5;
/// The sweep's units, which take turns as repetitions: unit `2t` is the
/// sampler grid on trace `t`, unit `2t + 1` the estimator battery on it.
const UNITS: usize = 2 * ALPHAS.len();

type Estimate = fn(&[f64]) -> Result<HurstEstimate, EstimateError>;

/// The ten `sst-hurst` estimators with default settings, by span name.
const ESTIMATORS: [(&str, Estimate); 10] = [
    ("hurst.wavelet", |v| WaveletEstimator::default().estimate(v)),
    ("hurst.rs", |v| RsEstimator::default().estimate(v)),
    ("hurst.variance_time", |v| {
        VarianceTimeEstimator::default().estimate(v)
    }),
    ("hurst.periodogram", |v| {
        PeriodogramEstimator::default().estimate(v)
    }),
    ("hurst.local_whittle", |v| {
        LocalWhittleEstimator::default().estimate(v)
    }),
    ("hurst.acf_fit", |v| AcfFitEstimator::default().estimate(v)),
    ("hurst.dfa", |v| DfaEstimator::default().estimate(v)),
    ("hurst.higuchi", |v| HiguchiEstimator::default().estimate(v)),
    ("hurst.abs_moment", |v| {
        AbsoluteMomentEstimator::default().estimate(v)
    }),
    ("hurst.residual_variance", |v| {
        ResidualVarianceEstimator::default().estimate(v)
    }),
];

fn synthesize(len: usize, seed: u64) -> Vec<Vec<f64>> {
    ALPHAS
        .iter()
        .enumerate()
        .map(|(i, &alpha)| {
            SyntheticTraceSpec::new()
                .length(len)
                .hurst(HURST)
                .pareto_marginal(alpha, MEAN)
                .seed(seed.wrapping_mul(3).wrapping_add(i as u64))
                .build()
                .values()
                .to_vec()
        })
        .collect()
}

/// The paper's rate grid, keeping rates with at least 10 expected
/// samples (all nine at paper scale).
fn rates(len: usize) -> Vec<f64> {
    sst_sigproc::numeric::logspace(1e-5, 1e-1, 9)
        .into_iter()
        .filter(|r| r * len as f64 >= 10.0)
        .collect()
}

/// What one or more sweep units produced.
#[derive(Default)]
struct SweepOut {
    /// Labelled results, in a fixed order.
    values: Vec<(String, f64)>,
    /// Latency of each (trace, rate, technique) experiment call.
    call_ms: Vec<f64>,
    sampler_s: f64,
    kept: u64,
    bss_kept: u64,
    bss_qualified: u64,
    attempted: u64,
    failed: u64,
    layers: BTreeMap<&'static str, f64>,
}

/// The four techniques over the rate grid on trace `ti`.
fn samplers(
    spec: &SweepSpec,
    ti: usize,
    vals: &[f64],
    seed: u64,
    tracer: &mut Tracer,
    out: &mut SweepOut,
) {
    let alpha = ALPHAS[ti];
    let op = ti as u64;
    let base_seed = seed.wrapping_add(op);
    for &rate in &rates(spec.len) {
        let c = (1.0 / rate).round() as usize;
        let bss = BssSampler::new(
            c,
            ThresholdPolicy::Online(OnlineTuning {
                epsilon: 1.0,
                alpha,
                ..OnlineTuning::default()
            }),
        )
        .expect("valid BSS configuration");
        let mut call = |name: &'static str, f: &dyn Fn() -> ExperimentResult| {
            let o = tracer.begin(name, op);
            let r = f();
            let d = tracer.end(o);
            let kept: usize = r.instances.iter().map(|i| i.n_samples).sum();
            let mean = r.mean_of_means();
            out.attempted += 1;
            out.failed += u64::from(kept == 0 || !mean.is_finite());
            out.call_ms.push(d.as_secs_f64() * 1e3);
            out.sampler_s += d.as_secs_f64();
            out.kept += kept as u64;
            *out.layers.entry(seconds_key(name)).or_insert(0.0) += d.as_secs_f64();
            let label = format!("a{alpha}/{}/{rate:.3e}", &name[5..]);
            out.values.push((format!("{label}/mean"), mean));
            out.values.push((format!("{label}/kept"), kept as f64));
            r
        };
        call("core.systematic", &|| {
            run_experiment(vals, &SystematicSampler::new(c), spec.instances, base_seed)
        });
        call("core.stratified", &|| {
            run_experiment(vals, &StratifiedSampler::new(c), spec.instances, base_seed)
        });
        call("core.simple_random", &|| {
            run_experiment(
                vals,
                &SimpleRandomSampler::new(rate),
                spec.instances,
                base_seed,
            )
        });
        let r = call("core.bss", &|| {
            run_bss_experiment(vals, &bss, spec.instances, base_seed)
        });
        out.bss_kept += r.instances.iter().map(|i| i.n_samples as u64).sum::<u64>();
        out.bss_qualified += r
            .instances
            .iter()
            .map(|i| i.n_qualified as u64)
            .sum::<u64>();
    }
    out.layers.insert("core.samples_kept", out.kept as f64);
}

/// The ten estimators, each called on its own, on trace `ti`.
fn estimators(ti: usize, vals: &[f64], tracer: &mut Tracer, out: &mut SweepOut) {
    let alpha = ALPHAS[ti];
    out.layers.entry("hurst.failed").or_insert(0.0);
    for (name, estimate) in ESTIMATORS {
        let o = tracer.begin(name, ti as u64);
        let est = estimate(vals);
        let d = tracer.end(o);
        *out.layers.entry(seconds_key(name)).or_insert(0.0) += d.as_secs_f64();
        let h = est.map_or(f64::NAN, |e| e.hurst);
        out.attempted += 1;
        if !h.is_finite() {
            out.failed += 1;
            *out.layers.entry("hurst.failed").or_insert(0.0) += 1.0;
        }
        out.values
            .push((format!("a{alpha}/{}/hurst", &name[6..]), h));
    }
}

/// Runs unit `u` (see `UNITS`).
fn unit(
    spec: &SweepSpec,
    traces: &[Vec<f64>],
    seed: u64,
    u: usize,
    tracer: &mut Tracer,
) -> SweepOut {
    let mut out = SweepOut::default();
    let ti = u / 2;
    if u.is_multiple_of(2) {
        samplers(spec, ti, &traces[ti], seed, tracer, &mut out);
    } else {
        estimators(ti, &traces[ti], tracer, &mut out);
    }
    out
}

/// `core.bss` → `core.bss_s`, as named in the metric catalogue.
fn seconds_key(span: &'static str) -> &'static str {
    metrics::PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|n| n.strip_suffix("_s") == Some(span))
        .expect("every span has a seconds metric")
}

fn golden_sweep() -> SweepOut {
    let mut out = SweepOut::default();
    let mut tracer = Tracer::new(false);
    for (ti, vals) in synthesize(GOLDEN_SAMPLERS.len, GOLDEN_SEED)
        .iter()
        .enumerate()
    {
        samplers(
            &GOLDEN_SAMPLERS,
            ti,
            vals,
            GOLDEN_SEED,
            &mut tracer,
            &mut out,
        );
    }
    for (ti, vals) in synthesize(GOLDEN_ESTIMATOR_LEN, GOLDEN_SEED)
        .iter()
        .enumerate()
    {
        estimators(ti, vals, &mut tracer, &mut out);
    }
    out
}

/// The golden table as `perfbench --record-golden` prints it.
pub fn golden_table() -> String {
    let out = golden_sweep();
    let mut s = format!(
        "# paper-sweep golden values, seed {GOLDEN_SEED}: samplers on {} points per\n\
         # trace ({} instances per rate), estimators on {GOLDEN_ESTIMATOR_LEN} points.\n\
         # Regenerate with `perfbench --record-golden` only when a change to the\n\
         # samplers or estimators is meant to change their results.\n",
        GOLDEN_SAMPLERS.len, GOLDEN_SAMPLERS.instances
    );
    for (label, v) in &out.values {
        let _ = writeln!(s, "{label} {v:?}");
    }
    s
}

/// Compares `values` with a recorded table, bit for bit. Returns
/// (compared, mismatched); a label missing on either side mismatches.
fn check_against(table: &str, values: &[(String, f64)]) -> (u64, u64) {
    let recorded: BTreeMap<&str, &str> = table
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| l.split_once(' '))
        .collect();
    let mut mismatched = 0u64;
    for (label, v) in values {
        let same = recorded
            .get(label.as_str())
            .and_then(|r| r.trim().parse::<f64>().ok())
            .is_some_and(|r| r.to_bits() == v.to_bits());
        mismatched += u64::from(!same);
    }
    mismatched += recorded.len().saturating_sub(values.len()) as u64;
    (values.len().max(recorded.len()) as u64, mismatched)
}

pub fn run(
    spec: &SweepSpec,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
    fault: Fault,
) -> RunOutput {
    let mut synth_s = Vec::new();
    let mut traces = Vec::new();
    for rep in 0..SETUP_REPS {
        // Free the previous set-up first, so that two are never alive.
        traces.clear();
        let o = tracer.begin("traffic.synth", rep as u64);
        traces = synthesize(spec.len, seed);
        synth_s.push(tracer.end(o).as_secs_f64());
    }
    let points = (traces.len() * spec.len) as f64;

    let repeated = metrics::repeat(budget, UNITS, tracer, |iter, u, tracer| {
        let root = tracer.begin(trace::ROOT, iter);
        let out = unit(spec, &traces, seed, u, tracer);
        let result_s = tracer.end(root).as_secs_f64();
        Ok::<_, std::convert::Infallible>((result_s, out))
    })
    .unwrap_or_else(|e| match e {});

    let mut run = RunOutput {
        input: format!("{} traces x {} points", traces.len(), spec.len),
        iterations: repeated.all().count(),
        ..RunOutput::default()
    };
    for (_, r) in repeated.all() {
        run.attempted += r.attempted;
        run.failed += r.failed;
    }
    // Every repetition of a unit must reproduce its first bit for bit;
    // the golden check below pins the results themselves.
    for (u, (reps, twins)) in repeated.reps.iter().zip(&repeated.twins).enumerate() {
        let first = &reps[0].1 .1.values;
        let warmup = (u == 0).then_some(&repeated.warmup);
        for (_, r) in reps.iter().chain(twins).map(|(_, r)| r).chain(warmup) {
            let differs = r
                .values
                .iter()
                .zip(first)
                .filter(|((la, a), (lb, b))| la != lb || a.to_bits() != b.to_bits())
                .count()
                + r.values.len().abs_diff(first.len());
            run.failed += differs as u64;
        }
    }

    let t = Instant::now();
    let mut golden = golden_sweep();
    if fault == Fault::PerturbSweepValue {
        golden.values[0].1 *= 1.0 + 1e-12;
    }
    let (compared, mismatched) = check_against(GOLDEN_TABLE, &golden.values);
    run.attempted += golden.attempted + compared;
    run.failed += golden.failed + mismatched;
    eprintln!(
        "golden check: {compared} values, {mismatched} mismatched, {:.2}s",
        t.elapsed().as_secs_f64()
    );

    let call_ms: Vec<f64> = repeated
        .measured()
        .flat_map(|(_, r)| r.call_ms.iter().copied())
        .collect();
    let e2e = &mut run.e2e;
    e2e.insert("setup_s", metrics::median(&synth_s));
    // Sums over the units of each unit's mean.
    e2e.insert("time_to_result_s", repeated.typical(|r| r.0));
    e2e.insert(
        "ingest_pts_per_s",
        points / repeated.typical(|r| r.1.sampler_s),
    );
    e2e.insert("flush_p50_ms", metrics::percentile(&call_ms, 50.0));
    e2e.insert("flush_p90_ms", metrics::percentile(&call_ms, 90.0));
    // What the samplers would ship: one f64 per kept sample.
    e2e.insert(
        "wire_bytes_per_pt",
        repeated.typical(|r| r.1.kept as f64) * 8.0 / points,
    );
    e2e.insert("state_kib", points * 8.0 / 1024.0);
    e2e.insert("peak_rss_mib", repeated.peak_rss_mib());
    run.finish_counts();

    run.layers = repeated.typical_map(|r| &r.1.layers);
    run.layers.insert(
        "core.bss_qualified_ratio",
        repeated.typical(|r| r.1.bss_qualified as f64)
            / repeated.typical(|r| r.1.bss_kept as f64).max(1.0),
    );
    run.layers
        .insert("traffic.synth_s", metrics::median(&synth_s));
    if tracer.enabled() {
        metrics::add_attribution(&mut run.layers, tracer.spans(), &repeated, |r| r.0);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_table_matches_a_fresh_sweep() {
        let out = golden_sweep();
        assert_eq!(out.failed, 0);
        assert_eq!(check_against(GOLDEN_TABLE, &out.values).1, 0);
    }

    #[test]
    fn a_perturbed_sweep_value_is_an_error() {
        let tiny = SweepSpec {
            len: 1 << 14,
            instances: 3,
        };
        let out = run(
            &tiny,
            5,
            Duration::ZERO,
            &mut Tracer::new(false),
            Fault::PerturbSweepValue,
        );
        assert!(out.error_rate() > 0.0, "{out:?}");
    }

    #[test]
    fn missing_or_extra_labels_mismatch() {
        let values = vec![("x".to_string(), 1.0), ("y".to_string(), 2.0)];
        assert_eq!(check_against("x 1.0\ny 2.0\n", &values), (2, 0));
        assert_eq!(check_against("x 1.0\n", &values), (2, 1));
        assert_eq!(check_against("x 1.0\ny 2.0\nz 3.0\n", &values), (3, 1));
        assert_eq!(
            check_against("x 1.0\ny 2.0000000000000004\n", &values),
            (2, 1)
        );
    }
}
