//! The `results.json` record, its printed table, and `compare`.

use crate::host::Host;
use crate::schema::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread};
use serde::{Deserialize, Serialize};

/// One end-to-end metric of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRow {
    /// Metric name from the schema.
    pub name: String,
    /// The value: of the one run, or the median over repeats. Times and
    /// rates are normalised to the reference host's speed (see `calib`).
    pub value: f64,
    /// The same as measured by the wall clock, before normalisation.
    pub raw: f64,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
    /// Share by which it may worsen before counting as a regression.
    pub bound: f64,
    /// Samples behind one run's value (rounds, or set-up processes).
    pub samples: u64,
    /// Each repeat's value, in run order.
    pub values: Vec<f64>,
    /// Run-to-run quartile spread as a share of the median; `null` with
    /// fewer than three repeats.
    pub spread: Option<f64>,
}

/// One per-layer metric of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerRow {
    /// Metric name from the schema.
    pub name: String,
    /// Measured value (0 when the workload never calls the layer).
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
    /// `metric@workload` pairs a gain here should move.
    pub moves: Vec<String>,
    /// Caveat, or why it moves nothing.
    pub note: String,
}

/// Everything one workload reported.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Why the workload exists.
    pub why: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured rounds per run.
    pub rounds: u64,
    /// 1-minute load average just before the run.
    pub loadavg_before: f64,
    /// Whether that load average exceeded cores / 2.
    pub noisy: bool,
    /// Idle loopback traffic in the 200 ms before a tcp session.
    pub lo_idle_bytes: u64,
    /// Machine slowdown against the reference host during the run (1.0 =
    /// reference speed); wall-clock figures were divided by it.
    pub slowdown: f64,
    /// Times a workload process died from a signal and was re-run.
    pub crash_retries: u64,
    /// Whether every output check held.
    pub correct: bool,
    /// Measured rounds attempted (summed over repeats).
    pub attempted: u64,
    /// Rounds that failed or ran short of the cohort.
    pub failed: u64,
    /// The output checks that failed.
    pub violations: Vec<String>,
    /// The eight end-to-end metrics (empty in a traced pass).
    pub metrics: Vec<MetricRow>,
    /// The per-layer metrics (empty in an untraced pass).
    pub layers: Vec<LayerRow>,
}

/// A full set: every workload once (or `repeat` times).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    /// Workload seed.
    pub seed: u64,
    /// `--seconds` of each run.
    pub seconds: u64,
    /// Interleaved repeats per workload.
    pub repeat: u64,
    /// The machine and toolchain.
    pub host: Host,
    /// One entry per workload.
    pub workloads: Vec<WorkloadResult>,
    /// The benchmark claims no gain; a change that does fills this in its
    /// own report.
    pub claim: Option<String>,
}

impl WorkloadResult {
    /// Builds the end-to-end rows from `(name, value, raw, samples)` tuples
    /// in schema order.
    pub fn set_metrics(&mut self, values: &[(&str, f64, f64, u64)]) {
        self.metrics = END_TO_END
            .iter()
            .map(|m| {
                let (_, value, raw, samples) = values
                    .iter()
                    .find(|(name, ..)| *name == m.name)
                    .unwrap_or_else(|| panic!("end-to-end metric {} not measured", m.name));
                MetricRow {
                    name: m.name.into(),
                    value: *value,
                    raw: *raw,
                    unit: m.unit.into(),
                    better: m.better.as_str().into(),
                    bound: m.bound,
                    samples: *samples,
                    values: vec![*value],
                    spread: None,
                }
            })
            .collect();
    }

    /// Builds the per-layer rows; a metric no probe produced is 0 (the
    /// workload never calls that layer).
    ///
    /// # Panics
    /// Panics on a measured name the schema does not list (a harness bug).
    pub fn set_layers(&mut self, measured: &std::collections::BTreeMap<&'static str, f64>) {
        for name in measured.keys() {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "probe row {name} is not in the schema"
            );
        }
        self.layers = PER_LAYER
            .iter()
            .map(|m| LayerRow {
                name: m.name.into(),
                value: measured.get(m.name).copied().unwrap_or(0.0),
                unit: m.unit.into(),
                better: m.better.as_str().into(),
                moves: m.moves.iter().map(|(e, w)| format!("{e}@{w}")).collect(),
                note: m.note.into(),
            })
            .collect();
    }

    /// Folds repeats of the same workload into one result: medians, the
    /// run-to-run spread, summed counts.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn merge(runs: &[WorkloadResult]) -> WorkloadResult {
        let mut out = runs[0].clone();
        out.loadavg_before = runs.iter().map(|r| r.loadavg_before).fold(0.0, f64::max);
        out.slowdown = median(&runs.iter().map(|r| r.slowdown).collect::<Vec<_>>());
        out.noisy = runs.iter().any(|r| r.noisy);
        out.crash_retries = runs.iter().map(|r| r.crash_retries).sum();
        out.correct = runs.iter().all(|r| r.correct);
        out.attempted = runs.iter().map(|r| r.attempted).sum();
        out.failed = runs.iter().map(|r| r.failed).sum();
        out.violations = runs.iter().flat_map(|r| r.violations.clone()).collect();
        for (i, row) in out.metrics.iter_mut().enumerate() {
            row.values = runs.iter().map(|r| r.metrics[i].value).collect();
            row.value = median(&row.values);
            row.raw = median(&runs.iter().map(|r| r.metrics[i].raw).collect::<Vec<_>>());
            row.spread = (row.values.len() >= 3)
                .then(|| quartile_spread(&row.values))
                .flatten();
        }
        out
    }

    /// The human table: every metric by name with unit, sample count and
    /// bound.
    pub fn print(&self) {
        println!(
            "\n== {} (seed {}, {} rounds, machine slowdown {:.3}, loadavg {:.2}{}) ==",
            self.name,
            self.seed,
            self.rounds,
            self.slowdown,
            self.loadavg_before,
            if self.noisy { ", NOISY" } else { "" }
        );
        for m in &self.metrics {
            let spread = m
                .spread
                .map_or(String::new(), |s| format!("  spread {:.1}%", s * 100.0));
            println!(
                "  {:<24} {:>16.4} {:<9} (raw {:>14.4}) {:<6} n={:<4} bound {:>4.1}%{spread}",
                m.name,
                m.value,
                m.unit,
                m.raw,
                m.better,
                m.samples,
                m.bound * 100.0
            );
        }
        for l in &self.layers {
            println!(
                "  {:<32} {:>16.4} {:<9} {}",
                l.name, l.value, l.unit, l.better
            );
        }
        if self.crash_retries > 0 {
            println!("  CRASHED and re-run: {} time(s)", self.crash_retries);
        }
        for v in &self.violations {
            println!("  VIOLATION: {v}");
        }
    }
}

/// Verdict on one `(workload, metric)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound: cannot tell.
    Unresolved,
}

/// Signed worsening of `new` against `base` as a share of `base`
/// (positive = worse), for the metric's direction.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    if base == new {
        return 0.0;
    }
    let change = (new - base) / base.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Judges one pair of rows.
pub fn judge(base: &MetricRow, new: &MetricRow) -> (f64, Verdict) {
    let better = if base.better == "higher" {
        Better::Higher
    } else {
        Better::Lower
    };
    let worse = worsening(base.value, new.value, better);
    let spread = base.spread.unwrap_or(0.0).max(new.spread.unwrap_or(0.0));
    let verdict = if spread > base.bound {
        Verdict::Unresolved
    } else if worse > base.bound || worse.is_nan() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Prints one row per `(workload, metric)` and returns how many regressed.
///
/// # Errors
/// A message when the two files do not hold the same workloads and
/// metrics.
pub fn compare(base: &Results, new: &Results) -> Result<usize, String> {
    let mut regressed = 0;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "new", "worse by", "bound"
    );
    for b in &base.workloads {
        let n = new
            .workloads
            .iter()
            .find(|n| n.name == b.name)
            .ok_or_else(|| format!("workload {} missing from the second file", b.name))?;
        for bm in &b.metrics {
            let nm = n
                .metrics
                .iter()
                .find(|m| m.name == bm.name)
                .ok_or_else(|| {
                    format!(
                        "{}: metric {} missing from the second file",
                        b.name, bm.name
                    )
                })?;
            let (worse, verdict) = judge(bm, nm);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<16} {:<22} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%  {}",
                b.name,
                bm.name,
                bm.value,
                nm.value,
                worse * 100.0,
                bm.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        if !(b.correct && n.correct) {
            println!("{:<16} output checks failed", b.name);
            regressed += 1;
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, value: f64, better: &str, bound: f64, spread: Option<f64>) -> MetricRow {
        MetricRow {
            name: name.into(),
            value,
            raw: value,
            unit: "ms".into(),
            better: better.into(),
            bound,
            samples: 100,
            values: vec![value],
            spread,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = row("round_ms_p50", 100.0, "lower", 0.10, None);
        assert_eq!(
            judge(&base, &row("round_ms_p50", 109.0, "lower", 0.10, None)).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&base, &row("round_ms_p50", 50.0, "lower", 0.10, None)).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&base, &row("round_ms_p50", 111.0, "lower", 0.10, None)).1,
            Verdict::Regressed
        );
        let tps = row("tokens_per_s", 1000.0, "higher", 0.10, None);
        assert_eq!(
            judge(&tps, &row("tokens_per_s", 880.0, "higher", 0.10, None)).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&tps, &row("tokens_per_s", 1500.0, "higher", 0.10, None)).1,
            Verdict::Ok
        );
        // A spread wider than the bound on either side decides nothing.
        assert_eq!(
            judge(&base, &row("round_ms_p50", 150.0, "lower", 0.10, Some(0.2))).1,
            Verdict::Unresolved
        );
        // A zero bound tolerates equality only.
        let fail = row("round_fail_frac", 0.0, "lower", 0.0, None);
        assert_eq!(judge(&fail, &fail.clone()).1, Verdict::Ok);
        assert_eq!(
            judge(&fail, &row("round_fail_frac", 0.01, "lower", 0.0, None)).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn merge_takes_medians_and_spread_over_repeats() {
        let mut runs = Vec::new();
        for v in [10.0, 12.0, 11.0] {
            let mut r = WorkloadResult {
                name: "w".into(),
                why: String::new(),
                seed: 42,
                rounds: 100,
                loadavg_before: v / 10.0,
                noisy: v > 11.5,
                lo_idle_bytes: 0,
                slowdown: 1.0,
                crash_retries: 0,
                correct: true,
                attempted: 100,
                failed: 0,
                violations: vec![],
                metrics: vec![],
                layers: vec![],
            };
            let values: Vec<(&str, f64, f64, u64)> =
                END_TO_END.iter().map(|m| (m.name, v, v, 100)).collect();
            r.set_metrics(&values);
            runs.push(r);
        }
        let merged = WorkloadResult::merge(&runs);
        assert_eq!(merged.attempted, 300);
        assert!(merged.noisy);
        assert_eq!(merged.metrics[0].value, 11.0);
        assert_eq!(merged.metrics[0].values, vec![10.0, 12.0, 11.0]);
        // quantiles([10, 11, 12], n=4) = [10, 11, 12] -> spread 2/11
        assert!((merged.metrics[0].spread.unwrap() - 2.0 / 11.0).abs() < 1e-12);
    }
}
