//! Per-phase wall-time accounting and the end-of-run report.

use std::collections::BTreeMap;

use crate::event::{Phase, PhaseGroup};
use crate::hist::LogHistogram;

/// Accumulated timing for one phase.
///
/// `total_ns` is wall time including child spans; `self_ns` excludes
/// time spent in nested instrumented spans, so summing `self_ns` across
/// all phases reproduces total traced wall time exactly once — which is
/// what makes the report percentages sum to ~100%.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of spans recorded for this phase.
    pub count: u64,
    /// Inclusive wall time in nanoseconds.
    pub total_ns: u64,
    /// Exclusive (self) wall time in nanoseconds.
    pub self_ns: u64,
    /// Distribution of per-span inclusive durations in nanoseconds.
    pub hist: LogHistogram,
}

impl PhaseStat {
    /// Folds `other` into `self` (order-invariant).
    pub fn merge(&mut self, other: &PhaseStat) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.self_ns = self.self_ns.saturating_add(other.self_ns);
        self.hist.merge(&other.hist);
    }
}

/// Wall-time accounting across every [`Phase`], merged from all threads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    stats: BTreeMap<Phase, PhaseStat>,
}

/// Formats a nanosecond quantity with an adaptive unit.
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl PhaseProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed span.
    pub(crate) fn record_span(&mut self, phase: Phase, total_ns: u64, self_ns: u64) {
        let stat = self.stats.entry(phase).or_default();
        stat.count += 1;
        stat.total_ns = stat.total_ns.saturating_add(total_ns);
        stat.self_ns = stat.self_ns.saturating_add(self_ns);
        stat.hist.record(total_ns);
    }

    /// Folds `other` into `self` (order-invariant).
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (phase, stat) in &other.stats {
            self.stats.entry(*phase).or_default().merge(stat);
        }
    }

    /// The accumulated stat for `phase`, if any spans were recorded.
    pub fn get(&self, phase: Phase) -> Option<&PhaseStat> {
        self.stats.get(&phase)
    }

    /// Iterates `(phase, stat)` in [`Phase`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, &PhaseStat)> + '_ {
        self.stats.iter().map(|(p, s)| (*p, s))
    }

    /// Total traced self time in nanoseconds across all phases.
    pub(crate) fn total_self_ns(&self) -> u64 {
        self.stats.values().map(|s| s.self_ns).sum()
    }

    /// Self-time share of `group` as a fraction in `[0, 1]`.
    pub fn group_fraction(&self, group: PhaseGroup) -> f64 {
        let total = self.total_self_ns();
        if total == 0 {
            return 0.0;
        }
        let group_ns: u64 = self
            .stats
            .iter()
            .filter(|(p, _)| p.group() == group)
            .map(|(_, s)| s.self_ns)
            .sum();
        group_ns as f64 / total as f64
    }

    /// True if no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Renders the end-of-run phase table: self-time percentage (summing
    /// to ~100%), span count, and per-span p50/p95/total per phase, plus
    /// a per-group roll-up line.
    pub fn render_report(&self) -> String {
        let total = self.total_self_ns();
        let mut out = String::new();
        out.push_str("phase profile (self-time share of traced wall time):\n");
        out.push_str(&format!(
            "  {:<13} {:<18} {:>7} {:>8} {:>9} {:>9} {:>9}\n",
            "group", "phase", "%", "count", "p50", "p95", "total"
        ));
        for phase in Phase::ALL {
            let Some(stat) = self.stats.get(&phase) else {
                continue;
            };
            let pct = if total == 0 {
                0.0
            } else {
                stat.self_ns as f64 / total as f64 * 100.0
            };
            out.push_str(&format!(
                "  {:<13} {:<18} {:>6.1}% {:>8} {:>9} {:>9} {:>9}\n",
                phase.group().name(),
                phase.name(),
                pct,
                stat.count,
                fmt_ns(stat.hist.quantile(0.5)),
                fmt_ns(stat.hist.quantile(0.95)),
                fmt_ns(stat.total_ns),
            ));
        }
        let groups: Vec<String> = PhaseGroup::ALL
            .iter()
            .map(|g| format!("{} {:.1}%", g.name(), self.group_fraction(*g) * 100.0))
            .collect();
        out.push_str(&format!("  groups: {}\n", groups.join(" | ")));
        out.push_str(&format!("  traced wall time: {}\n", fmt_ns(total)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_shares_sum_to_one() {
        let mut p = PhaseProfile::new();
        p.record_span(Phase::Round, 100_000, 10_000);
        p.record_span(Phase::LocalStep, 60_000, 60_000);
        p.record_span(Phase::LinkDeliver, 20_000, 20_000);
        p.record_span(Phase::RobustMerge, 10_000, 10_000);
        let sum: f64 = PhaseGroup::ALL.iter().map(|g| p.group_fraction(*g)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(p.total_self_ns(), 100_000);
    }

    #[test]
    fn merge_is_order_invariant() {
        let mut a = PhaseProfile::new();
        a.record_span(Phase::Round, 10, 5);
        a.record_span(Phase::Eval, 7, 7);
        let mut b = PhaseProfile::new();
        b.record_span(Phase::Round, 20, 15);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get(Phase::Round).map(|s| s.count), Some(2));
        assert_eq!(ab.get(Phase::Round).map(|s| s.total_ns), Some(30));
    }

    #[test]
    fn report_lists_recorded_phases() {
        let mut p = PhaseProfile::new();
        p.record_span(Phase::GuardScreen, 1_500, 1_500);
        let report = p.render_report();
        assert!(report.contains("guard_screen"));
        assert!(report.contains("100.0%"));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_200_000_000), "3.20s");
    }
}
