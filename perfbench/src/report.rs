//! What one benchmark run reports: named metrics with units and sample
//! counts, the attempted/failed tally behind `error_rate`, and the
//! rendering of both as a table and as the closing JSON line.

use std::fmt::Write as _;

/// How a metric may be used as evidence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A host wall-clock time, or a rate or share derived from one.
    Timing,
    /// A count that repeats exactly across identical runs; only these
    /// may back a count claim.
    Exact,
    /// A count that depends on host timing (thread interleaving, cache
    /// warmth) and varies across identical runs.
    HostTiming,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Timing => "timing",
            Kind::Exact => "exact-repeat",
            Kind::HostTiming => "host-timing-dependent",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Measurements behind `value` (1 for a single measurement or count).
    pub samples: usize,
    pub kind: Kind,
}

/// Everything one run of one workload produced.
#[derive(Default, Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// One line per failed or wrong operation.
    pub failures: Vec<String>,
    /// Free-form findings printed under the table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one operation; a false `ok` counts it failed with the
    /// reason `why` gives.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
        ok
    }

    /// Counts one operation that returned an error.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(why);
    }

    pub fn push(&mut self, name: &str, unit: &'static str, value: f64, samples: usize, kind: Kind) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            kind,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable table: every metric with unit, sample count
    /// and evidence class, then failures and notes.
    pub fn table(&self, title: &str) -> String {
        let mut s = format!("== {title} ==\n");
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "{:<width$}  {:>14.6} {:<8} n={:<5} {}",
                m.name,
                m.value,
                m.unit,
                m.samples,
                m.kind.label()
            );
        }
        let _ = writeln!(
            s,
            "{:<width$}  {:>14.6} {:<8} n={:<5} ({} failed of {} attempted)",
            "error_rate",
            self.error_rate(),
            "ratio",
            self.attempted,
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(s, "FAILED: {f}");
        }
        for n in &self.notes {
            let _ = writeln!(s, "note: {n}");
        }
        s
    }

    /// The closing JSON line, holding exactly the metrics in `names`.
    /// Errors if one is missing or not a finite number.
    pub fn json_line(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != *unit {
                return Err(format!("metric {name} measured in {} not {unit}", m.unit));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
                m.value
            );
        }
        s.push_str("}}");
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_named_metrics() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.push("a", "s", 1.25, 3, Kind::Timing);
        o.push("b", "count", 7.0, 1, Kind::Exact);
        let line = o.json_line(&[("a", "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"a\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(o.json_line(&[("c", "s")]).is_err());
        assert!(o.json_line(&[("a", "ms")]).is_err());
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.check(false, || "wrong".into());
        assert_eq!(o.error_rate(), 0.5);
        assert!(o.json_line(&[]).unwrap().starts_with("{\"correct\": false"));
    }
}
