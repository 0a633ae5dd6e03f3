//! The run's result: metrics with units and sample counts, printed as
//! a table and as the final JSON line.

use telemetry::Json;

use crate::server::Tally;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Observations behind the value.
    pub samples: u64,
    /// What the number is on this workload, for the table.
    pub label: String,
}

#[derive(Debug, Default)]
pub struct Report {
    pub errors: Vec<String>,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: u64,
        label: &str,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            label: label.to_string(),
        });
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        let why = why.into();
        eprintln!("perfbench: FAIL: {why}");
        self.errors.push(why);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
            && self.tally.failed() == 0
            && self.tally.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints every metric as a table row, then the result object as
    /// the last line of stdout.
    pub fn print(&self, workload: &str) {
        println!("# {workload}: {}", self.tally.describe());
        for m in &self.metrics {
            println!(
                "{workload:<12} {:<40} {:>14.6} {:<9} n={:<7} {}",
                m.name, m.value, m.unit, m.samples, m.label
            );
        }
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::Obj(vec![
                            ("value".to_string(), Json::from(finite(m.value))),
                            ("unit".to_string(), Json::from(m.unit)),
                        ]),
                    )
                })
                .collect(),
        );
        let result = Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            (
                "attempted".to_string(),
                Json::from(self.tally.attempted.max(1)),
            ),
            (
                "failed".to_string(),
                Json::from(if self.correct() {
                    0
                } else {
                    self.tally.failed().max(1)
                }),
            ),
            ("metrics".to_string(), metrics),
        ]);
        println!("{result}");
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
