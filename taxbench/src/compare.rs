//! Sets of runs and their comparison: `--repeat N` produces a set,
//! `taxbench compare A.json B.json` judges B against A with the bounds
//! the benchmark fixed. Comparing two sets of the same code (A/A) is the
//! acceptance check for the benchmark itself.

use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use taxrec_cli::json::{self, json_str, Json};

/// One run of a set.
#[derive(Debug, Clone, PartialEq)]
pub struct SetRun {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    /// Metric name → value.
    pub metrics: Vec<(String, f64)>,
}

/// Render a set file.
pub fn render_set(runs: &[SetRun]) -> String {
    let runs: Vec<String> = runs
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|(k, v)| format!("{}:{v}", json_str(k)))
                .collect();
            format!(
                "{{\"workload\":{},\"seed\":{},\"correct\":{},\"metrics\":{{{}}}}}",
                json_str(&r.workload),
                r.seed,
                r.correct,
                metrics.join(",")
            )
        })
        .collect();
    format!("{{\"runs\":[\n{}\n]}}\n", runs.join(",\n"))
}

/// The `metrics` object of a result line, flattened to name → value.
pub fn metric_values(result: &Json) -> Result<Vec<(String, f64)>, String> {
    let Some(Json::Obj(fields)) = result.get("metrics") else {
        return Err("result has no metrics object".into());
    };
    fields
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .or(Some(m))
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no numeric value"))
        })
        .collect()
}

/// Parse a set file.
pub fn parse_set(text: &str) -> Result<Vec<SetRun>, String> {
    let doc = json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("set file has no runs array")?;
    runs.iter()
        .map(|r| {
            Ok(SetRun {
                workload: r
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or("run without workload")?
                    .to_string(),
                seed: r
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or("run without seed")?,
                correct: r.get("correct") == Some(&Json::Bool(true)),
                metrics: metric_values(r)?,
            })
        })
        .collect()
}

/// How one (metric, workload) row came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's own spread is wider than the bound: no call either way.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let (q1, q3) = if values.len() >= 2 {
            quartiles(values)
        } else {
            (values[0], values[0])
        };
        Side {
            n: values.len(),
            median: median(values),
            q1,
            q3,
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// Judge B against A for one metric.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (Side, Side, Verdict) {
    let (sa, sb) = (Side::of(a), Side::of(b));
    let worse = match metric.better {
        Better::Lower => sb.median > sa.median * (1.0 + metric.bound),
        Better::Higher => sb.median < sa.median * (1.0 - metric.bound),
    };
    let verdict = if worse {
        Verdict::Worse
    } else if sa.spread().max(sb.spread()) > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (sa, sb, verdict)
}

fn by_workload(runs: &[SetRun]) -> BTreeMap<&str, Vec<&SetRun>> {
    let mut map: BTreeMap<&str, Vec<&SetRun>> = BTreeMap::new();
    for r in runs {
        map.entry(r.workload.as_str()).or_default().push(r);
    }
    map
}

fn values_of(runs: &[&SetRun], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.iter().find(|(k, _)| k == metric).map(|(_, v)| *v))
        .collect()
}

/// Compare two sets; returns the table and whether any row is `worse`.
pub fn compare(a: &[SetRun], b: &[SetRun]) -> (String, bool) {
    let (a_by, b_by) = (by_workload(a), by_workload(b));
    let mut out = format!(
        "{:<22} {:<15} {:>4} {:>12} {:>12} {:>12}  {:>4} {:>12} {:>12} {:>12}  {:>7} {:>6}  {}\n",
        "metric",
        "workload",
        "nA",
        "A.q1",
        "A.median",
        "A.q3",
        "nB",
        "B.q1",
        "B.median",
        "B.q3",
        "B/A",
        "bound",
        "verdict"
    );
    let mut any_worse = false;
    for metric in END_TO_END {
        for (workload, a_runs) in &a_by {
            let Some(b_runs) = b_by.get(workload) else {
                continue;
            };
            let (va, vb) = (
                values_of(a_runs, metric.name),
                values_of(b_runs, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb, verdict) = judge(metric, &va, &vb);
            any_worse |= verdict == Verdict::Worse;
            out.push_str(&format!(
                "{:<22} {:<15} {:>4} {:>12.4} {:>12.4} {:>12.4}  {:>4} {:>12.4} {:>12.4} {:>12.4}  {:>7.4} {:>6.2}  {}\n",
                metric.name,
                workload,
                sa.n,
                sa.q1,
                sa.median,
                sa.q3,
                sb.n,
                sb.q1,
                sb.median,
                sb.q3,
                sb.median / sa.median,
                metric.bound,
                verdict.as_str()
            ));
        }
    }
    for (name, runs) in [("A", a), ("B", b)] {
        let bad = runs.iter().filter(|r| !r.correct).count();
        if bad > 0 {
            out.push_str(&format!(
                "set {name}: {bad} of {} runs were not correct\n",
                runs.len()
            ));
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower() -> EndToEnd {
        EndToEnd {
            name: "latency",
            unit: "us",
            better: Better::Lower,
            bound: 0.10,
        }
    }

    fn higher() -> EndToEnd {
        EndToEnd {
            better: Better::Higher,
            ..lower()
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let up12: Vec<f64> = base.iter().map(|v| v * 1.12).collect();
        let up5: Vec<f64> = base.iter().map(|v| v * 1.05).collect();
        let down12: Vec<f64> = base.iter().map(|v| v * 0.88).collect();
        assert_eq!(judge(&lower(), &base, &up12).2, Verdict::Worse);
        assert_eq!(judge(&lower(), &base, &up5).2, Verdict::Ok);
        assert_eq!(judge(&lower(), &base, &down12).2, Verdict::Ok);
        assert_eq!(judge(&higher(), &base, &down12).2, Verdict::Worse);
        assert_eq!(judge(&higher(), &base, &up12).2, Verdict::Ok);
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(judge(&lower(), &base, &noisy).2, Verdict::Unresolved);
    }

    #[test]
    fn set_files_round_trip() {
        let runs = vec![SetRun {
            workload: "catalog_read".into(),
            seed: 3,
            correct: true,
            metrics: vec![("setup_s".into(), 1.25), ("read_p50_us".into(), 612.5)],
        }];
        assert_eq!(parse_set(&render_set(&runs)).unwrap(), runs);
        let (table, worse) = compare(&runs, &runs);
        assert!(!worse);
        assert!(table.contains("read_p50_us"), "{table}");
    }
}
