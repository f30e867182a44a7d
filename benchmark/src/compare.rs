//! `cartbench compare A.json B.json`: B against A, per workload and
//! end-to-end metric, by the rule of the choosing-metrics guide.

use crate::json::Json;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The spread between windows exceeds the bound and the windows of the
    /// two results overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a`'s median
/// (negative when it is better).
pub fn worsening(a: &Summary, b: &Summary, lower_is_better: bool) -> f64 {
    let change = (b.median - a.median) / a.median.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

pub fn verdict(a: &Summary, b: &Summary, lower_is_better: bool, bound: f64) -> Verdict {
    let overlap = a.min <= b.max && b.min <= a.max;
    if a.spread().max(b.spread()) > bound && overlap {
        return Verdict::Unresolved;
    }
    let worse_by = worsening(a, b, lower_is_better);
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn summary(metric: &Json) -> Option<Summary> {
    let field = |key: &str| metric.get(key)?.as_f64();
    Some(Summary {
        n: field("n")? as usize,
        min: field("min")?,
        q1: field("q1")?,
        median: field("median")?,
        q3: field("q3")?,
        max: field("max")?,
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if json.get("schema").and_then(Json::as_str) != Some("cartbench-results-v1") {
        return Err(format!("{path} is not a cartbench results file"));
    }
    if json.get("degraded") == Some(&Json::Bool(true)) {
        println!("note: {path} is marked degraded (busy machine or a failed check)");
    }
    Ok(json)
}

/// Prints the table; `Ok(false)` when any pairing is worse.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    // Medians of windows of another length, or of another number of them,
    // are other metrics under the same names.
    for key in ["window_s", "windows", "setup_processes"] {
        if a.get(key).is_none() || a.get(key) != b.get(key) {
            return Err(format!(
                "{path_a} and {path_b} differ in {key} ({:?} against {:?}): \
                 they were not measured by the same protocol",
                a.get(key).and_then(Json::as_f64),
                b.get(key).and_then(Json::as_f64)
            ));
        }
    }
    let workloads_b = b.get("workloads").ok_or("B has no workloads")?;
    let mut all_fine = true;
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "A spread", "B spread", "change", "bound"
    );
    for (workload, result_a) in a.get("workloads").ok_or("A has no workloads")?.entries() {
        let metrics_b = workloads_b.get(workload).and_then(|w| w.get("end_to_end"));
        for (name, metric_a) in result_a.get("end_to_end").map_or(&[][..], Json::entries) {
            let pair = summary(metric_a).zip(metrics_b.and_then(|m| m.get(name)).and_then(summary));
            let Some((sa, sb)) = pair else {
                return Err(format!(
                    "{workload}.{name} is missing from one of the files"
                ));
            };
            let lower = metric_a.get("better").and_then(Json::as_str) != Some("higher");
            let bound = metric_a.get("bound").and_then(Json::as_f64).unwrap_or(0.1);
            let v = verdict(&sa, &sb, lower, bound);
            all_fine &= v != Verdict::Worse;
            println!(
                "{workload:<16} {name:<12} {:>14.6} {:>14.6} {:>8.3} {:>8.3} {:>+8.3} {bound:>6.2}  {}",
                sa.median,
                sb.median,
                sa.spread(),
                sb.spread(),
                (sb.median - sa.median) / sa.median.abs(),
                v.word()
            );
        }
        let failed = |r: Option<&Json>| {
            r.and_then(|r| r.get("failed"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let (fa, fb) = (failed(Some(result_a)), failed(workloads_b.get(workload)));
        if fb > fa {
            println!("{workload:<16} failed       {fa:>14} {fb:>14}  worse");
            all_fine = false;
        }
    }
    Ok(all_fine)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows(values: &[f64]) -> Summary {
        Summary::of(values)
    }

    #[test]
    fn verdict_table() {
        let base = windows(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let cases = [
            // (B windows, lower is better, expected)
            (vec![100.2, 101.0, 99.4, 100.0, 100.6], true, Verdict::Same),
            (
                vec![120.0, 121.0, 119.0, 120.5, 119.5],
                true,
                Verdict::Worse,
            ),
            (vec![80.0, 81.0, 79.0, 80.5, 79.5], true, Verdict::Better),
            (
                vec![120.0, 121.0, 119.0, 120.5, 119.5],
                false,
                Verdict::Better,
            ),
            (vec![80.0, 81.0, 79.0, 80.5, 79.5], false, Verdict::Worse),
            // Noisy and overlapping: the median moved by 15 % but the
            // windows cannot tell.
            (
                vec![115.0, 95.0, 140.0, 100.0, 130.0],
                true,
                Verdict::Unresolved,
            ),
            // Noisy but every window of B reads above every window of A.
            (
                vec![150.0, 120.0, 190.0, 130.0, 170.0],
                true,
                Verdict::Worse,
            ),
        ];
        for (b, lower, expected) in cases {
            assert_eq!(
                verdict(&base, &windows(&b), lower, 0.10),
                expected,
                "{b:?} lower={lower}"
            );
        }
        assert!((worsening(&base, &windows(&[110.0]), true) - 0.1).abs() < 1e-12);
        assert!((worsening(&base, &windows(&[110.0]), false) + 0.1).abs() < 1e-12);
    }
}
