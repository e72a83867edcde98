//! `--compare A.json B.json`: per workload and end-to-end metric, the
//! change from A to B against the metric's own bound.

use crate::json::{self, Json};
use crate::metrics;
use crate::stats::{quartiles, spread};
use std::collections::BTreeMap;
use std::path::Path;

/// `values[workload][metric]` over a file's untraced run records.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// The settings two sets must share before their medians can be
/// compared: run length, XOR kernel, where the data lived and how many
/// CPUs the run hopped over (0: it could not be confined to one).
const SAME_ENV: [&str; 4] = ["seconds", "kernel", "data_fs", "cpus_hopped"];

/// One file's untraced runs, and the `SAME_ENV` settings they all share.
struct Set {
    runs: Runs,
    env: Vec<Json>,
}

fn load(path: &Path) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    load_records(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_records(doc: &Json) -> Result<Set, String> {
    let records = doc.as_arr().ok_or("not an array of run records")?;
    let mut set = Set {
        runs: Runs::new(),
        env: Vec::new(),
    };
    for rec in records {
        let env = rec.get("env");
        let field = |k: &str| env.and_then(|e| e.get(k));
        if field("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = field("workload")
            .and_then(Json::as_str)
            .ok_or("run record without env.workload")?;
        let seed = field("seed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        // A run with a failed op measured something else than the others.
        if rec.get("correct") != Some(&Json::Bool(true))
            || rec.get("failed").and_then(Json::as_f64) != Some(0.0)
        {
            return Err(format!("{workload} seed {seed}: the run has failed ops"));
        }
        let here: Vec<Json> = SAME_ENV
            .iter()
            .map(|k| field(k).cloned().unwrap_or(Json::Null))
            .collect();
        if set.env.is_empty() {
            set.env = here;
        } else if set.env != here {
            return Err(format!(
                "{workload} seed {seed}: {SAME_ENV:?} differ between the runs of one set"
            ));
        }
        let metrics = rec
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("run record without metrics")?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload} seed {seed}: {name} has no value"))?;
            set.runs
                .entry(workload.into())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    if set.runs.is_empty() {
        return Err("no untraced run records".into());
    }
    Ok(set)
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// Either side's inter-quartile range across runs exceeds the bound:
    /// the runs cannot say whether the metric moved.
    Unresolved,
    Regression,
}

/// Judge one metric: `worse` is the change from A's median to B's, as a
/// share of A's, positive when B is worse.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let noisy = |v: &[f64]| v.len() >= 2 && spread(v) > bound;
    let verdict = if noisy(a) || noisy(b) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

fn median(v: &[f64]) -> f64 {
    if v.len() == 1 {
        v[0]
    } else {
        quartiles(v).1
    }
}

/// Print the table; `Ok(true)` when no metric regressed. Sets that
/// cannot be compared — measured under different settings, or B lacking
/// a workload or metric that A has — are an error, not a pass.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    compare_sets(&load(a)?, &load(b)?)
}

fn compare_sets(a: &Set, b: &Set) -> Result<bool, String> {
    if a.env != b.env {
        return Err(format!(
            "the sets were measured differently: {SAME_ENV:?} are {:?} in A and {:?} in B",
            a.env.iter().map(Json::render).collect::<Vec<_>>(),
            b.env.iter().map(Json::render).collect::<Vec<_>>()
        ));
    }
    let mut clean = true;
    println!(
        "{:<12} {:<28} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse%", "bound%"
    );
    for (workload, metrics_a) in &a.runs {
        let metrics_b = b
            .runs
            .get(workload)
            .ok_or_else(|| format!("B has no runs of {workload}"))?;
        for m in metrics::end_to_end() {
            let values = |of: &BTreeMap<String, Vec<f64>>, side: &str| {
                of.get(&m.name)
                    .cloned()
                    .ok_or_else(|| format!("{side} has no {workload}/{}", m.name))
            };
            let (va, vb) = (values(metrics_a, "A")?, values(metrics_b, "B")?);
            let (worse, verdict) = judge(&va, &vb, m.higher_is_better, m.bound);
            clean &= verdict != Verdict::Regression;
            println!(
                "{:<12} {:<28} {:>12.4} {:>12.4} {:>+8.2} {:>6.1}  {}",
                workload,
                format!("{} [{}]", m.name, m.unit),
                median(&va),
                median(&vb),
                worse * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [88.0, 89.0, 87.0, 88.5, 87.5];
        let (worse, v) = judge(&steady, &slower, true, 0.10);
        assert!((worse - 0.12).abs() < 1e-9);
        assert_eq!(v, Verdict::Regression);
        assert_eq!(
            judge(&steady, &[95.0, 96.0, 94.0], true, 0.10).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&slower, &steady, true, 0.10).1,
            Verdict::Ok,
            "a gain is not a regression"
        );
        // lower is better: B larger is worse
        assert_eq!(judge(&[1.0], &[1.2], false, 0.10).1, Verdict::Regression);
        assert_eq!(judge(&[1.2], &[1.0], false, 0.10).1, Verdict::Ok);
        // a side whose own runs spread wider than the bound settles nothing
        let noisy = [70.0, 100.0, 130.0, 85.0, 115.0];
        assert_eq!(judge(&steady, &noisy, true, 0.10).1, Verdict::Unresolved);
    }

    /// A set of `runs` records of one workload; `edit` changes a record.
    fn set_of(workload: &str, runs: usize, edit: impl Fn(usize, &mut String)) -> Json {
        let metrics: Vec<String> = metrics::end_to_end()
            .iter()
            .map(|m| format!(r#""{}": {{"value": 100, "unit": "{}"}}"#, m.name, m.unit))
            .collect();
        let records: Vec<String> = (0..runs)
            .map(|i| {
                let mut rec = format!(
                    r#"{{"env": {{"workload": "{workload}", "seed": {i}, "trace": 0, "seconds": 28, "kernel": "xor64", "data_fs": "tmpfs"}}, "correct": true, "attempted": 9, "failed": 0, "metrics": {{{}}}}}"#,
                    metrics.join(", ")
                );
                edit(i, &mut rec);
                rec
            })
            .collect();
        json::parse(&format!("[{}]", records.join(","))).expect("test records parse")
    }

    #[test]
    fn sets_that_cannot_be_compared_are_errors() {
        let plain = |w: &str| load_records(&set_of(w, 3, |_, _| {})).expect("loads");
        assert_eq!(compare_sets(&plain("archive"), &plain("archive")), Ok(true));
        // B lacks a workload A has
        let err = compare_sets(&plain("archive"), &plain("codec_rs")).unwrap_err();
        assert!(err.contains("B has no runs of archive"), "{err}");
        // B lacks a metric A has
        let lacking = set_of("archive", 3, |_, rec| {
            *rec = rec.replace("\"peak_rss_MB\"", "\"other\"");
        });
        let err = compare_sets(&plain("archive"), &load_records(&lacking).unwrap()).unwrap_err();
        assert!(err.contains("B has no archive/peak_rss_MB"), "{err}");
        // a run with a failed op, or one that reports itself incorrect
        for (from, to) in [
            ("\"failed\": 0", "\"failed\": 1"),
            ("\"correct\": true", "\"correct\": false"),
        ] {
            let bad = set_of("archive", 3, |i, rec| {
                if i == 1 {
                    *rec = rec.replace(from, to);
                }
            });
            let err = load_records(&bad).err().expect("refused");
            assert!(err.contains("failed ops"), "{err}");
        }
        // sets measured for different lengths, or one set of mixed runs
        let longer = set_of("archive", 3, |_, rec| {
            *rec = rec.replace("\"seconds\": 28", "\"seconds\": 5");
        });
        let err = compare_sets(&plain("archive"), &load_records(&longer).unwrap()).unwrap_err();
        assert!(err.contains("measured differently"), "{err}");
        let mixed = set_of("archive", 3, |i, rec| {
            if i == 2 {
                *rec = rec.replace("tmpfs", "disk");
            }
        });
        assert!(load_records(&mixed).is_err());
        // traced records are not end-to-end runs
        let traced = set_of("archive", 3, |_, rec| {
            *rec = rec.replace("\"trace\": 0", "\"trace\": 1");
        });
        assert!(load_records(&traced).is_err(), "nothing left to compare");
    }
}
