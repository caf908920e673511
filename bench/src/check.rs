//! Repeatability self-check (`bench/check.sh`): given two sets of untraced
//! runs of the same code, compute what the driver computes — per metric
//! and workload, the interquartile distance as a share of the median, and
//! the drift of the second set's median against the first — and compare
//! both with the bounds `BENCHMARK.json` declares.

use crate::stats::{iqr_share, median};
use hear::telemetry::parse::{parse_json, Json};
use std::collections::BTreeMap;

/// `(workload, metric) -> values`, from lines of `<workload>\t<result JSON>`.
type RunSet = BTreeMap<(String, String), Vec<f64>>;

fn read_set(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{path}:{}: {what}", n + 1);
        let (workload, json) = line.split_once('\t').ok_or_else(|| at("no tab"))?;
        let doc = parse_json(json).map_err(|e| at(&e.to_string()))?;
        if doc.get("correct") != Some(&Json::Bool(true)) {
            return Err(at("run reported incorrect outputs"));
        }
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(at("no metrics object"));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| at("metric without value"))?;
            set.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// `name -> (bound, better)` of the declared end-to-end metrics.
fn bounds(path: &str) -> Result<BTreeMap<String, (f64, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no end_to_end array"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            let better = m.get("better").and_then(Json::as_str);
            match (name, bound, better) {
                (Some(n), Some(b), Some(d)) => Ok((n.to_string(), (b, d.to_string()))),
                _ => Err(format!(
                    "{path}: end_to_end entry needs name, bound, better"
                )),
            }
        })
        .collect()
}

/// `args` = `<BENCHMARK.json> <set1> <set2>`. Prints one row per metric ×
/// workload; `Ok(true)` when every spread (except `setup_s`'s, which the
/// driver does not gate either) and every drift is within its bound.
pub fn spread_report(args: &[String]) -> Result<bool, String> {
    let [bench, first, second] = args else {
        return Err("--spread needs <BENCHMARK.json> <set1> <set2>".into());
    };
    let bounds = bounds(bench)?;
    let (a, b) = (read_set(first)?, read_set(second)?);
    let mut ok = true;
    println!("workload metric median1 spread1 median2 spread2 drift bound verdict");
    for ((workload, metric), v1) in &a {
        let (bound, better) = bounds
            .get(metric)
            .ok_or_else(|| format!("{metric} is not a declared end-to-end metric"))?;
        let v2 = b
            .get(&(workload.clone(), metric.clone()))
            .ok_or_else(|| format!("{second} has no {workload} {metric}"))?;
        if v1.len() < 2 || v2.len() < 2 {
            return Err(format!("{workload} {metric}: need two runs per set"));
        }
        let (m1, m2) = (median(v1), median(v2));
        let (s1, s2) = (iqr_share(v1), iqr_share(v2));
        // Worse = up for "lower is better", down for "higher is better".
        let drift = if better == "lower" {
            m2 / m1 - 1.0
        } else {
            1.0 - m2 / m1
        };
        let spread_ok = metric == "setup_s" || s1.max(s2) <= *bound;
        let verdict = if !spread_ok || drift > *bound {
            ok = false;
            "FAIL"
        } else if metric != "setup_s" && s1.max(s2) > bound / 3.0 {
            "ok (spread above a third of the bound)"
        } else {
            "ok"
        };
        println!(
            "{workload} {metric} {m1:.6} {s1:.4} {m2:.6} {s2:.4} {drift:+.4} {bound} {verdict}"
        );
    }
    Ok(ok)
}
