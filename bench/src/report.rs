//! Metric tables (the names `BENCHMARK.json` declares) and the output of
//! one run: human-readable `workload metric value unit` lines, an optional
//! result file with a host fingerprint, and the driver's one-line JSON.

use crate::e2e::E2e;
use crate::json::{valid_name, Val};
use crate::workload::Spec;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// The gated metrics, measured by the untraced pass.
pub const END_TO_END: &[MetricDef] = &[
    lower("call_us", "us"),
    lower("setup_s", "s"),
    lower("peak_rss_mib", "MiB"),
];

/// The per-layer metrics of the traced pass, prefixed by crate. A metric
/// reads 0 on a workload whose call never enters that function.
pub const PER_LAYER: &[MetricDef] = &[
    // hear-prf: kernel rates on this host, one buffer of the workload's
    // payload size (clamped to 1..64 MiB).
    higher("prf.keystream_MBps", "MB/s"),
    higher("prf.mask_kernel_MBps", "MB/s"),
    higher("prf.par_speedup_x", "x"),
    // hear-core: stages of one secure call re-enacted from public pieces.
    lower("core.key_advance_us", "us"),
    lower("core.mask_us", "us"),
    lower("core.unmask_us", "us"),
    lower("core.digest_seal_us", "us"),
    lower("core.digest_open_us", "us"),
    lower("core.homac_tag_us", "us"),
    lower("core.homac_verify_us", "us"),
    lower("core.cell_seal_us", "us"),
    lower("core.cell_open_us", "us"),
    // hear-hfp: the float codec over the workload's element count.
    lower("hfp.encode_us", "us"),
    lower("hfp.add_us", "us"),
    lower("hfp.decode_us", "us"),
    // hear-mpi.
    lower("mpi.native_call_us", "us"),
    lower("mpi.wire_call_us", "us"),
    lower("mpi.p2p_rtt_us", "us"),
    higher("mpi.p2p_MBps", "MB/s"),
    lower("mpi.wire_encode_us", "us"),
    lower("mpi.wire_decode_us", "us"),
    lower("mpi.msgs_per_call", "count"),
    lower("mpi.bytes_per_call", "B"),
    lower("mpi.mailbox_park_share", "ratio"),
    lower("mpi.transit_wait_us_per_call", "us"),
    lower("mpi.msgs_per_call_w4", "count"),
    lower("mpi.bytes_per_call_w4", "B"),
    higher("mpi.tcp_big_msg_ok_share", "ratio"),
    // hear-layer.
    lower("layer.call_us", "us"),
    lower("layer.call_traced_us", "us"),
    lower("layer.stage_sum_us", "us"),
    lower("layer.engine_self_us", "us"),
    lower("layer.closure_x", "x"),
    lower("layer.overhead_x", "x"),
    lower("layer.alt_chunk_call_us", "us"),
    lower("layer.rs_us", "us"),
    lower("layer.ag_us", "us"),
    lower("layer.a2a_us", "us"),
    higher("layer.prefetch_hit_share", "ratio"),
    lower("layer.retries_per_call", "count"),
    lower("layer.allocs_per_call", "count"),
    lower("layer.alloc_bytes_per_call", "B"),
    lower("call.p50_us", "us"),
    lower("call.tail_us", "us"),
    higher("call.tail_pct", "%"),
    higher("call.samples", "count"),
    // hear-dnn: from the step's own `StepStats`.
    lower("dnn.rs_us", "us"),
    lower("dnn.update_us", "us"),
    lower("dnn.ag_us", "us"),
    // hear-telemetry.
    lower("telemetry.trace_overhead_x", "x"),
];

/// Measured values by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run reports.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

pub fn from_e2e(e: &E2e) -> RunResult {
    RunResult {
        attempted: e.attempted,
        failed: e.failed,
        metrics: BTreeMap::from([
            ("call_us", e.call_us),
            ("setup_s", e.setup_s),
            ("peak_rss_mib", e.peak_rss_mib),
        ]),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Who measured: every number depends on the host, so every result file
/// carries this. `run.sh` passes the toolchain and commit through the
/// environment (the driver's checkout is not a git repository).
pub fn fingerprint() -> Val {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Val::obj([
        ("nproc", Val::Num(nproc as f64)),
        ("cpu", Val::str(cpu_model())),
        (
            "prf_backend",
            Val::str(format!("{:?}", hear::core::Backend::best_available())),
        ),
        (
            "pool_threads",
            Val::Num(hear::prf::configured_threads() as f64),
        ),
        ("rustc", Val::str(env("HEARBENCH_RUSTC"))),
        ("commit", Val::str(env("HEARBENCH_COMMIT"))),
    ])
}

/// Print and store one run. `Ok(true)` when every output was correct.
pub fn emit(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    result: &RunResult,
    out_dir: Option<&Path>,
) -> Result<bool, String> {
    let table = if traced { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for def in table {
        debug_assert!(valid_name(def.name));
        let value = *result
            .metrics
            .get(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite ({value})", def.name));
        }
        println!("{} {} {} {}", spec.name, def.name, value, def.unit);
        metrics.push((
            def.name,
            Val::obj([("value", Val::Num(value)), ("unit", Val::str(def.unit))]),
        ));
    }
    let line = Val::obj([
        ("correct", Val::Bool(result.correct())),
        ("attempted", Val::Num(result.attempted as f64)),
        ("failed", Val::Num(result.failed as f64)),
        ("metrics", Val::obj(metrics)),
    ]);
    if let Some(dir) = out_dir {
        let file = dir.join(format!("{}.trace{}.json", spec.name, u8::from(traced)));
        let doc = Val::obj([
            ("workload", Val::str(spec.name)),
            ("seed", Val::Num(seed as f64)),
            ("seconds", Val::Num(seconds)),
            ("host", fingerprint()),
            ("result", line.clone()),
        ]);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&file, doc.render() + "\n"))
            .map_err(|e| format!("writing {}: {e}", file.display()))?;
    }
    println!("{}", line.render());
    Ok(result.correct())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hear::telemetry::parse::{parse_json, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{key} entry without {k}"))
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect()
    }

    /// The harness and the declaration cannot drift apart: same names,
    /// units and directions, in the same order; same workloads.
    #[test]
    fn tables_match_benchmark_json() {
        let doc = parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(declared(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), table(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads array")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        let specs: Vec<&str> = crate::workload::specs().iter().map(|s| s.name).collect();
        assert_eq!(workloads, specs);
    }

    #[test]
    fn every_metric_name_and_unit_is_within_the_contract() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(unit_ok(def.unit), "{} unit {}", def.name, def.unit);
            assert!(matches!(def.better, "lower" | "higher"));
            assert!(seen.insert(def.name), "{} declared twice", def.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
    }
}
