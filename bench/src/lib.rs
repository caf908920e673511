//! The repo's benchmark harness (see `bench/README.md` and the root
//! `BENCHMARK.json`): five workloads over the secure collectives, measured
//! from outside through public entry points only.
//!
//! `--trace 0` runs the untraced pass ([`e2e`]) and reports the gated
//! end-to-end metrics; `--trace 1` runs the traced pass ([`layers`]) and
//! reports the per-layer metrics. Both binaries (`hearbench` on the system
//! allocator, `hearbench_traced` on the counting one) call [`main`].

pub mod alloc;
pub mod check;
pub mod e2e;
pub mod json;
pub mod kernels;
pub mod layers;
pub mod report;
pub mod spans;
pub mod staged;
pub mod stats;
pub mod sync;
pub mod workload;
pub mod world;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  hearbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <dir>]
  hearbench --spread <BENCHMARK.json> <set1.tsv> <set2.tsv>
  hearbench --list";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// Entry point of both binaries. Exit code 0: ran, outputs correct. 2:
/// ran, but some call failed or some output was wrong (the result line is
/// still printed). 1: harness error, nothing printed on stdout.
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--list") => {
            for spec in workload::specs() {
                println!("{}", spec.name);
            }
            ExitCode::SUCCESS
        }
        Some("--spread") => match check::spread_report(&argv[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(2),
            Err(e) => {
                eprintln!("hearbench: {e}");
                ExitCode::from(1)
            }
        },
        _ => match parse_args(&argv).and_then(run_workload) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(2),
            Err(e) => {
                eprintln!("hearbench: {e}\n{USAGE}");
                ExitCode::from(1)
            }
        },
    }
}

fn run_workload(args: Args) -> Result<bool, String> {
    let spec = workload::find(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?} (try --list)", args.workload))?;
    let result = if args.trace {
        if !alloc::installed() {
            return Err("--trace 1 needs the hearbench_traced binary (counting allocator)".into());
        }
        layers::run(&spec, args.seed, args.seconds, args.out.as_deref())?
    } else {
        if alloc::installed() {
            return Err("--trace 0 needs the hearbench binary (system allocator)".into());
        }
        report::from_e2e(&e2e::run(&spec, args.seed, args.seconds))
    };
    report::emit(
        &spec,
        args.seed,
        args.seconds,
        args.trace,
        &result,
        args.out.as_deref(),
    )
}
