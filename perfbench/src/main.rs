//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <torus-seq|powerlaw-sharded|serve-loop>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`; every timed run's output is
//! checked against an independent answer. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the workload's end-to-end metrics with `--trace 0`; with
//! `--trace 1`, the per-layer metrics of every workload, named
//! `<workload>.<metric>`). See `perfbench/README.md`.

mod engine;
mod probe;
mod report;
mod serve_loop;

use report::Outcome;

/// Runs one workload and records what it measured.
type Workload = fn(&Args, &mut Outcome);

/// The workloads, in the order a traced run measures them.
const WORKLOADS: [(&str, Workload); 3] = [
    ("torus-seq", engine::torus_seq),
    ("powerlaw-sharded", engine::powerlaw_sharded),
    ("serve-loop", serve_loop::run),
];

/// Command-line arguments.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload <torus-seq|powerlaw-sharded|serve-loop> \
             --seed <n> --seconds <s> --trace <0|1>"
        );
        std::process::exit(2);
    });
    let Some(&(_, run)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let calibration_ms = report::print_host();
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = Outcome::default();
    if args.trace {
        // A traced run reports every per-layer metric, and the layers
        // belong to different workloads: each workload's traced passes
        // run in turn, sharing the time, whichever workload was named.
        for (name, run) in WORKLOADS {
            let part = Args {
                workload: name.to_owned(),
                seconds: args.seconds / WORKLOADS.len() as f64,
                ..args
            };
            out.scope(name);
            run(&part, &mut out);
        }
        out.scope("");
    } else {
        run(&args, &mut out);
    }
    out.finish(args.trace, calibration_ms);
    if let Err(e) = out.check_manifest(args.trace) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    out.print();
}
