//! `oam-perfbench`: run one workload of the repository's benchmark and
//! print its metrics.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload rpc_mix16 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints every end-to-end metric, `--trace 1` every
//! per-layer metric. `--workload all` runs the four workloads one process
//! each. The last line of standard output is one JSON object; a failed
//! correctness check prints no result and exits with code 1.

use std::process::{exit, Command};

use oam_perfbench::bench::{self, Workload};

#[global_allocator]
static ALLOC: oam_sim::CountingAlloc = oam_sim::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: oam-perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    exit(2);
}

fn parse() -> Args {
    let mut a = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().unwrap_or_else(|_| usage("--seed takes an integer")),
            "--seconds" => {
                a.seconds = val.parse().unwrap_or_else(|_| usage("--seconds takes a number"));
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        usage("--workload is required");
    }
    a
}

/// Run every workload in a child process of its own (so peak memory is
/// per workload), relaying their reports.
fn run_all(a: &Args) -> ! {
    let exe = std::env::current_exe().expect("own executable");
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string(), "--trace", if a.trace { "1" } else { "0" }])
            .status()
            .expect("spawn workload process");
        ok &= status.success();
    }
    exit(if ok { 0 } else { 1 });
}

fn main() {
    // The engine re-reads `OAM_*` knobs at every call, so any of them
    // would silently change what runs (`OAM_SHARD_FORCE_EPOCH=0`, for one,
    // turns forcing on). Every setting is pinned in code instead.
    let knobs: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("OAM_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "error: refusing to run with {} set; the benchmark pins every setting",
            knobs.join(", ")
        );
        exit(2);
    }
    let a = parse();
    if a.workload == "all" {
        run_all(&a);
    }
    let w = Workload::from_name(&a.workload)
        .unwrap_or_else(|| usage(&format!("unknown workload {}", a.workload)));
    let spans = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
        "spans-{}-seed{}.tsv",
        w.name(),
        a.seed
    ));
    let res = if a.trace {
        bench::run_traced(w, a.seed, a.seconds, Some(&spans))
    } else {
        bench::run_end_to_end(w, a.seed, a.seconds)
    };
    let o = match res {
        Ok(o) => o,
        Err(e) => {
            eprintln!("FAILED: {e}");
            exit(1);
        }
    };
    println!(
        "# workload {} seed {} trace {} repetitions {} latency samples per repetition {}",
        w.name(),
        a.seed,
        u8::from(a.trace),
        o.reps,
        o.samples
    );
    let walls: Vec<String> = o.walls.iter().map(|w| format!("{w:.4}")).collect();
    println!("# wall_s of each repetition: {}", walls.join(" "));
    for (name, v, unit) in &o.metrics {
        println!("{name:<28} {v:>18.6} {unit}");
    }
    if a.trace {
        println!("# spans written to {}", spans.display());
        if !o.unmeasured.is_empty() {
            println!(
                "# not reachable from outside on this workload (printed as 0): {}",
                o.unmeasured.join(", ")
            );
        }
    }
    println!("{}", bench::json_line(&o));
}
