//! The benchmark's own checks: its tables agree with `BENCHMARK.json`,
//! one seed always gives the same virtual metrics, a held-out seed passes
//! every correctness check, and `OAM_*` knobs are refused.
//!
//! Run in release mode (the workloads are full size):
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`

use std::process::Command;

use oam_perfbench::bench::{Workload, END_TO_END, PER_LAYER};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

#[test]
fn tables_match_benchmark_json() {
    let json = benchmark_json();
    for m in &END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {:?}}}",
            m.name,
            m.unit,
            better(m.higher),
            m.bound
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for (name, unit, higher) in PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
            better(higher)
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
            "workload {}",
            w.name()
        );
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}

#[test]
fn one_seed_gives_identical_virtual_metrics() {
    for w in Workload::ALL.into_iter().filter(|w| w.deterministic()) {
        let a = w.rep(7).unwrap_or_else(|e| panic!("{e}"));
        let b = w.rep(7).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a.virt, b.virt, "{}: same seed, different virtual metrics", w.name());
        assert_eq!(
            a.layer.iter().find(|m| m.0 == "sim.events"),
            b.layer.iter().find(|m| m.0 == "sim.events")
        );
    }
}

#[test]
fn a_held_out_seed_passes_every_check() {
    // Every repetition runs the workload's own correctness checks; the
    // measured loop adds Water's 1-shard comparison and the repeat check.
    for w in Workload::ALL {
        let o = oam_perfbench::bench::run_end_to_end(w, 0x5eed_0ff5, 0.0)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(o.attempted > 0);
        for (name, v, _) in &o.metrics {
            assert!(v.is_finite() && *v > 0.0, "{}: {name} = {v}", w.name());
        }
    }
}

#[test]
fn oam_knobs_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_oam-perfbench"))
        .args(["--workload", "rpc_mix16", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .env("OAM_SHARD_FORCE_EPOCH", "0")
        .output()
        .expect("run the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result is printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("OAM_SHARD_FORCE_EPOCH"));
}
