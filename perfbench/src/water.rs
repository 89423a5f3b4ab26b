//! `water64_shards2`: Water with 64 nodes and 128 molecules, ORPC with
//! barriers, on the epoch engine at 2 shards (2 worker threads). Host
//! time goes to the epoch barrier, the cross-shard exchange and spinning
//! rather than to marshaling.

use oam_apps::water::{self, WaterOutcome, WaterParams, WaterVariant};
use oam_apps::System;
use oam_machine::MachineBuilder;
use oam_model::{Backend, MachineConfig, ShardTuning};

use crate::host::measure;
use crate::{counter_metrics, timed_setup, trace, Rep};

/// Simulated nodes.
pub const NODES: usize = 64;
/// Molecules (two per node).
pub const MOLECULES: usize = 128;
/// Shards of the measured run.
pub const SHARDS: usize = 2;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Time steps at even seeds; Water has no random input, so odd seeds
    /// run one step more to make different seeds different runs.
    pub base_iters: usize,
}

/// Time steps for `seed`.
pub fn iters(seed: u64, p: &Params) -> usize {
    p.base_iters + (seed % 2) as usize
}

/// The pinned configuration at `shards` shards: simulator backend and
/// delivery batch explicit. Barrier spin and worker count stay with the
/// engine's own defaults (one worker per core, capped at the shard
/// count), because making those defaults cheaper is what the shard work
/// this workload watches is about; `OAM_*` overrides are refused at start.
pub fn config(seed: u64, shards: usize) -> MachineConfig {
    MachineConfig::cm5(NODES)
        .with_seed(seed)
        .with_shards(shards)
        .with_backend(Backend::Sim)
        .with_tuning(ShardTuning {
            batch: Some(MachineConfig::DEFAULT_BATCH),
            ..ShardTuning::default()
        })
}

const VARIANT: WaterVariant = WaterVariant { system: System::Orpc, barrier: true };

/// Run Water once at `shards` shards, timed.
pub fn run_at(seed: u64, p: &Params, shards: usize) -> (WaterOutcome, crate::host::HostCost) {
    let wp = WaterParams { molecules: MOLECULES, iters: iters(seed, p) };
    measure(|| water::run_configured(VARIANT, config(seed, shards), wp))
}

/// Run one repetition.
pub fn rep(seed: u64, p: &Params) -> Result<Rep, String> {
    // Set-up from outside: one build of the 64-node machine with the
    // run's configuration (`run_configured` builds its shard replicas
    // internally).
    let setup_s = timed_setup(|| {
        std::hint::black_box(MachineBuilder::from_config(config(seed, SHARDS)).build());
    });

    let run_span = trace::span("run");
    let alloc0 = oam_sim::alloc_snapshot();
    let (out, host) = run_at(seed, p, SHARDS);
    drop(run_span);
    let allocs = oam_sim::alloc_snapshot().since(alloc0).allocs;
    let (want, _) = water::sequential(WaterParams { molecules: MOLECULES, iters: iters(seed, p) });
    // Summation order differs from the sequential reference, so (as the
    // repository's own Water test does) allow a few nano-units of float
    // noise in the pico-unit checksum; the exact check is against 1 shard.
    if (out.outcome.answer as i64 - want as i64).abs() >= 10_000 {
        return Err(format!(
            "water64_shards2: energy checksum {} is not the sequential reference {want}",
            out.outcome.answer
        ));
    }
    let it = iters(seed, p);
    let a = &out.outcome;
    let vs = a.elapsed.as_secs_f64();
    let work = (MOLECULES * it) as f64;
    Ok(Rep {
        setup_s,
        wall_s: host.wall_s,
        cpu_s: host.cpu_s,
        attempted: it as u64,
        samples: 0,
        answer: a.answer,
        virt: vec![
            ("virtual_s", vs),
            ("p50_virtual_us", out.steady_per_iter(it).as_micros_f64()),
            ("p999_virtual_us", a.elapsed.as_micros_f64() / it as f64),
            ("goodput_per_vs", work / vs),
            ("knee_rps", work / vs),
            ("ok_frac", 1.0),
        ],
        layer: counter_metrics(&a.stats, a.events, a.peak_queue_depth, a.elapsed, allocs),
    })
}

/// The shard-invariance check: the same run at one shard must give the
/// same answer and the same modelled completion time.
pub fn check_one_shard(seed: u64, p: &Params, two: &Rep) -> Result<f64, String> {
    let (one, host) = run_at(seed, p, 1);
    let vs2 = two.virt.iter().find(|(n, _)| *n == "virtual_s").expect("virtual_s").1;
    let vs1 = one.outcome.elapsed.as_secs_f64();
    if vs1 != vs2 || one.outcome.answer != two.answer {
        return Err(format!(
            "water64_shards2: (answer, virtual_s) = ({}, {vs2}) at {SHARDS} shards but ({}, {vs1}) at 1 shard",
            two.answer, one.outcome.answer
        ));
    }
    Ok(host.wall_s)
}
