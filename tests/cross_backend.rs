//! Cross-backend differential: the same application, configuration, and
//! seed must produce the same *answer* on the discrete-event simulator
//! and on the native host-threads backend. Only answers are compared —
//! the native backend runs on real cores under wall-clock time, so event
//! interleavings, traces, and timings legitimately differ — but every
//! app in this repo consumes remote data in fixed program order and folds
//! reductions with commutative integer ops, so answers are exact.
//!
//! Also the CI `backend-matrix` smoke: with `OAM_BACKEND` unset these
//! tests pin each backend explicitly and exercise both; with it set, the
//! env-following tests additionally run the apps under whatever backend
//! the matrix leg selected.

use optimistic_active_messages::apps::service::{self, ServiceParams};
use optimistic_active_messages::apps::sor::SorParams;
use optimistic_active_messages::apps::tsp::TspParams;
use optimistic_active_messages::apps::water::{WaterParams, WaterVariant};
use optimistic_active_messages::apps::{sor, triangle, tsp, water, System};
use optimistic_active_messages::prelude::*;

fn on(backend: Backend, nodes: usize) -> MachineConfig {
    MachineConfig::cm5(nodes).with_backend(backend)
}

#[test]
fn sor_answers_match_across_backends() {
    let p = SorParams { rows: 16, cols: 8, iters: 3 };
    let (ck, _) = sor::sequential(p);
    for backend in [Backend::Sim, Backend::Native] {
        let out = sor::run_configured(System::Orpc, on(backend, 4), p);
        assert_eq!(out.answer, ck, "sor answer wrong on {}", backend.label());
    }
}

#[test]
fn tsp_answers_match_across_backends() {
    let p = TspParams { ncities: 9, prefix_len: 3, ..Default::default() };
    let (best, _, _) = tsp::sequential(p);
    for backend in [Backend::Sim, Backend::Native] {
        let out = tsp::run_configured(System::Orpc, on(backend, 4), p);
        assert_eq!(out.answer, best as u64, "tsp answer wrong on {}", backend.label());
    }
}

#[test]
fn triangle_answers_match_across_backends() {
    let (sol, pos, _) = triangle::sequential(4);
    for backend in [Backend::Sim, Backend::Native] {
        let out = triangle::run_configured(System::Orpc, on(backend, 3), 4, 1);
        assert_eq!(out.answer, (sol << 40) | pos, "triangle answer wrong on {}", backend.label());
    }
}

#[test]
fn water_answers_match_across_backends() {
    let p = WaterParams { molecules: 12, iters: 2 };
    let variant = WaterVariant { system: System::Orpc, barrier: true };
    let sim = water::run_configured(variant, on(Backend::Sim, 4), p).outcome.answer;
    let native = water::run_configured(variant, on(Backend::Native, 4), p).outcome.answer;
    // Remote positions and updates are consumed in fixed program order and
    // the energy reduction is a wrapping u64 sum, so even the float-derived
    // checksum is exact across backends.
    assert_eq!(sim, native, "water energy checksum differs across backends");
}

#[test]
fn trpc_mode_works_on_native() {
    let p = SorParams { rows: 16, cols: 8, iters: 3 };
    let (ck, _) = sor::sequential(p);
    let out = sor::run_configured(System::Trpc, on(Backend::Native, 4), p);
    assert_eq!(out.answer, ck, "sor answer wrong under TRPC on native");
}

#[test]
fn adaptive_policy_works_on_native() {
    use optimistic_active_messages::rpc::handler_id_for;
    let p = TspParams { ncities: 9, prefix_len: 3, ..Default::default() };
    let (best, _, _) = tsp::sequential(p);
    let cfg = on(Backend::Native, 4).with_policy(
        handler_id_for("Tsp::get_job").0,
        ExecPolicy::adaptive(AdaptivePolicy::default()),
    );
    let out = tsp::run_configured(System::Orpc, cfg, p);
    assert_eq!(out.answer, best as u64, "tsp answer wrong under adaptive policy on native");
}

/// The service's completed/shed/expired split depends on real timing under
/// the native backend, so the differential checks conservation invariants
/// rather than exact counts: every arrival is accounted for exactly once,
/// and the ORPC/TRPC/adaptive engine plus admission control must hold them
/// on both backends.
#[test]
fn service_invariants_hold_across_backends() {
    for backend in [Backend::Sim, Backend::Native] {
        let params =
            ServiceParams { arrivals: 48, backend: Some(backend), ..ServiceParams::default() };
        let arrivals = (params.arrivals as u64) * (params.drivers as u64);
        let o = service::run(params);
        assert_eq!(
            o.completed + o.abandoned,
            arrivals,
            "every arrival must resolve exactly once on {} (completed {} abandoned {})",
            backend.label(),
            o.completed,
            o.abandoned,
        );
        assert!(o.completed > 0, "service completed nothing on {}", backend.label());
    }
}

/// Differential for the batched delivery layer: the batched (default)
/// and naive per-message (`batch = 1`) paths must be bit-identical —
/// same answers everywhere, and on the deterministic simulator the same
/// full stats, virtual end time, and event count — across seeds and
/// shard counts. `MachineStats` equality deliberately excludes the
/// engine counters, which are *supposed* to differ (fewer batch
/// publishes is the whole optimization); everything observable by the
/// program must not.
#[test]
fn batched_and_naive_delivery_are_bit_identical_on_sim() {
    let naive = ShardTuning { batch: Some(1), ..ShardTuning::default() };
    let p = WaterParams { molecules: 12, iters: 2 };
    let variant = WaterVariant { system: System::Orpc, barrier: true };
    for seed in [7u64, 41] {
        for shards in [1usize, 2, 4, 8] {
            let cfg = on(Backend::Sim, 8).with_seed(seed).with_shards(shards);
            let b = water::run_configured(variant, cfg.clone(), p).outcome;
            let n = water::run_configured(variant, cfg.with_tuning(naive), p).outcome;
            let at = format!("seed {seed} shards {shards}");
            assert_eq!(b.answer, n.answer, "answer differs batched vs naive ({at})");
            assert_eq!(b.stats, n.stats, "stats differ batched vs naive ({at})");
            assert_eq!(b.elapsed, n.elapsed, "end time differs batched vs naive ({at})");
            assert_eq!(b.events, n.events, "event count differs batched vs naive ({at})");
        }
    }
}

/// Native half of the batching differential: the ring-and-flush path and
/// the per-message reference path (`batch = 1`, every send flushes) must
/// agree on answers. Timings and wake counts legitimately differ on real
/// cores, so only answers are compared, against the sequential oracle.
#[test]
fn batched_and_naive_delivery_agree_on_native() {
    let naive = ShardTuning { batch: Some(1), ..ShardTuning::default() };
    let p = SorParams { rows: 16, cols: 8, iters: 3 };
    let (ck, _) = sor::sequential(p);
    for seed in [7u64, 41] {
        let cfg = on(Backend::Native, 4).with_seed(seed);
        let b = sor::run_configured(System::Orpc, cfg.clone(), p);
        let n = sor::run_configured(System::Orpc, cfg.with_tuning(naive), p);
        assert_eq!(b.answer, ck, "batched native answer wrong (seed {seed})");
        assert_eq!(n.answer, ck, "naive native answer wrong (seed {seed})");
    }
}

/// Env-following smoke for the CI backend matrix: run one app through
/// the run plan's backend resolution (explicit pin absent), honoring
/// whatever `OAM_BACKEND` the matrix leg exported.
#[test]
fn apps_honor_the_backend_environment() {
    let p = SorParams { rows: 16, cols: 8, iters: 3 };
    let (ck, _) = sor::sequential(p);
    let out = sor::run_configured(System::Orpc, MachineConfig::cm5(4), p);
    assert_eq!(out.answer, ck);
    let (sol, pos, _) = triangle::sequential(4);
    let out = triangle::run_configured(System::Orpc, MachineConfig::cm5(3), 4, 1);
    assert_eq!(out.answer, (sol << 40) | pos);
}
