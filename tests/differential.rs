//! Differential correctness for the unified call engine: every
//! application must compute the **bit-identical** answer whether its
//! remote procedures run optimistically (ORPC) or with a thread per call
//! (TRPC), under every abort-resolution strategy, across machine seeds.
//! Dispatch policy schedules work; it must never change results.

use optimistic_active_messages::apps::sor::SorParams;
use optimistic_active_messages::apps::tsp::TspParams;
use optimistic_active_messages::apps::water::{WaterParams, WaterVariant};
use optimistic_active_messages::apps::{sor, triangle, tsp, water, System};
use optimistic_active_messages::prelude::*;

/// Shard counts exercised by the fence-policy differential: the run plan
/// clamps to the node count, so these tests run 8-node machines to make the
/// 8-shard leg meaningful.
const FENCE_SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

const SEEDS: [u64; 3] = [1, 0xBEEF, 0x5EED_5EED];
const MODES: [System; 2] = [System::Orpc, System::Trpc];
const STRATEGIES: [AbortStrategy; 3] =
    [AbortStrategy::Promote, AbortStrategy::Rerun, AbortStrategy::Nack];

fn cfg(nodes: usize, seed: u64, strategy: AbortStrategy) -> MachineConfig {
    MachineConfig::cm5(nodes).with_seed(seed).with_abort_strategy(strategy)
}

#[test]
fn triangle_answers_are_mode_and_strategy_invariant() {
    let (sol, pos, _) = triangle::sequential(4);
    let expect = (sol << 40) | pos;
    for seed in SEEDS {
        for mode in MODES {
            for strategy in STRATEGIES {
                let out = triangle::run_configured(mode, cfg(3, seed, strategy), 4, 1);
                assert_eq!(
                    out.answer,
                    expect,
                    "triangle {} {strategy:?} seed={seed:#x}",
                    mode.label()
                );
            }
        }
    }
}

#[test]
fn tsp_answers_are_mode_and_strategy_invariant() {
    let p = TspParams { ncities: 9, prefix_len: 3, ..Default::default() };
    let (best, _, _) = tsp::sequential(p);
    for seed in SEEDS {
        for mode in MODES {
            for strategy in STRATEGIES {
                let out = tsp::run_configured(mode, cfg(4, seed, strategy), p);
                assert_eq!(
                    out.answer,
                    best as u64,
                    "tsp {} {strategy:?} seed={seed:#x}",
                    mode.label()
                );
            }
        }
    }
}

#[test]
fn sor_answers_are_mode_and_strategy_invariant() {
    let p = SorParams { rows: 16, cols: 8, iters: 3 };
    let (ck, _) = sor::sequential(p);
    for seed in SEEDS {
        for mode in MODES {
            for strategy in STRATEGIES {
                let out = sor::run_configured(mode, cfg(4, seed, strategy), p);
                assert_eq!(out.answer, ck, "sor {} {strategy:?} seed={seed:#x}", mode.label());
            }
        }
    }
}

#[test]
fn water_answers_are_mode_and_strategy_invariant() {
    let p = WaterParams { molecules: 12, iters: 2 };
    let mut reference = None;
    for seed in SEEDS {
        for mode in MODES {
            for strategy in STRATEGIES {
                let variant = WaterVariant { system: mode, barrier: true };
                let out = water::run_configured(variant, cfg(4, seed, strategy), p);
                let expect = *reference.get_or_insert(out.outcome.answer);
                assert_eq!(
                    out.outcome.answer,
                    expect,
                    "water {} {strategy:?} seed={seed:#x}",
                    mode.label()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shard-count invariance: partitioning the simulator across host worker
// threads is a performance knob, never a semantics knob. Every app must
// produce the identical answer, identical virtual end time, and
// identical per-node statistics for any shard count.
// ---------------------------------------------------------------------

const SHARD_SEEDS: [u64; 2] = [1, 0xBEEF];
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn shard_cfg(nodes: usize, seed: u64, shards: usize) -> MachineConfig {
    cfg(nodes, seed, AbortStrategy::Promote).with_shards(shards)
}

/// Assert two outcomes are observably identical: answer, virtual end
/// time, and the full per-node statistics vector.
fn assert_outcomes_match(
    a: &optimistic_active_messages::apps::AppOutcome,
    b: &optimistic_active_messages::apps::AppOutcome,
    what: &str,
) {
    assert_eq!(a.answer, b.answer, "{what}: answer");
    assert_eq!(a.elapsed, b.elapsed, "{what}: virtual end time");
    assert_eq!(a.stats, b.stats, "{what}: per-node stats");
}

#[test]
fn triangle_is_shard_count_invariant() {
    for seed in SHARD_SEEDS {
        for mode in MODES {
            let reference = triangle::run_configured(mode, shard_cfg(4, seed, 1), 4, 1);
            for shards in SHARD_COUNTS {
                let out = triangle::run_configured(mode, shard_cfg(4, seed, shards), 4, 1);
                assert_outcomes_match(
                    &reference,
                    &out,
                    &format!("triangle {} seed={seed:#x} shards={shards}", mode.label()),
                );
            }
        }
    }
}

#[test]
fn tsp_is_shard_count_invariant() {
    let p = TspParams { ncities: 9, prefix_len: 3, ..Default::default() };
    for seed in SHARD_SEEDS {
        for mode in MODES {
            let reference = tsp::run_configured(mode, shard_cfg(4, seed, 1), p);
            for shards in SHARD_COUNTS {
                let out = tsp::run_configured(mode, shard_cfg(4, seed, shards), p);
                assert_outcomes_match(
                    &reference,
                    &out,
                    &format!("tsp {} seed={seed:#x} shards={shards}", mode.label()),
                );
            }
        }
    }
}

#[test]
fn sor_is_shard_count_invariant() {
    let p = SorParams { rows: 16, cols: 8, iters: 3 };
    for seed in SHARD_SEEDS {
        for mode in [System::HandAm, System::Orpc, System::Trpc] {
            let reference = sor::run_configured(mode, shard_cfg(4, seed, 1), p);
            for shards in SHARD_COUNTS {
                let out = sor::run_configured(mode, shard_cfg(4, seed, shards), p);
                assert_outcomes_match(
                    &reference,
                    &out,
                    &format!("sor {} seed={seed:#x} shards={shards}", mode.label()),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fence-policy invariance: the adaptive fence (quiet-round barrier
// fusion + min-holder widening) must be observably identical to the
// naive reference fence — global min + lookahead with an unconditional
// exchange round, the textbook conservative-epoch schedule. Both
// policies run with `force_epoch` so even the single-shard legs (and
// the 1-shard naive reference itself) exercise the epoch engine rather
// than falling back to the legacy in-process loop.
// ---------------------------------------------------------------------

fn fence_cfg(nodes: usize, seed: u64, shards: usize, naive: bool) -> MachineConfig {
    shard_cfg(nodes, seed, shards).with_tuning(ShardTuning {
        naive_fence: Some(naive),
        force_epoch: Some(true),
        ..Default::default()
    })
}

#[test]
fn adaptive_fence_matches_naive_reference_for_sor() {
    let p = SorParams { rows: 16, cols: 8, iters: 3 };
    for seed in SHARD_SEEDS {
        let reference = sor::run_configured(System::Orpc, fence_cfg(8, seed, 1, true), p);
        for shards in FENCE_SHARD_COUNTS {
            for naive in [false, true] {
                let out = sor::run_configured(System::Orpc, fence_cfg(8, seed, shards, naive), p);
                assert_outcomes_match(
                    &reference,
                    &out,
                    &format!("sor seed={seed:#x} shards={shards} naive={naive}"),
                );
            }
        }
    }
}

#[test]
fn adaptive_fence_matches_naive_reference_for_water_collectives() {
    // Water with barriers is the reduce-heavy workload: every iteration
    // broadcasts reduction contributions across all shards, so quiet-round
    // fusion and the widened fence both face cross traffic every epoch.
    let p = WaterParams { molecules: 12, iters: 2 };
    let variant = WaterVariant { system: System::Orpc, barrier: true };
    for seed in SHARD_SEEDS {
        let reference = water::run_configured(variant, fence_cfg(8, seed, 1, true), p);
        for shards in FENCE_SHARD_COUNTS {
            for naive in [false, true] {
                let out = water::run_configured(variant, fence_cfg(8, seed, shards, naive), p);
                assert_outcomes_match(
                    &reference.outcome,
                    &out.outcome,
                    &format!("water seed={seed:#x} shards={shards} naive={naive}"),
                );
            }
        }
    }
}

#[test]
fn sor_256node_is_shard_count_invariant() {
    // The counters golden's sor_256node rows, shrunk to a debug-runtime grid:
    // 256 nodes is where the per-(src,dst) mailbox matrix and the owner
    // table get real fan-out. Answers, end time, and per-node stats must
    // not notice the shard count. The reference leg forces the epoch
    // engine so all legs share the keyed collective-publish schedule: the
    // legacy engine's unkeyed reducer publishes tie-break differently
    // against same-timestamp events at this scale, ending the run a
    // constant 33 us later (identical work, larger idle_time) — a
    // known engine-schedule difference, not a shard-count effect. The
    // answer must match the legacy engine regardless.
    let p = SorParams { rows: 256, cols: 16, iters: 2 };
    let legacy = sor::run_configured(System::Orpc, shard_cfg(256, 1, 1), p);
    let reference = sor::run_configured(System::Orpc, fence_cfg(256, 1, 1, false), p);
    assert_eq!(legacy.answer, reference.answer, "sor 256-node: legacy vs epoch answer");
    for shards in [2, 4, 8] {
        let out = sor::run_configured(System::Orpc, shard_cfg(256, 1, shards), p);
        assert_outcomes_match(&reference, &out, &format!("sor 256-node shards={shards}"));
    }
}

#[test]
fn water_is_shard_count_invariant() {
    let p = WaterParams { molecules: 12, iters: 2 };
    for seed in SHARD_SEEDS {
        for mode in MODES {
            for barrier in [true, false] {
                let variant = WaterVariant { system: mode, barrier };
                let reference = water::run_configured(variant, shard_cfg(4, seed, 1), p);
                for shards in SHARD_COUNTS {
                    let out = water::run_configured(variant, shard_cfg(4, seed, shards), p);
                    assert_outcomes_match(
                        &reference.outcome,
                        &out.outcome,
                        &format!("water {} seed={seed:#x} shards={shards}", variant.label()),
                    );
                    assert_eq!(
                        reference.after_first_iter,
                        out.after_first_iter,
                        "water {} seed={seed:#x} shards={shards}: first-iteration time",
                        variant.label()
                    );
                }
            }
        }
    }
}
