//! Quick cross-check harness: run Water at several sizes and shard
//! counts and diff per-node stats against the single-shard run.
//!
//! By default the baseline is the legacy engine, so the expected output
//! shows the documented `idle_time`/`polls_empty` placement difference
//! (DESIGN.md §12) and nothing else. With `--force-epoch` the baseline is
//! the epoch engine at one shard (`ShardTuning::force_epoch`) and every
//! diff disappears — the partition-invariance check.
//! `OAM_SMOKE_VERBOSE=1` dumps the full per-node stats for any node
//! that differs.
//!
//! ```sh
//! cargo run --release -p oam-apps --example shard_smoke
//! cargo run --release -p oam-apps --example shard_smoke -- --force-epoch
//! ```

use oam_apps::water::{WaterParams, WaterVariant};
use oam_apps::{water, System};
use oam_model::{MachineConfig, ShardTuning};

fn main() {
    let force_epoch = std::env::args().skip(1).any(|a| a == "--force-epoch");
    let tuning = ShardTuning { force_epoch: Some(force_epoch), ..Default::default() };
    for nodes in [8usize, 16, 32, 64] {
        let p = WaterParams { molecules: nodes * 2, iters: 2 };
        let v = WaterVariant { system: System::Orpc, barrier: true };
        let base = water::run_configured(v, MachineConfig::cm5(nodes).with_tuning(tuning), p);
        for shards in [2usize, 4] {
            let out = water::run_configured(v, MachineConfig::cm5(nodes).with_shards(shards), p);
            let mut diffs = Vec::new();
            for (i, (a, b)) in
                base.outcome.stats.per_node.iter().zip(&out.outcome.stats.per_node).enumerate()
            {
                if a != b {
                    let mut why = String::new();
                    if a.idle_time != b.idle_time {
                        why = format!(
                            "idle {} vs {}",
                            a.idle_time.as_nanos(),
                            b.idle_time.as_nanos()
                        );
                    }
                    diffs.push(format!("n{i}({why})"));
                    if std::env::var_os("OAM_SMOKE_VERBOSE").is_some() {
                        println!("  n{i} single-shard: {a:#?}");
                        println!("  n{i} sharded:      {b:#?}");
                    }
                }
            }
            println!(
                "nodes={nodes} shards={shards}: answer {} end {} diffs: {}",
                (base.outcome.answer == out.outcome.answer),
                (base.outcome.elapsed == out.outcome.elapsed),
                if diffs.is_empty() { "none".to_string() } else { diffs.join(" ") }
            );
        }
    }
}
