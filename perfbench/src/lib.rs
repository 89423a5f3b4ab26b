//! The repository's benchmark: four workloads that each load a different
//! layer of the OAM stack, timed from outside through the public API of
//! the `oam-*` crates. See `NOTES.md` next to this crate for why each
//! workload exists and what every metric should move.

pub mod bench;
pub mod host;
pub mod kv;
pub mod mix;
pub mod probes;
pub mod storm;
pub mod trace;
pub mod water;

use oam_model::{AbortReason, Dur, MachineStats};

/// One repetition of a workload, as measured from outside.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds of set-up: input generation, machine build and
    /// service registration, before the first simulated event.
    pub setup_s: f64,
    /// Host wall seconds of the run, set-up excluded.
    pub wall_s: f64,
    /// Host CPU seconds over every thread during the run call.
    pub cpu_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// The workload's answer, where it has one worth comparing across
    /// runs (the Water energy checksum); 0 otherwise.
    pub answer: u64,
    /// Latency samples behind the percentile metrics (0 when the
    /// workload has none of its own).
    pub samples: u64,
    /// Modelled (virtual-time) end-to-end metrics. Exact for a given seed
    /// on the simulator.
    pub virt: Vec<(&'static str, f64)>,
    /// Per-layer counters read from the run's reports.
    pub layer: Vec<(&'static str, f64)>,
}

/// Set-ups timed per repetition where the set-up is a standalone build
/// (the program builds its own machines inside the run call).
pub const SETUP_REPEATS: usize = 16;

/// Median host seconds over [`SETUP_REPEATS`] runs of `setup`, each one a
/// `setup` span. A single standalone build takes tens of microseconds,
/// too short to time steadily on its own.
pub fn timed_setup(mut setup: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let _g = trace::span("setup");
            let t = std::time::Instant::now();
            setup();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&v)
}

/// Nearest-rank quantile of sorted samples: the `ceil(q·n)`-th smallest.
pub fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `v` (the mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no values");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer counters every simulator run exposes through
/// `RunReport` / `AppOutcome`: `MachineStats` (per-node `NodeStats`),
/// `EngineCounters`, the event count and queue depth, plus the allocation
/// count the benchmark's counting allocator saw during the run.
pub fn counter_metrics(
    stats: &MachineStats,
    events: u64,
    peak_queue_depth: u64,
    end: Dur,
    allocs: u64,
) -> Vec<(&'static str, f64)> {
    let t = stats.total();
    let e = stats.engine;
    // Short packets and bulk transfers both count as messages.
    let msgs = t.messages_sent + t.bulk_transfers_sent;
    let node_time = end.as_nanos() as f64 * stats.per_node.len() as f64;
    let frac_of_time = |d: u64| if node_time > 0.0 { d as f64 / node_time } else { 0.0 };
    let compute: u64 = stats.per_node.iter().map(|n| n.compute_time.as_nanos()).sum();
    let idle: u64 = stats.per_node.iter().map(|n| n.idle_time.as_nanos()).sum();
    let abort = |r: AbortReason| t.oam_aborts[r.index()] as f64;
    let mode_switches: u64 = t.per_method.values().map(|m| m.mode_switches).sum();
    vec![
        ("sim.events", events as f64),
        ("sim.events_per_msg", ratio(events, msgs)),
        ("sim.peak_queue_depth", peak_queue_depth as f64),
        ("sim.allocs_per_msg", ratio(allocs, msgs)),
        ("net.msgs", msgs as f64),
        ("net.bytes_per_msg", ratio(t.bytes_sent, msgs)),
        ("net.bulk_frac", ratio(t.bulk_transfers_sent, msgs)),
        ("net.backpressure", t.send_backpressure_events as f64),
        ("net.deposits", e.deposits as f64),
        ("net.batches", e.batches as f64),
        ("net.msgs_per_batch", e.msgs_per_batch()),
        ("net.wakes", e.wakes as f64),
        ("am.dispatched", t.messages_received as f64),
        ("am.empty_poll_frac", ratio(t.polls_empty, t.polls_empty + t.polls_nonempty)),
        ("threads.created", t.threads_created as f64),
        ("threads.switches", t.context_switches as f64),
        ("threads.live_stack_hit_frac", t.live_stack_rate().unwrap_or(0.0)),
        ("threads.compute_frac", frac_of_time(compute)),
        ("threads.idle_frac", frac_of_time(idle)),
        ("core.attempts", t.oam_attempts as f64),
        ("core.inline_frac", t.success_rate().unwrap_or(0.0)),
        ("core.aborts.lock_held", abort(AbortReason::LockHeld)),
        ("core.aborts.condition_false", abort(AbortReason::ConditionFalse)),
        ("core.aborts.network_full", abort(AbortReason::NetworkFull)),
        ("core.aborts.ran_too_long", abort(AbortReason::RanTooLong)),
        ("core.promotions", t.oam_promotions as f64),
        ("core.reruns", t.oam_reruns as f64),
        ("core.shed", t.calls_shed as f64),
        ("core.nacks", t.nacks_received as f64),
        ("core.expired", t.calls_expired as f64),
        ("core.abandoned", t.calls_abandoned as f64),
        ("core.admission_peak", t.admission_peak as f64),
        ("core.mode_switches", mode_switches as f64),
        ("rpc.calls", (t.rpcs_sync + t.rpcs_async) as f64),
        ("rpc.retransmits", t.retransmits as f64),
        ("machine.epochs", e.epochs as f64),
        ("machine.empty_epochs", e.empty_epochs as f64),
        ("machine.fence_skips", e.fence_skips as f64),
        ("machine.events_per_epoch", ratio(events, e.epochs)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(exact_quantile(&v, 0.5), 500);
        assert_eq!(exact_quantile(&v, 0.999), 999);
        assert_eq!(exact_quantile(&v, 1.0), 1000);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
