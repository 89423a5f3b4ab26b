//! `kv_ladder`: the open-loop KV service (`oam_apps::service::run`: one
//! server, three Poisson drivers, adaptive ORPC, admission on, 5 ms
//! deadline) at a fixed ladder of offered loads up to 2× the calibrated
//! base rate. It drives the same rpc/core/threads layers as `rpc_mix16`,
//! but on the overload path: shed, NACK with retry-after, deadline
//! expiry, adaptive demotion, and scans that abort and promote.

use oam_apps::service::{self, ServiceOutcome, ServiceParams, ServiceVariant};
use oam_machine::MachineBuilder;
use oam_model::{Backend, Dur, MachineConfig};

use crate::host::measure;
use crate::{counter_metrics, timed_setup, trace, Rep};

/// Offered loads, ×100 of the calibrated base rate.
pub const LADDER: [u64; 8] = [25, 50, 60, 70, 80, 100, 150, 200];
/// The step the single-step metrics (`goodput_per_vs`, `ok_frac`) read.
pub const STEP_2X: u64 = 200;
/// The calibrated base rate's step.
pub const STEP_1X: u64 = 100;
/// Requests per virtual second one driver offers at 1× (the service's
/// calibrated mean inter-arrival gap is 1 ms per driver).
pub const BASE_RATE_PER_DRIVER: f64 = 1_000.0;
/// Per-request deadline (the service default, pinned).
pub const DEADLINE: Dur = Dur::from_micros(5_000);
/// Share of requests that must finish inside the deadline at the knee.
pub const KNEE_OK: f64 = 0.99;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Requests per driver per ladder step.
    pub arrivals: u32,
}

/// The pinned service parameters of one ladder step.
pub fn step_params(seed: u64, load_x100: u64, p: &Params) -> ServiceParams {
    ServiceParams {
        servers: 1,
        drivers: 3,
        variant: ServiceVariant::Adaptive,
        admission: true,
        load_x100,
        arrivals: p.arrivals,
        deadline: DEADLINE,
        seed: seed ^ load_x100.wrapping_mul(0x2545_f491_4f6c_dd1d),
        streaming: false,
        fault: None,
        shards: 1,
        backend: Some(Backend::Sim),
    }
}

/// Offered rate of a step, requests per virtual second.
pub fn offered_rate(sp: &ServiceParams) -> f64 {
    sp.drivers as f64 * BASE_RATE_PER_DRIVER * sp.load_x100 as f64 / 100.0
}

/// The highest offered rate at which at least [`KNEE_OK`] of requests
/// finish inside the deadline, interpolated linearly between the last
/// ladder step that meets the limit and the first that misses it (so a
/// small shift in the knee moves the figure instead of jumping a step).
pub fn knee(points: &[(f64, f64)]) -> f64 {
    let mut best = 0.0;
    for w in points.windows(2) {
        let ((r0, f0), (r1, f1)) = (w[0], w[1]);
        if f0 < KNEE_OK {
            break;
        }
        if f1 < KNEE_OK {
            return r0 + (r1 - r0) * (f0 - KNEE_OK) / (f0 - f1);
        }
        best = r1;
    }
    best
}

/// Run one repetition: every ladder step, in order.
pub fn rep(seed: u64, p: &Params) -> Result<Rep, String> {
    // Set-up from outside: the input generator (each step's arrival
    // schedules, via `sequential_capacity`) and one build of a machine of
    // the service's size per step; `service::run` builds its own inside.
    let steps: Vec<ServiceParams> = LADDER.iter().map(|&l| step_params(seed, l, p)).collect();
    let setup_s = timed_setup(|| {
        for sp in &steps {
            assert!(service::sequential_capacity(sp) > Dur::ZERO);
            let cfg = MachineConfig::cm5(sp.servers + sp.drivers).with_seed(sp.seed);
            std::hint::black_box(MachineBuilder::from_config(cfg).build());
        }
    });

    let run_span = trace::span("run");
    let alloc0 = oam_sim::alloc_snapshot();
    let (outs, host) = measure(|| {
        steps.iter().map(|sp| service::run(sp.clone())).collect::<Vec<ServiceOutcome>>()
    });
    drop(run_span);
    let allocs = oam_sim::alloc_snapshot().since(alloc0).allocs;

    let mut points = Vec::new();
    let mut attempted = 0u64;
    let (mut at_1x, mut at_2x) = (None, None);
    for (sp, o) in steps.iter().zip(&outs) {
        let arrivals = sp.drivers as u64 * u64::from(sp.arrivals);
        // Completion ledger: every arrival ends exactly one way.
        if o.completed + o.abandoned != arrivals {
            return Err(format!(
                "kv_ladder {}x: completed {} + abandoned {} != arrivals {arrivals} (shed {}, expired {})",
                sp.load_x100 as f64 / 100.0,
                o.completed,
                o.abandoned,
                o.shed,
                o.expired
            ));
        }
        attempted += arrivals;
        points.push((offered_rate(sp), o.completed as f64 / arrivals as f64));
        if sp.load_x100 == STEP_1X {
            at_1x = Some(o);
        }
        if sp.load_x100 == STEP_2X {
            at_2x = Some((o, arrivals));
        }
    }
    // The ladder's counters, summed over its steps.
    let mut stats = outs[0].app.stats.clone();
    for o in &outs[1..] {
        for (acc, n) in stats.per_node.iter_mut().zip(&o.app.stats.per_node) {
            acc.merge(n);
        }
        stats.engine.absorb(o.app.stats.engine);
    }
    let events = outs.iter().map(|o| o.app.events).sum();
    let peak = outs.iter().map(|o| o.app.peak_queue_depth).max().unwrap_or(0);
    let elapsed = outs.iter().fold(Dur::ZERO, |acc, o| acc + o.app.elapsed);
    let layer = counter_metrics(&stats, events, peak, elapsed, allocs);
    let o1 = at_1x.expect("the ladder has a 1x step");
    let (o2, arr2) = at_2x.expect("the ladder has a 2x step");
    // Exact mean latencies (histogram sum / count): the histogram's own
    // quantiles are log-bucket bounds, pinned at the 5,242.879 µs bucket
    // for p99 and p99.9 from 1x up, so they cannot show a change.
    let mean_us = |o: &ServiceOutcome| o.app.stats.total().latency.mean().as_micros_f64();
    let knee_rps = knee(&points);
    Ok(Rep {
        setup_s,
        wall_s: host.wall_s,
        cpu_s: host.cpu_s,
        attempted,
        answer: 0,
        samples: 0,
        virt: vec![
            ("virtual_s", elapsed.as_secs_f64()),
            ("goodput_per_vs", o2.goodput_per_sec),
            ("knee_rps", knee_rps),
            ("ok_frac", o2.completed as f64 / arr2 as f64),
            ("p50_virtual_us", mean_us(o1)),
            ("p999_virtual_us", mean_us(o2)),
        ],
        layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knee_interpolates_between_the_last_pass_and_the_first_miss() {
        let pts = [(750.0, 1.0), (1500.0, 0.995), (1800.0, 0.985), (2250.0, 0.9)];
        assert!((knee(&pts) - 1650.0).abs() < 1e-9);
        assert_eq!(knee(&[(750.0, 1.0), (1500.0, 0.999)]), 1500.0, "every step passes");
        assert_eq!(knee(&[(750.0, 0.9), (1500.0, 0.8)]), 0.0, "no step passes");
    }
}
