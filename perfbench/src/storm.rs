//! `native_am_storm`: the small-AM storm on `Backend::Native` — two node
//! threads (node 0 sends a burst of one-way AMs, node 1 counts them and
//! wakes its blocked main on the last one), with the main thread only
//! waiting. The only workload that exercises `oam_net::ring` (SPSC rings,
//! `BatchTx`, `WakeGate`) and the native runtime.
//!
//! Native runs are paced in real time by the cost model, so their wall
//! time is pinned to the modelled time; the movable host metric here is
//! `cpu_s`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use oam_machine::{try_run_native, MachineBuilder, Reducer, ShardApp};
use oam_model::{Backend, MachineConfig, NodeId, ShardTuning, Time};
use oam_rpc::{define_rpc_service, RpcMode};

use crate::host::measure;
use crate::{counter_metrics, exact_quantile, timed_setup, trace, Rep};

/// Real-time budget of one native run before it counts as hung.
pub const BUDGET_S: u64 = 60;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// AMs at seed 0; the seed adds `seed % 1024` more, so different
    /// seeds send different bursts.
    pub base_rounds: u64,
}

/// AMs sent for `seed`.
pub fn rounds(seed: u64, p: &Params) -> u64 {
    p.base_rounds + seed % 1024
}

/// Receiver state: a hit counter its main sleeps against, plus each
/// hit's one-way latency (stamped by the sender in model time).
pub struct StormState {
    /// Hits received so far.
    pub count: oam_threads::Mutex<u64>,
    /// Signalled when `count` reaches `target`.
    pub done: oam_threads::CondVar,
    /// The burst size the receiver waits for.
    pub target: u64,
    /// One-way latencies seen by this replica, ns.
    pub lat: RefCell<Vec<u64>>,
}

define_rpc_service! {
    /// The storm sink: the cheapest one-way AM that carries a send stamp.
    service Storm {
        state StormState;

        /// Count one hit; wake the waiting main on the last one.
        oneway hit(ctx, st, sent_ns: u64) {
            crate::trace::timed("apps.handler", || {
                let now = ctx.node().now().since(oam_model::Time::ZERO).as_nanos();
                st.lat.borrow_mut().push(now.saturating_sub(sent_ns));
            });
            let g = st.count.lock().await;
            let v = g.with_mut(|c| {
                *c += 1;
                *c
            });
            if v >= st.target {
                st.done.signal();
            }
        }
    }
}

/// The pinned configuration: native backend, two nodes, explicit batch.
pub fn config(seed: u64) -> MachineConfig {
    MachineConfig::cm5(2).with_seed(seed).with_backend(Backend::Native).with_tuning(ShardTuning {
        batch: Some(MachineConfig::DEFAULT_BATCH),
        ..ShardTuning::default()
    })
}

/// Run one repetition.
pub fn rep(seed: u64, p: &Params) -> Result<Rep, String> {
    let n = rounds(seed, p);
    // Set-up from outside: one build of a machine with the run's shape
    // (the native runtime builds one replica per node thread itself).
    let setup_s = timed_setup(|| {
        let cfg = config(seed).with_backend(Backend::Sim);
        std::hint::black_box(MachineBuilder::from_config(cfg).build());
    });

    // Sized up front so the latency buffers' growth does not depend on
    // which thread runs ahead.
    let lat: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::with_capacity(n as usize)));
    let lat_out = Arc::clone(&lat);
    let run_span = trace::span("run");
    let alloc0 = oam_sim::alloc_snapshot();
    let (res, host) = measure(|| {
        try_run_native(config(seed), Time::from_nanos(BUDGET_S * 1_000_000_000), move |machine| {
            let states: Vec<Rc<StormState>> = machine
                .nodes()
                .iter()
                .map(|node| {
                    Rc::new(StormState {
                        count: oam_threads::Mutex::new(node, 0),
                        done: oam_threads::CondVar::new(node),
                        target: n,
                        lat: RefCell::new(Vec::with_capacity(n as usize)),
                    })
                })
                .collect();
            for (i, st) in states.iter().enumerate() {
                Storm::register_all(machine.rpc(), NodeId(i), Rc::clone(st), RpcMode::Orpc);
            }
            let sum = Reducer::new(machine.collectives(), |a: &u64, b: &u64| a.wrapping_add(*b));
            let total = Rc::new(Cell::new(0u64));
            let t = Rc::clone(&total);
            let lat_out = Arc::clone(&lat_out);
            ShardApp {
                main: Box::new(move |env| {
                    let sum = sum.clone();
                    let st = Rc::clone(&states[1]);
                    let t = Rc::clone(&t);
                    let lat_out = Arc::clone(&lat_out);
                    Box::pin(async move {
                        let mut mine = 0u64;
                        match env.id().index() {
                            0 => {
                                for _ in 0..n {
                                    let stamp = env.now().since(Time::ZERO).as_nanos();
                                    let hit =
                                        Storm::hit::send(env.rpc(), env.node(), NodeId(1), stamp);
                                    trace::timed_future("rpc.client_poll", hit).await;
                                }
                            }
                            1 => {
                                let mut g = st.count.lock().await;
                                while g.with(|c| *c < st.target) {
                                    g = st.done.wait(g).await;
                                }
                                mine = g.with(|c| *c);
                                lat_out
                                    .lock()
                                    .expect("latencies")
                                    .extend(st.lat.borrow_mut().drain(..));
                            }
                            _ => {}
                        }
                        // Only the target contributes, so the sum is the
                        // number of hits it counted.
                        let got =
                            trace::timed_future("machine.collective", sum.reduce(env.node(), mine))
                                .await;
                        if env.id().index() == 0 {
                            t.set(got);
                        }
                    })
                }),
                finish: Box::new(move |_| total.get()),
            }
        })
    });
    drop(run_span);
    let allocs = oam_sim::alloc_snapshot().since(alloc0).allocs;
    let (report, answer) =
        res.map_err(|hang| format!("native_am_storm: run did not complete:\n{hang}"))?;
    if answer != n {
        return Err(format!("native_am_storm: receiver counted {answer} hits, {n} were sent"));
    }
    let mut lat = std::mem::take(&mut *lat.lock().expect("latencies"));
    if lat.len() as u64 != n {
        return Err(format!("native_am_storm: {} latencies recorded for {n} hits", lat.len()));
    }
    lat.sort_unstable();
    let end = report.end_time.since(Time::ZERO);
    let vs = end.as_secs_f64();
    Ok(Rep {
        setup_s,
        wall_s: host.wall_s,
        cpu_s: host.cpu_s,
        attempted: n,
        answer,
        samples: n,
        virt: vec![
            ("virtual_s", vs),
            ("p50_virtual_us", exact_quantile(&lat, 0.5) as f64 / 1e3),
            ("p999_virtual_us", exact_quantile(&lat, 0.999) as f64 / 1e3),
            ("goodput_per_vs", n as f64 / vs),
            ("knee_rps", n as f64 / vs),
            ("ok_frac", answer as f64 / n as f64),
        ],
        layer: counter_metrics(&report.stats, report.events, report.peak_queue_depth, end, allocs),
    })
}
