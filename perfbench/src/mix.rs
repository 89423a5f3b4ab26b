//! `rpc_mix16`: 8 closed-loop clients calling seeded-random servers among
//! 8 others, on the simulator at one shard. The call mix is 85% null
//! `bump` (inline ORPC success), 5% `slow` (takes the server lock and
//! charges past the 200 µs handler budget, so it aborts and is promoted
//! to a thread) and 10% 1 KiB `ingest` (the bulk path). This is where the
//! cost per message dominates.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use oam_machine::{run_partitioned, ShardApp};
use oam_model::{Backend, Dur, MachineConfig, NodeId, ShardTuning};
use oam_rpc::{define_rpc_service, RpcMode};
use oam_sim::Prng;

use crate::host::measure;
use crate::{counter_metrics, exact_quantile, trace, Rep};

/// Client nodes (ids `0..CLIENTS`); servers are `CLIENTS..2*CLIENTS`.
pub const CLIENTS: usize = 8;
/// Nodes in the machine.
pub const NODES: usize = 2 * CLIENTS;
/// Payload size of an `ingest` call.
pub const INGEST_BYTES: usize = 1024;
/// Virtual work a `slow` call charges while holding the server lock:
/// past the 200 µs handler budget, so an optimistic attempt aborts.
pub const SLOW_COST: Dur = Dur::from_micros(300);
/// Round-trip limit used for this workload's `knee_rps` guard metric.
pub const LIMIT: Dur = Dur::from_micros(5_000);

/// Costs planted in the `bump` handler by the sensitivity self-test;
/// both zero in every benchmark run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Plant {
    /// Host busy-wait per `bump`, ns.
    pub host_ns_per_bump: u64,
    /// Extra virtual charge per `bump`, ns.
    pub charge_ns_per_bump: u64,
}

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Calls each client makes.
    pub calls_per_client: usize,
    /// Planted costs (zero outside the self-test).
    pub plant: Plant,
}

/// One scheduled call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Null call.
    Bump,
    /// Lock-holding call that overruns the handler budget.
    Slow,
    /// 1 KiB bulk payload.
    Ingest,
}

/// The seeded input: per-client call schedules and ingest payloads.
pub struct Input {
    /// `(kind, server)` per call, per client.
    pub calls: Vec<Vec<(Kind, usize)>>,
    /// Each client's ingest payload.
    pub payloads: Vec<Vec<u8>>,
}

/// Generate the input for `seed`.
pub fn input(seed: u64, p: &Params) -> Input {
    let mut calls = Vec::with_capacity(CLIENTS);
    let mut payloads = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let mut rng =
            Prng::seed_from_u64(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c as u64 + 1)));
        calls.push(
            (0..p.calls_per_client)
                .map(|_| {
                    let kind = match rng.gen_below(100) {
                        0..=84 => Kind::Bump,
                        85..=89 => Kind::Slow,
                        _ => Kind::Ingest,
                    };
                    (kind, CLIENTS + rng.gen_below(CLIENTS as u64) as usize)
                })
                .collect(),
        );
        payloads.push((0..INGEST_BYTES).map(|_| rng.gen_below(256) as u8).collect());
    }
    Input { calls, payloads }
}

/// Server state: one counter per method, plus the lock `slow` takes.
pub struct MixState {
    /// `bump` calls served.
    pub bumps: Cell<u64>,
    /// `slow` calls served (guarded by the server lock).
    pub slows: oam_threads::Mutex<u64>,
    /// `ingest` calls served.
    pub ingests: Cell<u64>,
    /// Planted costs.
    pub plant: Plant,
}

define_rpc_service! {
    /// The benchmark-owned call mix.
    service Mix {
        state MixState;

        /// Null call: count it and return the count.
        rpc bump(ctx, st) -> u64 {
            let v = crate::trace::timed("apps.handler", || {
                crate::host::busy_wait_ns(st.plant.host_ns_per_bump);
                let v = st.bumps.get() + 1;
                st.bumps.set(v);
                v
            });
            if st.plant.charge_ns_per_bump > 0 {
                ctx.charge(oam_model::Dur::from_nanos(st.plant.charge_ns_per_bump)).await;
            }
            v
        }

        /// Take the server lock and charge past the handler budget.
        rpc slow(ctx, st) -> u64 {
            let g = st.slows.lock().await;
            ctx.charge(super::SLOW_COST).await;
            ctx.checkpoint().await;
            crate::trace::timed("apps.handler", || g.with_mut(|c| {
                *c += 1;
                *c
            }))
        }

        /// Sum a bulk payload.
        rpc ingest(ctx, st, data: Vec<u8>) -> u64 {
            let _ = ctx;
            crate::trace::timed("apps.handler", || {
                st.ingests.set(st.ingests.get() + 1);
                data.iter().map(|&b| u64::from(b)).sum()
            })
        }
    }
}

/// A fresh server state on `node`.
pub fn state(node: &oam_threads::Node, plant: Plant) -> Rc<MixState> {
    Rc::new(MixState {
        bumps: Cell::new(0),
        slows: oam_threads::Mutex::new(node, 0),
        ingests: Cell::new(0),
        plant,
    })
}

/// The pinned machine configuration: simulator backend, one shard (with
/// whatever engine one shard resolves to), explicit delivery batch.
pub fn config(seed: u64) -> MachineConfig {
    MachineConfig::cm5(NODES).with_seed(seed).with_shards(1).with_backend(Backend::Sim).with_tuning(
        ShardTuning { batch: Some(MachineConfig::DEFAULT_BATCH), ..ShardTuning::default() },
    )
}

/// What the finisher reads back out of the machine.
struct Harvest {
    bumps: u64,
    slows: u64,
    ingests: u64,
    pool_leases: u64,
    pool_reuses: u64,
}

/// Run one repetition.
pub fn rep(seed: u64, p: &Params) -> Result<Rep, String> {
    let t_setup = Instant::now();
    let inp = Arc::new(input(seed, p));
    let sums: Arc<Vec<u64>> =
        Arc::new(inp.payloads.iter().map(|d| d.iter().map(|&b| u64::from(b)).sum()).collect());
    let lat: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let bad: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let started: Arc<Mutex<Option<Instant>>> = Arc::new(Mutex::new(None));
    let plant = p.plant;
    let cfg = config(seed);
    let alloc0 = oam_sim::alloc_snapshot();

    let (inp2, sums2, lat2, bad2, started2) = (
        Arc::clone(&inp),
        Arc::clone(&sums),
        Arc::clone(&lat),
        Arc::clone(&bad),
        Arc::clone(&started),
    );
    let run_span = trace::span("run");
    let ((report, harvest), host) = measure(|| {
        run_partitioned(cfg, move |machine| {
            let states: Vec<Rc<MixState>> =
                machine.nodes().iter().map(|n| state(n, plant)).collect();
            for (i, st) in states.iter().enumerate().skip(CLIENTS) {
                Mix::register_all(machine.rpc(), NodeId(i), Rc::clone(st), RpcMode::Orpc);
            }
            let lat_local: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
            let (inp, sums, bad, started, lat_main) = (
                Arc::clone(&inp2),
                Arc::clone(&sums2),
                Arc::clone(&bad2),
                Arc::clone(&started2),
                Rc::clone(&lat_local),
            );
            let lat_out = Arc::clone(&lat2);
            ShardApp {
                main: Box::new(move |env| {
                    let (inp, sums, bad, started, lat) = (
                        Arc::clone(&inp),
                        Arc::clone(&sums),
                        Arc::clone(&bad),
                        Arc::clone(&started),
                        Rc::clone(&lat_main),
                    );
                    Box::pin(async move {
                        {
                            let mut s = started.lock().expect("start stamp");
                            if s.is_none() {
                                *s = Some(Instant::now());
                            }
                        }
                        let me = env.id().index();
                        if me < CLIENTS {
                            let (rpc, node) = (env.rpc(), env.node());
                            let mut mine = Vec::with_capacity(inp.calls[me].len());
                            for &(kind, server) in &inp.calls[me] {
                                let dst = NodeId(server);
                                let t0 = env.now();
                                let reply = match kind {
                                    Kind::Bump => {
                                        trace::timed_future(
                                            "rpc.client_poll",
                                            Mix::bump::call(rpc, node, dst),
                                        )
                                        .await
                                    }
                                    Kind::Slow => {
                                        trace::timed_future(
                                            "rpc.client_poll",
                                            Mix::slow::call(rpc, node, dst),
                                        )
                                        .await
                                    }
                                    Kind::Ingest => {
                                        let data = inp.payloads[me].clone();
                                        trace::timed_future(
                                            "rpc.client_poll",
                                            Mix::ingest::call(rpc, node, dst, data),
                                        )
                                        .await
                                    }
                                };
                                mine.push(env.now().since(t0).as_nanos());
                                let ok = match (kind, reply) {
                                    (Kind::Ingest, Ok(v)) => v == sums[me],
                                    (_, Ok(v)) => v > 0,
                                    (_, Err(_)) => false,
                                };
                                if !ok {
                                    bad.lock().expect("bad list").push(format!(
                                        "client {me}: {kind:?} to {server} returned a wrong reply"
                                    ));
                                }
                            }
                            lat.borrow_mut().extend(mine);
                        }
                        trace::timed_future("machine.collective", env.barrier()).await;
                    })
                }),
                finish: Box::new(move |m| {
                    lat_out.lock().expect("latencies").extend(lat_local.borrow().iter().copied());
                    let mut h =
                        Harvest { bumps: 0, slows: 0, ingests: 0, pool_leases: 0, pool_reuses: 0 };
                    for st in &states[CLIENTS..] {
                        h.bumps += st.bumps.get();
                        h.slows += st.slows.try_lock().map(|g| g.get()).unwrap_or(u64::MAX / 4);
                        h.ingests += st.ingests.get();
                    }
                    for i in 0..NODES {
                        let ps = m.network().pool(NodeId(i)).stats();
                        h.pool_leases += ps.leases;
                        h.pool_reuses += ps.reuses;
                    }
                    h
                }),
            }
        })
    });
    let t_end = Instant::now();
    drop(run_span);
    let allocs = oam_sim::alloc_snapshot().since(alloc0).allocs;
    let started = started.lock().expect("start stamp").expect("a node main ran");
    trace::record("setup", t_setup, started);

    // Correctness: every scheduled call was served exactly once, by kind.
    let want = |k: Kind| inp.calls.iter().flatten().filter(|c| c.0 == k).count() as u64;
    let (wb, ws, wi) = (want(Kind::Bump), want(Kind::Slow), want(Kind::Ingest));
    let errs = bad.lock().expect("bad list");
    if !errs.is_empty() {
        return Err(format!("rpc_mix16: {} wrong replies; first: {}", errs.len(), errs[0]));
    }
    if (harvest.bumps, harvest.slows, harvest.ingests) != (wb, ws, wi) {
        return Err(format!(
            "rpc_mix16: servers counted bump/slow/ingest = {}/{}/{}, schedule implies {wb}/{ws}/{wi}",
            harvest.bumps, harvest.slows, harvest.ingests
        ));
    }
    let mut lat = std::mem::take(&mut *lat.lock().expect("latencies"));
    let attempted = (CLIENTS * p.calls_per_client) as u64;
    if lat.len() as u64 != attempted {
        return Err(format!(
            "rpc_mix16: {} round trips recorded, {attempted} calls made",
            lat.len()
        ));
    }
    lat.sort_unstable();
    let end = report.end_time.since(oam_model::Time::ZERO);
    let vs = end.as_secs_f64();
    let in_limit = lat.iter().filter(|&&ns| ns <= LIMIT.as_nanos()).count() as f64;
    let mut layer =
        counter_metrics(&report.stats, report.events, report.peak_queue_depth, end, allocs);
    layer.push((
        "net.pool_reuse_frac",
        if harvest.pool_leases == 0 {
            0.0
        } else {
            harvest.pool_reuses as f64 / harvest.pool_leases as f64
        },
    ));
    Ok(Rep {
        setup_s: started.duration_since(t_setup).as_secs_f64(),
        wall_s: t_end.duration_since(started).as_secs_f64(),
        cpu_s: host.cpu_s,
        attempted,
        answer: 0,
        samples: lat.len() as u64,
        virt: vec![
            ("virtual_s", vs),
            ("p50_virtual_us", exact_quantile(&lat, 0.5) as f64 / 1e3),
            ("p999_virtual_us", exact_quantile(&lat, 0.999) as f64 / 1e3),
            ("goodput_per_vs", attempted as f64 / vs),
            ("knee_rps", in_limit / vs),
            ("ok_frac", 1.0),
        ],
        layer,
    })
}
