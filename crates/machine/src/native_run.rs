//! Native (host-threads) machine execution: one OS thread per simulated
//! node, lock-free SPSC rings for packet delivery, wall-clock time in
//! place of virtual time.
//!
//! Structurally this is the sharded engine with every barrier removed:
//! each node gets a full machine replica on its own thread (identity
//! ownership — node *i*'s replica executes exactly node *i*), but instead
//! of batching cross-node records until an epoch fence, the fabric's
//! [`ChannelPort`](oam_net::ChannelPort) hands each record to a
//! sender-side batcher ([`oam_net::BatchTx`]) in front of a bounded
//! lock-free SPSC ring per directed node pair, and every replica's clock
//! is the shared [`WallClock`]. Deposits coalesce until a flush boundary
//! — the batch high-water mark ([`RunPlan::batch`]; `OAM_BATCH=1` is the
//! per-message reference path) or the end of a handler-run pass —
//! and each flush issues at most one wake signal through the consumer's
//! [`oam_net::WakeGate`], so a burst of small AMs costs one wake, not N.
//! Modeled compute charges pace in *real* time, and event order across
//! nodes is whatever the hardware produced: answers of
//! data-deterministic programs are reproducible, traces and timings are
//! not (see DESIGN.md §14).
//!
//! Consumers wait with the same spin-then-park discipline as the epoch
//! barrier: short gaps to the next due event spin-poll the rings, longer
//! waits publish a parked state and re-check before parking (the
//! no-lost-wake Dekker protocol in `oam_net::ring`), bounded by
//! `MAX_PARK` so a thread's view of the stop flag never goes stale.
//!
//! Termination is a two-phase protocol. Each thread reports its main's
//! completion to the coordinator (the caller's thread); once every main
//! has reported — or a *real-time* watchdog budget expires — the
//! coordinator raises a stop flag and wakes every gate, so threads
//! parked on empty rings exit promptly. Threads then harvest their
//! replica into the same `ReplicaExit` the shard workers produce and
//! join; on timeout the per-node snapshots become a [`HangReport`].

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oam_model::{Backend, EngineCounters, MachineConfig, Time};
use oam_net::{spsc, BatchTx, CrossNet, RingRx, RingTx, WakeGate};
use oam_sim::WallClock;

use crate::machine::{Machine, MachineBuilder, RunReport};
use crate::plan::{Engine, RunPlan};
use crate::shard_run::{conservative_lookahead, merge, CrossMsg, ReplicaExit, ShardApp};
use crate::watchdog::{HangKind, HangReport};

/// Default real-time watchdog budget for a native run. Generous because
/// wall time covers real modeled compute charges; `OAM_WATCHDOG_MS`
/// replaces it (interpreted as *real* milliseconds here).
const DEFAULT_BUDGET: Time = Time::from_nanos(30_000_000_000);

/// Events fired per [`oam_sim::Sim::run_wall`] pass before the node loop
/// re-checks its rings and the stop flag.
const EVENT_BATCH: u64 = 4096;

/// Gaps to the next due event shorter than this are spin-waited (polling
/// the rings) instead of parking — park granularity is far coarser than
/// the microsecond-scale charges being paced.
const SPIN_GAP_NS: u64 = 200_000;

/// Longest single park: bounds how stale a thread's view of the stop flag
/// can get even if a wake signal were lost.
const MAX_PARK: Duration = Duration::from_millis(20);

/// Ring capacity for one directed node pair, sized so a full batch plus
/// in-flight slack fits without producer spins in the common case.
fn ring_capacity(batch: u32) -> usize {
    (4 * batch as usize).clamp(64, 1024).next_power_of_two()
}

/// Run an application on the native backend with an explicit *real-time*
/// budget, returning the hang diagnosis instead of panicking: `cfg.nodes`
/// OS threads, ring-delivered packets, wall-clock pacing. Same `setup`
/// contract as [`crate::run_partitioned`], which runs here when its plan
/// selects the native backend: `setup` runs once per node thread against
/// that thread's replica and must register the same handlers in the same
/// order everywhere; the answer comes from node 0. `OAM_WATCHDOG_MS`
/// replaces `budget`.
///
/// All node threads are joined before this returns, whichever way the run
/// ends: the shutdown wake reaches even threads parked on empty rings, so
/// a hung handler leaks nothing.
///
/// # Panics
/// Panics with the [`crate::PlanError`] text if a run setting in the
/// environment is malformed or retired, and if `cfg` carries a fault plan.
pub fn try_run_native<R: Send + 'static>(
    cfg: MachineConfig,
    budget: Time,
    setup: impl Fn(&Machine) -> ShardApp<R> + Send + Sync,
) -> Result<(RunReport, R), HangReport> {
    let cfg = cfg.with_backend(Backend::Native);
    let mut plan = RunPlan::resolve(&cfg).unwrap_or_else(|e| panic!("{e}"));
    plan.watchdog.get_or_insert(budget);
    run(cfg, plan, setup)
}

/// Run `cfg` under a native `plan`; the budget is `plan.watchdog`, else
/// [`DEFAULT_BUDGET`].
pub(crate) fn run<R: Send + 'static>(
    cfg: MachineConfig,
    mut plan: RunPlan,
    setup: impl Fn(&Machine) -> ShardApp<R> + Send + Sync,
) -> Result<(RunReport, R), HangReport> {
    cfg.validate().expect("invalid machine configuration");
    assert_eq!(plan.engine, Engine::Native, "the native backend requires a lossless fabric");
    let budget = *plan.watchdog.get_or_insert(DEFAULT_BUDGET);
    let batch = plan.batch;
    let nodes = cfg.nodes;
    let lookahead = conservative_lookahead(&cfg);
    let clock = Arc::new(WallClock::start());
    let stop = Arc::new(AtomicBool::new(false));
    let gates: Vec<Arc<WakeGate>> = (0..nodes).map(|_| Arc::new(WakeGate::new())).collect();

    // One bounded SPSC ring per directed node pair. `tx_mat[src][dst]` /
    // `rx_mat[dst][src]`; the diagonal stays empty (a node never routes
    // to itself through the fabric).
    let cap = ring_capacity(batch);
    let mut tx_mat: Vec<Vec<Option<RingTx<CrossMsg>>>> =
        (0..nodes).map(|_| (0..nodes).map(|_| None).collect()).collect();
    let mut rx_mat: Vec<Vec<Option<RingRx<CrossMsg>>>> =
        (0..nodes).map(|_| (0..nodes).map(|_| None).collect()).collect();
    for src in 0..nodes {
        for dst in 0..nodes {
            if src != dst {
                let (tx, rx) = spsc::<CrossMsg>(cap);
                tx_mat[src][dst] = Some(tx);
                rx_mat[dst][src] = Some(rx);
            }
        }
    }
    let (done_tx, done_rx) = mpsc::channel::<usize>();

    let mut timed_out = false;
    let exits: Vec<ReplicaExit<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = tx_mat
            .into_iter()
            .zip(rx_mat)
            .enumerate()
            .map(|(node, (tx_row, rx_row))| {
                let cfg = cfg.clone();
                let clock = Arc::clone(&clock);
                let stop = Arc::clone(&stop);
                let gates = gates.clone();
                let done_tx = done_tx.clone();
                let setup = &setup;
                scope.spawn(move || {
                    run_node(
                        cfg, node, lookahead, batch, clock, stop, gates, tx_row, rx_row, done_tx,
                        setup,
                    )
                })
            })
            .collect();
        drop(done_tx);

        // Coordinator: wait for every main against the real-time budget.
        let deadline = Instant::now() + Duration::from_nanos(budget.as_nanos());
        let mut mains_done = 0usize;
        while mains_done < nodes {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match done_rx.recv_timeout(remaining) {
                Ok(_) => mains_done += 1,
                Err(RecvTimeoutError::Timeout) => {
                    timed_out = true;
                    break;
                }
                // Every sender gone: all threads exited (only possible via
                // panic before completion); joining below propagates it.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        stop.store(true, Ordering::Release);
        // Unconditional wakes: set every gate's park token so threads
        // mid-way into a park re-check the stop flag promptly.
        for gate in &gates {
            gate.wake();
        }
        handles.into_iter().map(|h| h.join().expect("node thread panicked")).collect()
    });

    let at = clock.now();
    let (report, nodes, answer) = merge(exits, plan);
    if timed_out {
        return Err(HangReport {
            kind: HangKind::BudgetExceeded,
            at,
            in_flight_packets: nodes.iter().map(|n| n.input_queue_depth).sum(),
            events: report.events,
            nodes,
            plan: Box::new(report.plan),
        });
    }
    assert!(report.completed, "native run incomplete without a watchdog timeout");
    Ok((report, answer.expect("node 0 produces the answer")))
}

/// Thread body for one node: build the replica, spawn the main, then
/// alternate wall-clock event execution with ring service until the
/// coordinator orders shutdown.
#[allow(clippy::too_many_arguments)]
fn run_node<R>(
    cfg: MachineConfig,
    node: usize,
    lookahead: oam_model::Dur,
    batch: u32,
    clock: Arc<WallClock>,
    stop: Arc<AtomicBool>,
    gates: Vec<Arc<WakeGate>>,
    tx_row: Vec<Option<RingTx<CrossMsg>>>,
    mut rx_row: Vec<Option<RingRx<CrossMsg>>>,
    done_tx: Sender<usize>,
    setup: &(impl Fn(&Machine) -> ShardApp<R> + Send + Sync),
) -> ReplicaExit<R> {
    gates[node].register();
    // Sender-side batchers, one per destination. Shared with the fabric
    // port's route closure; flushed at the high-water mark (inside
    // BatchTx) and at the end of every run_wall pass (below).
    let outbound: Rc<RefCell<Vec<Option<BatchTx<CrossMsg>>>>> = Rc::new(RefCell::new(
        tx_row
            .into_iter()
            .enumerate()
            .map(|(dst, tx)| tx.map(|tx| BatchTx::new(tx, Arc::clone(&gates[dst]), batch as usize)))
            .collect(),
    ));
    let abandoned = {
        let stop = Arc::clone(&stop);
        move || stop.load(Ordering::Acquire)
    };
    let port = Rc::new(oam_net::ChannelPort::new({
        let outbound = Rc::clone(&outbound);
        let abandoned = abandoned.clone();
        move |rec: CrossNet| {
            let dst = rec.dst().index();
            let mut out = outbound.borrow_mut();
            out[dst]
                .as_mut()
                .expect("fabric never routes to self")
                .send(CrossMsg::Net(rec), &abandoned);
        }
    }));
    let machine =
        MachineBuilder::from_config(cfg).build_native(node, lookahead, Arc::clone(&clock), port);
    let app = setup(&machine);
    let ctx = machine
        .collectives()
        .shard_ctx()
        .expect("build_native installs a shard collective context")
        .clone();

    let done = machine.spawn_main(node, &app.main);

    // Incoming packets of one drain, applied together (capacity reused).
    let mut net_batch: Vec<CrossNet> = Vec::new();
    let mut reported = false;
    loop {
        let next = machine.sim().run_wall(EVENT_BATCH);
        {
            let mut out = outbound.borrow_mut();
            for rec in ctx.drain_outbox() {
                for (dst, tx) in out.iter_mut().enumerate() {
                    if let Some(tx) = tx {
                        debug_assert_ne!(dst, node);
                        tx.send(CrossMsg::Reduce(rec.clone()), &abandoned);
                    }
                }
            }
            // End-of-pass flush boundary: everything this pass deposited
            // leaves now, one wake signal per destination with records.
            for tx in out.iter_mut().flatten() {
                tx.flush(&abandoned);
            }
        }
        if done.get() && !reported {
            reported = true;
            let _ = done_tx.send(node);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }

        // Wait for the next due local event or an incoming record,
        // whichever comes first.
        let pending = || rx_row.iter().flatten().any(RingRx::has_records);
        match next {
            Some(t) => {
                let gap = t.saturating_since(clock.now());
                if gap.is_zero() {
                    // Batch bound hit with work still due: fall through
                    // and drain whatever is already here.
                } else if gap.as_nanos() <= SPIN_GAP_NS {
                    while clock.now() < t && !pending() && !stop.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                } else {
                    gates[node]
                        .park_unless(pending, Duration::from_nanos(gap.as_nanos()).min(MAX_PARK));
                }
            }
            None => gates[node].park_unless(pending, MAX_PARK),
        }
        for rx in rx_row.iter_mut().flatten() {
            while let Some(m) = rx.pop() {
                match m {
                    CrossMsg::Net(rec) => net_batch.push(rec),
                    CrossMsg::Reduce(rec) => ctx.integrate(rec),
                }
            }
        }
        machine.network().apply_cross(&mut net_batch);
    }

    // Harvest this replica. Trailing idle is folded at the local stop time
    // (the clock is shared, so per-node end times agree to within shutdown
    // skew).
    let mut engine = EngineCounters { wakes: gates[node].wakes(), ..Default::default() };
    for tx in outbound.borrow().iter().flatten() {
        engine.deposits += tx.deposits;
        engine.batches += tx.batches;
    }
    ReplicaExit::harvest(&machine, &[(node, done)], machine.sim().now(), engine, app.finish)
}
