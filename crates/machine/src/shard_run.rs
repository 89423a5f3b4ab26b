//! Partitioned (sharded) machine execution: shard replicas of simulated
//! nodes multiplexed onto host worker threads, synchronized by
//! conservative epochs.
//!
//! Each shard owns a contiguous range of nodes and runs them on a private
//! keyed [`Sim`](oam_sim::Sim) — its own calendar queue, RNG streams, and
//! thread-local state. Workers execute every event strictly before the
//! current fence, then meet at a lock-free barrier. Rounds with cross
//! traffic exchange the only data that crosses threads — cross-shard
//! network packets and collective contributions ([`CrossMsg`]) — through
//! per-(src, dst) mailbox slots and agree on the next fence at a second
//! barrier; quiet rounds fuse everything into a single barrier and, under
//! the adaptive fence policy, widen the fence past one lookahead where the
//! effect-horizon argument allows (see `oam_sim::shard`). No shard can
//! ever receive a record dated before an event it already executed, so
//! answers, stats, and keyed event order are independent of the shard
//! count and of the fence policy.
//!
//! ## Workers vs shards
//!
//! The shard count fixes the *partition* (and therefore the epoch
//! schedule); the worker count fixes how many OS threads drive it
//! ([`RunPlan::workers`]: one per shard, at most one per host core). Each
//! worker owns a contiguous range of shards and steps
//! them in lockstep through the split-phase barrier: it arrives for every
//! owned shard, then completes them — so barriers between co-located
//! shards are function calls, and an epoch costs one wake per *worker*,
//! not per shard. On a one-core host a 4-shard run is single-threaded and
//! park-free while remaining bit-identical to the thread-per-shard run:
//! the epoch engine is host-schedule invariant by construction.
//!
//! Cross-shard records take the batched delivery path by default (one
//! mailbox publish per peer per epoch); a [`RunPlan::batch`] of 1
//! (`OAM_BATCH=1`) selects the per-message reference path.
//!
//! Both drivers — these shard workers and the native node threads — end
//! the same way: each replica hands back a `ReplicaExit` and `merge`
//! folds them into one [`RunReport`].

use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;

use oam_model::{Dur, EngineCounters, MachineConfig, MachineStats, NodeStats, Time};
use oam_net::CrossNet;
use oam_sim::{partition, shard_range, Coordinator, Fence, FencePolicy, Round, ShardPort};
use oam_threads::Flag;

use crate::collective::ReduceRecord;
use crate::machine::{Machine, MachineBuilder, NodeEnv, RunReport};
use crate::plan::{Engine, RunPlan};
use crate::watchdog::NodeHangInfo;

/// A boundary record crossing worker threads: between shards at an epoch
/// barrier, or between native node threads on their SPSC rings.
#[derive(Clone)]
pub enum CrossMsg {
    /// A network packet or bulk transfer bound for a node another thread
    /// owns.
    Net(CrossNet),
    /// A collective contribution, broadcast to every replica.
    Reduce(ReduceRecord),
}

/// A boxed SPMD node main: invoked once per owned node, returning that
/// node's boxed main future.
pub type NodeMain = Box<dyn Fn(NodeEnv) -> Pin<Box<dyn Future<Output = ()>>>>;

/// A boxed answer extractor: reads the final result out of the (quiet)
/// shard-0 machine.
pub type FinishFn<R> = Box<dyn FnOnce(&Machine) -> R>;

/// What a shard runs: the SPMD node main plus a finalizer that extracts
/// the application's answer from the machine after the run goes quiet.
///
/// Produced per shard by the `setup` closure handed to
/// [`run_partitioned`]; `setup` also performs the side effects that must
/// happen identically on every shard replica (handler registration,
/// reducer creation) so event keys and collective ids line up across
/// shards.
pub struct ShardApp<R> {
    /// The node main, boxed so every shard's setup can capture its own
    /// thread-local state.
    pub main: NodeMain,
    /// Reads the final answer out of the (quiet) machine. Only invoked on
    /// shard 0, whose replica owns node 0 — the node that writes answers
    /// in every app in this repo.
    pub finish: FinishFn<R>,
}

/// What one replica hands back when its driver thread finishes.
pub(crate) struct ReplicaExit<R> {
    end_time: Time,
    events: u64,
    peak_queue_depth: u64,
    /// Stats and hang snapshot of every node the replica owns, by node id.
    nodes: Vec<(usize, NodeStats, NodeHangInfo)>,
    /// Registered RPC method names (node 0's replica only).
    method_names: Option<BTreeMap<u32, String>>,
    engine: EngineCounters,
    /// The application answer (node 0's replica only).
    answer: Option<R>,
}

impl<R> ReplicaExit<R> {
    /// Harvest a stopped replica whose owned nodes' mains report through
    /// `done`: fold trailing idle at `end`, snapshot every owned node, and
    /// take the answer if this replica owns node 0.
    pub(crate) fn harvest(
        machine: &Machine,
        done: &[(usize, Flag)],
        end: Time,
        engine: EngineCounters,
        finish: FinishFn<R>,
    ) -> Self {
        for n in machine.nodes() {
            n.finalize_idle(end);
        }
        let stats = machine.harvest();
        let owns_answer = done.iter().any(|&(i, _)| i == 0);
        ReplicaExit {
            end_time: end,
            events: machine.sim().events_executed(),
            peak_queue_depth: machine.sim().peak_event_queue_depth(),
            nodes: done
                .iter()
                .map(|(i, f)| (*i, stats.per_node[*i].clone(), machine.hang_info(*i, f.get())))
                .collect(),
            method_names: owns_answer.then(|| machine.rpc().method_names()),
            engine,
            answer: owns_answer.then(|| finish(machine)),
        }
    }
}

/// Fold every replica's exit into one report: per-node stats and hang
/// snapshots reassembled by node id, counters summed or maxed, the answer
/// taken from node 0's replica. Round counters must agree across replicas
/// (asserted inside [`EngineCounters::absorb`]); delivery counters sum.
pub(crate) fn merge<R>(
    exits: Vec<ReplicaExit<R>>,
    plan: RunPlan,
) -> (RunReport, Vec<NodeHangInfo>, Option<R>) {
    let mut nodes: Vec<(usize, NodeStats, NodeHangInfo)> = Vec::new();
    let (mut end_time, mut events, mut peak) = (Time::ZERO, 0u64, 0u64);
    let (mut answer, mut method_names, mut engine) = (None, None, None::<EngineCounters>);
    for e in exits {
        end_time = end_time.max(e.end_time);
        events += e.events;
        peak = peak.max(e.peak_queue_depth);
        nodes.extend(e.nodes);
        answer = answer.or(e.answer);
        method_names = method_names.or(e.method_names);
        match engine.as_mut() {
            Some(total) => total.absorb(e.engine),
            None => engine = Some(e.engine),
        }
    }
    nodes.sort_by_key(|(i, ..)| *i);
    assert!(nodes.iter().enumerate().all(|(k, (i, ..))| k == *i), "one owner per node");
    let (per_node, hang): (Vec<NodeStats>, Vec<NodeHangInfo>) =
        nodes.into_iter().map(|(_, stats, info)| (stats, info)).unzip();
    let completed = hang.iter().all(|n| n.main_done);
    let stats = MachineStats::new(per_node)
        .with_method_names(method_names.unwrap_or_default())
        .with_engine(engine.unwrap_or_default());
    let report = RunReport { end_time, stats, completed, events, peak_queue_depth: peak, plan };
    (report, hang, answer)
}

/// Conservative lookahead for a configuration: the minimum latency of any
/// cross-shard effect — wire latency for packets, and the collective
/// latencies for reduction publishes.
pub(crate) fn conservative_lookahead(cfg: &MachineConfig) -> Dur {
    cfg.cost.wire_latency.min(cfg.cost.barrier_latency).min(cfg.cost.reduction_latency)
}

/// Run an application as its resolved [`RunPlan`] says, and merge the
/// per-replica reports into one [`RunReport`].
///
/// With one shard (the default) this is byte-for-byte the legacy
/// single-threaded path — same engine, same global event sequence, same
/// traces. With `S ≥ 2` shards, nodes are partitioned into contiguous
/// ranges and executed in parallel under conservative epoch
/// synchronization; answers and per-node statistics are independent of
/// the shard count. The native backend runs one OS thread per node.
///
/// `setup` runs once per shard against that shard's machine replica and
/// must be deterministic: register the same handlers and create the same
/// reducers in the same order on every shard.
///
/// # Panics
/// Panics with the [`crate::PlanError`] text if a run setting in the
/// environment is malformed or retired, and if any node main fails to
/// complete (distributed deadlock), like [`Machine::run`].
pub fn run_partitioned<R: Send + 'static>(
    cfg: MachineConfig,
    setup: impl Fn(&Machine) -> ShardApp<R> + Send + Sync,
) -> (RunReport, R) {
    let plan = RunPlan::resolve(&cfg).unwrap_or_else(|e| panic!("{e}"));
    match plan.engine {
        Engine::Native => crate::native_run::run(cfg, plan, setup)
            .unwrap_or_else(|hang| panic!("native run did not complete:\n{hang}")),
        Engine::Legacy => {
            let machine = MachineBuilder::from_config(cfg).build();
            let app = setup(&machine);
            let mut report = machine.run(|env| (app.main)(env));
            report.plan = plan;
            let answer = (app.finish)(&machine);
            (report, answer)
        }
        Engine::Epoch => run_epoch(cfg, plan, setup),
    }
}

/// The epoch engine: `plan.shards` replicas on `plan.workers` threads.
///
/// It also runs at one shard when the plan says so (`force_epoch`, or
/// admission control): overload outcomes — which call gets shed — are
/// decided at same-timestamp event ties, which the legacy engine breaks by
/// global insertion order and the keyed engine does not, so pinning the
/// keyed order makes shed decisions independent of the shard count.
fn run_epoch<R: Send + 'static>(
    cfg: MachineConfig,
    plan: RunPlan,
    setup: impl Fn(&Machine) -> ShardApp<R> + Send + Sync,
) -> (RunReport, R) {
    let lookahead = conservative_lookahead(&cfg);
    let owners = partition(cfg.nodes, plan.shards);
    let policy = if plan.naive_fence { FencePolicy::Naive } else { FencePolicy::Adaptive };
    let coord = Coordinator::<CrossMsg>::new(plan.shards, lookahead)
        .with_policy(policy)
        .with_spin(plan.spin)
        .with_batched(plan.batch > 1);

    let exits: Vec<ReplicaExit<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.workers)
            .map(|worker| {
                let cfg = cfg.clone();
                let (coord, owners, plan, setup) = (&coord, &owners, &plan, &setup);
                scope.spawn(move || run_worker(cfg, coord, owners, plan, worker, lookahead, setup))
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("shard worker panicked")).collect()
    });

    let (mut report, _, answer) = merge(exits, plan);
    report.stats.engine.wakes += coord.wakes();
    assert!(
        report.completed,
        "partitioned run did not complete: some node main is deadlocked (end time {})",
        report.end_time
    );
    (report, answer.expect("shard 0 produces the answer"))
}

/// One shard replica as driven by a worker thread: its machine, its port,
/// and its progress through the epoch protocol.
struct Lane<'c, R> {
    machine: Machine,
    ctx: std::rc::Rc<crate::collective::ShardCollectives>,
    port: ShardPort<'c, CrossMsg>,
    /// Completion flags for the mains of this shard's owned nodes.
    done: Vec<(usize, Flag)>,
    /// The answer extractor (invoked on shard 0 only).
    finish: FinishFn<R>,
    fence: Fence,
}

/// Worker body: build the replica machines for every shard this worker
/// owns, spawn their mains, then step all of them in lockstep through the
/// epoch protocol — arrive for every owned shard, then complete them, so
/// barriers between co-located shards never block (see the module docs).
fn run_worker<R>(
    cfg: MachineConfig,
    coord: &Coordinator<CrossMsg>,
    owners: &[usize],
    plan: &RunPlan,
    worker: usize,
    lookahead: Dur,
    setup: &(impl Fn(&Machine) -> ShardApp<R> + Send + Sync),
) -> Vec<ReplicaExit<R>> {
    let (nodes, shards) = (cfg.nodes, plan.shards);
    // Contiguous, balanced assignment of shards to workers — the same
    // partition rule nodes use for shards.
    let my_shards = shard_range(shards, plan.workers, worker);

    let mut lanes: Vec<Lane<'_, R>> = my_shards
        .map(|shard| {
            let machine =
                MachineBuilder::from_config(cfg.clone()).build_shard(owners, shard, lookahead);
            let app = setup(&machine);
            let ctx = machine
                .collectives()
                .shard_ctx()
                .expect("build_shard installs a shard collective context")
                .clone();
            let done: Vec<(usize, Flag)> = shard_range(nodes, shards, shard)
                .map(|i| (i, machine.spawn_main(i, &app.main)))
                .collect();
            Lane {
                machine,
                ctx,
                port: coord.port(shard),
                done,
                finish: app.finish,
                fence: Fence::Before(Time::ZERO),
            }
        })
        .collect();

    // Hot-loop buffers, hoisted so the steady state allocates nothing:
    // drained cross records, drained collective contributions, and the
    // incoming net batch all recycle their capacity every epoch (shared
    // across this worker's lanes — each lane drains them before the next
    // uses them).
    let mut cross: Vec<CrossNet> = Vec::new();
    let mut reduce: Vec<ReduceRecord> = Vec::new();
    let mut net_batch: Vec<CrossNet> = Vec::new();
    loop {
        // Phase 1: run every lane's window, deposit its records, arrive.
        // No arrive blocks, so a worker can never deadlock against its
        // own un-run lanes.
        for lane in &mut lanes {
            let local_next = match lane.fence {
                Fence::Before(limit) => {
                    let (next, ran) = lane.machine.sim().run_before_counted(limit);
                    if ran {
                        // Only an executed event or polled task can have
                        // put anything in the outboxes; idle windows skip
                        // the scans entirely.
                        lane.machine.network().drain_cross_into(&mut cross);
                        for rec in cross.drain(..) {
                            lane.port.send(owners[rec.dst().index()], CrossMsg::Net(rec));
                        }
                        lane.ctx.drain_outbox_into(&mut reduce);
                        for rec in reduce.drain(..) {
                            lane.port.broadcast(CrossMsg::Reduce(rec));
                        }
                    }
                    next
                }
                Fence::Unbounded => {
                    // Single-shard epoch runs: no peer exists, so run to
                    // quiescence. The fabric owns every node and records
                    // no cross packets; collective contributions still
                    // queue for broadcast, which at one shard has no
                    // recipients.
                    lane.machine.sim().run();
                    lane.machine.network().drain_cross_into(&mut cross);
                    debug_assert!(cross.is_empty(), "single-shard fabric routed a cross record");
                    lane.ctx.drain_outbox_into(&mut reduce);
                    reduce.clear();
                    None
                }
                Fence::Done => unreachable!("the loop breaks on Done"),
            };
            lane.port.arrive(local_next);
        }

        // Phase 2: complete every lane. Only the first complete can park
        // (waiting on other workers); classification is derived from
        // shared round data, so every lane sees the same variant.
        let mut traffic = false;
        let mut done = false;
        for lane in &mut lanes {
            match lane.port.complete() {
                Round::Quiet(Fence::Done) => done = true,
                Round::Quiet(f) => lane.fence = f,
                Round::Traffic => traffic = true,
            }
        }
        if done {
            break;
        }
        if traffic {
            // Drain + integrate on every lane, then the agree barrier —
            // again arrive-all before complete-any.
            for lane in &mut lanes {
                lane.port.drain_incoming(|msg| match msg {
                    CrossMsg::Net(rec) => net_batch.push(rec),
                    CrossMsg::Reduce(rec) => lane.ctx.integrate(rec),
                });
                lane.machine.network().apply_cross(&mut net_batch);
                // Integration may have scheduled events earlier than what
                // run_before reported, so re-peek before agreeing.
                let next = lane.machine.sim().next_event_time();
                lane.port.arrive_agree(next);
            }
            for lane in &mut lanes {
                match lane.port.complete_agree() {
                    Fence::Done => done = true,
                    f => lane.fence = f,
                }
            }
            if done {
                break;
            }
        }
    }

    // Shard-local clocks stop at their own last event; fold trailing idle
    // windows at the agreed global end so `idle_time` is the same total
    // (end − active) the single-shard engine reports.
    for lane in &mut lanes {
        lane.port.arrive_finish(lane.machine.sim().now());
    }
    lanes
        .into_iter()
        .map(|mut lane| {
            let end = lane.port.complete_finish();
            let engine = lane.port.counters();
            ReplicaExit::harvest(&lane.machine, &lane.done, end, engine, lane.finish)
        })
        .collect()
}
