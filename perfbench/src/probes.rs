//! Micro probes: short loops over one layer's public entry points, each
//! timed from outside in a few batches (one span per batch) and reported
//! as the median host nanoseconds per operation. They run in the traced
//! pass only, and are the same on every workload.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oam_am::{AmToken, HandlerEntry};
use oam_machine::{run_partitioned, MachineBuilder, ShardApp};
use oam_model::{Backend, Dur, MachineConfig, NodeId, NodeStats, ShardTuning};
use oam_net::{spsc, BatchTx, NetConfig, Network, Packet, WakeGate};
use oam_rpc::RpcMode;
use oam_sim::Sim;

use crate::mix::{self, Mix};
use crate::{median, trace};

/// Timed batches per probe.
const BATCHES: usize = 5;

/// Time `batch` [`BATCHES`] times, each inside a span named `name`, and
/// return the median nanoseconds per operation (`ops` per batch).
fn per_op(name: &'static str, ops: u64, mut batch: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let _g = trace::span(name);
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&v)
}

/// A small simulator machine with the benchmark's pinned settings.
fn sim_cfg(nodes: usize, shards: usize) -> MachineConfig {
    MachineConfig::cm5(nodes).with_shards(shards).with_backend(Backend::Sim).with_tuning(
        ShardTuning { batch: Some(MachineConfig::DEFAULT_BATCH), ..ShardTuning::default() },
    )
}

/// Schedule the next link of an event chain, 1 µs ahead, until `left`
/// runs out.
fn chain_link(sim: &Sim, keyed: bool, left: Rc<Cell<u64>>) {
    if left.get() == 0 {
        return;
    }
    left.set(left.get() - 1);
    let next = move |s: &Sim| chain_link(s, keyed, left);
    if keyed {
        sim.schedule_after_for(Dur::from_micros(1), 0, next);
    } else {
        sim.schedule_after(Dur::from_micros(1), next);
    }
}

/// Run `n` no-op events as 64 interleaved chains (each event schedules
/// its successor, so the queue holds 64 events throughout).
fn event_chains(sim: &Sim, keyed: bool, n: u64) {
    let left = Rc::new(Cell::new(n));
    for _ in 0..64 {
        chain_link(sim, keyed, Rc::clone(&left));
    }
    sim.run();
}

/// `sim.ns_per_event`: schedule and run no-op events on the legacy engine.
pub fn sim_event() -> f64 {
    const N: u64 = 500_000;
    per_op("probe.sim_event", N, || event_chains(&Sim::new(1), false, N))
}

/// `sim.keyed_ns_per_event`: the same on the keyed (epoch-engine) queue.
pub fn sim_keyed_event() -> f64 {
    const N: u64 = 500_000;
    per_op("probe.sim_keyed_event", N, || event_chains(&Sim::new_keyed(1, 1), true, N))
}

/// `net.inject_poll_ns`: inject one short packet, run the fabric until
/// it lands, poll it out.
pub fn inject_poll() -> f64 {
    const N: u64 = 50_000;
    per_op("probe.inject_poll", N, || {
        let sim = Sim::new(1);
        let stats = (0..2).map(|_| Rc::new(RefCell::new(NodeStats::new()))).collect();
        let net = Network::new(&sim, NetConfig::from_machine(&MachineConfig::cm5(2)), stats);
        for i in 0..N {
            net.try_inject(Packet::short(NodeId(0), NodeId(1), 7, &i.to_le_bytes()[..]))
                .expect("empty output FIFO");
            sim.run();
            assert!(net.poll(NodeId(1)).is_some(), "packet delivered");
        }
    })
}

/// `net.ring_ns`: one push plus one pop on an SPSC ring, one thread.
pub fn ring() -> f64 {
    const N: u64 = 1 << 20;
    per_op("probe.ring", N, || {
        let (mut tx, mut rx) = spsc::<u64>(1024);
        for round in 0..N / 512 {
            for i in 0..512 {
                tx.push(round ^ i).expect("ring has room");
            }
            while rx.pop().is_some() {}
        }
    })
}

/// `net.batch_ns`: one `BatchTx::send` (flushing at its high-water mark)
/// plus one `RingRx` pop.
pub fn batch() -> f64 {
    const N: u64 = 1 << 20;
    let never = || false;
    per_op("probe.batch", N, || {
        let (tx, mut rx) = spsc::<u64>(64);
        let mut btx = BatchTx::new(tx, Arc::new(WakeGate::new()), 32);
        for i in 0..N {
            btx.send(i, &never);
            if i % 32 == 31 {
                while rx.pop().is_some() {}
            }
        }
        btx.flush(&never);
        while rx.pop().is_some() {}
    })
}

/// `net.wake_rtt_us`: two threads ping-pong through a pair of
/// `WakeGate`s, parking between turns. Microseconds per round trip.
pub fn wake_rtt() -> f64 {
    const N: u64 = 2_000;
    per_op("probe.wake_rtt", N, || {
        let (ping, pong) = (AtomicU64::new(0), AtomicU64::new(0));
        let (gate_a, gate_b) = (WakeGate::new(), WakeGate::new());
        let patience = Duration::from_millis(50);
        std::thread::scope(|s| {
            s.spawn(|| {
                gate_b.register();
                for i in 1..=N {
                    while ping.load(Ordering::Acquire) < i {
                        gate_b.park_unless(|| ping.load(Ordering::Acquire) >= i, patience);
                    }
                    pong.store(i, Ordering::Release);
                    gate_a.notify();
                }
            });
            gate_a.register();
            for i in 1..=N {
                ping.store(i, Ordering::Release);
                gate_b.notify();
                while pong.load(Ordering::Acquire) < i {
                    gate_a.park_unless(|| pong.load(Ordering::Acquire) >= i, patience);
                }
            }
        });
    }) / 1e3
}

/// `am.send_dispatch_ns`: `Am::send` of short AMs from node 0 to an
/// inline handler on node 1 (send, fabric, poll and dispatch).
pub fn am_send_dispatch() -> f64 {
    const N: u64 = 50_000;
    const ID: oam_am::HandlerId = oam_rpc::handler_id_for("perfbench::probe");
    per_op("probe.am_send_dispatch", N, || {
        let m = MachineBuilder::from_config(sim_cfg(2, 1)).build();
        let hits = Rc::new(Cell::new(0u64));
        let h = Rc::clone(&hits);
        m.am().register(
            NodeId(1),
            ID,
            HandlerEntry::Inline(Rc::new(move |_t: &AmToken| h.set(h.get() + 1))),
        );
        m.run(|env| async move {
            if env.id().index() == 0 {
                for i in 0..N {
                    env.am().send(env.node(), NodeId(1), ID, &i.to_le_bytes()[..]).await;
                }
            }
            env.barrier().await;
        });
        assert_eq!(hits.get(), N, "every AM dispatched");
    })
}

/// `threads.spawn_ns`: `Node::spawn` of an empty thread plus its join.
pub fn spawn() -> f64 {
    const N: u64 = 50_000;
    per_op("probe.spawn", N, || {
        let m = MachineBuilder::from_config(sim_cfg(1, 1)).build();
        m.run(|env| async move {
            for _ in 0..N {
                env.node().spawn(async {}).join().await;
            }
        });
    })
}

/// `threads.yield_ns`: two threads on one node taking turns via
/// `yield_now`. Nanoseconds per yield.
pub fn yield_pingpong() -> f64 {
    const N: u64 = 50_000;
    per_op("probe.yield", 2 * N, || {
        let m = MachineBuilder::from_config(sim_cfg(1, 1)).build();
        m.run(|env| async move {
            let other = env.node().clone();
            let peer = env.node().spawn(async move {
                for _ in 0..N {
                    other.yield_now().await;
                }
            });
            for _ in 0..N {
                env.yield_now().await;
            }
            peer.join().await;
        });
    })
}

/// Run `calls` calls of one `Mix` method from node 0 to node 1 on a fresh
/// two-node machine.
fn mix_calls(calls: u64, slow: bool) {
    let m = MachineBuilder::from_config(sim_cfg(2, 1)).build();
    Mix::register_all(
        m.rpc(),
        NodeId(1),
        mix::state(&m.nodes()[1], mix::Plant::default()),
        RpcMode::Orpc,
    );
    m.run(move |env| async move {
        if env.id().index() == 0 {
            for _ in 0..calls {
                let r = if slow {
                    Mix::slow::call(env.rpc(), env.node(), NodeId(1)).await
                } else {
                    Mix::bump::call(env.rpc(), env.node(), NodeId(1)).await
                };
                r.expect("reply decodes");
            }
        }
        env.barrier().await;
    });
}

/// `rpc.null_call_ns`: a null ORPC round trip between two nodes.
pub fn null_call() -> f64 {
    const N: u64 = 30_000;
    per_op("probe.null_call", N, || mix_calls(N, false))
}

/// `core.abort_call_ns`: an ORPC call whose handler overruns its budget,
/// aborts and is promoted to a thread.
pub fn abort_call() -> f64 {
    const N: u64 = 20_000;
    per_op("probe.abort_call", N, || mix_calls(N, true))
}

/// `rpc.encode_ns` and `rpc.decode_ns`: marshal and unmarshal the
/// `ingest` argument tuple (a 1 KiB payload), the workload's largest.
pub fn encode_decode() -> (f64, f64) {
    const N: u64 = 20_000;
    let args = ((0..mix::INGEST_BYTES).map(|i| i as u8).collect::<Vec<u8>>(),);
    let bytes = oam_rpc::to_bytes(&args);
    let enc = per_op("probe.encode", N, || {
        for _ in 0..N {
            std::hint::black_box(oam_rpc::to_bytes(std::hint::black_box(&args)));
        }
    });
    let dec = per_op("probe.decode", N, || {
        for _ in 0..N {
            let back: (Vec<u8>,) =
                oam_rpc::from_bytes(std::hint::black_box(&bytes)).expect("decodes");
            std::hint::black_box(back);
        }
    });
    (enc, dec)
}

/// `machine.epoch_ns`: a two-node, two-shard `run_partitioned` app whose
/// only traffic is null calls across the shard boundary, so every epoch
/// carries a cross message. Host nanoseconds per epoch.
pub fn epoch() -> f64 {
    const CALLS: u64 = 500;
    let epochs = Cell::new(1u64);
    let ns_per_run = per_op("probe.epoch", 1, || {
        let (report, ()) = run_partitioned(sim_cfg(2, 2), |machine| {
            Mix::register_all(
                machine.rpc(),
                NodeId(1),
                mix::state(&machine.nodes()[1], mix::Plant::default()),
                RpcMode::Orpc,
            );
            ShardApp {
                main: Box::new(|env| {
                    Box::pin(async move {
                        if env.id().index() == 0 {
                            for _ in 0..CALLS {
                                Mix::bump::call(env.rpc(), env.node(), NodeId(1))
                                    .await
                                    .expect("reply decodes");
                            }
                        }
                        env.barrier().await;
                    })
                }),
                finish: Box::new(|_| ()),
            }
        });
        epochs.set(report.stats.engine.epochs.max(1));
    });
    ns_per_run / epochs.get() as f64
}

/// `machine.barrier_ns`: `NodeEnv::barrier` on a two-node, two-shard
/// machine. Host nanoseconds per barrier.
pub fn barrier() -> f64 {
    const N: u64 = 1_000;
    per_op("probe.barrier", N, || {
        run_partitioned(sim_cfg(2, 2), |_machine| ShardApp {
            main: Box::new(|env| {
                Box::pin(async move {
                    for _ in 0..N {
                        trace::timed_future("machine.collective", env.barrier()).await;
                    }
                })
            }),
            finish: Box::new(|_| ()),
        });
    })
}

/// Run every probe, returning per-layer metrics by name.
pub fn all() -> Vec<(&'static str, f64)> {
    let (enc, dec) = encode_decode();
    vec![
        ("sim.ns_per_event", sim_event()),
        ("sim.keyed_ns_per_event", sim_keyed_event()),
        ("net.inject_poll_ns", inject_poll()),
        ("net.ring_ns", ring()),
        ("net.batch_ns", batch()),
        ("net.wake_rtt_us", wake_rtt()),
        ("am.send_dispatch_ns", am_send_dispatch()),
        ("threads.spawn_ns", spawn()),
        ("threads.yield_ns", yield_pingpong()),
        ("core.abort_call_ns", abort_call()),
        ("rpc.encode_ns", enc),
        ("rpc.decode_ns", dec),
        ("rpc.null_call_ns", null_call()),
        ("machine.epoch_ns", epoch()),
        ("machine.barrier_ns", barrier()),
    ]
}
