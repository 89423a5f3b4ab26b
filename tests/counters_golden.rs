//! Host-independent counters of eighteen fixed simulator workloads.
//!
//! Each suite runs once under a counting global allocator and is checked
//! against [`GOLDEN`]: answer, events, epochs, deposits and batches must
//! match exactly (all are deterministic for a seed; the epoch engine's
//! counters do not depend on thread timing), heap allocations may grow by
//! at most 20% and the open-loop service's virtual-time p99 by at most 25%
//! (one step of its log-bucketed histogram). Wall time is not checked
//! here: perfbench measures it against the parent commit (BENCHMARK.json).
//!
//! Every config pins shards, backend and delivery batch, so no `OAM_*`
//! variable can move a row. It is one test because the allocation count
//! is process-global. After a deliberate change, re-record with
//! `OAM_PRINT_GOLDEN=1 cargo test -q --test counters_golden -- --nocapture`.

use std::cell::Cell;
use std::rc::Rc;

use optimistic_active_messages::apps::service::{self, ServiceParams};
use optimistic_active_messages::apps::sor::SorParams;
use optimistic_active_messages::apps::tsp::TspParams;
use optimistic_active_messages::apps::water::{WaterParams, WaterVariant};
use optimistic_active_messages::apps::{sor, tsp, water, AppOutcome, System};
use optimistic_active_messages::machine::MachineBuilder;
use optimistic_active_messages::model::{
    Backend, Dur, FaultPlan, MachineConfig, NodeId, ReliabilityConfig, ShardTuning, Time,
};
use optimistic_active_messages::rpc::{define_rpc_service, RpcMode};
use optimistic_active_messages::sim::{alloc_snapshot, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// State of the churn service: one counter per node.
pub struct ChurnState {
    /// Calls served.
    pub counter: Cell<u64>,
}

define_rpc_service! {
    /// The null-RPC churn service: the cheapest possible remote call, so
    /// the measurement is dominated by simulator overhead per message.
    service Churn {
        state ChurnState;

        /// Increment and return the server-side counter.
        rpc bump(ctx, st) -> u64 {
            let _ = ctx;
            let v = st.counter.get() + 1;
            st.counter.set(v);
            v
        }

        /// Consume a bulk payload, returning a checksum folded into the
        /// running counter. Exercises the pooled bulk-transfer path.
        rpc ingest(ctx, st, data: Vec<u8>) -> u64 {
            let _ = ctx;
            let sum: u64 = data.iter().map(|&b| b as u64).sum();
            let v = st.counter.get().wrapping_add(sum).wrapping_add(1);
            st.counter.set(v);
            v
        }
    }
}

/// The checked columns, in [`GOLDEN`] order.
const FIELDS: [&str; 7] = ["answer", "events", "epochs", "deposits", "batches", "allocs", "p99_ns"];

/// Growth allowed over the table per column; 0 means exact equality.
const SLACK: [f64; 7] = [0.0, 0.0, 0.0, 0.0, 0.0, 0.20, 0.25];

/// `(suite, [answer, events, epochs, deposits, batches, allocs, p99_ns])`;
/// `p99_ns` is 0 for suites without a latency scorecard.
const GOLDEN: [(&str, [u64; 7]); 18] = [
    ("null_rpc_churn", [5000, 45012, 0, 0, 0, 18546, 0]),
    ("null_rpc_churn_chaos", [2000, 18335, 0, 0, 0, 14413, 0]),
    ("bulk_payload_churn", [252580500, 4012, 0, 0, 0, 6050, 0]),
    ("tsp_n10", [3187, 5796, 0, 0, 0, 131508, 0]),
    ("tsp_n10_chaos", [3187, 7281, 0, 0, 0, 135767, 0]),
    ("tsp_n10_s2", [3187, 5679, 0, 0, 0, 129025, 0]),
    ("tsp_pipelined", [3187, 4162, 0, 0, 0, 128035, 0]),
    ("sor_256", [6227633859723263798, 834, 0, 0, 0, 2916, 0]),
    ("water_64", [10781891484, 174, 0, 0, 0, 915, 0]),
    ("sor_64node", [6857011907648290816, 1463, 0, 0, 0, 7127, 0]),
    ("sor_64node_shards4", [6857011907648290816, 1724, 32, 588, 60, 13840, 0]),
    ("sor_256node", [3398247393827749888, 7915, 0, 0, 0, 26600, 0]),
    ("sor_256node_shards2", [3398247393827749888, 8432, 34, 772, 16, 35413, 0]),
    ("sor_256node_shards4", [3398247393827749888, 8438, 34, 2316, 66, 50784, 0]),
    ("service_openloop_1x", [1086626730020, 8424, 2, 0, 0, 9347, 5242879]),
    ("service_openloop_2x", [755914246722, 10171, 2, 0, 0, 11606, 5242879]),
    ("service_openloop_2x_noadm", [708669604731, 5748, 2, 0, 0, 7139, 4194303]),
    ("service_stream_scan", [1073741828373, 8978, 2, 0, 0, 10868, 5242879]),
];

/// A suite's app outcome and, for the open-loop service, its p99 in ns.
type Out = (AppOutcome, u64);

/// `cfg` with shards, backend and delivery batch set explicitly.
fn pin(cfg: MachineConfig, shards: usize) -> MachineConfig {
    let tuning =
        ShardTuning { batch: Some(MachineConfig::DEFAULT_BATCH), ..ShardTuning::default() };
    cfg.with_shards(shards).with_backend(Backend::Sim).with_tuning(tuning)
}

fn cm5(nodes: usize, shards: usize) -> MachineConfig {
    pin(MachineConfig::cm5(nodes), shards)
}

fn chaos_cfg(nodes: usize, p: f64) -> MachineConfig {
    let plan = FaultPlan::drop_only(p).with_dup(p).with_delay(p, Dur::from_micros(20));
    pin(
        MachineConfig::cm5(nodes)
            .with_fault_plan(plan)
            .with_reliability(ReliabilityConfig::retransmitting()),
        1,
    )
}

fn plain(app: AppOutcome) -> Out {
    (app, 0)
}

/// The open-loop service at quick size on the single-shard simulator.
fn svc(p: ServiceParams) -> Out {
    let o =
        service::run(ServiceParams { arrivals: 96, shards: 1, backend: Some(Backend::Sim), ..p });
    (o.app, o.p99.as_nanos())
}

/// `rounds` back-to-back null RPCs from node 0 to node 1.
fn churn(rounds: u32, cfg: MachineConfig) -> AppOutcome {
    let machine = MachineBuilder::from_config(cfg).build();
    let states: Vec<Rc<ChurnState>> =
        (0..2).map(|_| Rc::new(ChurnState { counter: Cell::new(0) })).collect();
    for (i, st) in states.iter().enumerate() {
        Churn::register_all(machine.rpc(), NodeId(i), Rc::clone(st), RpcMode::Orpc);
    }
    let answer = Rc::new(Cell::new(0u64));
    let a = Rc::clone(&answer);
    let report = machine.run(move |env| {
        let a = Rc::clone(&a);
        async move {
            if env.id().index() == 0 {
                let mut last = 0;
                for _ in 0..rounds {
                    last = Churn::bump::call(env.rpc(), env.node(), NodeId(1))
                        .await
                        .expect("reply decode");
                }
                a.set(last);
            }
            env.barrier().await;
        }
    });
    AppOutcome {
        elapsed: report.end_time.since(Time::ZERO),
        answer: answer.get(),
        stats: report.stats,
        events: report.events,
        peak_queue_depth: report.peak_queue_depth,
    }
}

/// `rounds` back-to-back 4 KiB-payload RPCs from node 0 to node 1: a bulk
/// transfer storm, so the measurement is dominated by payload marshaling
/// and buffer management rather than per-message dispatch.
fn bulk_churn(rounds: u32, cfg: MachineConfig) -> AppOutcome {
    let machine = MachineBuilder::from_config(cfg).build();
    let states: Vec<Rc<ChurnState>> =
        (0..2).map(|_| Rc::new(ChurnState { counter: Cell::new(0) })).collect();
    for (i, st) in states.iter().enumerate() {
        Churn::register_all(machine.rpc(), NodeId(i), Rc::clone(st), RpcMode::Orpc);
    }
    let answer = Rc::new(Cell::new(0u64));
    let a = Rc::clone(&answer);
    let report = machine.run(move |env| {
        let a = Rc::clone(&a);
        async move {
            if env.id().index() == 0 {
                let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
                let mut last = 0;
                for _ in 0..rounds {
                    last = Churn::ingest::call(env.rpc(), env.node(), NodeId(1), data.clone())
                        .await
                        .expect("reply decode");
                }
                a.set(last);
            }
            env.barrier().await;
        }
    });
    AppOutcome {
        elapsed: report.end_time.since(Time::ZERO),
        answer: answer.get(),
        stats: report.stats,
        events: report.events,
        peak_queue_depth: report.peak_queue_depth,
    }
}

/// Run one suite and read its row, counting the heap allocations it makes.
fn measure(name: &'static str, body: impl FnOnce() -> Out) -> (&'static str, [u64; 7]) {
    let before = alloc_snapshot();
    let (app, p99_ns) = body();
    let allocs = alloc_snapshot().since(before).allocs;
    let e = app.stats.engine;
    (name, [app.answer, app.events, e.epochs, e.deposits, e.batches, allocs, p99_ns])
}

#[test]
fn host_independent_counters_match_the_recorded_table() {
    // Unmeasured warm-up, so the first suite is not charged for one-time
    // lazy initialisation.
    let _ = churn(200, cm5(2, 1));

    let tsp_params = TspParams { ncities: 10, prefix_len: 4, ..Default::default() };
    // One grid at several shard counts: identical virtual work, only the
    // host-side execution strategy differs.
    let sor_64node = |shards| {
        sor::run_configured(
            System::Orpc,
            cm5(64, shards),
            SorParams { rows: 256, cols: 128, iters: 2 },
        )
    };
    let sor_256node = |shards| {
        sor::run_configured(
            System::Orpc,
            cm5(256, shards),
            SorParams { rows: 512, cols: 64, iters: 2 },
        )
    };
    let water = WaterVariant { system: System::Orpc, barrier: true };
    let got = [
        measure("null_rpc_churn", || plain(churn(5_000, cm5(2, 1)))),
        measure("null_rpc_churn_chaos", || plain(churn(2_000, chaos_cfg(2, 0.01)))),
        measure("bulk_payload_churn", || plain(bulk_churn(500, cm5(2, 1)))),
        measure("tsp_n10", || plain(tsp::run_configured(System::Orpc, cm5(5, 1), tsp_params))),
        measure("tsp_n10_chaos", || {
            plain(tsp::run_configured(System::Orpc, chaos_cfg(5, 0.05), tsp_params))
        }),
        // The pipelining pair, at 2 slaves so the run is slave-bound; only
        // the slaves' call schedule differs.
        measure("tsp_n10_s2", || plain(tsp::run_configured(System::Orpc, cm5(3, 1), tsp_params))),
        measure("tsp_pipelined", || plain(tsp::run_pipelined(System::Orpc, cm5(3, 1), tsp_params))),
        measure("sor_256", || {
            let p = SorParams { rows: 256, cols: 256, iters: 3 };
            plain(sor::run_configured(System::Orpc, cm5(4, 1), p))
        }),
        measure("water_64", || {
            let p = WaterParams { molecules: 64, iters: 2 };
            plain(water::run_configured(water, cm5(4, 1), p).outcome)
        }),
        measure("sor_64node", || plain(sor_64node(1))),
        measure("sor_64node_shards4", || plain(sor_64node(4))),
        measure("sor_256node", || plain(sor_256node(1))),
        measure("sor_256node_shards2", || plain(sor_256node(2))),
        measure("sor_256node_shards4", || plain(sor_256node(4))),
        // The open-loop overload experiment (DESIGN.md §13) at the knee,
        // past it, past it without admission control, and with heavy
        // requests streamed as chunked sessions.
        measure("service_openloop_1x", || svc(ServiceParams::default())),
        measure("service_openloop_2x", || {
            svc(ServiceParams { load_x100: 200, ..Default::default() })
        }),
        measure("service_openloop_2x_noadm", || {
            svc(ServiceParams { load_x100: 200, admission: false, ..Default::default() })
        }),
        measure("service_stream_scan", || {
            svc(ServiceParams { streaming: true, ..Default::default() })
        }),
    ];

    if std::env::var("OAM_PRINT_GOLDEN").is_ok() {
        for (name, row) in &got {
            println!("    (\"{name}\", {row:?}),");
        }
    }
    let mut failures = Vec::new();
    for ((name, row), (want_name, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(*name, want_name, "suite order differs from the golden table");
        for (i, field) in FIELDS.iter().enumerate() {
            let (g, w) = (row[i], want[i]);
            let bad = if SLACK[i] == 0.0 { g != w } else { g as f64 > w as f64 * (1.0 + SLACK[i]) };
            if bad {
                let bound = if SLACK[i] == 0.0 {
                    "exact".into()
                } else {
                    format!("+{}%", SLACK[i] * 100.0)
                };
                failures.push(format!("{name}: {field} {g}, golden {w} ({bound})"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "counters drifted from the golden table:\n  {}",
        failures.join("\n  ")
    );
}
