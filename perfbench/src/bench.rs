//! The benchmark runner: the workload table, the metric tables, the
//! measured loop, the traced pass and the report.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::{host, kv, median, mix, probes, storm, trace, water, Rep};

/// The four workloads, each loading a different layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop call mix on the simulator at one shard.
    RpcMix16,
    /// Water on the epoch engine at two shards.
    Water64Shards2,
    /// The open-loop KV service over a ladder of offered loads.
    KvLadder,
    /// The small-AM storm on the native backend.
    NativeAmStorm,
}

impl Workload {
    /// Calls each `rpc_mix16` client makes.
    pub const MIX_CALLS: usize = 20_000;

    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::RpcMix16, Workload::Water64Shards2, Workload::KvLadder, Workload::NativeAmStorm];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RpcMix16 => "rpc_mix16",
            Workload::Water64Shards2 => "water64_shards2",
            Workload::KvLadder => "kv_ladder",
            Workload::NativeAmStorm => "native_am_storm",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on the simulator, so its virtual metrics
    /// are exact for a given seed (the native backend's are wall-paced).
    pub fn deterministic(self) -> bool {
        self != Workload::NativeAmStorm
    }

    /// One repetition at the benchmark's sizes.
    pub fn rep(self, seed: u64) -> Result<Rep, String> {
        self.rep_with(seed, mix::Plant::default())
    }

    /// One repetition with costs planted in `rpc_mix16`'s `bump` handler
    /// (the sensitivity self-test; other workloads ignore the plant).
    pub fn rep_with(self, seed: u64, plant: mix::Plant) -> Result<Rep, String> {
        match self {
            Workload::RpcMix16 => {
                mix::rep(seed, &mix::Params { calls_per_client: Self::MIX_CALLS, plant })
            }
            Workload::Water64Shards2 => water::rep(seed, &WATER),
            Workload::KvLadder => kv::rep(seed, &kv::Params { arrivals: 10_000 }),
            Workload::NativeAmStorm => storm::rep(seed, &storm::Params { base_rounds: 300_000 }),
        }
    }
}

const WATER: water::Params = water::Params { base_iters: 40 };

/// An end-to-end metric: name, unit, whether higher is better, and the
/// share of the parent's median by which it may worsen before a change
/// counts as a regression.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Higher is better (else lower).
    pub higher: bool,
    /// Regression bound.
    pub bound: f64,
}

/// The end-to-end metrics, printed on every workload.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd { name: "setup_s", unit: "s", higher: false, bound: 0.25 },
    EndToEnd { name: "wall_s", unit: "s", higher: false, bound: 0.25 },
    EndToEnd { name: "cpu_s", unit: "s", higher: false, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", higher: false, bound: 0.2 },
    EndToEnd { name: "virtual_s", unit: "virtual-s", higher: false, bound: 0.1 },
    EndToEnd { name: "p50_virtual_us", unit: "virtual-us", higher: false, bound: 0.25 },
    EndToEnd { name: "p999_virtual_us", unit: "virtual-us", higher: false, bound: 0.1 },
    EndToEnd { name: "goodput_per_vs", unit: "req/virtual-s", higher: true, bound: 0.15 },
    EndToEnd { name: "knee_rps", unit: "req/virtual-s", higher: true, bound: 0.2 },
    EndToEnd { name: "ok_frac", unit: "fraction", higher: true, bound: 0.15 },
];

/// The end-to-end metric named `name`.
pub fn end_to_end(name: &str) -> &'static EndToEnd {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no end-to-end metric {name}"))
}

/// Whether a change moved metric `m` from the parent's median `parent`
/// to `child` by more than the metric's bound, in its worse direction.
pub fn regressed(m: &EndToEnd, parent: f64, child: f64) -> bool {
    if m.higher {
        child < parent * (1.0 - m.bound)
    } else {
        child > parent * (1.0 + m.bound)
    }
}

/// The per-layer metrics (name, unit, higher is better), printed by the
/// traced pass on every workload.
pub const PER_LAYER: [(&str, &str, bool); 62] = [
    ("sim.events", "count", false),
    ("sim.events_per_msg", "1/msg", false),
    ("sim.peak_queue_depth", "count", false),
    ("sim.allocs_per_msg", "1/msg", false),
    ("sim.ns_per_event", "ns", false),
    ("sim.keyed_ns_per_event", "ns", false),
    ("net.msgs", "count", false),
    ("net.bytes_per_msg", "B/msg", false),
    ("net.bulk_frac", "fraction", false),
    ("net.backpressure", "count", false),
    ("net.pool_reuse_frac", "fraction", true),
    ("net.inject_poll_ns", "ns", false),
    ("net.ring_ns", "ns", false),
    ("net.batch_ns", "ns", false),
    ("net.wake_rtt_us", "us", false),
    ("net.deposits", "count", false),
    ("net.batches", "count", false),
    ("net.msgs_per_batch", "msg/batch", true),
    ("net.wakes", "count", false),
    ("am.dispatched", "count", false),
    ("am.empty_poll_frac", "fraction", false),
    ("am.send_dispatch_ns", "ns", false),
    ("threads.created", "count", false),
    ("threads.switches", "count", false),
    ("threads.live_stack_hit_frac", "fraction", true),
    ("threads.spawn_ns", "ns", false),
    ("threads.yield_ns", "ns", false),
    ("threads.compute_frac", "fraction", true),
    ("threads.idle_frac", "fraction", false),
    ("core.attempts", "count", false),
    ("core.inline_frac", "fraction", true),
    ("core.aborts.lock_held", "count", false),
    ("core.aborts.condition_false", "count", false),
    ("core.aborts.network_full", "count", false),
    ("core.aborts.ran_too_long", "count", false),
    ("core.promotions", "count", false),
    ("core.reruns", "count", false),
    ("core.abort_call_ns", "ns", false),
    ("core.shed", "count", false),
    ("core.nacks", "count", false),
    ("core.expired", "count", false),
    ("core.abandoned", "count", false),
    ("core.admission_peak", "count", false),
    ("core.mode_switches", "count", false),
    ("rpc.calls", "count", false),
    ("rpc.retransmits", "count", false),
    ("rpc.encode_ns", "ns", false),
    ("rpc.decode_ns", "ns", false),
    ("rpc.null_call_ns", "ns", false),
    ("rpc.client_poll_ns", "ns", false),
    ("rpc.client_poll_frac", "fraction", false),
    ("machine.epochs", "count", false),
    ("machine.empty_epochs", "count", false),
    ("machine.fence_skips", "count", true),
    ("machine.events_per_epoch", "1/epoch", true),
    ("machine.cpu_per_wall", "ratio", false),
    ("machine.epoch_ns", "ns", false),
    ("machine.barrier_ns", "ns", false),
    ("machine.speedup_vs_1shard", "x", true),
    ("apps.handler_ns", "ns", false),
    ("trace.overhead_frac", "fraction", false),
    ("trace.unattributed_frac", "fraction", false),
];

/// Spans written out in full by a traced run (all are summarised).
pub const SPANS_WRITTEN: usize = 100_000;

/// Repetitions a measured loop makes even when `--seconds` runs out first.
pub const MIN_REPS: usize = 3;

/// What one invocation measured.
pub struct Outcome {
    /// Metrics by name, in table order, with units.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted over every repetition.
    pub attempted: u64,
    /// Repetitions made (untraced, then traced).
    pub reps: usize,
    /// Latency samples behind one repetition's percentiles.
    pub samples: u64,
    /// Per-layer metrics this workload cannot reach from outside, printed
    /// as 0 (traced pass only).
    pub unmeasured: Vec<&'static str>,
    /// Host wall seconds of each repetition, in order.
    pub walls: Vec<f64>,
}

/// Run one unmeasured warm-up repetition, then measured ones until
/// `seconds` have passed (at least `min_reps`), checking that a simulator
/// workload's virtual metrics repeat exactly. The warm-up takes the cold
/// first-run costs (code and allocator warm-up, thread start-up) out of
/// the medians; its checks still apply. Also returns the process's peak
/// resident memory right after the first measured repetition: the
/// footprint of this workload in a fresh process, independent of how many
/// repetitions the host had time for (the allocator keeps memory between
/// repetitions).
fn measured_loop(
    w: Workload,
    seed: u64,
    seconds: f64,
    min_reps: usize,
) -> Result<(Vec<Rep>, f64), String> {
    let warm = w.rep(seed)?;
    let t0 = Instant::now();
    let mut reps: Vec<Rep> = vec![];
    let mut peak_rss = 0.0;
    while reps.len() < min_reps || t0.elapsed().as_secs_f64() < seconds {
        let r = w.rep(seed)?;
        if reps.is_empty() {
            peak_rss = host::peak_rss_mib();
        }
        if w.deterministic() && r.virt != warm.virt {
            return Err(format!(
                "{}: virtual metrics differ between repetitions of one seed: {:?} vs {:?}",
                w.name(),
                warm.virt,
                r.virt
            ));
        }
        reps.push(r);
    }
    Ok((reps, peak_rss))
}

fn med(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<f64>>())
}

/// The virtual metrics of a set of repetitions: the first repetition's on
/// the simulator (they all agree), the per-name median on native.
fn virt_of(w: Workload, reps: &[Rep]) -> Vec<(&'static str, f64)> {
    if w.deterministic() {
        return reps[0].virt.clone();
    }
    reps[0].virt.iter().map(|(n, _)| (*n, med(reps, |r| lookup(&r.virt, n)))).collect()
}

fn lookup(v: &[(&'static str, f64)], name: &str) -> f64 {
    v.iter()
        .find(|(n, _)| *n == name)
        .map(|(_, x)| *x)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

/// Workload-specific checks made once per invocation, after the loop.
/// Returns extra per-layer metrics (Water's 1-shard speedup).
fn final_check(w: Workload, seed: u64, reps: &[Rep]) -> Result<Vec<(&'static str, f64)>, String> {
    match w {
        Workload::Water64Shards2 => {
            let wall_1 = water::check_one_shard(seed, &WATER, &reps[0])?;
            Ok(vec![("machine.speedup_vs_1shard", wall_1 / med(reps, |r| r.wall_s))])
        }
        _ => Ok(Vec::new()),
    }
}

/// The untraced run: every end-to-end metric.
pub fn run_end_to_end(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (reps, peak_rss) = measured_loop(w, seed, seconds, MIN_REPS)?;
    final_check(w, seed, &reps)?;
    let virt = virt_of(w, &reps);
    let mut values: BTreeMap<&str, f64> = virt.into_iter().collect();
    values.insert("setup_s", med(&reps, |r| r.setup_s));
    values.insert("wall_s", med(&reps, |r| r.wall_s));
    values.insert("cpu_s", med(&reps, |r| r.cpu_s));
    values.insert("peak_rss_mb", peak_rss);
    let metrics = END_TO_END.iter().map(|m| (m.name, values[m.name], m.unit)).collect();
    Ok(Outcome {
        metrics,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        reps: reps.len(),
        samples: reps[0].samples,
        unmeasured: Vec::new(),
        walls: reps.iter().map(|r| r.wall_s).collect(),
    })
}

/// The traced run: untraced repetitions for the overhead baseline, then
/// traced repetitions (whose virtual metrics must equal the untraced
/// ones), then the micro probes; every per-layer metric.
pub fn run_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    spans_out: Option<&std::path::Path>,
) -> Result<Outcome, String> {
    let (plain, _) = measured_loop(w, seed, seconds / 2.0, 2)?;
    let extra = final_check(w, seed, &plain)?;
    trace::enable(true);
    let traced = measured_loop(w, seed, seconds / 2.0, 1);
    trace::enable(false);
    let (traced, _) = traced?;
    if w.deterministic() && traced[0].virt != plain[0].virt {
        return Err(format!(
            "{}: virtual metrics differ between the traced and untraced runs: {:?} vs {:?}",
            w.name(),
            traced[0].virt,
            plain[0].virt
        ));
    }
    let mut spans = trace::take();
    trace::enable(true);
    let probes = probes::all();
    trace::enable(false);

    // Span metrics come from the workload's own spans only (the probes
    // call the same handlers). A span name the workload never recorded
    // leaves its metric unmeasured rather than 0.
    let t = trace::totals(&spans);
    let run = t.get("run").copied().unwrap_or_default();
    let frac = |ns: u64| ns as f64 / run.total_ns.max(1) as f64;
    let plain_wall = med(&plain, |r| r.wall_s);
    let mut values: BTreeMap<&str, f64> =
        plain.last().expect("reps").layer.iter().copied().collect();
    values.extend(probes);
    values.extend(extra);
    values.insert("machine.cpu_per_wall", med(&plain, |r| r.cpu_s) / plain_wall);
    if let Some(h) = t.get("apps.handler") {
        values.insert("apps.handler_ns", h.self_ns as f64 / h.count as f64);
    }
    if let Some(p) = t.get("rpc.client_poll") {
        values.insert("rpc.client_poll_ns", p.self_ns as f64 / p.count as f64);
        values.insert("rpc.client_poll_frac", frac(p.self_ns));
    }
    values.insert("trace.overhead_frac", med(&traced, |r| r.wall_s) / plain_wall - 1.0);
    values.insert("trace.unattributed_frac", frac(run.self_ns));
    if let Some(path) = spans_out {
        spans.extend(trace::take());
        trace::write_tsv(path, &spans, SPANS_WRITTEN)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let mut unmeasured = Vec::new();
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let v = values.get(name).copied().unwrap_or_else(|| {
                unmeasured.push(name);
                0.0
            });
            (name, v, unit)
        })
        .collect();
    Ok(Outcome {
        metrics,
        attempted: plain.iter().chain(&traced).map(|r| r.attempted).sum(),
        reps: plain.len() + traced.len(),
        samples: plain[0].samples,
        unmeasured,
        walls: plain.iter().chain(&traced).map(|r| r.wall_s).collect(),
    })
}

/// The report's last line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. A failed check never reaches this point, so
/// `failed` is 0 whenever a result is printed.
pub fn json_line(o: &Outcome) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{",
        o.attempted
    );
    for (i, (name, v, unit)) in o.metrics.iter().enumerate() {
        assert!(v.is_finite(), "metric {name} is {v}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}
