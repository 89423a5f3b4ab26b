//! Sensitivity self-test: costs planted in `rpc_mix16`'s benchmark-owned
//! `bump` handler must show up where they belong and nowhere else.
//!
//! Base and planted repetitions run in interleaved pairs and are compared
//! pair by pair, so the host's slow speed drift cancels.
//!
//! * a fixed host busy-wait per `bump` raises `wall_s` by about the
//!   planted total and `apps.handler_ns` by about the planted time per
//!   handler, and leaves every virtual metric bit-identical;
//! * a fixed extra `ctx.charge` per `bump` raises `virtual_s` and
//!   `p50_virtual_us` by the expected amounts, with host time inside its
//!   bound;
//! * a host plant sized at the `wall_s` bound is flagged as a regression.
//!
//! Run in release mode: `cargo test --release --offline --manifest-path
//! perfbench/Cargo.toml --test sensitivity`.

use oam_perfbench::bench::{end_to_end, regressed, Workload};
use oam_perfbench::mix::{self, Kind, Plant};
use oam_perfbench::{median, trace, Rep};

const SEED: u64 = 11;
/// Base/planted pairs per comparison, run interleaved so host drift hits
/// both sides alike.
const PAIRS: usize = 7;

fn pairs(plant: Plant) -> (Vec<Rep>, Vec<Rep>) {
    let mut base = Vec::new();
    let mut planted = Vec::new();
    for _ in 0..PAIRS {
        base.push(Workload::RpcMix16.rep(SEED).expect("base run"));
        planted.push(Workload::RpcMix16.rep_with(SEED, plant).expect("planted run"));
    }
    (base, planted)
}

/// Median over pairs of `f(planted) / f(base)`: pairing cancels the
/// host's slow speed drift, which a difference of medians would keep.
fn paired_ratio(base: &[Rep], planted: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&base.iter().zip(planted).map(|(b, p)| f(p) / f(b)).collect::<Vec<_>>())
}

/// Median over pairs of `f(planted) - f(base)`.
fn paired_rise(base: &[Rep], planted: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&base.iter().zip(planted).map(|(b, p)| f(p) - f(b)).collect::<Vec<_>>())
}

fn virt(r: &Rep, name: &str) -> f64 {
    r.virt.iter().find(|(n, _)| *n == name).expect("virtual metric").1
}

fn bumps() -> u64 {
    let calls = mix::input(
        SEED,
        &mix::Params { calls_per_client: Workload::MIX_CALLS, plant: Plant::default() },
    );
    calls.calls.iter().flatten().filter(|c| c.0 == Kind::Bump).count() as u64
}

/// Mean self time of the `apps.handler` spans of one traced repetition.
fn handler_ns(plant: Plant) -> (f64, u64) {
    trace::enable(true);
    let r = Workload::RpcMix16.rep_with(SEED, plant);
    trace::enable(false);
    r.expect("traced run");
    let spans = trace::take();
    let t = trace::totals(&spans)["apps.handler"];
    (t.self_ns as f64 / t.count as f64, t.count)
}

// The span recorder is process-global, so the tests that trace or time
// run one after another inside this single test.
#[test]
fn planted_costs_show_where_they_belong() {
    host_plant_moves_wall_and_handler_time_only();
    virtual_plant_moves_virtual_metrics_only();
    host_plant_at_the_wall_bound_is_flagged();
}

fn host_plant_moves_wall_and_handler_time_only() {
    const NS: u64 = 2_000;
    let plant = Plant { host_ns_per_bump: NS, ..Plant::default() };
    let (base, planted) = pairs(plant);
    for (b, p) in base.iter().zip(&planted) {
        assert_eq!(b.virt, p.virt, "a host plant changed a virtual metric");
    }
    let expected_s = (bumps() * NS) as f64 * 1e-9;
    let rise_s = paired_rise(&base, &planted, |r| r.wall_s);
    assert!(
        rise_s > 0.6 * expected_s && rise_s < 1.8 * expected_s,
        "wall_s rose {rise_s:.4} s for a planted {expected_s:.4} s"
    );
    let (h0, count) = handler_ns(Plant::default());
    let (h1, _) = handler_ns(plant);
    let expected_ns = (bumps() * NS) as f64 / count as f64;
    assert!(
        h1 - h0 > 0.7 * expected_ns && h1 - h0 < 1.6 * expected_ns,
        "apps.handler_ns rose {:.1} ns for a planted {expected_ns:.1} ns per handler",
        h1 - h0
    );
}

fn virtual_plant_moves_virtual_metrics_only() {
    const NS: u64 = 1_000;
    let plant = Plant { charge_ns_per_bump: NS, ..Plant::default() };
    let (base, planted) = pairs(plant);
    let (b, p) = (&base[0], &planted[0]);
    // An uncontended null call waits for the whole handler, so the median
    // round trip grows by exactly the charge.
    let p50_rise = virt(p, "p50_virtual_us") - virt(b, "p50_virtual_us");
    assert!(
        (p50_rise - NS as f64 / 1e3).abs() < 1e-9,
        "p50 rose {p50_rise} µs for a {NS} ns charge"
    );
    // Each client waits for its own bumps, so completion moves by about
    // one client's share of the planted charge.
    let per_client_s = (bumps() * NS) as f64 * 1e-9 / mix::CLIENTS as f64;
    let vs_rise = virt(p, "virtual_s") - virt(b, "virtual_s");
    assert!(
        vs_rise > 0.5 * per_client_s && vs_rise < 2.0 * per_client_s,
        "virtual_s rose {vs_rise:.5} s; one client's share of the charge is {per_client_s:.5} s"
    );
    for name in ["wall_s", "cpu_s"] {
        let f = |r: &Rep| if name == "wall_s" { r.wall_s } else { r.cpu_s };
        let ratio = paired_ratio(&base, &planted, f);
        assert!(
            !regressed(end_to_end(name), 1.0, ratio),
            "a virtual plant moved {name} {ratio:.3}x"
        );
    }
}

fn host_plant_at_the_wall_bound_is_flagged() {
    let m = end_to_end("wall_s");
    let base: Vec<Rep> =
        (0..PAIRS).map(|_| Workload::RpcMix16.rep(SEED).expect("base run")).collect();
    // The plant adds the bound's share of the slowest base repetition,
    // plus the margin the spread rule keeps between a metric's spread and
    // its bound (a third), so neither noise nor a faster host phase during
    // the sizing can hide it.
    let wall = base.iter().map(|r| r.wall_s).fold(0.0, f64::max);
    let ns = (m.bound * (1.0 + 1.0 / 3.0) * wall * 1e9 / bumps() as f64).round() as u64;
    let (base, planted) = pairs(Plant { host_ns_per_bump: ns, ..Plant::default() });
    let ratio = paired_ratio(&base, &planted, |r| r.wall_s);
    assert!(regressed(m, 1.0, ratio), "a {ns} ns/bump plant moved wall_s only {ratio:.3}x");
}
