//! The resolved run configuration.
//!
//! [`RunPlan::resolve`] turns a [`MachineConfig`] and four environment
//! variables into the concrete choices a run executes with: engine, shard
//! and worker counts, fence policy, delivery batch and watchdog budget. It
//! runs once per run, before any thread starts, and it is the only runtime
//! code that reads the environment. Explicit configuration wins over the
//! environment. Every setting the runtime overrides is kept as a
//! [`Coercion`], and a malformed or retired variable is a [`PlanError`].
//!
//! | variable          | accepted values                           | default               |
//! |-------------------|-------------------------------------------|-----------------------|
//! | `OAM_SHARDS`      | a positive integer                        | `1`                   |
//! | `OAM_BACKEND`     | `sim` or `native`                         | `sim`                 |
//! | `OAM_BATCH`       | a positive integer (`1` = per message)    | `32`                  |
//! | `OAM_WATCHDOG_MS` | a whole number of milliseconds            | the caller's budget   |

use core::fmt;

use oam_model::{Backend, MachineConfig, Time};

/// Variables that are no longer read, each with what replaces it. Setting
/// one is an error, so an old script never runs something else silently.
const RETIRED: [(&str, &str); 5] = [
    (
        "OAM_FENCE",
        "set ShardTuning::naive_fence; `cargo test --test differential` runs both fences",
    ),
    ("OAM_SPIN", "the barrier spin budget follows from the worker count"),
    ("OAM_PIN", "shard workers are no longer pinned to cores"),
    ("OAM_WORKERS", "workers are min(shards, host cores); set OAM_SHARDS instead"),
    ("OAM_SHARD_FORCE_EPOCH", "set ShardTuning::force_epoch (shard_smoke takes --force-epoch)"),
];

const FAULTS: &str = "fault draws follow the single-threaded simulator's pump order";
const ADMISSION: &str = "shed decisions need the epoch engine's keyed event order";
const NODES: &str = "every shard owns at least one node";
const NATIVE: &str = "the native backend runs one thread per node";
const CORES: &str = "at most one worker per host core";

/// Which engine executes a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The single-threaded simulator (global insertion-order ties).
    Legacy,
    /// The sharded conservative-epoch simulator (keyed event order).
    Epoch,
    /// The native host-threads runtime (one OS thread per node).
    Native,
}

/// A requested setting the runtime overrode, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coercion {
    /// The setting: `backend`, `shards`, `engine` or `workers`.
    pub knob: &'static str,
    /// What the configuration or environment asked for.
    pub requested: String,
    /// What the run used instead.
    pub effective: String,
    /// Why the requested value could not be used.
    pub reason: &'static str,
}

/// What a run actually executes with. Output only: carried by
/// [`RunReport`](crate::RunReport) and [`HangReport`](crate::HangReport).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunPlan {
    /// The engine that runs.
    pub engine: Engine,
    /// Node partitions: 1 on the legacy engine, one per node on native.
    pub shards: usize,
    /// Host threads driving the shards: `min(shards, host cores)` on the
    /// epoch engine, one per node on native, else 1.
    pub workers: usize,
    /// The epoch engine's naive reference fence ([`oam_model::ShardTuning`]).
    pub naive_fence: bool,
    /// Epoch-barrier spin budget before parking (0 off the epoch engine).
    pub spin: u32,
    /// Cross-worker delivery batch size; 1 is the per-message path.
    pub batch: u32,
    /// The watchdog budget: `OAM_WATCHDOG_MS`, else the budget of a
    /// watchdogged run; `None` for runs without a watchdog.
    pub watchdog: Option<Time>,
    /// Every requested setting this plan overrides.
    pub coercions: Vec<Coercion>,
}

/// A run setting in the environment that cannot be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// The variable.
    pub var: &'static str,
    /// Its value when malformed; `None` when the variable is retired.
    pub value: Option<String>,
    /// The values it accepts, or what replaces the retired variable.
    pub help: &'static str,
}

impl RunPlan {
    /// Resolve the plan for `cfg` against the process environment.
    pub fn resolve(cfg: &MachineConfig) -> Result<RunPlan, PlanError> {
        Self::resolve_with(cfg, |var| std::env::var(var).ok())
    }

    /// Resolve the plan for `cfg`, reading variables through `lookup`.
    ///
    /// A fault plan forces the legacy single-shard simulator. Otherwise the
    /// native backend runs one thread per node, and the simulator clamps
    /// the shard count to the node count and takes the epoch engine at two
    /// or more shards, under `force_epoch`, or under admission control.
    pub fn resolve_with(
        cfg: &MachineConfig,
        lookup: impl Fn(&str) -> Option<String>,
    ) -> Result<RunPlan, PlanError> {
        if let Some(&(var, help)) = RETIRED.iter().find(|(var, _)| lookup(var).is_some()) {
            return Err(PlanError { var, value: None, help });
        }
        let positive = |v: &str| v.parse::<usize>().ok().filter(|&n| n > 0);
        let shards = read(&lookup, "OAM_SHARDS", "a positive integer", positive)?;
        let backend = read(&lookup, "OAM_BACKEND", "`sim` or `native`", |v| match v {
            "sim" => Some(Backend::Sim),
            "native" => Some(Backend::Native),
            _ => None,
        })?;
        let batch = read(&lookup, "OAM_BATCH", "a positive integer", |v| {
            positive(v).and_then(|n| u32::try_from(n).ok())
        })?;
        let watchdog = read(&lookup, "OAM_WATCHDOG_MS", "a whole number of milliseconds", |v| {
            v.parse::<u64>().ok()
        })?;

        let mut plan = RunPlan {
            batch: cfg.tuning.batch.or(batch).unwrap_or(MachineConfig::DEFAULT_BATCH),
            watchdog: watchdog.map(|ms| Time::from_nanos(ms.saturating_mul(1_000_000))),
            ..Self::direct(cfg)
        };
        let backend = cfg.backend.or(backend).unwrap_or_default();
        let requested = cfg.shards.or(shards);
        let shards = requested.unwrap_or(1);
        let force_epoch = cfg.tuning.force_epoch.unwrap_or(false);
        if cfg.fault_plan.is_some() {
            if backend != Backend::Sim {
                plan.coerce("backend", backend.label(), "sim", FAULTS);
            }
            if shards != 1 {
                plan.coerce("shards", shards, 1, FAULTS);
            }
            if force_epoch {
                plan.coerce("engine", "epoch", "legacy", FAULTS);
            }
            return Ok(plan);
        }
        if backend == Backend::Native {
            plan.engine = Engine::Native;
            (plan.shards, plan.workers) = (cfg.nodes, cfg.nodes);
            if let Some(s) = requested.filter(|&s| s != cfg.nodes) {
                plan.coerce("shards", s, cfg.nodes, NATIVE);
            }
            return Ok(plan);
        }
        plan.shards = shards.clamp(1, cfg.nodes.max(1));
        if plan.shards < shards {
            plan.coerce("shards", shards, plan.shards, NODES);
        }
        if plan.shards == 1 && !force_epoch {
            if cfg.admission.is_none() {
                return Ok(plan);
            }
            plan.coerce("engine", "legacy", "epoch", ADMISSION);
        }
        plan.engine = Engine::Epoch;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        plan.workers = plan.shards.min(cores);
        if plan.workers < plan.shards {
            plan.coerce("workers", plan.shards, plan.workers, CORES);
        }
        plan.spin = oam_sim::default_spin(plan.workers);
        Ok(plan)
    }

    /// The plan of a directly driven [`Machine`](crate::Machine): always the
    /// legacy simulator, since shard and backend settings choose how
    /// [`run_partitioned`](crate::run_partitioned) runs. Reads nothing.
    pub(crate) fn direct(cfg: &MachineConfig) -> RunPlan {
        RunPlan {
            engine: Engine::Legacy,
            shards: 1,
            workers: 1,
            naive_fence: cfg.tuning.naive_fence.unwrap_or(false),
            spin: 0,
            batch: cfg.tuning.batch.unwrap_or(MachineConfig::DEFAULT_BATCH),
            watchdog: None,
            coercions: Vec::new(),
        }
    }

    fn coerce<T: ToString>(&mut self, knob: &'static str, was: T, now: T, why: &'static str) {
        let (requested, effective) = (was.to_string(), now.to_string());
        self.coercions.push(Coercion { knob, requested, effective, reason: why });
    }
}

/// Read and parse one variable: unset is `None`, a value `parse` rejects is
/// an error naming the values the variable accepts.
fn read<T>(
    lookup: &impl Fn(&str) -> Option<String>,
    var: &'static str,
    help: &'static str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, PlanError> {
    let bad = |value| PlanError { var, value: Some(value), help };
    lookup(var).map(|value| parse(value.trim()).ok_or_else(|| bad(value))).transpose()
}

impl fmt::Display for RunPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fence = if self.naive_fence { "naive" } else { "adaptive" };
        write!(
            f,
            "{:?} engine, {} shard(s) on {} worker(s), batch {}, {fence} fence",
            self.engine, self.shards, self.workers, self.batch
        )?;
        for c in &self.coercions {
            write!(f, "; {} {} -> {} ({})", c.knob, c.requested, c.effective, c.reason)?;
        }
        Ok(())
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (var, help) = (self.var, self.help);
        match &self.value {
            Some(value) => write!(f, "{var}={value:?} is not valid: {var} accepts {help}"),
            None => write!(f, "{var} is no longer read: {help}"),
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;
    use oam_model::{AdmissionConfig, FaultPlan, ShardTuning};

    fn env<'a>(vars: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |var| vars.iter().find(|(k, _)| *k == var).map(|(_, v)| v.to_string())
    }

    fn plan(cfg: &MachineConfig, vars: &[(&str, &str)]) -> RunPlan {
        RunPlan::resolve_with(cfg, env(vars)).expect("valid settings")
    }

    #[test]
    fn defaults_run_the_legacy_simulator_with_no_coercions() {
        let p = plan(&MachineConfig::cm5(8), &[]);
        assert_eq!((p.engine, p.shards, p.workers), (Engine::Legacy, 1, 1));
        assert_eq!(p.batch, MachineConfig::DEFAULT_BATCH);
        assert_eq!((p.watchdog, p.naive_fence), (None, false));
        assert!(p.coercions.is_empty());
        assert_eq!(p, RunPlan::direct(&MachineConfig::cm5(8)));
    }

    #[test]
    fn environment_fills_what_the_config_leaves_open() {
        let vars = [("OAM_SHARDS", "2"), ("OAM_BATCH", "1"), ("OAM_WATCHDOG_MS", " 25 ")];
        let p = plan(&MachineConfig::cm5(8), &vars);
        assert_eq!((p.engine, p.shards, p.batch), (Engine::Epoch, 2, 1));
        assert_eq!(p.watchdog, Some(Time::from_nanos(25_000_000)));
        let native = plan(&MachineConfig::cm5(3), &[("OAM_BACKEND", "native")]);
        assert_eq!((native.engine, native.shards, native.workers), (Engine::Native, 3, 3));
        assert_eq!(plan(&MachineConfig::cm5(3), &[("OAM_BACKEND", "sim")]).engine, Engine::Legacy);
    }

    #[test]
    fn explicit_config_wins_over_the_environment() {
        let cfg = MachineConfig::cm5(8)
            .with_shards(1)
            .with_backend(Backend::Sim)
            .with_tuning(ShardTuning { batch: Some(4), ..Default::default() });
        let vars = [("OAM_SHARDS", "4"), ("OAM_BACKEND", "native"), ("OAM_BATCH", "1")];
        let p = plan(&cfg, &vars);
        assert_eq!((p.engine, p.shards, p.batch), (Engine::Legacy, 1, 4));
    }

    #[test]
    fn workers_follow_shards_up_to_the_host_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for shards in [1, 2, 4, 8] {
            let cfg = MachineConfig::cm5(8)
                .with_shards(shards)
                .with_tuning(ShardTuning { force_epoch: Some(true), ..Default::default() });
            let p = plan(&cfg, &[]);
            assert_eq!(p.engine, Engine::Epoch);
            assert_eq!(p.workers, shards.min(cores));
            assert_eq!(p.spin, oam_sim::default_spin(p.workers));
            let clamped = p.coercions.iter().any(|c| c.knob == "workers");
            assert_eq!(clamped, shards > cores, "{shards} shards");
        }
    }

    #[test]
    fn fault_plans_force_the_single_shard_simulator() {
        let cfg = MachineConfig::cm5(8)
            .with_fault_plan(FaultPlan::drop_only(0.1))
            .with_admission(AdmissionConfig::default())
            .with_tuning(ShardTuning { force_epoch: Some(true), ..Default::default() });
        let p = plan(&cfg, &[("OAM_SHARDS", "4"), ("OAM_BACKEND", "native")]);
        assert_eq!((p.engine, p.shards), (Engine::Legacy, 1));
        let knobs: Vec<_> = p.coercions.iter().map(|c| (c.knob, c.reason)).collect();
        assert_eq!(knobs, [("backend", FAULTS), ("shards", FAULTS), ("engine", FAULTS)]);
    }

    #[test]
    fn malformed_values_name_the_variable_and_what_it_accepts() {
        let cfg = MachineConfig::cm5(4);
        for (var, value) in [
            ("OAM_SHARDS", "abc"),
            ("OAM_SHARDS", "0"),
            ("OAM_BATCH", "0"),
            ("OAM_BACKEND", "nativ"),
            ("OAM_WATCHDOG_MS", "not-a-number"),
        ] {
            let err = RunPlan::resolve_with(&cfg, env(&[(var, value)])).expect_err(value);
            assert_eq!((err.var, err.value.as_deref()), (var, Some(value)));
            let text = err.to_string();
            assert!(
                text.contains(var) && text.contains(value) && text.contains("accepts"),
                "{text}"
            );
        }
        // An explicit setting does not excuse a malformed variable.
        let pinned = cfg.with_shards(2);
        assert!(RunPlan::resolve_with(&pinned, env(&[("OAM_SHARDS", "abc")])).is_err());
    }

    #[test]
    fn retired_variables_are_errors_naming_their_replacement() {
        let err = RunPlan::resolve_with(&MachineConfig::cm5(4), env(&[("OAM_FENCE", "naive")]))
            .expect_err("OAM_FENCE is retired");
        assert!(err.to_string().contains("ShardTuning::naive_fence"), "{err}");
        for (var, _) in RETIRED {
            let err = RunPlan::resolve_with(&MachineConfig::cm5(4), env(&[(var, "1")]));
            assert_eq!(err.map_err(|e| (e.var, e.value)), Err((var, None)));
        }
    }
}
