//! Settings of the `yat-server` binary — the one place in the workspace
//! that reads the six `YAT_*` policy variables.
//!
//! Library constructors (`Mediator::new`, `Store::new`,
//! `WaisSource::new`, `Scenario::at_scale`) use their documented
//! defaults whatever the environment says; a binary reads its
//! [`Settings`] once at startup and applies them through the ordinary
//! setters. An unset variable means the default; an invalid value also
//! falls back to the default, but loudly — one [`yat_obs::warn`] naming
//! the variable, the rejected value and the accepted syntax.

use crate::workload::{FedScenario, Scenario};
use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;
use yat_capability::{IndexPolicy, StorePolicy};
use yat_mediator::{CachePolicy, ExecMode, Mediator, PartialFailure, SchedPolicy};
use yat_store::{StoreError, StoreOptions};

/// A policy variable: its name, and the accepted syntax as quoted by the
/// invalid-value warning.
pub type Var = (&'static str, &'static str);

const EXEC_MODE: Var = (
    "YAT_EXEC_MODE",
    "`sequential`/`seq`, `parallel`/`par`, or `parallel:<lanes>`",
);
const CACHE: Var = (
    "YAT_CACHE",
    "`off`, `bounded`, or `bounded:<bytes>[:<ttl>[:noneg]]` (`<bytes>` takes k/m/g suffixes)",
);
const PARTIAL: Var = ("YAT_PARTIAL", "`strict` or `degrade`");
const SCHED: Var = ("YAT_SCHED", "`cost` or `static`/`round-robin`");
const INDEX: Var = ("YAT_INDEX", "`on` or `off`");
const STORE: Var = ("YAT_STORE", "`off` or `dir:<path>[:<budget-bytes>]`");

/// The value of `var` parsed as a `T`: `T::default()` when `value` is
/// `None` (unset), and also — after one warning — when it does not parse.
pub fn parse_or_default<T>((var, syntax): Var, value: Option<&str>) -> T
where
    T: FromStr + Default + Display,
{
    let Some(value) = value else {
        return T::default();
    };
    value.parse().unwrap_or_else(|_| {
        let fallback = T::default();
        yat_obs::warn(format!(
            "{var}=`{value}` is not valid; accepted values are {syntax} — \
             falling back to {fallback}"
        ));
        fallback
    })
}

/// The names of the six policy variables, in [`Settings`] field order.
pub const VARIABLES: [&str; 6] = [EXEC_MODE.0, CACHE.0, PARTIAL.0, SCHED.0, INDEX.0, STORE.0];

/// The workspace's one read of a policy variable.
fn read(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Every policy a served mediator runs under.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Settings {
    /// `YAT_EXEC_MODE`.
    pub exec_mode: ExecMode,
    /// `YAT_CACHE`.
    pub cache: CachePolicy,
    /// `YAT_PARTIAL`.
    pub partial: PartialFailure,
    /// `YAT_SCHED`.
    pub sched: SchedPolicy,
    /// `YAT_INDEX`.
    pub index: IndexPolicy,
    /// `YAT_STORE`.
    pub store: StorePolicy,
}

impl Settings {
    /// Reads the six variables from the process environment.
    pub fn from_env() -> Self {
        Settings::from_lookup(read)
    }

    /// Reads the six variables through `lookup`, which maps a variable's
    /// name to its value (`None` when unset) — so a test can build the
    /// settings it hands a child process without touching its own
    /// environment.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        fn get<T>(var: Var, lookup: &impl Fn(&str) -> Option<String>) -> T
        where
            T: FromStr + Default + Display,
        {
            parse_or_default(var, lookup(var.0).as_deref())
        }
        Settings {
            exec_mode: get(EXEC_MODE, &lookup),
            cache: get(CACHE, &lookup),
            partial: get(PARTIAL, &lookup),
            sched: get(SCHED, &lookup),
            index: get(INDEX, &lookup),
            store: get(STORE, &lookup),
        }
    }

    /// Sets the five mediator-side policies on `mediator`. (The store
    /// policy decides how sources are *built* — see
    /// [`Settings::scenario`].)
    pub fn apply(&self, mediator: &mut Mediator) {
        mediator.set_exec_mode(self.exec_mode);
        mediator.set_cache_policy(self.cache);
        mediator.set_partial_failure(self.partial);
        mediator.set_sched_policy(self.sched);
        mediator.set_index_policy(self.index);
    }

    /// The two-source scenario at `scale` under these settings: the
    /// index policy pinned on both sources, the sources mounted from a
    /// per-process subdirectory of the store directory when one is set,
    /// and the mediator policies applied.
    pub fn scenario(&self, scale: usize) -> Result<Mediator, StoreError> {
        let scenario = Scenario {
            index: self.index,
            ..Scenario::at_scale(scale)
        };
        let mut mediator = match &self.store {
            StorePolicy::Off => scenario.mediator(),
            StorePolicy::Dir { path, budget } => {
                // per process, so a served binary and an in-process
                // reference can share one root
                let root = Path::new(path).join(format!("scenario-{}", std::process::id()));
                let opts = budget.map_or_else(StoreOptions::default, StoreOptions::with_budget);
                scenario.mediator_store(&root, opts)?
            }
        };
        self.apply(&mut mediator);
        Ok(mediator)
    }

    /// The `members`-member federation at `scale` under these settings
    /// (in-memory sources; the store policy does not apply).
    pub fn federation(&self, members: usize, scale: usize) -> (Mediator, Vec<String>) {
        let scenario = FedScenario {
            index: self.index,
            ..FedScenario::new(members, scale)
        };
        let mut mediator = scenario.mediator();
        self.apply(&mut mediator);
        (mediator, scenario.member_names())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;
    use std::sync::{Arc, Mutex};

    /// `value` must read as `expected` — `Err` meaning "falls back to the
    /// default".
    fn check<T>(var: Var, value: &str, expected: Result<T, ()>)
    where
        T: FromStr + Default + Display + PartialEq + Debug,
    {
        assert_eq!(
            parse_or_default::<T>(var, Some(value)),
            expected.unwrap_or_default(),
            "{}=`{value}`",
            var.0
        );
    }

    /// Everything the per-enum `*_parses_the_env_syntax` /
    /// `invalid_*_env_values_warn_and_fall_back` tests checked, in one
    /// table. One test, because the warning sink is process-global.
    #[test]
    fn every_variable_parses_its_syntax_and_invalid_values_warn_and_fall_back() {
        let seen = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = seen.clone();
        yat_obs::set_warn_sink(Some(Box::new(move |m| {
            sink.lock().unwrap().push(m.to_string());
        })));
        let warnings = || std::mem::take(&mut *seen.lock().unwrap());

        // unset: the documented default, silently
        let unset = Settings {
            exec_mode: parse_or_default(EXEC_MODE, None),
            cache: parse_or_default(CACHE, None),
            partial: parse_or_default(PARTIAL, None),
            sched: parse_or_default(SCHED, None),
            index: parse_or_default(INDEX, None),
            store: parse_or_default(STORE, None),
        };
        assert_eq!(unset, Settings::default());
        assert_eq!(unset.exec_mode, ExecMode::Sequential);
        assert_eq!(unset.cache, CachePolicy::Off);
        assert_eq!(unset.partial, PartialFailure::Strict);
        assert_eq!(unset.sched, SchedPolicy::Cost);
        assert_eq!(unset.index, IndexPolicy::On);
        assert_eq!(unset.store, StorePolicy::Off);

        // valid values, aliases, case and whitespace
        let lanes = |n| ExecMode::Parallel { max_in_flight: n };
        check(EXEC_MODE, "sequential", Ok(ExecMode::Sequential));
        check(EXEC_MODE, " SEQ ", Ok(ExecMode::Sequential));
        check(EXEC_MODE, "parallel", Ok(ExecMode::parallel()));
        check(EXEC_MODE, "par", Ok(ExecMode::parallel()));
        check(EXEC_MODE, "parallel:3", Ok(lanes(3)));

        let bounded = |max_bytes, ttl_epochs, negative| CachePolicy::Bounded {
            max_bytes,
            ttl_epochs,
            negative,
        };
        check(CACHE, "off", Ok(CachePolicy::Off));
        check(CACHE, " NONE ", Ok(CachePolicy::Off));
        check(CACHE, "0", Ok(CachePolicy::Off));
        check(CACHE, "bounded", Ok(CachePolicy::bounded()));
        check(CACHE, "on", Ok(CachePolicy::bounded()));
        check(CACHE, "bounded:4m", Ok(bounded(4 << 20, 1, true)));
        check(
            CACHE,
            "bounded:512k:2:noneg",
            Ok(bounded(512 << 10, 2, false)),
        );
        check(CACHE, "bounded:1g:5", Ok(bounded(1 << 30, 5, true)));
        check(CACHE, "bounded:9999", Ok(bounded(9999, 1, true)));

        check(PARTIAL, "strict", Ok(PartialFailure::Strict));
        check(PARTIAL, " Degrade ", Ok(PartialFailure::Degrade));
        check(PARTIAL, "degraded", Ok(PartialFailure::Degrade));

        check(SCHED, "cost", Ok(SchedPolicy::Cost));
        check(SCHED, " Static ", Ok(SchedPolicy::Static));
        check(SCHED, "round-robin", Ok(SchedPolicy::Static));

        check(INDEX, "on", Ok(IndexPolicy::On));
        check(INDEX, "indexed", Ok(IndexPolicy::On));
        check(INDEX, "OFF", Ok(IndexPolicy::Off));
        check(INDEX, " scan ", Ok(IndexPolicy::Off));

        let dir = |path: &str, budget| StorePolicy::Dir {
            path: path.into(),
            budget,
        };
        check(STORE, "off", Ok(StorePolicy::Off));
        check(STORE, " MEM ", Ok(StorePolicy::Off));
        check(STORE, "dir:/tmp/stores", Ok(dir("/tmp/stores", None)));
        check(
            STORE,
            "dir:/tmp/stores:1048576",
            Ok(dir("/tmp/stores", Some(1_048_576))),
        );
        // a colon in the path with no numeric suffix is part of the path
        check(STORE, "dir:/tmp/a:b", Ok(dir("/tmp/a:b", None)));
        check(STORE, "dir:/tmp/a:b:64", Ok(dir("/tmp/a:b", Some(64))));
        assert_eq!(warnings(), Vec::<String>::new(), "valid values are silent");

        // invalid → exactly one warning naming the variable, the value
        // and the accepted syntax → the default
        fn invalid<T>(var: Var, value: &str, seen: &Mutex<Vec<String>>)
        where
            T: FromStr + Default + Display + PartialEq + Debug,
        {
            check::<T>(var, value, Err(()));
            let got = std::mem::take(&mut *seen.lock().unwrap());
            assert_eq!(got.len(), 1, "{}=`{value}`: {got:?}", var.0);
            assert!(
                got[0].contains(var.0)
                    && got[0].contains(&format!("`{value}`"))
                    && got[0].contains(var.1)
                    && got[0].ends_with(&format!("falling back to {}", T::default())),
                "{got:?}"
            );
        }
        invalid::<ExecMode>(EXEC_MODE, "parallel:0", &seen); // zero lanes
        invalid::<ExecMode>(EXEC_MODE, "warp-speed", &seen);
        invalid::<CachePolicy>(CACHE, "bounded:0", &seen); // zero budget
        invalid::<CachePolicy>(CACHE, "bounded:4m:0", &seen); // zero ttl
        invalid::<CachePolicy>(CACHE, "bounded:4m:1:bogus", &seen);
        invalid::<CachePolicy>(CACHE, "unbounded", &seen);
        invalid::<PartialFailure>(PARTIAL, "???", &seen);
        invalid::<PartialFailure>(PARTIAL, "lenient", &seen);
        invalid::<SchedPolicy>(SCHED, "lifo", &seen);
        invalid::<IndexPolicy>(INDEX, "maybe", &seen);
        invalid::<IndexPolicy>(INDEX, "banana", &seen);
        invalid::<StorePolicy>(STORE, "dir:", &seen);
        invalid::<StorePolicy>(STORE, "disk", &seen);
        invalid::<StorePolicy>(STORE, "banana", &seen);
        yat_obs::set_warn_sink(None);

        // the syntax fragments the per-enum warnings used to spell out
        assert!(EXEC_MODE.1.contains("parallel:<lanes>"));
        assert!(CACHE.1.contains("bounded:<bytes>"));

        // Display and the mode/policy predicates
        assert_eq!(ExecMode::parallel().to_string(), "parallel(8)");
        assert_eq!(ExecMode::Sequential.to_string(), "sequential");
        assert!(ExecMode::parallel().is_parallel() && !ExecMode::Sequential.is_parallel());
        assert_eq!(
            CachePolicy::bounded().to_string(),
            "bounded(67108864B, ttl 1)"
        );
        assert_eq!(CachePolicy::Off.to_string(), "off");
        assert!(bounded(1 << 10, 1, false)
            .to_string()
            .ends_with("no-negative"));
    }

    #[test]
    fn settings_apply_to_a_mediator_and_pin_the_scenario_sources() {
        let settings = Settings {
            exec_mode: ExecMode::Parallel { max_in_flight: 3 },
            cache: CachePolicy::bounded(),
            partial: PartialFailure::Degrade,
            sched: SchedPolicy::Static,
            index: IndexPolicy::Off,
            store: StorePolicy::Off,
        };
        for m in [
            settings.scenario(6).expect("in-memory scenario builds"),
            settings.federation(4, 6).0,
        ] {
            assert_eq!(m.exec_mode(), settings.exec_mode);
            assert_eq!(m.cache_policy(), settings.cache);
            assert_eq!(m.partial_failure(), settings.partial);
            assert_eq!(m.sched_policy(), settings.sched);
            assert_eq!(m.index_policy(), settings.index);
        }
    }

    #[test]
    fn a_store_setting_mounts_sources_that_answer_like_the_in_memory_ones() {
        use yat_mediator::OptimizerOptions;
        let root = std::env::temp_dir().join(format!("yat-settings-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let stored = Settings {
            store: StorePolicy::Dir {
                path: root.to_string_lossy().into_owned(),
                budget: Some(1 << 20),
            },
            ..Settings::default()
        };
        let disk = stored.scenario(12).expect("store mounts");
        let mem = Settings::default().scenario(12).expect("in-memory builds");
        for query in [yat_yatl::paper::Q1, yat_yatl::paper::Q2] {
            let answer =
                |m: &Mediator| format!("{:?}", m.query(query, OptimizerOptions::default()));
            assert_eq!(answer(&disk), answer(&mem), "{query}");
        }
        let plan = disk.plan_query(yat_yatl::paper::Q2).unwrap();
        assert!(
            !disk.explain(&plan).unwrap().storage.is_empty(),
            "the sources really are store-backed"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
