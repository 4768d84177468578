//! Settings of the `yat-server` binary — the one place in the workspace
//! that reads the three `YAT_*` policy variables.
//!
//! Library constructors (`Mediator::new`, `Store::new`,
//! `WaisSource::new`, `Scenario::at_scale`) use their documented
//! defaults whatever the environment says; a binary reads its
//! [`Settings`] once at startup and applies them through the ordinary
//! setters. An unset variable means the default; an invalid value also
//! falls back to the default, but loudly — one [`yat_obs::warn`] naming
//! the variable, the rejected value and the accepted syntax. A variable
//! the binary no longer reads draws one warning too, saying what the
//! binary does in its place.

use crate::workload::{FedScenario, Scenario};
use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;
use yat_capability::StorePolicy;
use yat_mediator::{CachePolicy, ExecMode, Mediator};
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
    "`off`, `bounded`, or `bounded:<bytes>` (`<bytes>` takes k/m/g suffixes)",
);
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

/// The names of the three policy variables, in [`Settings`] field order.
pub const VARIABLES: [&str; 3] = [EXEC_MODE.0, CACHE.0, STORE.0];

/// Variables earlier versions of the binary read, each with what the
/// binary does in its place. Setting one changes nothing, so it is
/// warned about rather than ignored silently.
const RETIRED: [(&str, &str); 4] = [
    (
        "YAT_PARTIAL",
        "a source failure that replica failover cannot absorb fails the query",
    ),
    ("YAT_SCHED", "scatter jobs always run in cost order"),
    ("YAT_INDEX", "sources always consult their indexes"),
    (
        "YAT_STREAM",
        "a client asks for a streamed answer per query, in default-size chunks",
    ),
];

/// The workspace's one read of a policy variable.
fn read(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Every policy a served mediator runs under. Sources always consult
/// their indexes, and the executor always orders scatter jobs by cost;
/// neither is a setting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Settings {
    /// `YAT_EXEC_MODE`.
    pub exec_mode: ExecMode,
    /// `YAT_CACHE`.
    pub cache: CachePolicy,
    /// `YAT_STORE`.
    pub store: StorePolicy,
}

impl Settings {
    /// Reads the three variables from the process environment.
    pub fn from_env() -> Self {
        Settings::from_lookup(read)
    }

    /// Reads the three variables through `lookup`, which maps a
    /// variable's name to its value (`None` when unset) — so a test can
    /// build the settings it hands a child process without touching its
    /// own environment. Each retired variable that is set draws one
    /// warning.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        fn get<T>(var: Var, lookup: &impl Fn(&str) -> Option<String>) -> T
        where
            T: FromStr + Default + Display,
        {
            parse_or_default(var, lookup(var.0).as_deref())
        }
        for (var, now) in RETIRED {
            if let Some(value) = lookup(var) {
                yat_obs::warn(format!(
                    "{var}=`{value}` is no longer read and changes nothing: {now}"
                ));
            }
        }
        Settings {
            exec_mode: get(EXEC_MODE, &lookup),
            cache: get(CACHE, &lookup),
            store: get(STORE, &lookup),
        }
    }

    /// Sets the two mediator-side policies on `mediator`. (The store
    /// policy decides how sources are *built* — see
    /// [`Settings::scenario`].)
    pub fn apply(&self, mediator: &mut Mediator) {
        mediator.set_exec_mode(self.exec_mode);
        mediator.set_cache_policy(self.cache);
    }

    /// The two-source scenario at `scale` under these settings: the
    /// sources mounted from a per-process subdirectory of the store
    /// directory when one is set, and the mediator policies applied.
    pub fn scenario(&self, scale: usize) -> Result<Mediator, StoreError> {
        let scenario = Scenario::at_scale(scale);
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
        let scenario = FedScenario::new(members, scale);
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

        assert_eq!(VARIABLES, ["YAT_EXEC_MODE", "YAT_CACHE", "YAT_STORE"]);
        // unset: the documented default, silently
        let unset = Settings::from_lookup(|_| None);
        assert_eq!(unset, Settings::default());
        assert_eq!(unset.exec_mode, ExecMode::Sequential);
        assert_eq!(unset.cache, CachePolicy::Off);
        assert_eq!(unset.store, StorePolicy::Off);
        assert_eq!(warnings(), Vec::<String>::new(), "unset is silent");

        // valid values, aliases, case and whitespace
        let lanes = |n| ExecMode::Parallel { max_in_flight: n };
        check(EXEC_MODE, "sequential", Ok(ExecMode::Sequential));
        check(EXEC_MODE, " SEQ ", Ok(ExecMode::Sequential));
        check(EXEC_MODE, "parallel", Ok(ExecMode::parallel()));
        check(EXEC_MODE, "par", Ok(ExecMode::parallel()));
        check(EXEC_MODE, "parallel:3", Ok(lanes(3)));

        let bounded = |max_bytes| CachePolicy::Bounded { max_bytes };
        check(CACHE, "off", Ok(CachePolicy::Off));
        check(CACHE, " NONE ", Ok(CachePolicy::Off));
        check(CACHE, "0", Ok(CachePolicy::Off));
        check(CACHE, "bounded", Ok(CachePolicy::bounded()));
        check(CACHE, "on", Ok(CachePolicy::bounded()));
        check(CACHE, "bounded:4m", Ok(bounded(4 << 20)));
        check(CACHE, " Bounded:512K ", Ok(bounded(512 << 10)));
        check(CACHE, "bounded:1g", Ok(bounded(1 << 30)));
        check(CACHE, "bounded:9999", Ok(bounded(9999)));

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
        invalid::<CachePolicy>(CACHE, "bounded:1m:2", &seen); // retired ttl
        invalid::<CachePolicy>(CACHE, "bounded:1m:1:noneg", &seen); // and no-negative
        invalid::<CachePolicy>(CACHE, "bounded:4m:1:bogus", &seen);
        invalid::<CachePolicy>(CACHE, "unbounded", &seen);
        invalid::<StorePolicy>(STORE, "dir:", &seen);
        invalid::<StorePolicy>(STORE, "disk", &seen);
        invalid::<StorePolicy>(STORE, "banana", &seen);

        // a retired variable, set → one warning naming it and what the
        // binary does instead → the defaults; a live one beside it
        // still reads
        for (var, now) in RETIRED {
            let settings = Settings::from_lookup(|name| match name {
                "YAT_CACHE" => Some("bounded".to_string()),
                name if name == var => Some("degrade".to_string()),
                _ => None,
            });
            assert_eq!(settings.cache, CachePolicy::bounded(), "{var}");
            assert_eq!(settings.exec_mode, ExecMode::Sequential, "{var}");
            assert_eq!(
                warnings(),
                [format!(
                    "{var}=`degrade` is no longer read and changes nothing: {now}"
                )],
                "{var}"
            );
        }
        assert_eq!(
            RETIRED.map(|(var, _)| var),
            ["YAT_PARTIAL", "YAT_SCHED", "YAT_INDEX", "YAT_STREAM"]
        );
        yat_obs::set_warn_sink(None);

        // the syntax fragments the per-enum warnings used to spell out
        assert!(EXEC_MODE.1.contains("parallel:<lanes>"));
        assert!(CACHE.1.contains("bounded:<bytes>"));

        // Display and the mode/policy predicates
        assert_eq!(ExecMode::parallel().to_string(), "parallel(8)");
        assert_eq!(ExecMode::Sequential.to_string(), "sequential");
        assert!(ExecMode::parallel().is_parallel() && !ExecMode::Sequential.is_parallel());
        assert_eq!(CachePolicy::bounded().to_string(), "bounded(67108864B)");
        assert_eq!(bounded(1 << 10).to_string(), "bounded(1024B)");
        assert_eq!(CachePolicy::Off.to_string(), "off");
    }

    #[test]
    fn settings_apply_to_a_mediator_and_pin_the_scenario_sources() {
        let settings = Settings {
            exec_mode: ExecMode::Parallel { max_in_flight: 3 },
            cache: CachePolicy::bounded(),
            store: StorePolicy::Off,
        };
        for m in [
            settings.scenario(6).expect("in-memory scenario builds"),
            settings.federation(4, 6).0,
        ] {
            assert_eq!(m.exec_mode(), settings.exec_mode);
            assert_eq!(m.cache_policy(), settings.cache);
            // the sources are built with their indexes on: Q2's pushed
            // work probes them
            let plan = m.plan_query(yat_yatl::paper::Q2).unwrap();
            let (opt, _) = m.optimize(&plan, yat_mediator::OptimizerOptions::default());
            let ex = m.explain(&opt).unwrap();
            assert!(!ex.index.is_empty());
            for (target, line) in &ex.index {
                assert!(line.probes > 0 && line.scans == 0, "{target}: {line:?}");
            }
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
