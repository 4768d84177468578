//! The optimizer: "heuristics and a simple linear search strategy
//! consisting of the three rewriting rounds presented in [Section 5]"
//! (Section 6).
//!
//! * **Round 1 — composition:** Bind–Tree elimination, selection
//!   merging/pushdown, then the needed-columns pass (projection pruning,
//!   typed filter simplification, Fig. 8 branch elimination), then
//!   pushdown again on the simplified plan.
//! * **Round 2 — capabilities:** capability splitting, `contains`
//!   introduction from declared equivalences, maximal fragment pushing,
//!   then the element-set pass: a pushed fragment whose documents only a
//!   named-field filter reads ships just those fields.
//! * **Round 3 — information passing:** cross-source `Join` → `DJoin`
//!   with the join predicate absorbed into the pushed side.
//!
//! Every round applies its rule set to a fixpoint (with a hard iteration
//! cap) and records a [`Trace`] of rule firings.

use crate::rules::bind_tree::BindTreeElim;
use crate::rules::capability::{CapabilitySplit, ContainsIntroduction, PushFragments};
use crate::rules::elements::push_element_sets;
use crate::rules::federate::FederateRoute;
use crate::rules::info_passing::JoinToDJoin;
use crate::rules::prune::{prune, PruneOptions};
use crate::rules::pushdown::{SelectMerge, SelectPushdown};
use crate::rules::{apply_once, FederationCtx, RewriteRule, RuleCtx};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use yat_algebra::Alg;
use yat_capability::interface::Interface;
use yat_federate::SourceRegistry;

/// What the optimizer is allowed to do. All techniques default on except
/// the Fig. 8 containment assumption, which changes semantics unless the
/// administrator vouches for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerOptions {
    /// Round 1: eliminate Bind–Tree compositions.
    pub compose_elimination: bool,
    /// Round 1: use imported structural models to simplify filters.
    pub use_type_info: bool,
    /// Round 1: assume view joins are containment-complete (Fig. 8) so
    /// unused branches can be eliminated.
    pub assume_containment: bool,
    /// Round 2: capability-based rewriting and fragment pushing.
    pub capability_pushdown: bool,
    /// Round 3: information passing.
    pub info_passing: bool,
    /// Round 4: prune partition-group shards a fragment's constraints
    /// exclude (only meaningful with a federation registry).
    pub prune_partitions: bool,
    /// Fixpoint iteration cap per round.
    pub max_steps: usize,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            compose_elimination: true,
            use_type_info: true,
            assume_containment: false,
            capability_pushdown: true,
            info_passing: true,
            prune_partitions: true,
            max_steps: 128,
        }
    }
}

impl OptimizerOptions {
    /// Everything off: the naive plan passes through unchanged.
    pub fn naive() -> Self {
        OptimizerOptions {
            compose_elimination: false,
            use_type_info: false,
            assume_containment: false,
            capability_pushdown: false,
            info_passing: false,
            prune_partitions: false,
            max_steps: 0,
        }
    }

    /// Everything on, including the Fig. 8 containment assumption.
    pub fn full() -> Self {
        OptimizerOptions {
            assume_containment: true,
            ..Default::default()
        }
    }
}

/// One rule application: which rule fired in which round, and what it did
/// to the plan shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleFiring {
    /// The rewriting round (1 = composition, 2 = capabilities, 3 =
    /// information passing).
    pub round: u8,
    /// The rule's name.
    pub rule: &'static str,
    /// The plan before the firing, rendered by [`Alg::explain`].
    pub before: String,
    /// The plan after the firing.
    pub after: String,
    /// Node count before.
    pub nodes_before: usize,
    /// Node count after.
    pub nodes_after: usize,
}

/// A record of the rewriting steps taken.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// `(round, rule name)` per firing, in order.
    pub steps: Vec<(u8, &'static str)>,
    /// The same firings with before/after plan snapshots — the derivation
    /// `EXPLAIN` and `examples/optimizer_explain.rs` print.
    pub firings: Vec<RuleFiring>,
    /// Free-form decisions that are not plan rewrites — e.g. why a
    /// source's fragments were kept mediator-side.
    pub notes: Vec<String>,
}

impl Trace {
    fn record(&mut self, round: u8, rule: &'static str, before: &Alg, after: &Alg) {
        self.steps.push((round, rule));
        self.firings.push(RuleFiring {
            round,
            rule,
            before: before.explain(),
            after: after.explain(),
            nodes_before: before.node_count(),
            nodes_after: after.node_count(),
        });
    }

    /// Number of firings of a rule.
    pub fn count(&self, rule: &str) -> usize {
        self.steps.iter().filter(|(_, r)| *r == rule).count()
    }

    /// All firings, rendered one line each, followed by the notes.
    pub fn render(&self) -> String {
        self.steps
            .iter()
            .map(|(round, rule)| format!("round {round}: {rule}"))
            .chain(self.notes.iter().map(|n| format!("note: {n}")))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The full derivation: each firing with its node-count delta and the
    /// plan it produced, ending at the final plan.
    pub fn render_derivation(&self) -> String {
        let mut out = String::new();
        for (i, f) in self.firings.iter().enumerate() {
            if i == 0 {
                out.push_str(&format!("plan ({} nodes):\n", f.nodes_before));
                indent_into(&mut out, &f.before);
            }
            out.push_str(&format!(
                "-- round {}: {} ({} → {} nodes) -->\n",
                f.round, f.rule, f.nodes_before, f.nodes_after
            ));
            indent_into(&mut out, &f.after);
        }
        if self.firings.is_empty() {
            out.push_str("(no rule fired)\n");
        }
        out
    }
}

fn indent_into(out: &mut String, plan: &str) {
    for line in plan.lines() {
        out.push_str("    ");
        out.push_str(line);
        out.push('\n');
    }
}

/// Optimizes `plan` against the imported `interfaces`.
pub fn optimize(
    plan: &Arc<Alg>,
    interfaces: &BTreeMap<String, Interface>,
    options: OptimizerOptions,
) -> (Arc<Alg>, Trace) {
    optimize_with_registry(plan, interfaces, options, None)
}

/// [`optimize`] with a federation registry: partition-group pushes are
/// routed (and pruned) per member in round 4, and members whose cost
/// records show a majority of failed trips are quarantined — their
/// fragments stay mediator-side, with the decision recorded in the
/// trace's notes.
pub fn optimize_with_registry(
    plan: &Arc<Alg>,
    interfaces: &BTreeMap<String, Interface>,
    options: OptimizerOptions,
    registry: Option<&SourceRegistry>,
) -> (Arc<Alg>, Trace) {
    let mut trace = Trace::default();
    // quarantine: enough history to judge, and most trips failing
    let mut quarantined = BTreeSet::new();
    if let Some(reg) = registry {
        for name in reg.member_names() {
            let c = reg.cost(name);
            if c.trips >= 4 && c.error_rate() > 0.5 {
                trace.notes.push(format!(
                    "push-vs-pull: keeping `{name}` mediator-side (error rate {:.0}%)",
                    c.error_rate() * 100.0
                ));
                quarantined.insert(name.to_string());
            }
        }
    }
    let ctx = RuleCtx {
        interfaces,
        options: &options,
        federation: registry.map(|r| FederationCtx {
            registry: r,
            quarantined: &quarantined,
        }),
    };
    let mut plan = plan.clone();

    // ---- round 1: composition and simplification ----------------------
    if options.compose_elimination {
        let rules: Vec<&dyn RewriteRule> = vec![&BindTreeElim, &SelectMerge, &SelectPushdown];
        plan = fixpoint(plan, &rules, &ctx, options.max_steps, 1, &mut trace);
        let before = plan.clone();
        plan = prune(
            &plan,
            interfaces,
            PruneOptions {
                use_type_info: options.use_type_info,
                assume_containment: options.assume_containment,
            },
        );
        if plan != before {
            trace.record(1, "prune", &before, &plan);
        }
        let rules: Vec<&dyn RewriteRule> = vec![&SelectMerge, &SelectPushdown];
        plan = fixpoint(plan, &rules, &ctx, options.max_steps, 1, &mut trace);
    }

    // ---- round 2: capability-based rewriting ---------------------------
    if options.capability_pushdown {
        let rules: Vec<&dyn RewriteRule> =
            vec![&CapabilitySplit, &ContainsIntroduction, &PushFragments];
        plan = fixpoint(plan, &rules, &ctx, options.max_steps, 2, &mut trace);
        let before = plan.clone();
        plan = push_element_sets(&plan, interfaces);
        if plan != before {
            trace.record(2, "element-sets", &before, &plan);
        }
    }

    // ---- round 3: information passing ----------------------------------
    if options.info_passing {
        let rules: Vec<&dyn RewriteRule> = vec![&JoinToDJoin];
        plan = fixpoint(plan, &rules, &ctx, options.max_steps, 3, &mut trace);
    }

    // ---- round 4: federation routing -----------------------------------
    if options.capability_pushdown && registry.is_some_and(|r| !r.is_empty()) {
        let rules: Vec<&dyn RewriteRule> = vec![&FederateRoute];
        plan = fixpoint(plan, &rules, &ctx, options.max_steps, 4, &mut trace);
    }

    (plan, trace)
}

fn fixpoint(
    mut plan: Arc<Alg>,
    rules: &[&dyn RewriteRule],
    ctx: &RuleCtx<'_>,
    max_steps: usize,
    round: u8,
    trace: &mut Trace,
) -> Arc<Alg> {
    for _ in 0..max_steps {
        let mut fired = false;
        for rule in rules {
            if let Some(next) = apply_once(&plan, *rule, ctx) {
                trace.record(round, rule.name(), &plan, &next);
                plan = next;
                fired = true;
                break;
            }
        }
        if !fired {
            break;
        }
    }
    plan
}
