//! The algebraic rewriting rules of Section 5.
//!
//! Each rule is a [`RewriteRule`]: a pure function from plan to plan that
//! either fires at the given node or declines. The driver in
//! [`crate::optimizer`] applies rule sets to fixpoint, bottom-up, in the
//! three rounds the paper describes.
//!
//! Every rule is individually validated by tests asserting
//! `eval(rewritten) == eval(original)` (up to the documented duplicate
//! absorption of constructing templates).

pub mod bind_split;
pub mod bind_tree;
pub mod capability;
pub mod elements;
pub mod federate;
pub mod info_passing;
pub mod prune;
pub mod pushdown;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use yat_algebra::Alg;
use yat_capability::interface::Interface;
use yat_federate::SourceRegistry;

/// Context available to rules: the imported interfaces (capabilities and
/// structural models) and the optimizer options.
pub struct RuleCtx<'a> {
    /// Imported interfaces, by connection id.
    pub interfaces: &'a BTreeMap<String, Interface>,
    /// Optimizer options.
    pub options: &'a crate::optimizer::OptimizerOptions,
    /// Federation context for registry-aware rules (`None` when
    /// optimizing for a plain, unfederated mediator).
    pub federation: Option<FederationCtx<'a>>,
}

/// What registry-aware rules see: the source registry and the members
/// whose cost records disqualify them from receiving pushed work.
#[derive(Clone, Copy)]
pub struct FederationCtx<'a> {
    /// The federation registry.
    pub registry: &'a SourceRegistry,
    /// Members quarantined by their error rate: fragments are kept
    /// mediator-side rather than pushed to them.
    pub quarantined: &'a BTreeSet<String>,
}

/// A rewriting rule.
pub trait RewriteRule {
    /// The rule's name (shown in optimizer traces).
    fn name(&self) -> &'static str;

    /// Attempts to rewrite the *root* of `plan`. Return `None` to
    /// decline; the driver handles recursion into children.
    fn apply(&self, plan: &Arc<Alg>, ctx: &RuleCtx<'_>) -> Option<Arc<Alg>>;
}

/// Applies `rule` once, at the topmost node where it fires (pre-order).
/// Returns `None` if it fires nowhere.
pub fn apply_once(plan: &Arc<Alg>, rule: &dyn RewriteRule, ctx: &RuleCtx<'_>) -> Option<Arc<Alg>> {
    if let Some(rewritten) = rule.apply(plan, ctx) {
        return Some(rewritten);
    }
    let children = plan.children();
    for (i, child) in children.iter().enumerate() {
        if let Some(new_child) = apply_once(child, rule, ctx) {
            let mut kids: Vec<Arc<Alg>> = children.iter().map(|c| (*c).clone()).collect();
            kids[i] = new_child;
            return Some(Arc::new(plan.with_children(kids)));
        }
    }
    None
}
