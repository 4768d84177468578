//! The needed-columns pass: projection pushdown, typed filter
//! simplification (Section 5.1) and join/branch elimination (Fig. 8).
//!
//! Runs once per optimization (after Bind–Tree elimination, before
//! capability rewriting — it must precede information passing, which
//! introduces cross-plan variable references pruning cannot see):
//!
//! * columns no operator above consumes are projected away early
//!   ("Structured queries over semistructured data": the projection is
//!   used to simplify the `Bind`);
//! * filter variables that became unneeded turn into wildcards, and
//!   variable-free edges are **dropped when the source's type guarantees
//!   them** — "we often have more interesting opportunities, using type
//!   information about the data" (Section 5.1). Without type information
//!   the edge must stay: dropping a mandatory `One` edge would stop
//!   filtering out documents that lack it;
//! * under the Fig. 8 containment assumption ("all artifacts are
//!   available in the XML source"), a join branch none of whose columns
//!   are needed — after substituting equated variables from the other
//!   side — is eliminated together with the join.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use yat_algebra::{Alg, CmpOp, Operand, Pred};
use yat_capability::interface::Interface;
use yat_model::instantiate::subsumes_open;
use yat_model::{Edge, Model, Occ, Pattern};

/// Options consumed by the pass (a subset of the optimizer options).
#[derive(Debug, Clone, Copy)]
pub struct PruneOptions {
    /// Use imported structural models to drop guaranteed filter edges.
    pub use_type_info: bool,
    /// Assume view joins are containment-complete (Fig. 8) and eliminate
    /// branches whose columns are substitutable.
    pub assume_containment: bool,
}

/// Runs the pass over a whole plan.
pub fn prune(
    plan: &Arc<Alg>,
    interfaces: &BTreeMap<String, Interface>,
    options: PruneOptions,
) -> Arc<Alg> {
    let p = Pruner {
        interfaces,
        options,
    };
    match plan.as_ref() {
        Alg::TreeOp { input, template } => {
            let needed: BTreeSet<String> = template.variables().into_iter().collect();
            Alg::tree(p.go(input, &needed), template.clone())
        }
        _ => {
            let needed: BTreeSet<String> =
                plan.out_vars().unwrap_or_default().into_iter().collect();
            p.go(plan, &needed)
        }
    }
}

struct Pruner<'a> {
    interfaces: &'a BTreeMap<String, Interface>,
    options: PruneOptions,
}

impl<'a> Pruner<'a> {
    fn go(&self, plan: &Arc<Alg>, needed: &BTreeSet<String>) -> Arc<Alg> {
        match plan.as_ref() {
            Alg::Source { .. } => plan.clone(),
            Alg::Project { input, cols } => {
                let kept = kept_columns(cols, needed);
                let inner_needed: BTreeSet<String> = kept.iter().map(|(s, _)| s.clone()).collect();
                Alg::project(self.go(input, &inner_needed), kept)
            }
            Alg::Bind {
                input,
                filter,
                over,
            } => {
                let input_vars: BTreeSet<String> = match over {
                    Some(_) => input.out_vars().unwrap_or_default().into_iter().collect(),
                    None => BTreeSet::new(),
                };
                // shared variables are equality constraints: keep them
                let mut keep_vars = needed.clone();
                for v in filter.variables() {
                    if input_vars.contains(&v) {
                        keep_vars.insert(v);
                    }
                }
                let guarantee = match (over, input.as_ref()) {
                    (
                        None,
                        Alg::Source {
                            source: Some(s),
                            name,
                        },
                    ) if self.options.use_type_info => self.document_pattern(s, name),
                    _ => None,
                };
                let simplified = match &guarantee {
                    Some((pat, model)) => {
                        simplify_filter(filter, &keep_vars, Some(pat), Some(model))
                    }
                    None => simplify_filter(filter, &keep_vars, None, None),
                };
                let [inner_needed] = &child_needs(plan, needed)[..] else {
                    unreachable!("a Bind has one input")
                };
                match over {
                    Some(col) => {
                        Alg::bind_over(self.go(input, inner_needed), col.clone(), simplified)
                    }
                    None => Alg::bind(self.go(input, inner_needed), simplified),
                }
            }
            Alg::Join { left, right, pred } if self.options.assume_containment => self
                .try_eliminate(left, right, pred, needed)
                .unwrap_or_else(|| self.descend(plan, needed)),
            _ => self.descend(plan, needed),
        }
    }

    /// Recurses into every child with the columns [`child_needs`] asks
    /// of it, keeping this operator as it is.
    fn descend(&self, plan: &Arc<Alg>, needed: &BTreeSet<String>) -> Arc<Alg> {
        let kids = plan
            .children()
            .into_iter()
            .zip(child_needs(plan, needed))
            .map(|(c, n)| self.go(c, &n))
            .collect();
        Arc::new(plan.with_children(kids))
    }

    /// Fig. 8 branch elimination: drop one join side when all of its
    /// needed variables can be substituted through equality conjuncts.
    fn try_eliminate(
        &self,
        left: &Arc<Alg>,
        right: &Arc<Alg>,
        pred: &Pred,
        needed: &BTreeSet<String>,
    ) -> Option<Arc<Alg>> {
        let lv: BTreeSet<String> = left.out_vars().unwrap_or_default().into_iter().collect();
        let rv: BTreeSet<String> = right.out_vars().unwrap_or_default().into_iter().collect();
        // equality pairs from the join predicate
        let eqs: Vec<(String, String)> = pred
            .conjuncts()
            .iter()
            .filter_map(|c| match c {
                Pred::Cmp {
                    op: CmpOp::Eq,
                    left: Operand::Var(a),
                    right: Operand::Var(b),
                } => Some((a.clone(), b.clone())),
                _ => None,
            })
            .collect();
        // the conjuncts must all be variable equalities for the
        // containment reading to make sense
        if eqs.len() != pred.conjuncts().len() {
            return None;
        }
        // every needed variable must come from one of the two sides;
        // anything else would silently project to Null
        if !needed.iter().all(|v| lv.contains(v) || rv.contains(v)) {
            return None;
        }
        for (drop, keep, kv) in [(&lv, right, &rv), (&rv, left, &lv)] {
            let mut subst: Vec<(String, String)> = Vec::new(); // dropped var → kept var
            let mut ok = true;
            for v in needed
                .iter()
                .filter(|v| drop.contains(*v) && !kv.contains(*v))
            {
                let partner = eqs.iter().find_map(|(a, b)| {
                    if a == v && kv.contains(b) {
                        Some(b.clone())
                    } else if b == v && kv.contains(a) {
                        Some(a.clone())
                    } else {
                        None
                    }
                });
                match partner {
                    Some(p) => subst.push((v.clone(), p)),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            // all needed vars available on the kept side (after renaming)
            let inner_needed: BTreeSet<String> = needed
                .iter()
                .map(|v| {
                    subst
                        .iter()
                        .find(|(d, _)| d == v)
                        .map(|(_, k)| k.clone())
                        .unwrap_or_else(|| v.clone())
                })
                .filter(|v| kv.contains(v))
                .collect();
            let kept = self.go(keep, &inner_needed);
            let cols: Vec<(String, String)> = needed
                .iter()
                .map(|v| {
                    let src = subst
                        .iter()
                        .find(|(d, _)| d == v)
                        .map(|(_, k)| k.clone())
                        .unwrap_or_else(|| v.clone());
                    (src, v.clone())
                })
                .collect();
            if cols.is_empty() {
                return Some(kept);
            }
            return Some(Alg::project(kept, cols));
        }
        None
    }

    /// The structural pattern of an exported document, with its model.
    fn document_pattern(&self, source: &str, name: &str) -> Option<(Pattern, Model)> {
        let iface = self.interfaces.get(source)?;
        let export = iface.export(name)?;
        let model = iface.model(&export.model)?;
        let pattern = model.get(&export.pattern)?;
        Some((pattern.clone(), model.clone()))
    }
}

/// The columns of `cols` a projection keeps when `needed` are consumed
/// above it — at least one, so row counts survive.
fn kept_columns(cols: &[(String, String)], needed: &BTreeSet<String>) -> Vec<(String, String)> {
    let kept: Vec<(String, String)> = cols
        .iter()
        .filter(|(_, d)| needed.contains(d))
        .cloned()
        .collect();
    if kept.is_empty() {
        return cols.first().into_iter().cloned().collect();
    }
    kept
}

/// The needed-columns view: the columns each child of `plan` must
/// deliver (in [`Alg::children`] order) when `needed` are the columns
/// consumed above `plan`. Conservative wherever an operator is not
/// modeled — a `DJoin`, set operators, `Group`, `Sort`, `Map`, `Push` —
/// the child then delivers every column it has, since deduplication or
/// a dependent side may read any of them.
pub(crate) fn child_needs(plan: &Alg, needed: &BTreeSet<String>) -> Vec<BTreeSet<String>> {
    let vars = |p: &Pred| -> Vec<String> { p.vars().into_iter().map(str::to_string).collect() };
    match plan {
        Alg::Source { .. } => vec![],
        Alg::TreeOp { template, .. } => vec![template.variables().into_iter().collect()],
        Alg::Project { cols, .. } => vec![kept_columns(cols, needed)
            .into_iter()
            .map(|(s, _)| s)
            .collect()],
        Alg::Select { pred, .. } => {
            let mut n = needed.clone();
            n.extend(vars(pred));
            vec![n]
        }
        Alg::Bind {
            input,
            filter,
            over,
        } => {
            let input_vars: BTreeSet<String> = match over {
                Some(_) => input.out_vars().unwrap_or_default().into_iter().collect(),
                None => BTreeSet::new(),
            };
            // variables this Bind produces are satisfied here — do not
            // request them from the input (only shared ones, which are
            // constraints, stay needed)
            let mut inner = needed.clone();
            for v in filter.variables() {
                if input_vars.contains(&v) {
                    inner.insert(v);
                } else {
                    inner.remove(&v);
                }
            }
            inner.extend(over.iter().cloned());
            vec![inner]
        }
        Alg::Join { left, right, pred } => {
            let mut want = needed.clone();
            want.extend(vars(pred));
            // a right column the left side also has comes out primed
            let side = |c: &Arc<Alg>| -> BTreeSet<String> {
                c.out_vars()
                    .unwrap_or_default()
                    .into_iter()
                    .filter(|v| want.contains(v) || want.contains(&format!("{v}'")))
                    .collect()
            };
            vec![side(left), side(right)]
        }
        _ => plan
            .children()
            .into_iter()
            .map(|c| c.out_vars().unwrap_or_default().into_iter().collect())
            .collect(),
    }
}

/// Rewrites a filter for a reduced variable set: unneeded variables become
/// wildcards, and variable-free edges are dropped when `guarantee` (the
/// source's type, threaded in parallel) proves every instance satisfies
/// them.
pub fn simplify_filter(
    filter: &Pattern,
    needed: &BTreeSet<String>,
    guarantee: Option<&Pattern>,
    model: Option<&Model>,
) -> Pattern {
    match filter {
        Pattern::TreeVar(v) if !needed.contains(v) => Pattern::Wildcard,
        Pattern::Union(bs) => Pattern::Union(
            bs.iter()
                .map(|b| simplify_filter(b, needed, guarantee, model))
                .collect(),
        ),
        Pattern::Node { label, edges } => {
            let guar = resolve_guarantee(guarantee, model);
            // decided last edge first: an edge claims the children it
            // matches, so dropping it is only safe when no kept later
            // edge could match them instead
            let mut out_edges = Vec::new();
            for e in edges.iter().rev() {
                let gedge = guar.and_then(|g| matching_guarantee_edge(g, &e.pattern, model));
                let star_var = match &e.star_var {
                    Some((v, _)) if !needed.contains(v) => None,
                    other => other.clone(),
                };
                let pattern = simplify_filter(&e.pattern, needed, gedge.map(|g| &g.pattern), model);
                let e2 = Edge {
                    occ: e.occ,
                    star_var,
                    pattern,
                };
                if e2.star_var.is_none()
                    && e2.pattern.variables().is_empty()
                    && claims_nothing_later(&e2.pattern, &out_edges)
                {
                    match e2.occ {
                        // structural stars and options never filter
                        Occ::Star | Occ::Opt => continue,
                        Occ::One => {
                            if let Some(g) = gedge {
                                if g.occ == Occ::One
                                    && subsumes_open(&e2.pattern, &g.pattern, None, model)
                                {
                                    continue;
                                }
                            }
                        }
                    }
                }
                out_edges.push(e2);
            }
            out_edges.reverse();
            Pattern::Node {
                label: label.clone(),
                edges: out_edges,
            }
        }
        other => other.clone(),
    }
}

/// Whether the children an edge over `pattern` claims are out of reach
/// of the `later` edges that see claims: `pattern` names one symbol and
/// every later edge but a structural star (no variable, so it neither
/// binds nor filters) names another. Otherwise dropping the edge would
/// hand its children to a later edge — a star-collect `*($fields)`
/// after `title: _` would start collecting the title.
fn claims_nothing_later(pattern: &Pattern, later: &[Edge]) -> bool {
    let sym = |p: &Pattern| match p {
        Pattern::Node {
            label: yat_model::PLabel::Sym(s),
            ..
        } => Some(s.clone()),
        _ => None,
    };
    let own = sym(pattern);
    later.iter().all(|e| {
        let structural =
            e.occ == Occ::Star && e.star_var.is_none() && e.pattern.variables().is_empty();
        structural || matches!((&own, sym(&e.pattern)), (Some(a), Some(b)) if *a != b)
    })
}

fn resolve_guarantee<'a>(g: Option<&'a Pattern>, model: Option<&'a Model>) -> Option<&'a Pattern> {
    let mut cur = g?;
    for _ in 0..16 {
        match cur {
            Pattern::Ref(name) => cur = model?.get(name)?,
            _ => return Some(cur),
        }
    }
    None
}

/// Finds the guarantee edge whose pattern produces nodes the filter edge
/// could match (by root symbol).
fn matching_guarantee_edge<'a>(
    guar: &'a Pattern,
    filter_pattern: &Pattern,
    model: Option<&'a Model>,
) -> Option<&'a Edge> {
    let Pattern::Node { edges, .. } = guar else {
        return None;
    };
    let fname = match filter_pattern {
        Pattern::Node {
            label: yat_model::PLabel::Sym(s),
            ..
        } => Some(s.as_str()),
        _ => None,
    };
    edges.iter().find(|g| {
        let gp = resolve_guarantee(Some(&g.pattern), model);
        match (fname, gp) {
            (
                Some(f),
                Some(Pattern::Node {
                    label: yat_model::PLabel::Sym(s),
                    ..
                }),
            ) => s == f,
            (
                _,
                Some(Pattern::Node {
                    label: yat_model::PLabel::AnySym,
                    ..
                }),
            ) => true,
            (None, Some(_)) => true,
            _ => false,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use yat_model::AtomType;
    use yat_yatl::parse_filter;

    fn needed(vars: &[&str]) -> BTreeSet<String> {
        vars.iter().map(|s| s.to_string()).collect()
    }

    /// The works structure: mandatory artist/title/style/size.
    fn works_model() -> Model {
        Model::new("Artworks_Structure")
            .with(
                "Work",
                Pattern::sym(
                    "work",
                    vec![
                        Edge::one(Pattern::elem_typed("artist", AtomType::Str)),
                        Edge::one(Pattern::elem_typed("title", AtomType::Str)),
                        Edge::one(Pattern::elem_typed("style", AtomType::Str)),
                        Edge::one(Pattern::elem_typed("size", AtomType::Str)),
                        Edge::star(Pattern::Wildcard),
                    ],
                ),
            )
            .with(
                "Works",
                Pattern::sym("works", vec![Edge::star(Pattern::Ref("Work".into()))]),
            )
    }

    #[test]
    fn unneeded_vars_become_wildcards_and_stars_drop() {
        let f = parse_filter("works *work [ title: $t, artist: $a, *($fields) ]").unwrap();
        let simplified = simplify_filter(&f, &needed(&["t"]), None, None);
        let s = simplified.to_string();
        // $a pruned to wildcard but the artist edge must stay (no type
        // info proves every work has one); the collect star is dropped
        assert!(s.contains("title[$t]"), "{s}");
        assert!(s.contains("artist[_]"), "{s}");
        assert!(!s.contains("fields"), "{s}");
    }

    #[test]
    fn type_info_drops_guaranteed_edges() {
        let model = works_model();
        let f = parse_filter("works *work [ title: $t, artist: $a, size: $si ]").unwrap();
        let guarantee = model.get("Works").unwrap().clone();
        let simplified = simplify_filter(&f, &needed(&["t"]), Some(&guarantee), Some(&model));
        assert_eq!(simplified.to_string(), "works[*work[title[$t]]]");
    }

    #[test]
    fn guaranteed_edges_stay_in_front_of_a_star_collect() {
        let model = works_model();
        let guarantee = model.get("Works").unwrap().clone();
        let simplify = |f: &str, vars: &[&str]| {
            let f = parse_filter(f).unwrap();
            simplify_filter(&f, &needed(vars), Some(&guarantee), Some(&model)).to_string()
        };
        // dropping `title` would hand every title to `*($f)`, which
        // would then collect it
        assert_eq!(
            simplify("works *work [ title: $t2, *($f) ]", &["f"]),
            "works[*work[title, *($f)]]"
        );
        // with no later edge to claim it, the guaranteed title drops
        assert_eq!(
            simplify("works *work [ title: $t2, artist: $a ]", &["a"]),
            "works[*work[artist[$a]]]"
        );
        assert_eq!(simplify("works *work [ title: $t2, *($f) ]", &[]), "works");
    }

    #[test]
    fn constants_are_never_dropped() {
        let model = works_model();
        let f = parse_filter("works *work [ title: $t, style: \"Impressionist\" ]").unwrap();
        let guarantee = model.get("Works").unwrap().clone();
        let simplified = simplify_filter(&f, &needed(&["t"]), Some(&guarantee), Some(&model));
        assert!(
            simplified.to_string().contains("Impressionist"),
            "{simplified}"
        );
    }

    #[test]
    fn optional_edges_drop_without_type_info() {
        let f = parse_filter("work [ title: $t, ?cplace: $c ]").unwrap();
        let simplified = simplify_filter(&f, &needed(&["t"]), None, None);
        assert_eq!(simplified.to_string(), "work[title[$t]]");
    }

    mod plan_level {
        use super::*;
        use yat_algebra::{Alg, Pred};

        fn options() -> PruneOptions {
            PruneOptions {
                use_type_info: true,
                assume_containment: true,
            }
        }

        #[test]
        fn join_elimination_with_substitution() {
            // Fig. 8: needed vars {t, fields}; $t is equated with the
            // kept side's $t2 — drop the left branch entirely
            let left = Alg::bind(
                Alg::source_at("o2", "artifacts"),
                parse_filter("set *class: artifact: tuple [ title: $t, year: $y ]").unwrap(),
            );
            let right = Alg::bind(
                Alg::source_at("wais", "works"),
                parse_filter("works *work [ title: $t2, *($fields) ]").unwrap(),
            );
            let join = Alg::join(left, right, Pred::var_eq("t", "t2"));
            let plan = Alg::tree(
                Alg::project(
                    join,
                    vec![("t".into(), "t".into()), ("fields".into(), "fields".into())],
                ),
                yat_algebra::Template::sym(
                    "out",
                    vec![yat_algebra::Template::group(
                        &["t"],
                        yat_algebra::Template::elem_var("r", "t"),
                    )],
                ),
            );
            let pruned = prune(&plan, &BTreeMap::new(), options());
            let shown = pruned.explain();
            assert!(
                !shown.contains("artifacts"),
                "O2 branch should be gone:\n{shown}"
            );
            assert!(!shown.contains("Join"), "{shown}");
            assert!(shown.contains("$t2→$t") || shown.contains("t2"), "{shown}");
        }

        #[test]
        fn no_elimination_when_both_sides_needed() {
            let left = Alg::bind(
                Alg::source_at("o2", "artifacts"),
                parse_filter("set *class: artifact: tuple [ title: $t, price: $p ]").unwrap(),
            );
            let right = Alg::bind(
                Alg::source_at("wais", "works"),
                parse_filter("works *work [ title: $t2, style: $s ]").unwrap(),
            );
            let join = Alg::join(left, right, Pred::var_eq("t", "t2"));
            let plan = Alg::project(
                join,
                vec![("p".into(), "p".into()), ("s".into(), "s".into())],
            );
            let pruned = prune(&plan, &BTreeMap::new(), options());
            assert!(pruned.explain().contains("Join"), "{pruned}");
        }

        #[test]
        fn no_elimination_without_flag() {
            let left = Alg::bind(
                Alg::source_at("o2", "artifacts"),
                parse_filter("set *class: artifact: tuple [ title: $t ]").unwrap(),
            );
            let right = Alg::bind(
                Alg::source_at("wais", "works"),
                parse_filter("works *work [ title: $t2 ]").unwrap(),
            );
            let plan = Alg::project(
                Alg::join(left, right, Pred::var_eq("t", "t2")),
                vec![("t2".into(), "t2".into())],
            );
            let opts = PruneOptions {
                use_type_info: true,
                assume_containment: false,
            };
            let pruned = prune(&plan, &BTreeMap::new(), opts);
            assert!(pruned.explain().contains("Join"), "{pruned}");
        }

        #[test]
        fn select_vars_stay_needed() {
            let bind = Alg::bind(
                Alg::source("d"),
                parse_filter("d *work [ title: $t, year: $y ]").unwrap(),
            );
            let plan = Alg::project(
                Alg::select(bind, Pred::eq_const("y", 1800)),
                vec![("t".into(), "t".into())],
            );
            let pruned = prune(&plan, &BTreeMap::new(), options());
            let shown = pruned.explain();
            assert!(
                shown.contains("year[$y]"),
                "y feeds the selection:\n{shown}"
            );
        }
    }
}
