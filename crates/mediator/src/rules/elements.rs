//! Element-set pushdown (round 2, after fragment pushing): ship only the
//! fields a plan binds.
//!
//! Z39.50 lets each request name the elements it wants back (element set
//! names), and the Wais wrapper declares that as the external
//! `elements(Work, Str…) → Work` operation. When a pushed `works *$w`
//! fragment's document column is consumed only by the mediator-side
//! `Bind[$w]` right above it, and that filter reads nothing but named
//! top-level children, the pushed fragment is wrapped in an
//! [`ElementSet`](yat_algebra::ElementSet) projection naming exactly
//! those children:
//!
//! ```text
//! Bind[$__doc] work[title[$t]]          Bind[$__doc] work[title[$t]]
//!   Push → xmlartwork          ==>        Push → xmlartwork
//!     Bind works[*$__doc:_]                 Project $__doc'→$__doc
//!       Source works                          Map $__doc' := elements($__doc, "title")
//!                                               Bind works[*$__doc:_]
//!                                                 Source works
//! ```
//!
//! The projection is ordinary algebra (`Project` over `Map`, evaluable
//! by the reference evaluator's `elements` builtin), so
//! `eval(optimize(q)) == eval(q)` holds by construction; the source
//! evaluates it by shipping fewer fields. Selection inside the fragment
//! still runs on whole documents. Whether the document column is read
//! anywhere else comes from the needed-columns view the pruning pass
//! uses (`prune::child_needs`), which sees through the `Project` that drops
//! the column even when it sits above a join.

use super::prune::child_needs;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use yat_algebra::Alg;
use yat_capability::interface::Interface;
use yat_capability::matcher::pushable;
use yat_model::{Occ, PLabel, Pattern};

/// The element set a mediator-side document filter needs: the labels of
/// its top-level edges, when stripping every other child of the document
/// cannot change the filter's bindings or their order. That holds for an
/// open match whose root is a symbol and whose top-level edges are all
/// single or optional named children, with no edge variable. It is
/// declined (`None`) for closed matching (every child must be claimed),
/// a label variable, a wildcard, `Symbol`, atom or `&Ref` edge, a tree
/// variable edge, a union, and any star edge — star-collect edges such
/// as Q1's `*($fields)` bind the children the set would drop.
pub fn element_set(filter: &Pattern, closed: bool) -> Option<BTreeSet<&str>> {
    if closed {
        return None;
    }
    let Pattern::Node {
        label: PLabel::Sym(_),
        edges,
    } = filter
    else {
        return None;
    };
    edges
        .iter()
        .map(|e| match (e.occ, &e.star_var, &e.pattern) {
            (
                Occ::One | Occ::Opt,
                None,
                Pattern::Node {
                    label: PLabel::Sym(field),
                    ..
                },
            ) => Some(field.as_str()),
            _ => None,
        })
        .collect()
}

/// Runs the pass over a whole plan.
pub fn push_element_sets(plan: &Arc<Alg>, interfaces: &BTreeMap<String, Interface>) -> Arc<Alg> {
    let needed = plan.out_vars().unwrap_or_default().into_iter().collect();
    go(plan, &needed, interfaces)
}

fn go(
    plan: &Arc<Alg>,
    needed: &BTreeSet<String>,
    interfaces: &BTreeMap<String, Interface>,
) -> Arc<Alg> {
    if let Some(projected) = project_at(plan, needed, interfaces) {
        return projected;
    }
    let children = plan.children();
    let kids: Vec<Arc<Alg>> = children
        .iter()
        .zip(child_needs(plan, needed))
        .map(|(c, n)| go(c, &n, interfaces))
        .collect();
    if kids.iter().zip(&children).all(|(k, c)| Arc::ptr_eq(k, c)) {
        return plan.clone();
    }
    Arc::new(plan.with_children(kids))
}

/// Fires at `Bind[$doc](Push(fragment))` when nothing above reads `$doc`
/// (`needed` are the columns consumed above the `Bind`), the fragment
/// delivers `$doc` alone, the filter has an element set and the source
/// declares `elements`.
fn project_at(
    plan: &Alg,
    needed: &BTreeSet<String>,
    interfaces: &BTreeMap<String, Interface>,
) -> Option<Arc<Alg>> {
    let Alg::Bind {
        input,
        filter,
        over: Some(doc),
    } = plan
    else {
        return None;
    };
    let Alg::Push {
        source,
        plan: fragment,
    } = input.as_ref()
    else {
        return None;
    };
    if needed.contains(doc)
        || fragment.element_set().is_some()
        || fragment.out_vars()? != std::slice::from_ref(doc)
    {
        return None;
    }
    // the algebra's Bind matches open
    let fields = element_set(filter, false)?;
    let projected = Alg::project_elements(fragment.clone(), doc, fields);
    pushable(interfaces.get(source)?, &projected).ok()?;
    Some(Alg::bind_over(
        Alg::push(source.clone(), projected),
        doc.clone(),
        filter.clone(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use yat_algebra::{Operand, Pred, Template};
    use yat_yatl::parse_filter;

    fn iface(with_elements: bool) -> BTreeMap<String, Interface> {
        use yat_capability::fpattern::wais_fmodel;
        use yat_capability::interface::{ExportDecl, OpKind, OperationDecl, SigItem};
        let mut i = Interface::new("xmlartwork");
        i.fmodels.push(wais_fmodel());
        i.exports.push(ExportDecl {
            name: "works".into(),
            model: "Artworks_Structure".into(),
            pattern: "Works".into(),
        });
        i.operations.push(OperationDecl {
            name: "bind".into(),
            kind: OpKind::Algebra,
            input: vec![SigItem::Filter {
                model: "waisfmodel".into(),
                pattern: "Fworks".into(),
            }],
            output: vec![],
        });
        i.operations.push(OperationDecl::algebra("select"));
        if with_elements {
            i.operations.push(OperationDecl {
                name: "elements".into(),
                kind: OpKind::External,
                input: vec![],
                output: vec![],
            });
        }
        [("xmlartwork".to_string(), i)].into()
    }

    fn pushed() -> Arc<Alg> {
        Alg::push(
            "xmlartwork",
            Alg::bind(Alg::source("works"), parse_filter("works *$d").unwrap()),
        )
    }

    fn scan(filter: &str) -> Arc<Alg> {
        Alg::tree(
            Alg::bind_over(pushed(), "d", parse_filter(filter).unwrap()),
            Template::Var("t".into()),
        )
    }

    #[test]
    fn eligible_filters_name_their_top_level_fields() {
        let set = |f: &str| {
            let p = parse_filter(f).unwrap();
            element_set(&p, false).map(|s| s.into_iter().map(str::to_string).collect::<Vec<_>>())
        };
        assert_eq!(set("work [ title: $t ]").unwrap(), ["title"]);
        assert_eq!(
            set("work [ title: $t, artist: $a, style: $s ]").unwrap(),
            ["artist", "style", "title"]
        );
        assert_eq!(
            set("work [ history [ technique: $x ] ]").unwrap(),
            ["history"]
        );
        for declined in [
            "work [ title: $t, *($fields) ]",
            "work [ *$f ]",
            "work [ $x ]",
            "~$l [ title: $t ]",
            "work [ ~$l: $x ]",
        ] {
            assert_eq!(set(declined), None, "{declined}");
        }
        let open = parse_filter("work [ title: $t ]").unwrap();
        assert!(element_set(&open, true).is_none(), "closed matching");
    }

    #[test]
    fn the_scan_ships_its_titles() {
        let plan = scan("work [ title: $t ]");
        let out = push_element_sets(&plan, &iface(true));
        let shown = out.explain();
        assert!(
            shown.contains("Map $d' := elements($d, \"title\")"),
            "{shown}"
        );
        let Alg::TreeOp { input, .. } = out.as_ref() else {
            panic!("{shown}")
        };
        let Alg::Bind { input: push, .. } = input.as_ref() else {
            panic!("{shown}")
        };
        let Alg::Push { plan: fragment, .. } = push.as_ref() else {
            panic!("{shown}")
        };
        assert_eq!(fragment.element_set().unwrap().fields, ["title"]);
        // fired once: a second pass changes nothing
        assert_eq!(push_element_sets(&out, &iface(true)), out);
    }

    #[test]
    fn declines_where_the_document_is_read_or_undeclared() {
        // the source does not declare `elements`
        let plan = scan("work [ title: $t ]");
        assert_eq!(push_element_sets(&plan, &iface(false)), plan);
        // the template reads the document
        let reads_doc = Alg::tree(
            Alg::bind_over(pushed(), "d", parse_filter("work [ title: $t ]").unwrap()),
            Template::Var("d".into()),
        );
        assert_eq!(push_element_sets(&reads_doc, &iface(true)), reads_doc);
        // a mediator-side `contains` reads the whole document
        let contains = Alg::tree(
            Alg::select(
                Alg::bind_over(pushed(), "d", parse_filter("work [ title: $t ]").unwrap()),
                Pred::Call {
                    name: "contains".into(),
                    args: vec![Operand::var("d"), Operand::cst("Giverny")],
                },
            ),
            Template::Var("t".into()),
        );
        assert_eq!(push_element_sets(&contains, &iface(true)), contains);
        // a star-collect edge binds what the set would drop
        let collect = scan("work [ title: $t, *($fields) ]");
        assert_eq!(push_element_sets(&collect, &iface(true)), collect);
        // a projection above a join drops the document: eligible
        let joined = Alg::tree(
            Alg::project_keep(
                Alg::join(
                    Alg::bind_over(pushed(), "d", parse_filter("work [ title: $t ]").unwrap()),
                    Alg::bind(Alg::source("local"), parse_filter("x *$t'").unwrap()),
                    Pred::var_eq("t", "t'"),
                ),
                &["t"],
            ),
            Template::Var("t".into()),
        );
        assert_ne!(push_element_sets(&joined, &iface(true)), joined);
        // but a union deduplicates whole rows, the document included
        let union = Alg::tree(
            Alg::project_keep(
                Arc::new(Alg::Union {
                    left: Alg::bind_over(
                        pushed(),
                        "d",
                        parse_filter("work [ title: $t ]").unwrap(),
                    ),
                    right: Alg::bind_over(
                        pushed(),
                        "d",
                        parse_filter("work [ title: $t ]").unwrap(),
                    ),
                }),
                &["t"],
            ),
            Template::Var("t".into()),
        );
        assert_eq!(push_element_sets(&union, &iface(true)), union);
    }
}
