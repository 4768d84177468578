//! Executable reproductions of the paper's figures: plan pairs
//! (before/after each rewriting) and the Q1/Q2 pipelines at every
//! optimization level.

use std::sync::Arc;
use yat_algebra::{Alg, Pred, Template};
use yat_mediator::OptimizerOptions;
use yat_model::{Forest, Node, Tree};
use yat_oql::art::{art_store, ArtSpec};
use yat_oql::export::extent_tree;
use yat_yatl::parse_filter;

/// Fig. 4: the Bind and Tree operators over the works collection.
pub mod fig4 {
    use super::*;
    use yat_wais::{generate_works, WorksSpec};

    /// A local forest holding `works` at the given size.
    pub fn forest(n: usize) -> Forest {
        let mut f = Forest::new();
        f.insert(
            "works",
            generate_works(&WorksSpec {
                works: n,
                impressionist_pct: 40,
                optional_pct: 60,
                giverny_pct: 30,
                seed: 4,
            }),
        );
        f
    }

    /// The Fig. 4 filter `F[$t,$a,$s,$si,$fields]`.
    pub fn filter() -> yat_model::Pattern {
        parse_filter("works *work [ title: $t, artist: $a, style: $s, size: $si, *($fields) ]")
            .expect("static filter parses")
    }

    /// `Bind(works, F)`.
    pub fn bind_plan() -> Arc<Alg> {
        Alg::bind(Alg::source("works"), filter())
    }

    /// `Tree(Bind(works, F))` with the figure's artist grouping.
    pub fn tree_plan() -> Arc<Alg> {
        Alg::tree(
            bind_plan(),
            Template::sym(
                "s",
                vec![Template::skolem_group(
                    "artist",
                    &["a"],
                    Template::sym(
                        "artist",
                        vec![
                            Template::elem_var("name", "a"),
                            Template::group(&["t"], Template::elem_var("title", "t")),
                        ],
                    ),
                )],
            ),
        )
    }
}

/// Fig. 7: the algebraic equivalences, as before/after plan pairs over
/// the exported O2 data.
pub mod fig7 {
    use super::*;
    use yat_model::Oid;
    use yat_prng::Rng;

    /// A local forest with the exported `artifacts` and `persons`
    /// documents (references resolvable).
    pub fn forest(artifacts: usize) -> Forest {
        let store = art_store(&ArtSpec {
            artifacts,
            persons: (artifacts / 5).max(2),
            seed: 7,
        });
        let mut f = Forest::new();
        f.insert(
            "artifacts",
            extent_tree(&store, "artifacts").expect("extent exists"),
        );
        f.insert(
            "persons",
            extent_tree(&store, "persons").expect("extent exists"),
        );
        f
    }

    /// A forest whose persons carry `extra_fields` additional attributes:
    /// the paper's navigation-vs-associative-access tradeoff shows once
    /// per-object matching is non-trivial and objects are shared (each
    /// person is owned by many artifacts). Navigation re-matches the
    /// person pattern per *occurrence*; the extent join matches each
    /// person once.
    pub fn wide_forest(artifacts: usize, extra_fields: usize) -> Forest {
        let persons = (artifacts / 10).max(2);
        let mut rng = Rng::seed_from_u64(77);
        let mut person_trees = Vec::with_capacity(persons);
        for p in 0..persons {
            let mut fields = vec![
                Node::elem("name", format!("Collector {p}")),
                Node::elem("auction", (10_000 * (p as i64 + 1)) as f64),
            ];
            for k in 0..extra_fields {
                fields.push(Node::elem(
                    format!("detail{k}"),
                    format!("lot {} of season {}", rng.gen_range(0..10_000), k),
                ));
            }
            person_trees.push(Node::oid(
                Oid::new(format!("p{p}")),
                vec![Node::sym(
                    "class",
                    vec![Node::sym("person", vec![Node::sym("tuple", fields)])],
                )],
            ));
        }
        let mut artifact_trees = Vec::with_capacity(artifacts);
        for a in 0..artifacts {
            let owners: Vec<yat_model::Tree> = (0..2)
                .map(|_| Node::reference(Oid::new(format!("p{}", rng.gen_range(0..persons)))))
                .collect();
            artifact_trees.push(Node::oid(
                Oid::new(format!("a{a}")),
                vec![Node::sym(
                    "class",
                    vec![Node::sym(
                        "artifact",
                        vec![Node::sym(
                            "tuple",
                            vec![
                                Node::elem("title", format!("Composition No. {a}")),
                                Node::sym("owners", vec![Node::sym("list", owners)]),
                            ],
                        )],
                    )],
                )],
            ));
        }
        let mut f = Forest::new();
        f.insert("persons", Node::sym("set", person_trees));
        f.insert("artifacts", Node::sym("set", artifact_trees));
        f
    }

    /// **Upper row**: the monolithic Bind navigating from artifacts down
    /// into the owners' person tuples (vertical navigation through
    /// references).
    pub fn navigation_plan() -> Arc<Alg> {
        Alg::bind(
            Alg::source("artifacts"),
            parse_filter(
                "set *class: artifact: tuple [ title: $t, \
                 owners: list *class: person: tuple [ name: $o, auction: $au ] ]",
            )
            .expect("static filter parses"),
        )
    }

    /// **Upper right**: navigation replaced by associative access — bind
    /// owners shallowly (each owner dereferences to its person object),
    /// bind the `persons` extent once, and hash-join the two
    /// ("we exploit the persons extent to transform the DJoin into a
    /// standard Join supporting more efficient evaluation algorithms").
    pub fn extent_join_plan() -> Arc<Alg> {
        let left = Alg::bind(
            Alg::source("artifacts"),
            parse_filter("set *class: artifact: tuple [ title: $t, owners: list [ *$own ] ]")
                .expect("static filter parses"),
        );
        let right = Alg::bind(
            Alg::source("persons"),
            parse_filter("set *$p2: class: person: tuple [ name: $o, auction: $au ]")
                .expect("static filter parses"),
        );
        Alg::project(
            Alg::join(left, right, Pred::var_eq("own", "p2")),
            vec![
                ("t".into(), "t".into()),
                ("o".into(), "o".into()),
                ("au".into(), "au".into()),
            ],
        )
    }

    /// Projection of the navigation plan onto the extent-join plan's
    /// columns, so the pair is comparable.
    pub fn navigation_plan_projected() -> Arc<Alg> {
        Alg::project(
            navigation_plan(),
            vec![
                ("t".into(), "t".into()),
                ("o".into(), "o".into()),
                ("au".into(), "au".into()),
            ],
        )
    }

    /// **Lower left**: a deep monolithic Bind over works.
    pub fn deep_bind_plan() -> Arc<Alg> {
        Alg::bind(
            Alg::source("works"),
            parse_filter("works *work [ title: $t, artist: $a, style: $s ]")
                .expect("static filter parses"),
        )
    }

    /// Its linear split: `Bind_over(Bind(works, works *$w), $w, …)`
    /// projected back to the original columns.
    pub fn split_bind_plan() -> Arc<Alg> {
        let split = yat_mediator::rules::bind_split::split_linear(
            &Alg::source("works"),
            &parse_filter("works *work [ title: $t, artist: $a, style: $s ]")
                .expect("static filter parses"),
        )
        .expect("the filter is splittable");
        Alg::project(
            split,
            vec![
                ("t".into(), "t".into()),
                ("a".into(), "a".into()),
                ("s".into(), "s".into()),
            ],
        )
    }

    /// **Lower middle** ("structured queries over semistructured data"):
    /// the full five-variable filter versus the projection-simplified
    /// filter when only `title`/`artist` are needed. The `_untyped`
    /// variant keeps mandatory edges as wildcards; `_typed` drops them
    /// using the Artworks structure.
    pub fn full_filter_bind() -> Arc<Alg> {
        Alg::project(
            Alg::bind(
                Alg::source("works"),
                parse_filter(
                    "works *work [ title: $t, artist: $a, style: $s, size: $si, *($fields) ]",
                )
                .expect("static filter parses"),
            ),
            vec![("t".into(), "t".into()), ("a".into(), "a".into())],
        )
    }

    /// The same query with the filter simplified *without* type
    /// information: unused variables become wildcards but the mandatory
    /// edges must stay.
    pub fn untyped_simplified_bind() -> Arc<Alg> {
        Alg::project(
            Alg::bind(
                Alg::source("works"),
                parse_filter("works *work [ title: $t, artist: $a, style: _, size: _ ]")
                    .expect("static filter parses"),
            ),
            vec![("t".into(), "t".into()), ("a".into(), "a".into())],
        )
    }

    /// The same query simplified *with* type information (Section 5.1):
    /// the structure guarantees `style`/`size`, so the filter shrinks to
    /// the two useful edges.
    pub fn typed_simplified_bind() -> Arc<Alg> {
        Alg::bind(
            Alg::source("works"),
            parse_filter("works *work [ title: $t, artist: $a ]").expect("static filter parses"),
        )
    }

    /// **Lower right** ("semistructured queries over structured data"):
    /// retrieve the attribute names of person objects with a label
    /// variable.
    pub fn label_variable_bind() -> Arc<Alg> {
        Alg::bind(
            Alg::source("persons"),
            parse_filter("set *class: person: tuple [ *$f: ~$n [ _ ] ]")
                .expect("static filter parses"),
        )
    }
}

/// Figs. 5, 8 and 9: the Q1/Q2 pipelines at increasing optimization
/// levels.
pub mod pipeline {
    use super::*;

    /// How much of Section 5 is enabled.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Level {
        /// Materialize the view, evaluate the query on it (Fig. 8 left).
        Naive,
        /// Round 1 only: composition + simplification (Fig. 8 middle).
        Composition,
        /// Rounds 1–2: + capability-based pushdown (Fig. 8 right /
        /// Fig. 9 before information passing).
        Capability,
        /// All three rounds (Fig. 9 right).
        Full,
    }

    /// All levels, for sweeps.
    pub const LEVELS: [Level; 4] = [
        Level::Naive,
        Level::Composition,
        Level::Capability,
        Level::Full,
    ];

    impl Level {
        /// Optimizer options for this level. `containment` enables the
        /// Fig. 8 branch elimination (sound for Q1 by the paper's
        /// assumption; unnecessary for Q2).
        pub fn options(self, containment: bool) -> OptimizerOptions {
            match self {
                Level::Naive => OptimizerOptions::naive(),
                Level::Composition => OptimizerOptions {
                    capability_pushdown: false,
                    info_passing: false,
                    assume_containment: containment,
                    ..Default::default()
                },
                Level::Capability => OptimizerOptions {
                    info_passing: false,
                    assume_containment: containment,
                    ..Default::default()
                },
                Level::Full => OptimizerOptions {
                    assume_containment: containment,
                    ..Default::default()
                },
            }
        }

        /// Display name for reports.
        pub fn name(self) -> &'static str {
            match self {
                Level::Naive => "naive",
                Level::Composition => "composition",
                Level::Capability => "capability",
                Level::Full => "full",
            }
        }
    }
}

/// A tiny helper: evaluate a plan over a local forest with fresh
/// registries, returning the Tab row count (benches use it to force
/// evaluation).
pub fn eval_rows(plan: &Alg, forest: &Forest) -> usize {
    let funcs = yat_algebra::FnRegistry::with_builtins();
    let skolems = yat_algebra::SkolemRegistry::new();
    let ctx = yat_algebra::EvalCtx::local(forest, &funcs, &skolems);
    match yat_algebra::eval(plan, &ctx).expect("figure plans evaluate") {
        yat_algebra::EvalOut::Tab(t) => t.len(),
        yat_algebra::EvalOut::Tree(t) => t.children.len(),
    }
}

/// Sorted leaf fingerprint of a result tree (Skolem ids ignored) —
/// shared by report and tests to compare plan outputs.
pub fn fingerprint(t: &Tree) -> Vec<String> {
    fn walk(t: &Tree, out: &mut Vec<String>) {
        match &t.label {
            yat_model::Label::Atom(a) => out.push(a.to_string()),
            yat_model::Label::Sym(s) => out.push(format!("<{s}>")),
            yat_model::Label::Oid(_) => out.push("<id>".into()),
            yat_model::Label::Ref(_) => out.push("<ref>".into()),
        }
        for c in &t.children {
            walk(c, out);
        }
    }
    let mut v = Vec::new();
    walk(t, &mut v);
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_plans_evaluate() {
        let f = fig4::forest(50);
        assert_eq!(eval_rows(&fig4::bind_plan(), &f), 50);
        let groups = eval_rows(&fig4::tree_plan(), &f);
        assert!(
            groups > 0 && groups <= 8,
            "one group per artist, got {groups}"
        );
    }

    #[test]
    fn fig7_navigation_equals_extent_join() {
        let f = fig7::forest(40);
        let funcs = yat_algebra::FnRegistry::with_builtins();
        let sk = yat_algebra::SkolemRegistry::new();
        let ctx = yat_algebra::EvalCtx::local(&f, &funcs, &sk);
        let nav = yat_algebra::eval(&fig7::navigation_plan_projected(), &ctx).unwrap();
        let join = yat_algebra::eval(&fig7::extent_join_plan(), &ctx).unwrap();
        let (Some(nav), Some(join)) = (nav.as_tab(), join.as_tab()) else {
            panic!()
        };
        assert!(!nav.is_empty());
        let key = |t: &yat_algebra::Tab| {
            let mut rows: Vec<String> = t
                .rows()
                .map(|r| r.iter().map(|v| v.group_key() + ";").collect())
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(key(nav), key(join));
    }

    #[test]
    fn fig7_split_equals_monolithic() {
        let f = fig4::forest(30);
        assert_eq!(
            eval_rows(&fig7::deep_bind_plan(), &f),
            eval_rows(&fig7::split_bind_plan(), &f)
        );
    }

    #[test]
    fn fig7_simplified_binds_agree() {
        let f = fig4::forest(30);
        let full = eval_rows(&fig7::full_filter_bind(), &f);
        let untyped = eval_rows(&fig7::untyped_simplified_bind(), &f);
        let typed = eval_rows(&fig7::typed_simplified_bind(), &f);
        assert_eq!(full, untyped);
        assert_eq!(full, typed, "type info guarantees the dropped edges");
    }

    #[test]
    fn fig7_label_variables_extract_schema() {
        let f = fig7::forest(10);
        let rows = eval_rows(&fig7::label_variable_bind(), &f);
        assert_eq!(rows, 4, "name and auction per person: 2 persons × 2 attrs");
    }

    #[test]
    fn levels_are_monotonic_in_enabled_rounds() {
        use pipeline::Level;
        let naive = Level::Naive.options(false);
        assert!(!naive.compose_elimination && !naive.capability_pushdown);
        let full = Level::Full.options(true);
        assert!(full.compose_elimination && full.capability_pushdown && full.info_passing);
        assert!(full.assume_containment);
    }
}
