//! The differential harness's three case families, each run under the
//! oracle and every row of the covering table (`harness/mod.rs`):
//!
//! - random YATL queries over the art (O2) + Wais substrates, drawn from
//!   all nine [`Shape`]s;
//! - random `DJoin`-into-`Push` plans ([`PassingCase`]), the shape
//!   set-oriented information passing applies to;
//! - the paper's queries at every optimization level of Figs. 8 and 9,
//!   and the view queries behind Figs. 4 and 7, as fixed cases.
//!
//! Two relaxations are declared here, once each: a passing case's
//! oracle is itself held to in-place evaluation and a round-trip bound
//! ([`PassingCase::check_oracle`]), and the element-set sweep holds the
//! default optimizer to the naive plan on answer bytes only
//! ([`optimized_and_naive_agree_with_element_sets_on_random_plans`]).

mod harness;

use harness::{
    fail, master_seed, observe, row, scenario_federation, shrink, sweep, Case, Config, Observation,
    Outcome, StoreDir, ALL_ROWS, TABLE,
};
use std::path::Path;
use std::sync::Arc;
use yat::yat_algebra::{
    Alg, EvalCtx, FnRegistry, Operand, PassedBindings, Pred, SkolemRegistry, Template,
};
use yat::yat_capability::protocol::{Request, Response, ServerReply, MAX_BATCH_BINDINGS};
use yat::yat_mediator::{Mediator, MediatorError, OptimizerOptions};
use yat::yat_model::Forest;
use yat::yat_yatl::{paper, parse_filter};
use yat_bench::figures::pipeline::LEVELS;
use yat_bench::workload::Scenario;
use yat_prng::Rng;

const CASES: usize = 200;
const DEFAULT_SEED: u64 = 0xD1FF_2026;

/// String constants with a quote, a backslash, both quote kinds,
/// non-ASCII text — and one plain name the generated data contains, so
/// some equalities select rows.
const AWKWARD_STRINGS: &[&str] = &[
    "say \"cheese\"",
    "back\\slash",
    "it's \\\"both\\\"",
    "Nymphéas — 睡蓮",
    "Claude Monet",
];

/// `text` as a YATL string literal.
fn yatl_string(text: &str) -> String {
    format!("\"{}\"", text.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Which MATCH shape the query uses and which variables it binds.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// O2 artifacts extent: binds `$t, $y, $c, $p`.
    Artifacts,
    /// O2 persons extent: binds `$n, $au`.
    Persons,
    /// Wais works collection: binds `$t2, $a, $s`.
    Works,
    /// The integrated `artworks` view: binds `$t, $a, $p, $s`.
    View,
    /// The view's semistructured tail (Q1 shape): binds `$t, $cl`.
    ViewPlace,
    /// Cross-source join of artifacts and works: binds both var sets;
    /// the title equi-join predicate is always kept at position 0.
    ArtifactsJoinWorks,
    /// Whole works under a full-text predicate: binds `$w`, the
    /// document itself, so no element set can be pushed.
    WorksContains,
    /// Works with a star-collect edge: binds `$t2, $f`, where `$f`
    /// collects every field but the title.
    WorksCollect,
    /// Works through the nested `history [ technique ]` field, whose
    /// content mixes text and elements: binds `$t2, $tq`.
    WorksHistory,
}

impl Shape {
    fn match_clause(self) -> &'static str {
        match self {
            Shape::Artifacts => {
                "artifacts WITH set *class: artifact: \
                 tuple [ title: $t, year: $y, creator: $c, price: $p ]"
            }
            Shape::Persons => "persons WITH set *class: person: tuple [ name: $n, auction: $au ]",
            Shape::Works => "works WITH works *work [ title: $t2, artist: $a, style: $s ]",
            Shape::View => "artworks WITH doc.work.[ title.$t, artist.$a, price.$p, style.$s ]",
            Shape::ViewPlace => "artworks WITH doc.work.[ title.$t, more.cplace.$cl ]",
            Shape::ArtifactsJoinWorks => {
                "artifacts WITH set *class: artifact: \
                 tuple [ title: $t, year: $y, creator: $c, price: $p ], \
                 works WITH works *work [ title: $t2, artist: $a, style: $s ]"
            }
            Shape::WorksContains => "works WITH works *$w",
            Shape::WorksCollect => "works WITH works *work [ title: $t2, *($f) ]",
            Shape::WorksHistory => {
                "works WITH works *work [ title: $t2, history [ technique: $tq ] ]"
            }
        }
    }

    fn vars(self) -> &'static [&'static str] {
        match self {
            Shape::Artifacts => &["$t", "$y", "$c", "$p"],
            Shape::Persons => &["$n", "$au"],
            Shape::Works => &["$t2", "$a", "$s"],
            Shape::View => &["$t", "$a", "$p", "$s"],
            Shape::ViewPlace => &["$t", "$cl"],
            Shape::ArtifactsJoinWorks => &["$t", "$y", "$c", "$p", "$t2", "$a", "$s"],
            Shape::WorksContains => &["$w"],
            Shape::WorksCollect => &["$t2", "$f"],
            Shape::WorksHistory => &["$t2", "$tq"],
        }
    }

    /// Candidate WHERE predicates over this shape's variables.
    fn predicate_pool(self, rng: &mut Rng) -> Vec<String> {
        let style = *rng.choose(&["Impressionist", "Cubist", "Realist"]);
        let price = rng.gen_range(1..6i64) * 100_000;
        let year = *rng.choose(&[1800i64, 1850, 1900]);
        let auction = rng.gen_range(1..9i64) * 25_000;
        let mut pool = Vec::new();
        for v in self.vars() {
            match *v {
                // string constants every wrapper must carry through its
                // own query language, wire XML and cache keys unharmed
                "$t" | "$c" | "$n" | "$t2" | "$a" => {
                    let awkward = *rng.choose(AWKWARD_STRINGS);
                    let op = if rng.gen_bool(0.5) { "=" } else { "!=" };
                    pool.push(format!("{v} {op} {}", yatl_string(awkward)));
                }
                "$p" => pool.push(if rng.gen_bool(0.5) {
                    format!("$p <= {price}.0")
                } else {
                    format!("$p > {price}.0")
                }),
                "$y" => pool.push(if rng.gen_bool(0.5) {
                    format!("$y > {year}")
                } else {
                    format!("$y <= {year}")
                }),
                "$s" => pool.push(format!("$s = \"{style}\"")),
                "$au" => pool.push(format!("$au > {auction}.0")),
                "$cl" => pool.push("$cl = \"Giverny\"".to_string()),
                "$w" => pool.push(format!("contains($w, \"{style}\")")),
                "$tq" => pool.push("$tq != \"Oil on canvas\"".to_string()),
                _ => {}
            }
        }
        pool
    }
}

/// One random YATL case: a query plus the knobs it runs under.
#[derive(Clone, Debug)]
struct Query {
    scale: usize,
    scenario_seed: u64,
    shape: Shape,
    preds: Vec<String>,
    make: String,
    opt_level: u8,
    lanes: usize,
}

impl Query {
    fn generate(rng: &mut Rng) -> Query {
        let shape = *rng.choose(&[
            Shape::Artifacts,
            Shape::Persons,
            Shape::Works,
            Shape::View,
            Shape::ViewPlace,
            Shape::ArtifactsJoinWorks,
            Shape::WorksContains,
            Shape::WorksCollect,
            Shape::WorksHistory,
        ]);
        let mut preds = Vec::new();
        if matches!(shape, Shape::ArtifactsJoinWorks) {
            // the equi-join that makes the two pushes comparable work
            preds.push("$t = $t2".to_string());
            if rng.gen_bool(0.5) {
                preds.push("$c = $a".to_string());
            }
        }
        let mut pool = shape.predicate_pool(rng);
        let keep = rng.gen_range(0..pool.len() + 1);
        for _ in 0..keep {
            preds.push(pool.remove(rng.gen_range(0..pool.len())));
        }

        let vars = shape.vars();
        let v1 = *rng.choose(vars);
        let v2 = *rng.choose(vars);
        let make = match rng.gen_range(0..4u32) {
            0 => format!("MAKE {v1}"),
            1 => format!("MAKE out *({v1}) := r [ {v1} ]"),
            2 if v1 != v2 => format!("MAKE out *({v1},{v2}) := r [ a: {v1}, b: {v2} ]"),
            _ => format!("MAKE out *&entry({v1}) := item [ k: {v1} ]"),
        };

        Query {
            scale: rng.gen_range(8..20usize),
            scenario_seed: rng.gen_range(0..1000u64),
            shape,
            preds,
            make,
            opt_level: rng.gen_range(0..3u8),
            lanes: rng.gen_range(1..5usize),
        }
    }

    fn text(&self) -> String {
        let mut q = format!("{} MATCH {}", self.make, self.shape.match_clause());
        if !self.preds.is_empty() {
            q.push_str(" WHERE ");
            q.push_str(&self.preds.join(" AND "));
        }
        q
    }

    fn options(&self) -> OptimizerOptions {
        match self.opt_level {
            0 => OptimizerOptions::naive(),
            1 => OptimizerOptions::default(),
            _ => OptimizerOptions::full(),
        }
    }
}

/// The two-source scenario at `scale` documents, generated from `seed`.
fn scenario(scale: usize, seed: u64) -> Scenario {
    Scenario {
        seed,
        ..Scenario::at_scale(scale)
    }
}

impl Case for Query {
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn federation(&self, config: Config, store: Option<&Path>) -> Mediator {
        scenario_federation(scenario(self.scale, self.scenario_seed), config, store)
    }

    fn plan(&self, m: &Mediator) -> Result<Arc<Alg>, MediatorError> {
        Ok(m.optimize(&m.plan_query(&self.text())?, self.options()).0)
    }

    /// Half the predicates, then half the data.
    fn smaller(&self) -> Vec<Query> {
        let mut out = Vec::new();
        if !self.preds.is_empty() {
            let mut fewer = self.clone();
            fewer.preds.truncate(self.preds.len() / 2);
            out.push(fewer);
        }
        if self.scale > 2 {
            let mut less = self.clone();
            less.scale /= 2;
            out.push(less);
        }
        out
    }
}

/// The random plans: every one, under each of `rows` of the covering
/// table, answers and ships like the oracle; a warm cache answers again
/// with no traffic. The five tests below split the table's seven rows
/// between them, so together they run every plan under every row once;
/// each is named for a dimension all its rows move off the oracle.
fn random_plans_under(family: &str, rows: &[usize]) {
    let seed = master_seed(DEFAULT_SEED);
    let mut rng = Rng::seed_from_u64(seed);
    let cases: Vec<Query> = (0..CASES).map(|_| Query::generate(&mut rng)).collect();
    sweep(family, seed, &cases, rows);
}

/// Parallel with the case's lanes, the cache off and on.
const PARALLEL_ROWS: &[usize] = &[1, 6];
/// A bounded cache: cold equal to the oracle, warm shipping nothing.
const CACHED_ROWS: &[usize] = &[0];
/// Answers streamed in small chunks and reassembled.
const STREAMED_ROWS: &[usize] = &[2];
/// Indexed sources, against the scanning oracle.
const INDEXED_ROWS: &[usize] = &[5];
/// Sources served from a remounted document store.
const STORE_ROWS: &[usize] = &[3, 4];

#[test]
fn sequential_and_parallel_agree_on_random_plans() {
    random_plans_under("random plans, parallel rows", PARALLEL_ROWS);
}

#[test]
fn cache_off_cold_and_warm_agree_on_random_plans() {
    random_plans_under("random plans, cached rows", CACHED_ROWS);
}

#[test]
fn streamed_and_materialized_agree_on_random_plans() {
    random_plans_under("random plans, streamed rows", STREAMED_ROWS);
}

#[test]
fn indexed_and_scan_agree_on_random_plans() {
    random_plans_under("random plans, indexed rows", INDEXED_ROWS);
}

#[test]
fn store_backed_and_in_memory_agree_on_random_plans() {
    random_plans_under("random plans, store rows", STORE_ROWS);
}

/// The five random-plan tests run every row of the table exactly once,
/// and each row moves its test's dimension off the oracle.
#[test]
fn the_random_plan_tests_split_the_table() {
    type Slice = (&'static [usize], fn(&Config) -> bool);
    let split: [Slice; 5] = [
        (PARALLEL_ROWS, |c| c.parallel),
        (CACHED_ROWS, |c| c.cache),
        (STREAMED_ROWS, |c| c.streamed),
        (INDEXED_ROWS, |c| c.index),
        (STORE_ROWS, |c| c.store),
    ];
    for (rows, moved) in split {
        for &r in rows {
            assert!(
                moved(&TABLE[r]),
                "row {r} {:?} is the oracle's there",
                TABLE[r]
            );
        }
    }
    let mut rows: Vec<usize> = split
        .iter()
        .flat_map(|(rows, _)| rows.iter().copied())
        .collect();
    rows.sort_unstable();
    assert_eq!(rows, ALL_ROWS);
}

/// The element-set relaxation: over all nine shapes — the works scans,
/// the view and the cross-source join among them, shapes the element-set
/// rule must decline (whole documents under `contains`, a star-collect
/// edge) and the nested `history` field — the default optimizer answers
/// byte for byte what the naive plan answers, in the oracle config. Only the answer
/// bytes are compared: an element set changes what the sources ship by
/// design. A nonzero share of the cases must push an element set, and
/// no case of a declined shape may push one.
#[test]
fn optimized_and_naive_agree_with_element_sets_on_random_plans() {
    let seed = master_seed(DEFAULT_SEED);
    let mut rng = Rng::seed_from_u64(seed ^ 0xE1E5);
    let cases = CASES / 2;
    let at = |case: &Query, opt_level| Query {
        opt_level,
        ..case.clone()
    };
    let answer = |c: &Query| observe(c, Config::ORACLE, &StoreDir::new()).remove(0);
    let diverges = |case: &Query| {
        let (optimized, naive) = (answer(&at(case, 1)).outcome, answer(&at(case, 0)).outcome);
        (!matches!(optimized, Outcome::Answer(_)) || optimized != naive).then(|| {
            format!("the optimized plan diverges:\n  optimized: {optimized:?}\n  naive: {naive:?}")
        })
    };
    let (mut pushed, mut declined_cases) = (0, 0);
    for i in 0..cases {
        let case = at(&Query::generate(&mut rng), 1);
        if let Some(msg) = diverges(&case) {
            let shrunk = shrink(&case, |c| diverges(c).is_some());
            fail("element sets", seed, i, &case, (None, msg), &shrunk);
        }
        let m = scenario(case.scale, case.scenario_seed).mediator();
        let plan = m.plan_query(&case.text()).expect("the case plans");
        let p = m.optimize(&plan, case.options()).1.count("element-sets") > 0;
        // `works *$w` binds the document itself, and a delivered
        // `*($f)` collects what a set would drop; an undelivered one is
        // pruned first, leaving the title edge eligible
        let declined = match case.shape {
            Shape::WorksContains => true,
            Shape::WorksCollect => case.make.contains("$f"),
            _ => false,
        };
        if declined && p {
            panic!("case {i} (YAT_DIFF_SEED={seed}) pushed an element set: {case:?}");
        }
        declined_cases += usize::from(declined);
        pushed += usize::from(p);
    }
    println!(
        "element sets: {cases} cases, {pushed} pushed an element set, \
         {declined_cases} cases of a declined shape pushed none"
    );
    assert!(
        pushed > cases / 10,
        "element sets degenerated: only {pushed}/{cases} cases pushed an element set"
    );
    assert!(
        declined_cases > 0,
        "element sets degenerated: no case of a declined shape was drawn"
    );
}

/// A hand-built `DJoin` whose dependent side is a `Push` — the shape
/// set-oriented information passing applies to — with a left side that
/// carries what a real driving table carries: duplicate bindings, a
/// tree-valued column, optionally a `Null` column, and sometimes no rows
/// at all.
#[derive(Clone, Debug)]
struct PassingCase {
    scale: usize,
    scenario_seed: u64,
    lanes: usize,
    /// The dependent fragment and what the left side passes it.
    right: Passed,
    /// Style the left side is restricted to; `"Nonexistent"` empties it.
    style: Option<&'static str>,
    /// Whether the left side carries an all-`Null` column.
    null_column: bool,
}

#[derive(Clone, Copy, Debug)]
enum Passed {
    /// O2 fragment with `$a` free in its predicate.
    Creator,
    /// O2 fragment with `$a` and `$t2` free (Fig. 9's shape).
    CreatorAndTitle,
    /// O2 fragment whose *filter* shares `$c` with the left side.
    SharedFilterVar,
    /// Wais fragment `contains($w, $c)`, re-checked mediator-side (the
    /// full-text and the substring readings of `contains` differ, the
    /// equality on top of them does not).
    WaisNeedle,
}

impl PassingCase {
    fn generate(rng: &mut Rng) -> PassingCase {
        PassingCase {
            scale: rng.gen_range(8..24usize),
            scenario_seed: rng.gen_range(0..1000u64),
            lanes: rng.gen_range(1..5usize),
            right: *rng.choose(&[
                Passed::Creator,
                Passed::CreatorAndTitle,
                Passed::SharedFilterVar,
                Passed::WaisNeedle,
            ]),
            style: *rng.choose(&[
                None,
                None,
                Some("Impressionist"),
                Some("Cubist"),
                Some("Nonexistent"),
            ]),
            null_column: rng.gen_bool(0.5),
        }
    }

    /// `(left, dependent push, answer template)`.
    fn parts(&self) -> (Arc<Alg>, Arc<Alg>, Template) {
        let filter = |f: &str| parse_filter(f).expect("the case's filters are well-formed");
        let artifacts = "set *class: artifact: tuple [ title: $t, creator: $c, price: $p ]";
        let answer = |vars: &[&str]| {
            let fields = vars.iter().map(|v| Template::elem_var(*v, *v)).collect();
            Template::sym(
                "out",
                vec![Template::group(vars, Template::sym("r", fields))],
            )
        };
        if matches!(self.right, Passed::WaisNeedle) {
            // artifacts drive, whole objects riding along as trees (never
            // emptied: the re-check above the join reads `$w`, a column
            // a `DJoin` over no rows does not have)
            let left = Alg::bind(
                Alg::source_at("o2artifact", "artifacts"),
                filter("set *$x: class: artifact: tuple [ title: $t, creator: $c ]"),
            );
            let push = Alg::push(
                "xmlartwork",
                Alg::select(
                    Alg::bind(Alg::source("works"), filter("works *$w")),
                    Pred::Call {
                        name: "contains".into(),
                        args: vec![Operand::var("w"), Operand::var("c")],
                    },
                ),
            );
            return (left, push, answer(&["t", "c", "t2"]));
        }
        // works drive, whole documents riding along as trees; artists
        // repeat, so bindings do
        let mut left = Alg::bind(
            Alg::source_at("xmlartwork", "works"),
            filter("works *$w: work [ title: $t2, artist: $a, style: $s ]"),
        );
        if let Some(style) = self.style {
            left = Alg::select(left, Pred::eq_const("s", style));
        }
        let (push, vars): (Arc<Alg>, &[&str]) = match self.right {
            Passed::Creator => (
                Alg::select(
                    Alg::bind(Alg::source("artifacts"), filter(artifacts)),
                    Pred::var_eq("c", "a"),
                ),
                &["t2", "a", "t", "p"],
            ),
            Passed::CreatorAndTitle => (
                Alg::select(
                    Alg::bind(Alg::source("artifacts"), filter(artifacts)),
                    Pred::var_eq("c", "a").and(Pred::var_eq("t", "t2")),
                ),
                &["t2", "a", "p"],
            ),
            Passed::SharedFilterVar => {
                left = Alg::project(
                    left,
                    vec![
                        ("w".into(), "w".into()),
                        ("t2".into(), "t2".into()),
                        ("a".into(), "c".into()),
                    ],
                );
                (
                    Alg::bind(Alg::source("artifacts"), filter(artifacts)),
                    &["t2", "c", "t", "p"],
                )
            }
            Passed::WaisNeedle => unreachable!("handled above"),
        };
        (left, Alg::push("o2artifact", push), answer(vars))
    }

    /// The whole plan: the answer template over the `DJoin`.
    fn whole(&self) -> Arc<Alg> {
        let (mut left, push, template) = self.parts();
        if self.null_column {
            let mut cols: Vec<(String, String)> = left
                .out_vars()
                .expect("the left side's columns are static")
                .into_iter()
                .map(|c| (c.clone(), c))
                .collect();
            cols.push(("no_such_column".into(), "gone".into()));
            left = Alg::project(left, cols);
        }
        let mut joined = Alg::djoin(left, push);
        if matches!(self.right, Passed::WaisNeedle) {
            joined = Alg::select(
                Alg::bind_over(
                    joined,
                    "w",
                    parse_filter("work [ title: $t2, artist: $a2 ]").expect("well-formed"),
                ),
                Pred::var_eq("a2", "c"),
            );
        }
        Alg::tree(joined, template)
    }

    /// The source the dependent fragment ships to, as an index into
    /// [`Case::sources`]: O2, or Wais for the needle.
    fn pushed_to(&self) -> usize {
        usize::from(matches!(self.right, Passed::WaisNeedle))
    }
}

impl Case for PassingCase {
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn federation(&self, config: Config, store: Option<&Path>) -> Mediator {
        scenario_federation(scenario(self.scale, self.scenario_seed), config, store)
    }

    fn plan(&self, _: &Mediator) -> Result<Arc<Alg>, MediatorError> {
        Ok(self.whole())
    }

    /// The passing relaxation. The oracle itself runs the handler-batched
    /// plan, so its answer is held to in-place reference evaluation (no
    /// `PushHandler`: the fragment evaluated per left row over fetched
    /// documents) on bytes alone, and its dependent side to at most
    /// `1 + ⌈distinct / chunk⌉` round trips however many rows drive it.
    fn check_oracle(&self, oracle: &Observation) -> Result<(), String> {
        let (left, push, _) = self.parts();
        let Alg::Push { plan: frag, .. } = push.as_ref() else {
            unreachable!("parts() builds a Push")
        };
        // the reference: every export fetched, everything evaluated in
        // place by the handler-less interpreter
        let fetcher = self.federation(Config::ORACLE, None);
        let mut forest = Forest::new();
        for (source, iface) in fetcher.interfaces() {
            let conn = fetcher
                .connection(source)
                .expect("imported sources connect");
            for export in &iface.exports {
                match conn.call(&Request::GetDocument {
                    name: export.name.clone(),
                }) {
                    Ok(Response::Document { name, tree }) => forest.insert(name, tree),
                    other => return Err(format!("fetching {}: {other:?}", export.name)),
                }
            }
        }
        let (funcs, skolems) = (FnRegistry::with_builtins(), SkolemRegistry::new());
        let ctx = EvalCtx::local(&forest, &funcs, &skolems);
        let want = yat::yat_algebra::eval(&self.whole(), &ctx).map_err(|e| e.to_string())?;
        let want = Outcome::Answer(ServerReply::answer(want).to_xml().to_xml());
        if oracle.outcome != want {
            return Err(format!("in-place evaluation {want:?}\noracle {oracle:?}"));
        }
        let driving = yat::yat_algebra::eval(&left, &ctx).and_then(|out| out.tab(&left));
        let driving = driving.map_err(|e| e.to_string())?;
        let (bindings, _) = PassedBindings::collect(&driving, &Default::default(), frag);
        let distinct = bindings.rows.len() as u64;
        let bound = if driving.is_empty() {
            0
        } else {
            1 + distinct.div_ceil(MAX_BATCH_BINDINGS as u64)
        };
        // the left side's mediator-side read may fetch from the
        // pushed-to source as well; only WaisNeedle's left reads O2, and
        // its push goes to Wais
        let trips = oracle.traffic[self.pushed_to()].round_trips;
        if trips > bound {
            return Err(format!(
                "{trips} round trips for {} rows / {distinct} distinct bindings (bound {bound})",
                driving.len()
            ));
        }
        Ok(())
    }
}

/// Seeded `DJoin`-into-`Push` plans whose left side has duplicate,
/// tree-valued, `Null` and zero bindings agree with the oracle under
/// every config, and the oracle with in-place evaluation.
#[test]
fn batched_passing_agrees_with_in_place_evaluation_on_random_djoins() {
    let seed = master_seed(DEFAULT_SEED);
    let mut rng = Rng::seed_from_u64(seed ^ 0xD301);
    let cases: Vec<PassingCase> = (0..CASES / 5)
        .map(|_| PassingCase::generate(&mut rng))
        .collect();
    let oracles = sweep("passing", seed, &cases, &ALL_ROWS);
    let answered = oracles
        .iter()
        .filter(|o| matches!(&o.outcome, Outcome::Answer(a) if a.contains("<r>")))
        .count();
    assert!(
        answered > cases.len() / 4,
        "passing degenerated: only {answered}/{} joins produced any row",
        cases.len()
    );
}

/// Fig. 4: bind the works collection with the figure's filter, rebuild
/// it grouped by artist under Skolem identifiers.
const FIG4_GROUP_BY_ARTIST: &str = "\
MAKE s *&artist($a) := artist [ name: $a, titles *$t ] \
MATCH works WITH works *work [ title: $t, artist: $a, style: $s, size: $si, *($fields) ]";

/// Fig. 7, upper row: vertical navigation from artifacts through the
/// `owners` references into person tuples.
const FIG7_NAVIGATION: &str = "\
MAKE out *($t,$o) := owned [ title: $t, owner: $o, auction: $au ] \
MATCH artifacts WITH set *class: artifact: tuple [ title: $t, \
      owners: list *class: person: tuple [ name: $o, auction: $au ] ]";

/// Fig. 7, lower middle: a structured query over semistructured data —
/// only two of the filter's five variables are used.
const FIG7_PROJECTED_FILTER: &str = "\
MAKE out *($t,$a) := w [ title: $t, artist: $a ] \
MATCH works WITH works *work [ title: $t, artist: $a, style: $s, size: $si, *($fields) ]";

/// A paper query at one optimization level, over 40 documents per
/// source, with four lanes when parallel.
#[derive(Clone, Debug)]
struct Paper(&'static str, OptimizerOptions);

impl Case for Paper {
    fn lanes(&self) -> usize {
        4
    }

    fn federation(&self, config: Config, store: Option<&Path>) -> Mediator {
        scenario_federation(Scenario::at_scale(40), config, store)
    }

    fn plan(&self, m: &Mediator) -> Result<Arc<Alg>, MediatorError> {
        Ok(m.optimize(&m.plan_query(self.0)?, self.1).0)
    }

    fn check_oracle(&self, oracle: &Observation) -> Result<(), String> {
        match &oracle.outcome {
            Outcome::Answer(a) if a.len() > 40 => Ok(()),
            other => Err(format!("answers nothing: {other:?}")),
        }
    }
}

/// Q1 and Q2 at each optimization level of Figs. 8 and 9, and the view
/// queries behind Figs. 4 and 7, under every config — the served ones
/// (rows 0–2) included.
#[test]
fn paper_queries_agree_with_the_oracle_under_every_config() {
    // Fig. 8 assumes containment for Q1; Fig. 9 does not need it
    let levels = LEVELS.iter().flat_map(|level| {
        [
            Paper(paper::Q1, level.options(true)),
            Paper(paper::Q2, level.options(false)),
        ]
    });
    let figures = [FIG4_GROUP_BY_ARTIST, FIG7_NAVIGATION, FIG7_PROJECTED_FILTER]
        .into_iter()
        .flat_map(|q| {
            [
                Paper(q, OptimizerOptions::naive()),
                Paper(q, OptimizerOptions::default()),
            ]
        });
    let cases: Vec<Paper> = levels.chain(figures).collect();
    sweep(
        "paper queries",
        master_seed(DEFAULT_SEED),
        &cases,
        &ALL_ROWS,
    );
}

/// Every value pair of any two dimensions appears in some row, and so
/// does each configuration the benchmark serves.
#[test]
fn the_covering_table_holds_every_pair_and_every_served_config() {
    let dims = |c: &Config| [c.parallel, c.cache, c.streamed, c.index, c.store];
    for (a, b) in (0..5).flat_map(|a| (a + 1..5).map(move |b| (a, b))) {
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let covered = TABLE.iter().any(|c| (dims(c)[a], dims(c)[b]) == (va, vb));
            assert!(covered, "no row has dimension {a} = {va} and {b} = {vb}");
        }
    }
    // sequential with a bounded cache, parallel with the cache off, and
    // parallel streamed, indexes on and in memory
    for served in [
        row(false, true, false, true, false),
        row(true, false, false, true, false),
        row(true, false, true, true, false),
    ] {
        assert!(TABLE.contains(&served), "{served:?} is served");
    }
}

/// One seed draws one case list, and observing a case is a function of
/// the case and the config, so pinning a seed pins the whole run.
#[test]
fn differential_harness_is_deterministic_per_seed() {
    let draw = || {
        let mut rng = Rng::seed_from_u64(0xA11CE);
        let queries: Vec<Query> = (0..8).map(|_| Query::generate(&mut rng)).collect();
        let passing: Vec<PassingCase> = (0..8).map(|_| PassingCase::generate(&mut rng)).collect();
        (queries, passing)
    };
    let (first, second) = (draw(), draw());
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
    let case = &first.0[0];
    let store = StoreDir::new();
    for config in TABLE {
        assert_eq!(
            observe(case, config, &store),
            observe(case, config, &store),
            "{case:?} under {config:?}"
        );
    }
}
