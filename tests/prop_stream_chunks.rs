//! Seeded property test for pipelined answers: every chunk a streamed
//! execution hands its sink is the chunk the materialized answer is cut
//! into.
//!
//! `yat_algebra::stream::pipeline` evaluates a plan's pipeline source
//! whole and runs the row-local operators above it (`Bind … over`,
//! `Select`, `Map`, `Project`) and a row-keyed `Tree` template batch by
//! batch. For random plans over a random works collection, and for
//! `batch_rows` ∈ {1, 3, 7, 1024}, this harness holds it to
//! `stream::deliver` on `eval`'s materialized answer:
//!
//! * the same sink calls in the same order — the column layout, then
//!   each chunk as its encoded `answer-chunk` frame, byte for byte — so
//!   the chunk count and each chunk's bytes agree, including the single
//!   empty chunk of an empty answer;
//! * the same delivery stats;
//! * the same error when the materialized run fails (plans carry at most
//!   one operator that fails, on some rows only).
//!
//! Plans mix row-keyed templates (which stream), templates that keep a
//! `Tree` whole (a group missing a body variable, a label variable) and
//! table answers, over collections with repeated titles, `Int`/`Float`
//! years that group together, and no works at all.
//!
//! On a disagreement the harness shrinks the collection by halving and
//! reports the master seed, case and the smallest failing input.
//! Deterministic: the master seed is fixed (override with
//! `YAT_CHUNK_SEED=<u64>`).

use std::sync::Arc;
use yat::yat_algebra::stream::{deliver, pipeline};
use yat::yat_algebra::{
    eval, Alg, BatchSink, EvalCtx, EvalError, EvalOut, FnRegistry, Operand, SkolemRegistry, Tab,
    Value,
};
use yat::yat_capability::protocol::StreamFrame;
use yat::yat_model::{Atom, Forest, Node, Tree};
use yat::yat_yatl::parser::parse_pred;
use yat::yat_yatl::{parse_filter, parse_template};
use yat_prng::Rng;

const DEFAULT_SEED: u64 = 0xC4A2_2026;
const CASES: usize = 300;
const BATCH_ROWS: [usize; 4] = [1, 3, 7, 1024];

fn master_seed() -> u64 {
    std::env::var("YAT_CHUNK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

const TITLES: &[&str] = &["Nympheas", "Card Players", "Olympia", "Nympheas", "Irises"];
const ARTISTS: &[&str] = &["Claude Monet", "Paul Cézanne", "Edouard Manet"];
const STYLES: &[&str] = &["Impressionist", "Cubist", "Realist"];

/// A work with a title, an artist, usually a style and sometimes a year
/// (`Int` or the equal `Float`, which group together).
fn work(rng: &mut Rng) -> Tree {
    let mut fields = vec![
        Node::elem("title", *rng.choose(TITLES)),
        Node::elem("artist", *rng.choose(ARTISTS)),
    ];
    if rng.gen_bool(0.8) {
        fields.push(Node::elem("style", *rng.choose(STYLES)));
    }
    if rng.gen_bool(0.6) {
        let year = 1870 + rng.gen_range(0..3usize) as i64;
        let atom = if rng.gen_bool(0.5) {
            Atom::Int(year)
        } else {
            Atom::Float(year as f64)
        };
        fields.push(Node::sym("year", vec![Node::atom(atom)]));
    }
    Node::sym("work", fields)
}

/// A collection of 0–40 works; one in eight is empty.
fn works(rng: &mut Rng) -> Vec<Tree> {
    let n = if rng.gen_bool(0.125) {
        0
    } else {
        rng.gen_range(1..41usize)
    };
    (0..n).map(|_| work(rng)).collect()
}

/// A plan's text-level description, kept so a failure can be shown and
/// the plan rebuilt over a smaller collection.
#[derive(Debug, Clone)]
struct Case {
    /// Row-local steps above `Bind works *$w`, innermost first.
    steps: Vec<Step>,
    /// `Tree` template text, or `None` for a table answer.
    template: Option<&'static str>,
}

#[derive(Debug, Clone)]
enum Step {
    /// `Bind … over $w` with this filter.
    BindOver(&'static str),
    /// `Select` on this predicate.
    Select(&'static str),
    /// `Map $m := textof($var)`.
    Map(&'static str),
    /// `Project` keeping these columns, the last one renamed when asked.
    Project(Vec<&'static str>, bool),
}

/// Filters over one work, binding the title, artist, style and year.
const FILTERS: &[&str] = &[
    "work [ title: $t, artist: $a ]",
    "work [ title: $t, artist: $a, style: $s ]",
    "work [ title: $t, year: $y ]",
];

/// Templates: the first five are row-keyed and stream; the rest keep the
/// `Tree` whole (a body variable outside the key, a label variable, a
/// root with two children).
const TEMPLATES: &[&str] = &[
    "out *($t) := r [ $t ]",
    "out *($t, $a) := row [ title: $t, artist: $a ]",
    "out *&wk($t) := r [ $t ]",
    "out *($a, $t) := a [ name: $a, *($t) := t [ $t ] ]",
    "out *($w) := $w",
    "out *($a) := a [ name: $a, *($t) := t [ $t ] ]",
    "out *($t) := ~$t [ \"x\" ]",
    "out *($y) := ~$y [ \"x\" ]",
    "out [ *($t) := t [ $t ], \"end\" ]",
];

/// The variables a template reads.
fn template_vars(text: &str) -> Vec<&'static str> {
    ["t", "a", "y", "w"]
        .into_iter()
        .filter(|v| text.contains(&format!("${v}")))
        .collect()
}

/// A random case whose operators only read columns bound below them, so
/// the one operator that can fail is a `fussy` select, at most once.
fn case(rng: &mut Rng) -> Case {
    let mut steps = Vec::new();
    let mut cols: Vec<&'static str> = vec!["w"];
    let mut fussy = false;
    for _ in 0..rng.gen_range(0..5usize) {
        let step = match rng.gen_range(0..5usize) {
            0 if cols.contains(&"w") => {
                let filter = *rng.choose(FILTERS);
                for v in ["t", "a", "s", "y"] {
                    if filter.contains(&format!("${v}")) && !cols.contains(&v) {
                        cols.push(v);
                    }
                }
                Step::BindOver(filter)
            }
            1 if cols.contains(&"s") => Step::Select("$s != \"Cubist\""),
            1 if cols.contains(&"w") => Step::Select("contains($w, \"Monet\")"),
            2 if cols.contains(&"t") && !fussy => {
                fussy = true;
                Step::Select("fussy($t)")
            }
            3 if cols.contains(&"t") && !cols.contains(&"m") => {
                cols.push("m");
                Step::Map("t")
            }
            4 if cols.len() > 1 => {
                let keep: Vec<&'static str> = cols
                    .iter()
                    .copied()
                    .filter(|c| *c == "w" || rng.gen_bool(0.7))
                    .collect();
                // a renamed column leaves the names later steps may read
                let rename = rng.gen_bool(0.3) && keep.len() > 1;
                cols = keep[..keep.len() - usize::from(rename)].to_vec();
                Step::Project(keep, rename)
            }
            _ => continue,
        };
        steps.push(step);
    }
    let template = rng
        .gen_bool(0.75)
        .then(|| *rng.choose(TEMPLATES))
        .filter(|t| template_vars(t).iter().all(|v| cols.contains(v)));
    Case { steps, template }
}

impl Case {
    fn plan(&self) -> Arc<Alg> {
        let mut plan = Alg::bind(
            Alg::source("works"),
            parse_filter("works *$w").expect("filter parses"),
        );
        for step in &self.steps {
            plan = match step {
                Step::BindOver(f) => {
                    Alg::bind_over(plan, "w", parse_filter(f).expect("filter parses"))
                }
                Step::Select(p) => Alg::select(plan, parse_pred(p).expect("predicate parses")),
                Step::Map(var) => Arc::new(Alg::Map {
                    input: plan,
                    col: "m".into(),
                    expr: Operand::Call {
                        name: "textof".into(),
                        args: vec![Operand::var(*var)],
                    },
                }),
                Step::Project(keep, rename) => {
                    let cols = keep
                        .iter()
                        .enumerate()
                        .map(|(i, c)| {
                            let to = if *rename && i + 1 == keep.len() {
                                format!("{c}2")
                            } else {
                                c.to_string()
                            };
                            (c.to_string(), to)
                        })
                        .collect();
                    Alg::project(plan, cols)
                }
            };
        }
        match self.template {
            Some(t) => Alg::tree(plan, parse_template(t).expect("template parses")),
            None => plan,
        }
    }
}

/// Every call a sink saw: the layout, then each chunk as the encoded
/// `answer-chunk` frame the server would write.
#[derive(Debug, Default, PartialEq)]
struct Frames(Vec<String>);

impl Frames {
    fn chunk(&mut self, payload: EvalOut) {
        let seq = self.0.iter().filter(|f| !f.starts_with("columns")).count() as u64;
        let mut text = String::new();
        StreamFrame::Chunk { seq, payload }.encode(&mut text);
        self.0.push(text);
    }
}

impl BatchSink for Frames {
    fn on_columns(&mut self, columns: &[String]) -> Result<(), EvalError> {
        self.0.push(format!("columns {columns:?}"));
        Ok(())
    }

    fn on_batch(&mut self, batch: Tab) -> Result<(), EvalError> {
        self.chunk(EvalOut::Tab(batch));
        Ok(())
    }

    fn on_tree(&mut self, tree: &Tree) -> Result<(), EvalError> {
        self.chunk(EvalOut::Tree(tree.clone()));
        Ok(())
    }
}

/// What one delivery produced: its frames and stats, or its error.
type Outcome = Result<(Frames, u64, u64), EvalError>;

/// `fussy($t)` fails on one title and holds on the rest.
fn funcs() -> FnRegistry {
    let mut funcs = FnRegistry::with_builtins();
    funcs.register("fussy", |args: &[Value]| {
        let title = args.first().and_then(Value::atom).map(|a| a.to_string());
        if title.as_deref() == Some("Olympia") {
            return Err(EvalError::Function {
                name: "fussy".into(),
                message: "refuses Olympia".into(),
            });
        }
        Ok(Value::Atom(Atom::Bool(true)))
    });
    funcs
}

/// The materialized answer cut by `deliver`, and the pipelined run.
fn outcomes(plan: &Alg, docs: &[Tree], batch_rows: usize) -> (Outcome, Outcome) {
    let mut forest = Forest::new();
    forest.insert("works", Node::sym("works", docs.to_vec()));
    let (funcs, skolems) = (funcs(), SkolemRegistry::new());
    let ctx = EvalCtx::local(&forest, &funcs, &skolems);
    let run = |streamed: bool| -> Outcome {
        let mut frames = Frames::default();
        let stats = if streamed {
            pipeline(plan, &ctx, batch_rows, &mut frames)?
        } else {
            deliver(eval(plan, &ctx)?, batch_rows, &mut frames)?
        };
        Ok((frames, stats.chunks, stats.rows))
    };
    (run(false), run(true))
}

/// A disagreement between the two outcomes, described.
fn fault(plan: &Alg, docs: &[Tree], batch_rows: usize) -> Option<String> {
    let (cut, streamed) = outcomes(plan, docs, batch_rows);
    (cut != streamed).then(|| format!("materialized cut {cut:?}\nstreamed {streamed:?}"))
}

#[test]
fn streamed_chunks_are_the_materialized_answer_cut_into_batches() {
    let seed = master_seed();
    let mut rng = Rng::seed_from_u64(seed);
    let (mut multi, mut empty, mut failed, mut whole) = (0usize, 0usize, 0usize, 0usize);
    for case_no in 0..CASES {
        let case = case(&mut rng);
        let docs = works(&mut rng);
        let plan = case.plan();
        for batch_rows in BATCH_ROWS {
            if let Some(mut fault_text) = fault(&plan, &docs, batch_rows) {
                let mut small = docs.clone();
                while small.len() > 1 {
                    let half = small[..small.len() / 2].to_vec();
                    match fault(&plan, &half, batch_rows) {
                        Some(f) => {
                            small = half;
                            fault_text = f;
                        }
                        None => break,
                    }
                }
                panic!(
                    "streamed chunks differ (seed {seed}, case {case_no}, batch_rows {batch_rows}): {fault_text}\ncase {case:?}\nplan {plan}\nsmallest failing collection: {small:?}"
                );
            }
            match outcomes(&plan, &docs, batch_rows).0 {
                Ok((_, chunks, rows)) => {
                    multi += usize::from(chunks > 1);
                    empty += usize::from(rows == 0);
                }
                Err(_) => failed += 1,
            }
        }
        whole += usize::from(case.template.is_some_and(|t| TEMPLATES[5..].contains(&t)));
    }
    println!(
        "{CASES} cases × {} batch sizes: {multi} cut into 2+ chunks, {empty} empty answers, \
         {failed} failed runs, {whole} cases behind a whole-Tree breaker (seed {seed})",
        BATCH_ROWS.len()
    );
    // the cases must exercise every outcome, or they test nothing
    assert!(multi > CASES, "only {multi} multi-chunk deliveries");
    assert!(empty > 0, "no empty answer");
    assert!(failed > 0, "no failing plan");
    assert!(whole > 0, "no pipeline breaker");
}
