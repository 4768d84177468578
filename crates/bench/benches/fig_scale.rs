//! Scaling sweep of the hashed-key data plane: the dedup / group / join
//! keying kernels on Q1-shaped binding tables at increasing row counts,
//! each timed against the string-key reference implementation, plus
//! end-to-end Q1/Q2 over the mediator at increasing document sizes.
//!
//! The timed closures are the *kernels* — which rows survive DupElim,
//! how rows partition into groups, which (left, right) pairs join — on
//! both sides; output construction is identical row-cloning either way
//! (asserted below) and would only add the same constant to both
//! measurements.
//!
//! Unlike the other figure benches this one is machine-readable: besides
//! the usual console lines it writes `BENCH_scale.json` (override the
//! path with `YAT_SCALE_OUT`) with one entry per (operator, n):
//!
//! ```json
//! {"name": "dedup", "n": 8000, "hashed_ns": ..., "baseline_ns": ..., "speedup": ...}
//! ```
//!
//! A second family of entries compares the two *execution engines* on
//! the expression kernels the compiler actually changes: `vm select` and
//! `vm map` time the same plan under the bytecode VM (`hashed_ns`, the
//! new path) and the recursive interpreter (`baseline_ns`, the
//! reference), with the input table served by a `Push` handler so
//! neither side pays for `Bind`. Those ratios are gated like the keying
//! kernels. `q1/q2 e2e vm` repeat the end-to-end sweep with
//! `ExecEngine::Vm` selected on the mediator.
//!
//! End-to-end entries have no reference counterpart timed in the same
//! process; they carry `baseline_ns: 0` and *no* `speedup` key (a
//! placeholder 1.0 ratio would read as a measured result) and are
//! tracked for wall-clock context only. CI compares the *speedup* column
//! against the checked-in baseline via `report bench-diff` — ratios are
//! machine-independent, absolute times are not — and skips the
//! ratio-less rows.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use yat_algebra::{
    compile, eval, keys, vm, Alg, CmpOp, EvalCtx, EvalError, FnRegistry, Operand, Pred,
    PushHandler, SkolemRegistry, Tab, Value,
};
use yat_bench::{baseline, harness, workload::Scenario};
use yat_mediator::{ExecEngine, OptimizerOptions};
use yat_model::{match_filter, Atom, Forest, MatchOptions};
use yat_wais::{generate_works, WorksSpec};
use yat_yatl::parse_filter;

struct Entry {
    name: &'static str,
    n: usize,
    hashed_ns: u128,
    baseline_ns: u128,
}

impl Entry {
    /// The baseline/hashed ratio — `None` when no baseline was timed
    /// (end-to-end entries), so the JSON never carries a fake 1.0.
    fn speedup(&self) -> Option<f64> {
        (self.baseline_ns != 0).then(|| self.baseline_ns as f64 / self.hashed_ns.max(1) as f64)
    }
}

/// A Q1-shaped binding table: one row per work with title/artist/style/
/// size columns (trees, exercising the coercion path) — what `Bind` over
/// the works collection actually feeds the set-based operators.
fn bind_tab(works: usize) -> Tab {
    let doc = generate_works(&WorksSpec {
        works,
        impressionist_pct: 30,
        optional_pct: 60,
        giverny_pct: 30,
        seed: 7,
    });
    let filter =
        parse_filter("works *work [ title: $t, artist: $a, style: $s, size: $si, *($fields) ]")
            .expect("static filter parses");
    let rows = match_filter(&doc, &filter, MatchOptions::default());
    let cols = vec![
        "t".to_string(),
        "a".to_string(),
        "s".to_string(),
        "si".to_string(),
        "fields".to_string(),
    ];
    Tab::from_binding_rows(cols, rows)
}

/// The hashed dedup kernel: kept-row indices, first-occurrence order —
/// the loop inside `Tab::dedup`, expressed over the shared
/// `yat_algebra::keys` primitives so the measurement and the shipped
/// operator share their keying code.
fn hashed_dedup_indices(tab: &Tab) -> Vec<usize> {
    let mut seen: HashMap<u64, Vec<usize>> = HashMap::with_capacity(tab.len());
    let mut keep = Vec::new();
    for (i, row) in tab.rows().enumerate() {
        let h = keys::row_hash(row);
        let bucket = seen.entry(h).or_default();
        if bucket.iter().any(|&k| keys::row_key_eq(tab.row(k), row)) {
            continue;
        }
        bucket.push(i);
        keep.push(i);
    }
    keep
}

/// Stacks `copies` clones of the table (duplicate-heavy dedup input).
fn replicate(tab: &Tab, copies: usize) -> Tab {
    let mut out = Tab::new(tab.columns().to_vec());
    for _ in 0..copies {
        for row in tab.rows() {
            out.push(row.to_vec());
        }
    }
    out
}

/// Builds the hashed `Group` output from the shared kernel — the same
/// construction `eval` performs, so baseline and hashed sides do equal
/// output-building work and the measured difference is the keying.
fn hashed_group(tab: &Tab, kidx: &[usize]) -> Tab {
    let rest: Vec<usize> = (0..tab.columns().len())
        .filter(|i| !kidx.contains(i))
        .collect();
    let mut cols: Vec<String> = kidx.iter().map(|&i| tab.columns()[i].clone()).collect();
    cols.extend(rest.iter().map(|&i| tab.columns()[i].clone()));
    let mut out = Tab::new(cols);
    for members in keys::group_indices(tab.raw_rows(), kidx) {
        let first = tab.row(members[0]);
        let mut row: Vec<Value> = kidx.iter().map(|&i| first[i].clone()).collect();
        for &ci in &rest {
            row.push(Value::Coll(
                members.iter().map(|&ri| tab.row(ri)[ci].clone()).collect(),
            ));
        }
        out.push(row);
    }
    out
}

/// Builds the hashed join output from the shared kernel (columns primed
/// like the algebra's join).
fn hashed_join(lt: &Tab, rt: &Tab, lkeys: &[usize], rkeys: &[usize]) -> Tab {
    let mut cols = lt.columns().to_vec();
    for c in rt.columns() {
        if cols.contains(c) {
            cols.push(format!("{c}'"));
        } else {
            cols.push(c.clone());
        }
    }
    let mut out = Tab::new(cols);
    for (li, ri) in keys::join_pairs(lt.raw_rows(), rt.raw_rows(), lkeys, rkeys) {
        let mut row = lt.row(li).to_vec();
        row.extend(rt.row(ri).iter().cloned());
        out.push(row);
    }
    out
}

/// Serves a precomputed table to `Push` nodes. `Push` fragments stay
/// uncompiled on both engines and run through the same handler call, so
/// plans rooted here cost both engines the identical table clone and the
/// timed difference is the Select/Map control plane, not `Bind`.
struct MemTab(Tab);

impl PushHandler for MemTab {
    fn execute_push(
        &self,
        _source: &str,
        _plan: &std::sync::Arc<Alg>,
        _env: &std::collections::BTreeMap<String, Value>,
    ) -> Result<Tab, EvalError> {
        Ok(self.0.clone())
    }
}

/// A flat atom-valued works table (`id`, `size`, `price`, `style`,
/// `floor`) for the engine kernels. Atom cells clone cheaply, so the
/// per-row expression work — the thing the compiler changes — dominates
/// the measurement instead of allocator traffic.
fn atom_tab(n: usize) -> Tab {
    let styles = ["Impressionist", "Baroque", "Cubist", "Realist"];
    let mut tab = Tab::new(
        ["id", "size", "price", "style", "floor"]
            .map(String::from)
            .to_vec(),
    );
    for i in 0..n {
        tab.push(vec![
            Value::Atom(Atom::Int(i as i64)),
            Value::Atom(Atom::Int((i * 37 % 900 + 20) as i64)),
            Value::Atom(Atom::Float((i * 13 % 4000) as f64 + 0.5)),
            Value::Atom(Atom::Str(styles[i % styles.len()].to_string())),
            Value::Atom(Atom::Int(0)),
        ]);
    }
    tab
}

/// A 16-term disjunctive filter over [`atom_tab`] columns that matches
/// no row (`id`/`size`/`price` are non-negative and bounded, `floor` is
/// zero): every term is evaluated for every row (`Or` short-circuits
/// only on true) and the empty output makes the shared row-cloning cost
/// zero on both sides, leaving per-row predicate evaluation as the
/// measured work. All terms compare numbers, so the shared comparison
/// kernel is allocation-free and the engines differ only in how they
/// dispatch it: the interpreter recurses and clones both operands per
/// term per row, the VM runs one fused by-reference compare each.
fn engine_select_pred() -> Pred {
    let int = |v: i64| Operand::cst(Atom::Int(v));
    let num = |v: f64| Operand::cst(Atom::Float(v));
    let mut terms = Vec::new();
    for k in 0..4i64 {
        terms.push(Pred::cmp(CmpOp::Lt, Operand::var("id"), int(-1 - k)));
        terms.push(Pred::cmp(CmpOp::Gt, Operand::var("size"), int(100_000 + k)));
        terms.push(Pred::cmp(
            CmpOp::Lt,
            Operand::var("price"),
            num(-0.5 - k as f64),
        ));
        // var–var: `floor` is always zero, `size` at least 20
        terms.push(Pred::cmp(
            CmpOp::Gt,
            Operand::var("floor"),
            Operand::var("size"),
        ));
    }
    terms
        .into_iter()
        .reduce(|a, b| Pred::Or(Box::new(a), Box::new(b)))
        .expect("terms is non-empty")
}

fn main() {
    let mut entries: Vec<Entry> = Vec::new();

    harness::group("fig_scale/row-count sweeps (hashed vs string keys)");
    for &n in &[500usize, 2000, 8000] {
        let tab = bind_tab(n);

        // DupElim over a duplicate-heavy table
        let dup = replicate(&tab, 4);
        let hashed = harness::measure(|| hashed_dedup_indices(&dup));
        let base = harness::measure(|| baseline::dedup_indices(&dup));
        {
            let mut t = dup.clone();
            t.dedup();
            assert_eq!(
                t.len(),
                baseline::dedup(&dup).len(),
                "dedup implementations must agree"
            );
        }
        println!(
            "dedup   n={:<6} hashed {:>12?}  string {:>12?}  ({:.2}x)",
            dup.len(),
            hashed,
            base,
            base.as_nanos() as f64 / hashed.as_nanos().max(1) as f64
        );
        entries.push(Entry {
            name: "dedup",
            n: dup.len(),
            hashed_ns: hashed.as_nanos(),
            baseline_ns: base.as_nanos(),
        });

        // GroupBy (artist, style, size) — a compound key over tree cells,
        // where the string side re-serializes three subtrees per row and
        // the hashed side reads three cached hashes
        let kidx = [
            tab.col("a").expect("artist column"),
            tab.col("s").expect("style column"),
            tab.col("si").expect("size column"),
        ];
        let gkeys = vec!["a".to_string(), "s".to_string(), "si".to_string()];
        let hashed = harness::measure(|| keys::group_indices(tab.raw_rows(), &kidx));
        let base = harness::measure(|| baseline::group_indices(&tab, &kidx));
        assert_eq!(
            hashed_group(&tab, &kidx).len(),
            baseline::group(&tab, &gkeys).len(),
            "group implementations must agree"
        );
        println!(
            "group   n={:<6} hashed {:>12?}  string {:>12?}  ({:.2}x)",
            tab.len(),
            hashed,
            base,
            base.as_nanos() as f64 / hashed.as_nanos().max(1) as f64
        );
        entries.push(Entry {
            name: "group",
            n: tab.len(),
            hashed_ns: hashed.as_nanos(),
            baseline_ns: base.as_nanos(),
        });

        // Equi-join on title between two differently-seeded tables:
        // titles are per-index and shared across seeds, so the join is
        // 1:1 and the measurement is the build/probe keying, not output
        // explosion. Both sides are narrow (title, artist) tables so the
        // identical output construction does not drown the keying.
        let narrow = |seed: u64, tv: &str, av: &str| {
            let doc = generate_works(&WorksSpec {
                works: n,
                impressionist_pct: 30,
                optional_pct: 60,
                giverny_pct: 30,
                seed,
            });
            let filter = parse_filter(&format!("works *work [ title: ${tv}, artist: ${av} ]"))
                .expect("static filter parses");
            let rows = match_filter(&doc, &filter, MatchOptions::default());
            Tab::from_binding_rows(vec![tv.to_string(), av.to_string()], rows)
        };
        let lt = narrow(7, "t", "a");
        let rt = narrow(8, "t2", "a2");
        let (lk, rk) = ([lt.col("t").unwrap()], [rt.col("t2").unwrap()]);
        let hashed = harness::measure(|| keys::join_pairs(lt.raw_rows(), rt.raw_rows(), &lk, &rk));
        let base = harness::measure(|| baseline::join_pairs(&lt, &rt, &lk, &rk));
        assert_eq!(
            hashed_join(&lt, &rt, &lk, &rk).len(),
            baseline::join(&lt, &rt, &lk, &rk).len(),
            "join implementations must agree"
        );
        println!(
            "join    n={:<6} hashed {:>12?}  string {:>12?}  ({:.2}x)",
            lt.len(),
            hashed,
            base,
            base.as_nanos() as f64 / hashed.as_nanos().max(1) as f64
        );
        entries.push(Entry {
            name: "join",
            n: lt.len(),
            hashed_ns: hashed.as_nanos(),
            baseline_ns: base.as_nanos(),
        });
    }

    harness::group("fig_scale/engine sweeps (compiled VM vs interpreter)");
    let funcs = FnRegistry::with_builtins();
    let skolems = SkolemRegistry::new();
    let forest = Forest::new();
    for &n in &[2000usize, 8000, 32000] {
        let mem = MemTab(atom_tab(n));
        let mut ctx = EvalCtx::local(&forest, &funcs, &skolems);
        ctx.push = Some(&mem);
        let input = Alg::push("mem", Alg::source("works"));
        let select = Alg::select(input.clone(), engine_select_pred());
        let map = Arc::new(Alg::Map {
            input,
            col: "text".to_string(),
            expr: Operand::Call {
                name: "textof".to_string(),
                args: vec![Operand::var("style")],
            },
        });
        for (name, plan) in [("vm select", &select), ("vm map", &map)] {
            // compile once outside the window — the compile-once /
            // execute-many lifecycle the engine is built around
            let program = compile(plan);
            let vm_t = harness::measure(|| {
                vm::run(&program, &ctx, &Default::default()).expect("vm executes")
            });
            let interp_t = harness::measure(|| eval(plan, &ctx).expect("interpreter executes"));
            assert_eq!(
                vm::run(&program, &ctx, &Default::default()).expect("vm executes"),
                eval(plan, &ctx).expect("interpreter executes"),
                "engines must agree"
            );
            println!(
                "{name:<9} n={n:<6} vm     {vm_t:>12?}  interp {interp_t:>12?}  ({:.2}x)",
                interp_t.as_nanos() as f64 / vm_t.as_nanos().max(1) as f64
            );
            entries.push(Entry {
                name,
                n,
                hashed_ns: vm_t.as_nanos(),
                baseline_ns: interp_t.as_nanos(),
            });
        }
    }

    harness::group("fig_scale/document-size sweeps (end-to-end)");
    for &scale in &[50usize, 200, 800] {
        for (engine, q1_name, q2_name) in [
            (ExecEngine::Interp, "q1 e2e", "q2 e2e"),
            (ExecEngine::Vm, "q1 e2e vm", "q2 e2e vm"),
        ] {
            let mut m = Scenario::at_scale(scale).mediator();
            m.set_exec_engine(engine);
            for (name, query) in [
                (q1_name, yat_yatl::paper::Q1),
                (q2_name, yat_yatl::paper::Q2),
            ] {
                let t = harness::measure(|| {
                    m.query(query, OptimizerOptions::default())
                        .expect("paper query answers")
                });
                println!("{name:<9} scale={scale:<5} {t:>12?}");
                entries.push(Entry {
                    name,
                    n: scale,
                    hashed_ns: t.as_nanos(),
                    baseline_ns: 0,
                });
            }
        }
    }

    // machine-readable output
    let mut out = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"name\": \"{}\", \"n\": {}, \"hashed_ns\": {}, \"baseline_ns\": {}",
            e.name, e.n, e.hashed_ns, e.baseline_ns,
        );
        if let Some(s) = e.speedup() {
            let _ = write!(out, ", \"speedup\": {s:.3}");
        }
        out.push('}');
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    let path = std::env::var("YAT_SCALE_OUT").unwrap_or_else(|_| "BENCH_scale.json".to_string());
    std::fs::write(&path, &out).expect("write scale results");
    println!("\nwrote {path}");
}
