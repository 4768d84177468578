//! Wrapping query capabilities (Section 4): what each wrapper exports,
//! how the capability matcher decides pushability, and how a pushed plan
//! becomes OQL text at the O2 wrapper.
//!
//! ```text
//! cargo run --example capability_wrapping
//! ```

use yat::yat_algebra::{Alg, CmpOp, Operand, Pred};
use yat::yat_capability::matcher::{accepts_filter, pushable};
use yat::yat_capability::Interface;
use yat::yat_oql::art::fig1_store;
use yat::yat_oql::translate::plan_to_oql;
use yat::yat_oql::O2Wrapper;
use yat::yat_wais::{fig1_works, WaisSource, WaisWrapper};
use yat::yat_yatl::parse_filter;

fn main() {
    let o2 = O2Wrapper::new("o2artifact", fig1_store());
    let wais = WaisWrapper::new("xmlartwork", WaisSource::new("works", &fig1_works()));

    // ---- the exported interfaces (Fig. 6) ------------------------------
    println!("O2 interface (exact Fig. 6 wire format):");
    println!("{}", pretty(&o2.interface()));
    println!("Wais interface (Section 4.2):");
    println!("{}", pretty(&wais.interface()));

    // ---- what each source accepts ---------------------------------------
    let filters = [
        "set *class: artifact: tuple [ title: $t, year: $y ]",
        "set *class: ~$attr: $v",    // schema extraction: forbidden by O2
        "works *$w",                 // whole documents: the Wais capability
        "works *work [ title: $t ]", // decomposition: beyond Wais
    ];
    println!("---- capability matching ----");
    for f in filters {
        let filter = parse_filter(f).expect("example filters parse");
        for (name, iface) in [
            ("o2artifact", o2.interface()),
            ("xmlartwork", wais.interface()),
        ] {
            let verdict = match iface.bind_fpattern() {
                Some((fm, fp)) => match accepts_filter(fm, fp, &filter) {
                    Ok(()) => "accepted".to_string(),
                    Err(r) => format!("rejected: {r}"),
                },
                None => "no bind capability".to_string(),
            };
            println!("  {name:<12} {f:<44} {verdict}");
        }
    }

    // ---- pushing a plan to O2 = translating it to OQL (Section 4.1) ----
    let plan = Alg::select(
        Alg::bind(
            Alg::source("artifacts"),
            parse_filter(
                "set *class: artifact: tuple [ title: $t, year: $y, creator: $c, price: $p, \
                 owners: list *class: person: tuple [ name: $o, auction: $au ] ]",
            )
            .expect("the Fig. 5 filter parses"),
        ),
        Pred::cmp(CmpOp::Gt, Operand::var("y"), Operand::cst(1800)),
    );
    println!("\n---- pushed plan ----\n{}", plan.explain());
    pushable(&o2.interface(), &plan).expect("the capability matcher approves");
    let oql = plan_to_oql(&plan).expect("the wrapper translates it");
    println!("wrapper emits:\n  {}", oql.oql);
    println!("result columns: {:?}", oql.columns);

    // methods wrap too (current_price, Section 4)
    let with_method = Alg::select(
        Alg::bind(
            Alg::source("artifacts"),
            parse_filter("set *$x").expect("parses"),
        ),
        Pred::cmp(
            CmpOp::Le,
            Operand::Call {
                name: "current_price".into(),
                args: vec![Operand::var("x")],
            },
            Operand::cst(200000.0),
        ),
    );
    let oql = plan_to_oql(&with_method).expect("methods translate as path steps");
    println!("\nwith the wrapped method:\n  {}", oql.oql);
}

/// The interface's wire text, indented.
fn pretty(interface: &Interface) -> String {
    let mut text = String::new();
    interface.encode(&mut text);
    yat::yat_xml::parse_element(&text)
        .expect("an interface encodes as XML")
        .to_pretty_xml()
}
