//! Figure 6 — the interface document, round-tripped against the paper's
//! own XML text (lines 1–44 of the figure, lightly normalized: the
//! figure's `<value label=…>` / `<value pattern=…>` synonyms are both
//! accepted).

use yat::yat_capability::fpattern::{o2_fmodel, FPattern};
use yat::yat_capability::interface::{Interface, OpKind};
use yat::yat_capability::{BindFlag, InstFlag};
use yat::yat_xml::parse_element;

/// Fig. 6, transcribed from the paper.
const FIG6: &str = r#"
<interface name="o2artifact">
 <fmodel name="o2fmodel">
  <fpattern name="Fclass">
   <node label="class" bind="tree">
    <node label="Symbol" bind="none" inst="ground">
     <value pattern="Ftype"/></node></node>
  </fpattern>
  <fpattern name="Ftype">
   <union>
    <leaf label="Int"/>
    <leaf label="Bool"/>
    <leaf label="Float"/>
    <leaf label="String"/>
    <node label="tuple" col="set" bind="tree">
     <star inst="ground">
      <node label="Symbol" bind="none">
       <value label="Ftype"/></node></star></node>
    <node label="set" col="set" bind="tree">
     <star inst="none"><value label="Ftype"/>
     </star></node>
    <node label="bag" col="bag" bind="tree">
     <star inst="none"><value label="Ftype"/>
     </star></node>
    <node label="list" bind="tree">
     <star inst="none"><value label="Ftype"/>
     </star></node>
    <node label="array" bind="tree">
     <star inst="none"><value label="Ftype"/>
     </star></node>
    <ref pattern="Fclass"/>
   </union>
  </fpattern>
 </fmodel>
 <operation name="bind" kind="algebra">
  <input>
   <value model="o2model" pattern="Type"/>
   <filter model="o2fmodel" pattern="Ftype"/></input>
  <output><value model="yat" pattern="Tab"/></output>
 </operation>
 <operation name="select" kind="algebra"></operation>
 <operation name="map" kind="algebra"></operation>
 <operation name="eq" kind="boolean"></operation>
</interface>"#;

#[test]
fn the_papers_interface_parses() {
    parse_element(FIG6).expect("Fig. 6 is well-formed XML");
    let iface = Interface::decode(FIG6).expect("Fig. 6 is a valid interface");
    assert_eq!(iface.name, "o2artifact");
    assert_eq!(iface.fmodels.len(), 1);
    assert_eq!(iface.operations.len(), 4);
    assert_eq!(iface.operation("bind").unwrap().kind, OpKind::Algebra);
    assert_eq!(iface.operation("eq").unwrap().kind, OpKind::Boolean);
    assert!(iface.supports_comparisons());
}

#[test]
fn the_papers_fmodel_matches_the_builtin() {
    let iface = Interface::decode(FIG6).unwrap();
    let parsed = iface.fmodel("o2fmodel").unwrap();
    // the crate ships the same model programmatically
    let built = o2_fmodel();
    assert_eq!(parsed.patterns.len(), built.patterns.len());
    assert_eq!(parsed.get("Fclass"), built.get("Fclass"));
    assert_eq!(parsed.get("Ftype"), built.get("Ftype"));
}

#[test]
fn flags_land_where_the_figure_puts_them() {
    let iface = Interface::decode(FIG6).unwrap();
    let fm = iface.fmodel("o2fmodel").unwrap();
    // line 4-5: class binds trees; the class name is ground and unbound
    let FPattern::Node { bind, edges, .. } = fm.get("Fclass").unwrap() else {
        panic!()
    };
    assert_eq!(*bind, BindFlag::Tree);
    let FPattern::Node { bind, inst, .. } = &edges[0].child else {
        panic!()
    };
    assert_eq!(*bind, BindFlag::None);
    assert_eq!(*inst, InstFlag::Ground);
    // line 15: tuple attributes must be fully instantiated
    let FPattern::Union(branches) = fm.get("Ftype").unwrap() else {
        panic!()
    };
    let tuple = branches
        .iter()
        .find_map(|b| match b {
            FPattern::Node {
                label: yat::yat_capability::FLabel::Sym(s),
                edges,
                ..
            } if s == "tuple" => Some(edges),
            _ => None,
        })
        .expect("tuple branch exists");
    assert_eq!(tuple[0].inst, InstFlag::Ground);
}

#[test]
fn serialization_round_trips_the_fmodel() {
    let iface = Interface::decode(FIG6).unwrap();
    let fm = iface.fmodel("o2fmodel").unwrap();
    let mut alone = Interface::new("o2artifact");
    alone.fmodels.push(fm.clone());
    let mut text = String::new();
    alone.encode(&mut text);
    let back = Interface::decode(&text).unwrap();
    assert_eq!(back.fmodel("o2fmodel"), Some(fm));
    // and the printed form reads back the same
    let printed = parse_element(&text).unwrap().to_pretty_xml();
    assert_eq!(Interface::decode(&printed).unwrap(), back);
}

#[test]
fn wrapper_generated_interface_covers_the_figure() {
    // the o2-wrapper generates Fig. 6 "automatically … with the help of
    // the O2 schema manager" — its output must contain everything the
    // hand-written figure declares, plus the schema/export/method extras
    let w = yat::yat_oql::O2Wrapper::new("o2artifact", yat::yat_oql::art::fig1_store());
    let generated = w.interface();
    let figure = Interface::decode(FIG6).unwrap();
    for op in ["bind", "select", "eq"] {
        assert!(
            generated.operation(op).is_some(),
            "wrapper must declare {op}"
        );
        assert_eq!(
            generated.operation(op).unwrap().kind,
            figure.operation(op).unwrap().kind
        );
    }
    assert_eq!(generated.fmodel("o2fmodel"), figure.fmodel("o2fmodel"));
    // the wrapper also exports what the figure leaves implicit
    assert!(generated.export("artifacts").is_some());
    assert!(generated.operation("current_price").is_some());
}
