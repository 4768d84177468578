//! The DOM serialization of `Tab` results. The wire writes and reads
//! tables through [`crate::codec`]; this is the reference
//! `tests/prop_wire_codec.rs` holds the codec to, and what
//! `ServerReply::to_xml`/`from_xml` build an answer's table with.

use crate::xml::WireError;
use yat_algebra::{Tab, Value};
use yat_model::xml_convert::{tree_from_xml, tree_to_xml};
use yat_model::{Atom, AtomType};
use yat_xml::Element;

fn err(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

/// Serializes a result table:
/// `<tab cols="t a"><row><cell>..</cell>..</row>..</tab>`.
pub fn tab_to_xml(tab: &Tab) -> Element {
    let mut el = Element::new("tab").with_attr("cols", tab.columns().join(" "));
    for row in tab.rows() {
        let mut r = Element::new("row");
        for v in row {
            r.push_element(Element::new("cell").with_child(value_to_xml(v)));
        }
        el.push_element(r);
    }
    el
}

/// Parses a result table.
pub fn tab_from_xml(el: &Element) -> Result<Tab, WireError> {
    if el.name != "tab" {
        return Err(err(format!("expected <tab>, found <{}>", el.name)));
    }
    let cols: Vec<String> = el
        .attr("cols")
        .unwrap_or("")
        .split_whitespace()
        .map(str::to_string)
        .collect();
    let mut tab = Tab::new(cols);
    for row in el.children_named("row") {
        let values: Vec<Value> = row
            .children_named("cell")
            .map(|c| {
                c.elements()
                    .next()
                    .ok_or_else(|| err("<cell> is empty"))
                    .and_then(value_from_xml)
            })
            .collect::<Result<_, _>>()?;
        if values.len() != tab.columns().len() {
            return Err(err(format!(
                "row arity {} does not match {} columns",
                values.len(),
                tab.columns().len()
            )));
        }
        tab.push(values);
    }
    Ok(tab)
}

/// Serializes a single cell value.
fn value_to_xml(v: &Value) -> Element {
    match v {
        Value::Tree(t) => Element::new("t").with_child(tree_to_xml(t)),
        Value::Atom(a) => Element::new("a")
            .with_attr("type", a.atom_type().name())
            .with_attr("value", a.to_string()),
        Value::Label(l) => Element::new("l").with_attr("name", l.clone()),
        Value::Coll(c) => {
            let mut el = Element::new("c");
            for x in c {
                el.push_element(value_to_xml(x));
            }
            el
        }
        Value::Null => Element::new("n"),
    }
}

/// Parses a single cell value.
fn value_from_xml(el: &Element) -> Result<Value, WireError> {
    match el.name.as_str() {
        "t" => {
            let body = el.elements().next().ok_or_else(|| err("<t> is empty"))?;
            Ok(Value::Tree(tree_from_xml(body)))
        }
        "a" => {
            let t = el
                .attr("type")
                .and_then(AtomType::from_name)
                .ok_or_else(|| err("<a> with unknown type"))?;
            let raw = el.attr("value").ok_or_else(|| err("<a> missing value"))?;
            let a = Atom::parse_typed(raw, t)
                .ok_or_else(|| err(format!("`{raw}` is not a valid {t}")))?;
            Ok(Value::Atom(a))
        }
        "l" => Ok(Value::Label(
            el.attr("name")
                .ok_or_else(|| err("<l> missing name"))?
                .to_string(),
        )),
        "c" => Ok(Value::Coll(
            el.elements()
                .map(value_from_xml)
                .collect::<Result<_, _>>()?,
        )),
        "n" => Ok(Value::Null),
        other => Err(err(format!("unknown value element <{other}>"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yat_model::Node;

    #[test]
    fn tab_roundtrips() {
        let mut tab = Tab::new(vec!["t".into(), "p".into(), "misc".into()]);
        tab.push(vec![
            Value::Tree(Node::elem("title", "Nympheas")),
            Value::Atom(Atom::Float(150000.0)),
            Value::Coll(vec![Value::Label("cplace".into()), Value::Null]),
        ]);
        tab.push(vec![
            Value::Null,
            Value::Atom(Atom::Int(3)),
            Value::Coll(vec![]),
        ]);
        let back = tab_from_xml(&tab_to_xml(&tab)).unwrap();
        assert_eq!(tab, back);
    }

    #[test]
    fn empty_tab_keeps_columns() {
        let tab = Tab::new(vec!["x".into()]);
        let back = tab_from_xml(&tab_to_xml(&tab)).unwrap();
        assert_eq!(back.columns(), &["x".to_string()]);
        assert!(back.is_empty());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let el = yat_xml::parse_element(r#"<tab cols="a b"><row><cell><n/></cell></row></tab>"#)
            .unwrap();
        assert!(tab_from_xml(&el).is_err());
    }

    #[test]
    fn value_errors() {
        for bad in ["<t/>", "<a type=\"Int\" value=\"x\"/>", "<z/>", "<l/>"] {
            let el = yat_xml::parse_element(bad).unwrap();
            assert!(value_from_xml(&el).is_err(), "should reject {bad}");
        }
    }
}
