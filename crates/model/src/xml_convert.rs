//! Conversion between XML documents and YAT trees.
//!
//! Wrappers "communicate data, structures and operations in XML"
//! (Section 2). This module fixes the generic encoding:
//!
//! * an element becomes a symbol node; character data becomes an atom leaf
//!   (typed by [`Atom::parse_guess`] in the absence of a schema);
//! * an attribute `k="v"` becomes a child `@k[v]` — except the two
//!   identity conventions from the paper's Fig. 1: `id="a1"` makes the
//!   tree an identified node and `refs="p1 p2"` expands into reference
//!   leaves;
//! * the inverse direction maps symbol nodes back to elements, `@`-children
//!   back to attributes, atoms to text, identified nodes to `id`
//!   attributes and reference leaves to `<ref id=../>` elements.
//!
//! The encoding exists twice, on purpose. [`tree_to_xml`] and
//! [`tree_from_xml`] go through an [`Element`] DOM: they are the
//! reference. [`write_tree`] and [`read_tree`] are the wire codec: they
//! write a tree's bytes straight onto an [`Out`] and build a tree straight
//! from the events of a [`Reader`], with no DOM in between. The codec
//! writes exactly `tree_to_xml(t).to_xml()` and reads exactly what
//! `tree_from_xml(&parse_element(..))` reads (`tests/prop_wire_codec.rs`).

use crate::atom::Atom;
use crate::oid::Oid;
use crate::symbol::Symbol;
use crate::tree::{Label, Node, Tree};
use std::borrow::Cow;
use std::collections::HashMap;
use yat_xml::{push_attribute, push_text, Content, Element, Event, Out, ParseError, Reader};

/// Prefix marking attribute-derived children.
pub const ATTR_PREFIX: char = '@';

/// Converts an XML element into a YAT tree.
pub fn tree_from_xml(el: &Element) -> Tree {
    build_from_xml(el, &mut Vec::new())
}

/// [`tree_from_xml`] with every element's children built on `stack`
/// and taken off it at their exact length ([`Node::from_stack`]).
fn build_from_xml(el: &Element, stack: &mut Vec<Tree>) -> Tree {
    let mark = stack.len();
    let mut id: Option<Oid> = None;
    for a in &el.attributes {
        match a.name.as_str() {
            "id" => id = Some(Oid::new(a.value.clone())),
            "refs" => {
                for r in a.value.split_whitespace() {
                    stack.push(Node::reference(Oid::new(r)));
                }
            }
            _ => stack.push(Node::sym(
                format!("{ATTR_PREFIX}{}", a.name),
                vec![Node::atom(Atom::parse_guess(&a.value))],
            )),
        }
    }
    for c in &el.children {
        match c {
            Content::Element(e) => {
                let tree = build_from_xml(e, stack);
                stack.push(tree);
            }
            Content::Text(t) | Content::CData(t) => push_atom(stack, t),
            Content::Comment(_) | Content::ProcessingInstruction { .. } => {}
        }
    }
    let body = Node::from_stack(Label::Sym(el.name.as_str().into()), stack, mark);
    match id {
        Some(oid) => Node::oid(oid, vec![body]),
        None => body,
    }
}

/// Converts a YAT tree back to XML.
///
/// Atom leaves that are the sole child become text; atom leaves among
/// siblings become text items in mixed content. Non-symbol roots (bare
/// atoms, references) are wrapped in a `value`/`ref` element so the result
/// is always well-formed.
pub fn tree_to_xml(tree: &Tree) -> Element {
    match &tree.label {
        Label::Sym(name) => {
            let mut el = Element::new(name.clone());
            fill_children(&mut el, &tree.children);
            el
        }
        Label::Oid(oid) => {
            // identified node: id attribute on the (single) body element
            match &*tree.children {
                [only] => {
                    let mut el = tree_to_xml(only);
                    el.set_attr("id", oid.as_str());
                    el
                }
                _ => {
                    let mut el = Element::new("object");
                    el.set_attr("id", oid.as_str());
                    fill_children(&mut el, &tree.children);
                    el
                }
            }
        }
        Label::Ref(oid) => Element::new("ref").with_attr("id", oid.as_str()),
        Label::Atom(a) => Element::new("value").with_text(a.to_string()),
    }
}

fn fill_children(el: &mut Element, children: &[Tree]) {
    for c in children {
        match &c.label {
            Label::Atom(a) if c.children.is_empty() => el.push_text(a.to_string()),
            Label::Sym(s) if s.starts_with(ATTR_PREFIX) && c.children.len() == 1 => {
                if let Label::Atom(a) = &c.children[0].label {
                    el.set_attr(&s[1..], a.to_string());
                } else {
                    el.push_element(tree_to_xml(c));
                }
            }
            Label::Ref(oid) => {
                // accumulate sibling references into a refs attribute when
                // they are the only children (the Fig. 1 owners shape)
                if children.iter().all(|k| matches!(k.label, Label::Ref(_))) {
                    let joined = children
                        .iter()
                        .filter_map(|k| match &k.label {
                            Label::Ref(o) => Some(o.as_str()),
                            _ => None,
                        })
                        .collect::<Vec<_>>()
                        .join(" ");
                    el.set_attr("refs", joined);
                    return;
                }
                el.push_element(Element::new("ref").with_attr("id", oid.as_str()));
            }
            _ => el.push_element(tree_to_xml(c)),
        }
    }
}

/// Parses an XML string straight into a tree.
pub fn parse_tree(xml: &str) -> Result<Tree, ParseError> {
    Ok(tree_from_xml(&yat_xml::parse_element(xml)?))
}

// ------------------------------------------------------------ wire codec

/// Writes the compact serialization of `tree_to_xml(tree)` onto `out`
/// without building the element.
pub fn write_tree(tree: &Tree, out: &mut impl Out) {
    Shape::of(tree).write(out);
}

/// The top level of the element [`tree_to_xml`] would build for a tree:
/// its name and attributes (which depend on the children) and where its
/// content comes from. The content is written from the tree itself.
struct Shape<'t> {
    name: &'t str,
    /// In document order, with `Element::set_attr`'s replace-in-place.
    attrs: Vec<(&'t str, Cow<'t, str>)>,
    body: Body<'t>,
}

enum Body<'t> {
    /// `<ref id=".."/>`.
    Empty,
    /// A bare atom's `<value>` text (present even when empty).
    Text(Cow<'t, str>),
    /// What [`fill_children`] does with the children that are not
    /// attributes.
    Children(&'t [Tree]),
}

impl<'t> Shape<'t> {
    fn of(tree: &'t Tree) -> Shape<'t> {
        match &tree.label {
            Label::Sym(name) => {
                let mut shape = Shape::new(name, Body::Children(&tree.children));
                shape.attrs_from(&tree.children);
                shape
            }
            Label::Oid(oid) => match &*tree.children {
                [only] => {
                    let mut shape = Shape::of(only);
                    shape.set_attr("id", Cow::Borrowed(oid.as_str()));
                    shape
                }
                children => {
                    let mut shape = Shape::new("object", Body::Children(children));
                    shape.set_attr("id", Cow::Borrowed(oid.as_str()));
                    shape.attrs_from(children);
                    shape
                }
            },
            Label::Ref(oid) => {
                let mut shape = Shape::new("ref", Body::Empty);
                shape.set_attr("id", Cow::Borrowed(oid.as_str()));
                shape
            }
            Label::Atom(a) => Shape::new("value", Body::Text(a.text())),
        }
    }

    fn new(name: &'t str, body: Body<'t>) -> Shape<'t> {
        Shape {
            name,
            attrs: Vec::new(),
            body,
        }
    }

    fn set_attr(&mut self, name: &'t str, value: Cow<'t, str>) {
        match self.attrs.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.attrs.push((name, value)),
        }
    }

    /// The attribute half of [`fill_children`].
    fn attrs_from(&mut self, children: &'t [Tree]) {
        if let Some(refs) = ref_list(children) {
            self.set_attr("refs", Cow::Owned(refs));
            return;
        }
        for c in children {
            if let Some((name, value)) = as_attribute(c) {
                self.set_attr(name, value.text());
            }
        }
    }

    fn write(&self, out: &mut impl Out) {
        out.push_str("<");
        out.push_str(self.name);
        for (name, value) in &self.attrs {
            push_attribute(out, name, value);
        }
        match &self.body {
            Body::Text(text) => {
                out.push_str(">");
                push_text(out, text);
            }
            Body::Children(children) if has_content(children) => {
                out.push_str(">");
                for c in *children {
                    match &c.label {
                        Label::Atom(a) if c.children.is_empty() => push_text(out, &a.text()),
                        _ if as_attribute(c).is_some() => {}
                        _ => write_tree(c, out),
                    }
                }
            }
            _ => {
                out.push_str("/>");
                return;
            }
        }
        out.push_str("</");
        out.push_str(self.name);
        out.push_str(">");
    }
}

/// `@name[atom]` — a child [`fill_children`] turns into an attribute.
fn as_attribute(c: &Tree) -> Option<(&str, &Atom)> {
    match (&c.label, &*c.children) {
        (Label::Sym(s), [only]) if s.starts_with(ATTR_PREFIX) => only
            .label
            .as_atom()
            .map(|a| (&s[ATTR_PREFIX.len_utf8()..], a)),
        _ => None,
    }
}

/// The `refs` attribute of children that are all references.
fn ref_list(children: &[Tree]) -> Option<String> {
    let first = children.first()?;
    let Label::Ref(oid) = &first.label else {
        return None;
    };
    let mut refs = oid.as_str().to_string();
    for c in &children[1..] {
        let Label::Ref(oid) = &c.label else {
            return None;
        };
        refs.push(' ');
        refs.push_str(oid.as_str());
    }
    Some(refs)
}

/// Whether [`fill_children`] leaves the element any content.
fn has_content(children: &[Tree]) -> bool {
    !children.iter().all(|c| matches!(c.label, Label::Ref(_)))
        && children.iter().any(|c| as_attribute(c).is_none())
}

/// One frame's decode state. Its symbol table makes each distinct tag or
/// attribute name of the frame take the global interner's lock once,
/// however often it recurs; the names come off the wire, so the maps keep
/// the default (keyed) hasher. Its child stack holds the children of
/// every element still open, so each node's child slice is allocated
/// once, at its exact length ([`Node::from_stack`]).
#[derive(Default)]
pub struct Symbols<'a> {
    tags: HashMap<&'a str, Symbol>,
    attrs: HashMap<&'a str, Symbol>,
    stack: Vec<Tree>,
}

impl<'a> Symbols<'a> {
    fn tag(&mut self, name: &'a str) -> Symbol {
        self.tags
            .entry(name)
            .or_insert_with(|| Symbol::intern(name))
            .clone()
    }

    fn attr(&mut self, name: &'a str) -> Symbol {
        self.attrs
            .entry(name)
            .or_insert_with(|| Symbol::intern(&format!("{ATTR_PREFIX}{name}")))
            .clone()
    }
}

/// Reads the element whose `Start(name)` `reader` just returned — through
/// its `End` — into the tree `tree_from_xml` would build from it.
pub fn read_tree<'a>(
    reader: &mut Reader<'a>,
    name: &'a str,
    symbols: &mut Symbols<'a>,
) -> Result<Tree, ParseError> {
    let mark = symbols.stack.len();
    let mut id: Option<Oid> = None;
    for a in reader.attrs() {
        match a.name {
            "id" => id = Some(Oid::new(a.value.as_ref())),
            "refs" => {
                for r in a.value.split_whitespace() {
                    symbols.stack.push(Node::reference(Oid::new(r)));
                }
            }
            _ => {
                let attr = Node::sym(
                    symbols.attr(a.name),
                    vec![Node::atom(Atom::parse_guess(&a.value))],
                );
                symbols.stack.push(attr);
            }
        }
    }
    loop {
        match reader.next()? {
            Event::Start(child) => {
                let tree = read_tree(reader, child, symbols)?;
                symbols.stack.push(tree);
            }
            Event::Text(t) => push_atom(&mut symbols.stack, &t),
            Event::CData(t) => push_atom(&mut symbols.stack, t),
            Event::Comment(_) | Event::Pi { .. } => {}
            Event::End(_) => break,
            Event::Eof => return Err(reader.error("document ended inside an element")),
        }
    }
    let tag = Label::Sym(symbols.tag(name));
    let body = Node::from_stack(tag, &mut symbols.stack, mark);
    Ok(match id {
        Some(oid) => Node::oid(oid, vec![body]),
        None => body,
    })
}

fn push_atom(children: &mut Vec<Tree>, text: &str) {
    if !text.trim().is_empty() {
        children.push(Node::atom(Atom::parse_guess(text)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;

    #[test]
    fn fig1_object_conversion() {
        let t = parse_tree(
            r#"<object id="a1" class="artifact">
                 <title> Nympheas </title>
                 <year> 1897 </year>
                 <creator> Claude Monet </creator>
                 <owners refs="p1 p2 p3"/>
               </object>"#,
        )
        .unwrap();
        // identified wrapper
        assert!(matches!(&t.label, Label::Oid(o) if o.as_str() == "a1"));
        let body = &t.children[0];
        assert_eq!(body.label.as_sym(), Some("object"));
        assert_eq!(
            body.child("@class").unwrap().value_atom().unwrap(),
            &Atom::Str("artifact".into())
        );
        assert_eq!(
            body.child("year").unwrap().value_atom().unwrap(),
            &Atom::Int(1897)
        );
        let owners = body.child("owners").unwrap();
        assert_eq!(owners.children.len(), 3);
        assert!(matches!(&owners.children[0].label, Label::Ref(o) if o.as_str() == "p1"));
    }

    #[test]
    fn text_typing_guesses() {
        let t = parse_tree("<size>21.5</size>").unwrap();
        assert_eq!(t.value_atom().unwrap(), &Atom::Float(21.5));
        let t = parse_tree("<size>21 x 61</size>").unwrap();
        assert_eq!(t.value_atom().unwrap(), &Atom::Str("21 x 61".into()));
    }

    #[test]
    fn roundtrip_object_shape() {
        let xml = r#"<object id="a1" class="artifact"><title>Nympheas</title><owners refs="p1 p2"/></object>"#;
        let t = parse_tree(xml).unwrap();
        let back = tree_to_xml(&t);
        let t2 = tree_from_xml(&back);
        assert_eq!(t, t2, "tree → xml → tree must be identity\nxml: {back}");
    }

    #[test]
    fn roundtrip_mixed_content() {
        let xml = "<history>Painted with<technique>Oil on canvas</technique>in ...</history>";
        let t = parse_tree(xml).unwrap();
        assert_eq!(t.children.len(), 3);
        let back = tree_to_xml(&t);
        assert_eq!(tree_from_xml(&back), t);
    }

    #[test]
    fn non_symbol_roots_are_wrapped() {
        let atom = Node::atom(42);
        assert_eq!(tree_to_xml(&atom).to_xml(), "<value>42</value>");
        let r = Node::reference(Oid::new("p1"));
        assert_eq!(tree_to_xml(&r).to_xml(), r#"<ref id="p1"/>"#);
    }

    #[test]
    fn identified_multi_child_uses_object_wrapper() {
        let t = Node::oid(Oid::new("x1"), vec![Node::elem("a", 1), Node::elem("b", 2)]);
        let el = tree_to_xml(&t);
        assert_eq!(el.name, "object");
        assert_eq!(el.attr("id"), Some("x1"));
    }

    #[test]
    fn mixed_refs_and_elements_stay_elements() {
        let t = Node::sym(
            "owners",
            vec![
                Node::reference(Oid::new("p1")),
                Node::elem("note", "primary"),
            ],
        );
        let el = tree_to_xml(&t);
        // cannot use refs= attribute: a non-ref sibling exists
        assert!(el.attr("refs").is_none());
        assert_eq!(el.child("ref").unwrap().attr("id"), Some("p1"));
        assert_eq!(tree_from_xml(&el).children.len(), 2);
    }
}
