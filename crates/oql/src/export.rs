//! Generic export of O2 data and schema as YAT trees and patterns —
//! "export structural information from any O2 database" (Section 2).

use crate::store::Store;
use crate::types::{CollKind, Type};
use crate::value::OVal;
use yat_model::{Edge, Label, Model, Node, Oid, Pattern, Tree};

/// Exports an object as a YAT tree, shaped after Fig. 3:
/// `oid[class[<classname>[<value>]]]` with the class name lowercased (the
/// paper's data uses `artifact`/`person` where the schema says
/// `Artifact`/`Person`).
pub fn object_tree(store: &Store, oid: &Oid) -> Option<Tree> {
    let obj = store.object(oid)?;
    let class = Node::with_child(
        Label::Sym(obj.class.to_lowercase().into()),
        value_tree(&obj.value),
    );
    let body = Node::with_child(Label::Sym("class".into()), class);
    Some(Node::with_child(Label::Oid(oid.clone()), body))
}

/// Exports a value as a YAT tree. References stay references (`&p1`) —
/// the mediator's forest resolves them.
pub fn value_tree(v: &OVal) -> Tree {
    match v {
        OVal::Atom(a) => Node::atom(a.clone()),
        OVal::Tuple(fs) => Node::sym(
            "tuple",
            fs.iter()
                .map(|(n, x)| Node::with_child(Label::Sym(n.as_str().into()), value_tree(x)))
                .collect(),
        ),
        OVal::Coll(k, es) => Node::sym(k.name(), es.iter().map(value_tree).collect()),
        OVal::Ref(oid) => Node::reference(oid.clone()),
        OVal::Nil => Node::sym("nil", vec![]),
    }
}

/// Exports an extent as a named document: `set[<object>...]`.
pub fn extent_tree(store: &Store, extent: &str) -> Option<Tree> {
    let oids = store.extent(extent)?;
    let objects: Vec<Tree> = oids.iter().filter_map(|o| object_tree(store, o)).collect();
    Some(Node::sym("set", objects))
}

/// Exports the schema as a structural [`Model`] (the Fig. 3 `art`
/// metadata): one pattern per class, plus one per extent.
pub fn schema_model(store: &Store, model_name: &str) -> Model {
    let mut m = Model::new(model_name);
    for c in store.schema.classes() {
        m.define(
            c.name.clone(),
            Pattern::sym(
                "class",
                vec![Edge::one(Pattern::sym(
                    c.name.to_lowercase(),
                    vec![Edge::one(type_pattern(&c.ty))],
                ))],
            ),
        );
    }
    for c in store.schema.classes() {
        if let Some(extent) = &c.extent {
            let mut ext_name = extent.clone();
            if let Some(first) = ext_name.get_mut(0..1) {
                first.make_ascii_uppercase();
            }
            m.define(
                ext_name,
                Pattern::sym("set", vec![Edge::star(Pattern::Ref(c.name.clone()))]),
            );
        }
    }
    m
}

/// Converts an ODMG type to a YAT pattern.
pub fn type_pattern(t: &Type) -> Pattern {
    match t {
        Type::Atom(a) => Pattern::atom(*a),
        Type::Tuple(fs) => Pattern::sym(
            "tuple",
            fs.iter()
                .map(|(n, ft)| {
                    Edge::one(Pattern::sym(n.clone(), vec![Edge::one(type_pattern(ft))]))
                })
                .collect(),
        ),
        Type::Coll(k, e) => Pattern::sym(coll_name(*k), vec![Edge::star(type_pattern(e))]),
        Type::Class(n) => Pattern::Ref(n.clone()),
    }
}

fn coll_name(k: CollKind) -> &'static str {
    k.name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::art::fig1_store;
    use yat_model::instantiate::{is_instance, subsumes};
    use yat_model::{Label, MatchOptions};

    #[test]
    fn object_export_shape() {
        let store = fig1_store();
        let t = object_tree(&store, &Oid::new("a1")).unwrap();
        assert!(matches!(&t.label, Label::Oid(o) if o.as_str() == "a1"));
        let class = &t.children[0];
        assert_eq!(class.label.as_sym(), Some("class"));
        let artifact = &class.children[0];
        assert_eq!(artifact.label.as_sym(), Some("artifact"));
        let tuple = &artifact.children[0];
        assert_eq!(
            tuple
                .child("title")
                .unwrap()
                .value_atom()
                .unwrap()
                .to_string(),
            "Nympheas"
        );
        let owners = tuple.child("owners").unwrap();
        let list = &owners.children[0];
        assert_eq!(list.label.as_sym(), Some("list"));
        assert_eq!(list.children.len(), 3);
        assert!(matches!(&list.children[0].label, Label::Ref(o) if o.as_str() == "p1"));
    }

    #[test]
    fn extent_export_and_instance_of_schema() {
        let store = fig1_store();
        let doc = extent_tree(&store, "artifacts").unwrap();
        assert_eq!(doc.children.len(), 2);
        let model = schema_model(&store, "art");
        assert!(model.get("Artifact").is_some());
        assert!(model.get("Artifacts").is_some());
        // every exported object is an instance of its class pattern;
        // owner references need the persons in a forest to dereference
        let mut forest = yat_model::Forest::new();
        forest.insert("persons", extent_tree(&store, "persons").unwrap());
        let a1 = object_tree(&store, &Oid::new("a1")).unwrap();
        let opts = MatchOptions {
            model: Some(&model),
            forest: Some(&forest),
            closed: true,
        };
        assert!(yat_model::matching::matches(
            &a1,
            model.get("Artifact").unwrap(),
            opts
        ));
        // (owners hold references; instance-checking a whole extent
        // against `Artifacts` needs the persons in scope)
        let p1 = object_tree(&store, &Oid::new("p1")).unwrap();
        assert!(is_instance(&p1, model.get("Person").unwrap(), Some(&model)));
        assert!(!is_instance(
            &p1,
            model.get("Artifact").unwrap(),
            Some(&model)
        ));
    }

    #[test]
    fn exported_schema_instantiates_odmg_model() {
        // the Fig. 3 relationship: Artifact <: ODMG::Class
        let store = fig1_store();
        let art = schema_model(&store, "art");
        let odmg = odmg_model();
        assert!(subsumes(
            &Pattern::Ref("Class".into()),
            &Pattern::Ref("Artifact".into()),
            Some(&odmg),
            Some(&art),
        ));
    }

    /// The ODMG metamodel (duplicated from yat-model's tests — exported
    /// here from the O2 side as the `o2model`).
    fn odmg_model() -> Model {
        use yat_model::{AtomType, PLabel};
        let mut branches = vec![
            Pattern::atom(AtomType::Int),
            Pattern::atom(AtomType::Bool),
            Pattern::atom(AtomType::Float),
            Pattern::atom(AtomType::Str),
        ];
        branches.push(Pattern::sym(
            "tuple",
            vec![Edge::star(Pattern::Node {
                label: PLabel::AnySym,
                edges: vec![Edge::one(Pattern::Ref("Type".into()))],
            })],
        ));
        for coll in ["set", "bag", "list", "array"] {
            branches.push(Pattern::sym(
                coll,
                vec![Edge::star(Pattern::Ref("Type".into()))],
            ));
        }
        branches.push(Pattern::Ref("Class".into()));
        Model::new("o2model")
            .with(
                "Class",
                Pattern::sym(
                    "class",
                    vec![Edge::one(Pattern::Node {
                        label: PLabel::AnySym,
                        edges: vec![Edge::one(Pattern::Ref("Type".into()))],
                    })],
                ),
            )
            .with("Type", Pattern::Union(branches))
    }

    #[test]
    fn view_filter_matches_exported_extent() {
        // the artifacts side of view1 must bind against the export
        let store = fig1_store();
        let doc = extent_tree(&store, "artifacts").unwrap();
        let filter = yat_yatl::parse_filter(
            "set *class: artifact: tuple [ title: $t, year: $y, creator: $c, price: $p ]",
        )
        .unwrap();
        let rows = yat_model::match_filter(&doc, &filter, MatchOptions::default());
        assert_eq!(rows.len(), 2);
    }
}
