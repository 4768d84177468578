//! Figure 3 — structural metadata at three genericity levels and the
//! instantiation chain `Artifact <: ODMG <: YAT` across crate boundaries:
//! the O2 wrapper exports the schema, the Wais wrapper the Artworks
//! structure, and `yat-model` decides the relationships.

use yat::yat_model::instantiate::{is_instance, subsumes, yat_metamodel};
use yat::yat_model::{Edge, MatchOptions, Model, PLabel, Pattern};
use yat::yat_oql::art::fig1_store;
use yat::yat_oql::export::{extent_tree, object_tree, schema_model};
use yat::yat_wais::{fig1_works, WaisSource, WaisWrapper};

/// The ODMG (meta)model of Fig. 3, exactly as drawn.
fn odmg_model() -> Model {
    use yat::yat_model::AtomType;
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
    Model::new("odmg")
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
fn the_full_instantiation_chain() {
    let store = fig1_store();
    let art = schema_model(&store, "art");
    let odmg = odmg_model();
    let yat = yat_metamodel();

    // Artifact <: ODMG::Class
    for class in ["Artifact", "Person"] {
        assert!(
            subsumes(
                &Pattern::Ref("Class".into()),
                &Pattern::Ref(class.into()),
                Some(&odmg),
                Some(&art)
            ),
            "{class} <: ODMG::Class"
        );
        // … <: YAT
        assert!(
            subsumes(
                &Pattern::Ref("Yat".into()),
                &Pattern::Ref(class.into()),
                Some(&yat),
                Some(&art)
            ),
            "{class} <: YAT"
        );
    }
    // ODMG <: YAT as well ("we have Artifact <: ODMG <: YAT")
    for name in ["Class", "Type"] {
        assert!(subsumes(
            &Pattern::Ref("Yat".into()),
            &Pattern::Ref(name.into()),
            Some(&yat),
            Some(&odmg)
        ));
    }
    // and never the other way
    assert!(!subsumes(
        &Pattern::Ref("Artifact".into()),
        &Pattern::Ref("Class".into()),
        Some(&art),
        Some(&odmg)
    ));
}

#[test]
fn exported_data_instantiates_exported_schema() {
    let store = fig1_store();
    let art = schema_model(&store, "art");
    let mut forest = yat::yat_model::Forest::new();
    forest.insert("persons", extent_tree(&store, "persons").unwrap());

    for id in ["a1", "a2"] {
        let obj = object_tree(&store, &id.into()).unwrap();
        let opts = MatchOptions {
            model: Some(&art),
            forest: Some(&forest),
            closed: true,
        };
        assert!(
            yat::yat_model::matching::matches(&obj, art.get("Artifact").unwrap(), opts),
            "{id} must instantiate Artifact"
        );
    }
}

#[test]
fn wais_structure_matches_its_documents() {
    let wrapper = WaisWrapper::new("xmlartwork", WaisSource::new("works", &fig1_works()));
    let structure = wrapper.structure();
    let works = fig1_works();
    // the whole collection instantiates Works, each work instantiates Work
    assert!(is_instance(
        &works,
        structure.get("Works").unwrap(),
        Some(&structure)
    ));
    for w in &works.children {
        assert!(is_instance(
            w,
            structure.get("Work").unwrap(),
            Some(&structure)
        ));
    }
    // partial structure: an alien document does not
    let alien = yat::yat_model::Node::sym("poem", vec![]);
    assert!(!is_instance(
        &alien,
        structure.get("Work").unwrap(),
        Some(&structure)
    ));
    // and Artworks <: YAT completes the picture
    let yat = yat_metamodel();
    assert!(subsumes(
        &Pattern::Ref("Yat".into()),
        &Pattern::Ref("Works".into()),
        Some(&yat),
        Some(&structure)
    ));
}

#[test]
fn metadata_travels_the_wire() {
    // the Fig. 3 metadata survives the XML interface exchange
    use yat::yat_capability::Interface;
    let store = fig1_store();
    let o2 = yat::yat_oql::O2Wrapper::new("o2artifact", store);
    let sent = o2.interface();
    let mut text = String::new();
    sent.encode(&mut text);
    let received = Interface::decode(&text).unwrap();
    let art = received.model("art").unwrap();
    assert!(art.get("Artifact").is_some());
    let odmg = odmg_model();
    assert!(subsumes(
        &Pattern::Ref("Class".into()),
        &Pattern::Ref("Artifact".into()),
        Some(&odmg),
        Some(art)
    ));
}
