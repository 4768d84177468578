//! External function registry and Skolem function registry.

use crate::error::EvalError;
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::hash::Hasher;
use std::sync::Arc;
use yat_model::hash::Fnv64;
use yat_model::{Atom, Node, Oid};

/// The name of the element-set projection: `elements($w, "title")` is
/// the document `$w` with only its `title` children.
pub const ELEMENTS: &str = "elements";

/// The signature of a registered external function: operations a source
/// contributes beyond the core algebra (`kind="external"` in Fig. 6) —
/// e.g. the Wais `contains` predicate or the O2 `current_price` method.
pub type ExternalFn = dyn Fn(&[Value]) -> Result<Value, EvalError> + Send + Sync;

/// A registry of external functions, keyed by name.
///
/// The reference evaluator looks predicates like `contains($w, "...")` up
/// here. Wrappers register their operations when connected; the mediator
/// can also register *compensating* implementations so that a predicate
/// declared by a source remains evaluable locally when it cannot be pushed.
#[derive(Clone, Default)]
pub struct FnRegistry {
    funcs: BTreeMap<String, Arc<ExternalFn>>,
}

impl FnRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a function.
    pub fn register<F>(&mut self, name: impl Into<String>, f: F)
    where
        F: Fn(&[Value]) -> Result<Value, EvalError> + Send + Sync + 'static,
    {
        self.funcs.insert(name.into(), Arc::new(f));
    }

    /// Calls a function by name.
    pub fn call(&self, name: &str, args: &[Value]) -> Result<Value, EvalError> {
        match self.funcs.get(name) {
            Some(f) => f(args),
            None => Err(EvalError::UnknownFunction(name.to_string())),
        }
    }

    /// Whether a function is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.funcs.contains_key(name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.funcs.keys().map(String::as_str).collect()
    }

    /// A registry preloaded with the mediator's built-in compensations:
    ///
    /// * `contains(tree, needle) -> Bool` — substring search over the
    ///   concatenated text of the subtree (the mediator-side semantics of
    ///   the Wais predicate, used when pushdown is impossible);
    /// * `elements(doc, "field"…) -> doc` — the document keeping only
    ///   the top-level children [`Node::in_fields`] keeps (the
    ///   mediator-side semantics of the Wais element-set operation, see
    ///   [`crate::expr::ElementSet`]);
    /// * `textof(tree) -> String` — text extraction.
    pub fn with_builtins() -> Self {
        let mut r = Self::new();
        r.register("contains", |args: &[Value]| {
            let [hay, needle] = args else {
                return Err(EvalError::Function {
                    name: "contains".into(),
                    message: format!("expected 2 arguments, got {}", args.len()),
                });
            };
            let needle = needle
                .atom()
                .and_then(|a| a.as_str().map(str::to_string))
                .ok_or_else(|| EvalError::Function {
                    name: "contains".into(),
                    message: "needle must be a string".into(),
                })?;
            let text = value_text(hay);
            Ok(Value::Atom(Atom::Bool(
                text.to_lowercase().contains(&needle.to_lowercase()),
            )))
        });
        r.register(ELEMENTS, |args: &[Value]| {
            let [doc, fields @ ..] = args else {
                return Err(EvalError::Function {
                    name: ELEMENTS.into(),
                    message: "expected a document and field names".into(),
                });
            };
            let fields = fields
                .iter()
                .map(|f| match f {
                    Value::Atom(Atom::Str(s)) => Some(s.as_str()),
                    _ => None,
                })
                .collect::<Option<Vec<&str>>>()
                .ok_or_else(|| EvalError::Function {
                    name: ELEMENTS.into(),
                    message: "field names must be strings".into(),
                })?;
            match doc {
                Value::Tree(t) => Ok(Value::Tree(Node::element_set(t, &fields))),
                Value::Null => Ok(Value::Null),
                other => Err(EvalError::Function {
                    name: ELEMENTS.into(),
                    message: format!("expected a document, got {other:?}"),
                }),
            }
        });
        r.register("textof", |args: &[Value]| {
            let [v] = args else {
                return Err(EvalError::Function {
                    name: "textof".into(),
                    message: "expected 1 argument".into(),
                });
            };
            Ok(Value::Atom(Atom::Str(value_text(v))))
        });
        r
    }
}

impl fmt::Debug for FnRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnRegistry")
            .field("names", &self.names())
            .finish()
    }
}

/// Concatenated text content of a value (whitespace-joined atoms of the
/// subtree).
pub fn value_text(v: &Value) -> String {
    fn tree_text(t: &yat_model::Tree, out: &mut String) {
        if let yat_model::Label::Atom(a) = &t.label {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&a.to_string());
        }
        for c in &t.children {
            tree_text(c, out);
        }
    }
    match v {
        Value::Tree(t) => {
            let mut s = String::new();
            tree_text(t, &mut s);
            s
        }
        Value::Atom(a) => a.to_string(),
        Value::Label(l) => l.clone(),
        Value::Coll(c) => c.iter().map(value_text).collect::<Vec<_>>().join(" "),
        Value::Null => String::new(),
    }
}

/// The Skolem functions: mint one identifier per distinct
/// `(function, argument-tuple)` pair, so that repeated rule evaluations
/// converge on the same identifiers ("Skolem functions do not create
/// values but have side effects on the integrated view", Section 3.1).
///
/// Identifiers are *content-derived* — an FNV-1a hash of the function
/// name and the length-prefixed [`Value::group_key`] of each argument —
/// rather than sequence numbers, so minting is a pure function: the OID a
/// tuple receives does not depend on how many identifiers were minted
/// before it, two queries running concurrently on one mediator mint the
/// same OIDs they would have minted alone, and nothing is remembered
/// between calls (a long-lived server keeps no per-key state).
#[derive(Debug, Default)]
pub struct SkolemRegistry;

impl SkolemRegistry {
    /// The Skolem functions.
    pub fn new() -> Self {
        SkolemRegistry
    }

    /// Applies Skolem function `name` to `args`.
    pub fn apply<'v>(&self, name: &str, args: impl IntoIterator<Item = &'v Value>) -> Oid {
        /// Counts the bytes of a written key.
        struct Len(usize);
        impl fmt::Write for Len {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 += s.len();
                Ok(())
            }
        }
        /// Feeds written text straight into the hash.
        struct Feed<'h>(&'h mut Fnv64);
        impl fmt::Write for Feed<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.write(s.as_bytes());
                Ok(())
            }
        }
        // FNV-1a over the name, a 0 byte, then per argument its key's
        // byte length in decimal, \u{1}, the key, \u{2}. The length
        // prefix keeps adversarial strings from re-splitting the keys
        // (f("a\u{1}b") aliasing f("a","b")). 64 bits is plenty for the
        // identifier populations a session mints.
        let mut h = Fnv64::new();
        h.write(name.as_bytes());
        h.write_u8(0);
        for v in args {
            let mut len = Len(0);
            let _ = v.write_group_key(&mut len);
            let mut feed = Feed(&mut h);
            let _ = write!(feed, "{}\u{1}", len.0);
            let _ = v.write_group_key(&mut feed);
            h.write_u8(2);
        }
        Oid::new(format!("{name}:{:016x}", h.finish()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yat_model::Node;

    #[test]
    fn registry_register_and_call() {
        let mut r = FnRegistry::new();
        r.register("double", |args| {
            let a = args[0].atom().and_then(|a| a.as_f64()).unwrap_or(0.0);
            Ok(Value::Atom(Atom::Float(a * 2.0)))
        });
        assert!(r.contains("double"));
        let out = r.call("double", &[Value::Atom(Atom::Int(21))]).unwrap();
        assert_eq!(out, Value::Atom(Atom::Float(42.0)));
        assert!(matches!(
            r.call("nope", &[]),
            Err(EvalError::UnknownFunction(_))
        ));
    }

    #[test]
    fn builtin_contains_is_case_insensitive_text_search() {
        let r = FnRegistry::with_builtins();
        let work = Value::Tree(Node::sym(
            "work",
            vec![
                Node::elem("style", "Impressionist"),
                Node::elem("title", "Nympheas"),
            ],
        ));
        let hit = r
            .call(
                "contains",
                &[work.clone(), Value::Atom(Atom::Str("impressionist".into()))],
            )
            .unwrap();
        assert_eq!(hit, Value::Atom(Atom::Bool(true)));
        let miss = r
            .call("contains", &[work, Value::Atom(Atom::Str("cubist".into()))])
            .unwrap();
        assert_eq!(miss, Value::Atom(Atom::Bool(false)));
        // arity and type errors
        assert!(r.call("contains", &[Value::Null]).is_err());
        assert!(r
            .call("contains", &[Value::Null, Value::Atom(Atom::Int(3))])
            .is_err());
    }

    #[test]
    fn builtin_elements_keeps_the_named_children() {
        let r = FnRegistry::with_builtins();
        let work = Node::sym(
            "work",
            vec![
                Node::elem("title", "Nympheas"),
                Node::atom("loose text"),
                Node::elem("style", "Impressionist"),
                Node::elem("title", "Water Lilies"),
            ],
        );
        let str_ = |x: &str| Value::Atom(Atom::Str(x.into()));
        let titles = r
            .call(ELEMENTS, &[Value::Tree(work.clone()), str_("title")])
            .unwrap();
        assert_eq!(
            titles.as_tree().unwrap().to_string(),
            "work[title[\"Nympheas\"], title[\"Water Lilies\"]]"
        );
        // an identified document is cut inside its identifier
        let identified = Node::oid(yat_model::Oid::new("w1"), vec![work.clone()]);
        let titles = r
            .call(ELEMENTS, &[Value::Tree(identified), str_("style")])
            .unwrap();
        assert_eq!(
            titles.as_tree().unwrap().to_string(),
            "w1[work[style[\"Impressionist\"]]]"
        );
        let none = r.call(ELEMENTS, &[Value::Tree(work)]).unwrap();
        assert!(none.as_tree().unwrap().children.is_empty());
        assert_eq!(
            r.call(ELEMENTS, &[Value::Null, str_("title")]),
            Ok(Value::Null)
        );
        assert!(r.call(ELEMENTS, &[]).is_err());
        assert!(r.call(ELEMENTS, &[str_("x"), str_("title")]).is_err());
    }

    /// The exact identifiers minting produces, pinned: the hash runs
    /// over the same length-prefixed key bytes it always has, so OIDs in
    /// stored answers and on the wire never change.
    #[test]
    fn skolem_oids_are_pinned() {
        let s = SkolemRegistry::new();
        let str_ = |x: &str| Value::Atom(Atom::Str(x.into()));
        let cases: Vec<(&str, Vec<Value>, &str)> = vec![
            (
                "artwork",
                vec![str_("Nympheas")],
                "artwork:17c1a41138df89ec",
            ),
            (
                "artwork",
                vec![str_("Waterloo")],
                "artwork:bdf52901402fb054",
            ),
            ("artist", vec![str_("Nympheas")], "artist:61a8971a09f742ab"),
            ("f", vec![Value::Atom(Atom::Int(3))], "f:186443f5d56f99a1"),
            (
                "f",
                vec![Value::Atom(Atom::Float(3.0))],
                "f:186443f5d56f99a1",
            ),
            (
                "f",
                vec![Value::Atom(Atom::Float(2.5))],
                "f:51cdb4f1d5534399",
            ),
            (
                "f",
                vec![Value::Label("Nympheas".into())],
                "f:13512336b4172406",
            ),
            ("f", vec![str_("Nympheas")], "f:13512336b4172406"),
            (
                "f",
                vec![Value::Tree(Node::elem("title", "Nympheas"))],
                "f:13512336b4172406",
            ),
            (
                "f",
                vec![Value::Tree(Node::sym(
                    "work",
                    vec![Node::elem("title", "x"), Node::elem("year", 1897)],
                ))],
                "f:00341d0b83e68855",
            ),
            ("f", vec![str_("a\u{1}b")], "f:9724af33fbbd90fa"),
            ("f", vec![str_("a"), str_("b")], "f:cbdb3a31eb932c6c"),
            (
                "artwork",
                vec![str_("Nympheas"), Value::Atom(Atom::Int(1897)), Value::Null],
                "artwork:9de526850f930713",
            ),
        ];
        for (name, args, oid) in &cases {
            assert_eq!(s.apply(name, args).as_str(), *oid, "{name}{args:?}");
        }
        // minting twice gives the same identifier; distinct tuples differ
        assert_eq!(
            s.apply("artwork", &cases[0].1),
            s.apply("artwork", &cases[0].1)
        );
        assert_ne!(cases[10].2, cases[11].2, "length prefixes keep the split");
    }

    #[test]
    fn skolem_oids_are_independent_of_minting_order() {
        let forward = SkolemRegistry::new();
        let f_a = forward.apply("artwork", &[Value::Atom(Atom::Str("A".into()))]);
        let f_b = forward.apply("artwork", &[Value::Atom(Atom::Str("B".into()))]);
        let backward = SkolemRegistry::new();
        let b_b = backward.apply("artwork", &[Value::Atom(Atom::Str("B".into()))]);
        let b_a = backward.apply("artwork", &[Value::Atom(Atom::Str("A".into()))]);
        // content-derived identifiers: interleaving concurrent queries
        // cannot change which OID a tuple receives
        assert_eq!(f_a, b_a);
        assert_eq!(f_b, b_b);
    }

    #[test]
    fn value_text_concatenates() {
        let t = Value::Tree(Node::sym(
            "history",
            vec![
                Node::atom("Painted with"),
                Node::elem("technique", "Oil on canvas"),
            ],
        ));
        assert_eq!(value_text(&t), "Painted with Oil on canvas");
    }
}
