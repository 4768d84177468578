//! Translation of pushed algebra plans into OQL (Section 4.1).
//!
//! The wrapper accepts fragments of shape
//! `Project*( Select*( Bind( Source(extent) ) ) )` and rewrites them into
//! one `select`–`from`–`where` query: the `Bind` filter's vertical
//! navigation becomes the `from` clause's (possibly dependent) ranges,
//! bound variables become path expressions, and `Select` predicates move
//! to `where` — exactly the translation the paper shows for the left-hand
//! side of Fig. 5.
//!
//! A fragment that receives information-passing bindings translates
//! *once*: [`plan_to_oql_passing`] renders every position the mediator
//! would have substituted a passed value into as an OQL parameter
//! (`$1`, `$2`, …), and the parsed query is then evaluated per binding.

use crate::oql::literal;
use crate::store::OqlError;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use yat_algebra::{Alg, CmpOp, Operand, Pred};
use yat_model::{Occ, PLabel, Pattern};

/// The outcome of translating a plan: the OQL text plus the output
/// columns of the resulting `Tab`, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct OqlPlan {
    /// The OQL query text.
    pub oql: String,
    /// Output column names.
    pub columns: Vec<String>,
}

/// Translates a pushed plan into OQL.
pub fn plan_to_oql(plan: &Alg) -> Result<OqlPlan, OqlError> {
    plan_to_oql_passing(plan, &[])
}

/// Translates a pushed plan that is passed a value for each of `passed`
/// (`passed[i]` becomes parameter `$i+1`). The result is the translation
/// of `yat_algebra::substitute_env(plan, env)` for *any* `env` binding
/// exactly `passed` to atoms, with the atoms left open: a passed variable
/// turns into a parameter wherever substitution would inline it — as a
/// `Bind` filter's tree variable, and as a predicate operand no input
/// below that predicate produces.
pub fn plan_to_oql_passing(plan: &Alg, passed: &[String]) -> Result<OqlPlan, OqlError> {
    // peel Project / Select / Bind / Source; each predicate remembers the
    // variables its input produces (those never take a passed value)
    let mut projections: Option<Vec<(String, String)>> = None;
    let mut selects: Vec<(&Pred, Vec<String>)> = Vec::new();
    let mut cursor = plan;
    loop {
        match cursor {
            Alg::Project { input, cols } => {
                if projections.is_some() {
                    return Err(OqlError("multiple Project layers are not supported".into()));
                }
                projections = Some(cols.clone());
                cursor = input;
            }
            Alg::Select { input, pred } => {
                selects.push((pred, input.out_vars().unwrap_or_default()));
                cursor = input;
            }
            Alg::Bind {
                input,
                filter,
                over: None,
            } => {
                let Alg::Source { name, .. } = input.as_ref() else {
                    return Err(OqlError(
                        "Bind must read an exported extent directly".into(),
                    ));
                };
                return assemble(name, filter, &selects, projections, passed);
            }
            other => {
                return Err(OqlError(format!(
                    "operator not supported by the OQL wrapper: {}",
                    other.describe()
                )))
            }
        }
    }
}

fn assemble(
    extent: &str,
    filter: &Pattern,
    selects: &[(&Pred, Vec<String>)],
    projections: Option<Vec<(String, String)>>,
    passed: &[String],
) -> Result<OqlPlan, OqlError> {
    let mut tr = Translator {
        ranges: Vec::new(),
        paths: BTreeMap::new(),
        filter_conds: Vec::new(),
        next: 0,
        passed,
    };
    // the filter root must be the extent's collection pattern
    match filter {
        Pattern::Node {
            label: PLabel::Sym(s),
            edges,
        } if matches!(s.as_str(), "set" | "bag" | "list" | "array") => {
            for e in edges {
                if e.occ != Occ::Star {
                    return Err(OqlError(
                        "positional access to an extent is not supported".into(),
                    ));
                }
                let var = tr.fresh_range(extent.to_string());
                if let Some((v, _)) = &e.star_var {
                    tr.paths.insert(v.clone(), var.clone());
                }
                tr.element(&var, &e.pattern)?;
            }
        }
        Pattern::TreeVar(v) => {
            // bind whole extent? OQL has no value for "the extent as one
            // object"; reject — the mediator fetches documents instead
            return Err(OqlError(format!(
                "cannot bind the whole extent to ${v}; use get-document"
            )));
        }
        other => {
            return Err(OqlError(format!(
                "filter root `{other}` does not match an extent collection"
            )))
        }
    }

    // where: filter-inline constants + pushed selections
    let mut conds: Vec<String> = tr.filter_conds.clone();
    for (p, produced) in selects {
        conds.push(tr.pred(p, produced)?);
    }

    // select clause
    let columns: Vec<(String, String)> = match projections {
        Some(cols) => {
            cols.into_iter()
                .map(|(src, dst)| {
                    let path = tr.paths.get(&src).cloned().ok_or_else(|| {
                        OqlError(format!("projected variable ${src} is not bound"))
                    })?;
                    Ok((dst, path))
                })
                .collect::<Result<_, OqlError>>()?
        }
        None => {
            // no projection: every filter variable, in filter order
            let mut cols = Vec::new();
            for v in filter.variables() {
                if let Some(p) = tr.paths.get(&v) {
                    cols.push((v.clone(), p.clone()));
                }
            }
            cols
        }
    };
    if columns.is_empty() {
        return Err(OqlError("the pushed plan binds no variables".into()));
    }

    let mut oql = String::from("select ");
    for (i, (name, path)) in columns.iter().enumerate() {
        if i > 0 {
            oql.push_str(", ");
        }
        // primes are not valid OQL identifiers; project them away
        let safe = name.replace('\'', "_prime");
        let _ = write!(oql, "{safe}: {path}");
    }
    oql.push_str(" from ");
    for (i, (var, src)) in tr.ranges.iter().enumerate() {
        if i > 0 {
            oql.push_str(", ");
        }
        let _ = write!(oql, "{var} in {src}");
    }
    if !conds.is_empty() {
        let _ = write!(oql, " where {}", conds.join(" and "));
    }
    Ok(OqlPlan {
        oql,
        columns: columns.into_iter().map(|(n, _)| n).collect(),
    })
}

struct Translator<'a> {
    /// Variables receiving passed values; `passed[i]` renders as `$i+1`.
    passed: &'a [String],
    /// `(range var, source path)` in dependency order.
    ranges: Vec<(String, String)>,
    /// YATL variable → OQL path.
    paths: BTreeMap<String, String>,
    /// Conditions arising from constants inlined in the filter.
    filter_conds: Vec<String>,
    next: usize,
}

impl Translator<'_> {
    /// The parameter a passed variable renders as.
    fn param(&self, var: &str) -> Option<String> {
        let i = self.passed.iter().position(|p| p == var)?;
        Some(format!("${}", i + 1))
    }

    fn fresh_range(&mut self, source: String) -> String {
        // A, B, C, ... then R10, R11, ...
        let var = if self.next < 26 {
            ((b'A' + self.next as u8) as char).to_string()
        } else {
            format!("R{}", self.next)
        };
        self.next += 1;
        self.ranges.push((var.clone(), source));
        var
    }

    /// Translates the pattern for one collection element reached at
    /// `path` (a range variable or a dotted path).
    fn element(&mut self, path: &str, pat: &Pattern) -> Result<(), OqlError> {
        match pat {
            // a whole element compared to a passed atom: the constant
            // pattern substitution leaves here has no OQL form either
            Pattern::TreeVar(v) if self.param(v).is_some() => Err(OqlError(format!(
                "unsupported element pattern `{pat}` for OQL translation"
            ))),
            Pattern::TreeVar(v) => {
                self.paths.insert(v.clone(), path.to_string());
                Ok(())
            }
            Pattern::Wildcard => Ok(()),
            // structural wrappers: class[<name>[tuple[...]]] — class and
            // class-name nodes are not path steps
            Pattern::Node {
                label: PLabel::Sym(s),
                edges,
            } if s == "class" => {
                for e in edges {
                    self.element(path, &e.pattern)?;
                }
                Ok(())
            }
            Pattern::Node {
                label: PLabel::Sym(s),
                edges,
            } if s == "tuple" => {
                for e in edges {
                    self.tuple_field(path, &e.pattern)?;
                }
                Ok(())
            }
            // the class-name wrapper (artifact, person): structural
            Pattern::Node {
                label: PLabel::Sym(_),
                edges,
            } => {
                for e in edges {
                    self.element(path, &e.pattern)?;
                }
                Ok(())
            }
            other => Err(OqlError(format!(
                "unsupported element pattern `{other}` for OQL translation"
            ))),
        }
    }

    /// A tuple field: `title[$t]`, `owners[list[*...]]`, `year[1897]`.
    fn tuple_field(&mut self, path: &str, pat: &Pattern) -> Result<(), OqlError> {
        let Pattern::Node {
            label: PLabel::Sym(field),
            edges,
        } = pat
        else {
            return Err(OqlError(format!(
                "tuple fields must be named elements, got `{pat}`"
            )));
        };
        let fpath = format!("{path}.{field}");
        for e in edges {
            match (&e.occ, &e.pattern) {
                (_, Pattern::TreeVar(v)) => match self.param(v) {
                    Some(param) => self.filter_conds.push(format!("{fpath} = {param}")),
                    None => {
                        self.paths.insert(v.clone(), fpath.clone());
                    }
                },
                (
                    _,
                    Pattern::Node {
                        label: PLabel::Const(a),
                        edges,
                    },
                ) if edges.is_empty() => {
                    self.filter_conds.push(format!("{fpath} = {}", literal(a)));
                }
                (
                    _,
                    Pattern::Node {
                        label: PLabel::Atom(_),
                        edges,
                    },
                ) if edges.is_empty() => {
                    // a type constraint the schema already guarantees
                }
                (_, Pattern::Wildcard) => {}
                // a nested collection: owners[ list[ *element ] ]
                (
                    _,
                    Pattern::Node {
                        label: PLabel::Sym(s),
                        edges: inner,
                    },
                ) if matches!(s.as_str(), "set" | "bag" | "list" | "array") => {
                    for ie in inner {
                        if ie.occ != Occ::Star {
                            return Err(OqlError(
                                "positional access into a collection attribute".into(),
                            ));
                        }
                        let var = self.fresh_range(fpath.clone());
                        if let Some((v, _)) = &ie.star_var {
                            self.paths.insert(v.clone(), var.clone());
                        }
                        self.element(&var, &ie.pattern)?;
                    }
                }
                // a nested tuple or class wrapper under the field
                (_, nested @ Pattern::Node { .. }) => {
                    self.element(&fpath, nested)?;
                }
                (_, other) => {
                    return Err(OqlError(format!(
                        "unsupported field content `{other}` for OQL translation"
                    )))
                }
            }
        }
        Ok(())
    }

    /// `produced`: the variables the predicate's input produces.
    fn pred(&self, p: &Pred, produced: &[String]) -> Result<String, OqlError> {
        match p {
            Pred::True => Ok("true = true".into()),
            Pred::And(a, b) => Ok(format!(
                "{} and {}",
                self.pred(a, produced)?,
                self.pred(b, produced)?
            )),
            Pred::Or(a, b) => Ok(format!(
                "({} or {})",
                self.pred(a, produced)?,
                self.pred(b, produced)?
            )),
            Pred::Not(x) => Ok(format!("not ({})", self.pred(x, produced)?)),
            Pred::Cmp { op, left, right } => Ok(format!(
                "{} {} {}",
                self.operand(left, produced)?,
                cmp(*op),
                self.operand(right, produced)?
            )),
            Pred::Call { name, .. } => Err(OqlError(format!(
                "boolean predicate `{name}` has no OQL form"
            ))),
        }
    }

    fn operand(&self, o: &Operand, produced: &[String]) -> Result<String, OqlError> {
        match o {
            Operand::Var(v) => {
                let passed = if produced.contains(v) {
                    None
                } else {
                    self.param(v)
                };
                passed
                    .or_else(|| self.paths.get(v).cloned())
                    .ok_or_else(|| OqlError(format!("variable ${v} is not bound by the filter")))
            }
            Operand::Const(a) => Ok(literal(a)),
            Operand::Call { name, args } => {
                // methods render as path steps: current_price($x) → x.current_price
                let [recv] = args.as_slice() else {
                    return Err(OqlError(format!(
                        "method `{name}` must take exactly its receiver"
                    )));
                };
                Ok(format!("{}.{}", self.operand(recv, produced)?, name))
            }
        }
    }
}

fn cmp(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::art::fig1_store;
    use crate::oql::run;
    use yat_algebra::Alg;
    use yat_yatl::parse_filter;

    fn view_filter() -> Pattern {
        parse_filter(
            "set *class: artifact: tuple [ title: $t, year: $y, creator: $c, price: $p, \
             owners: list *class: person: tuple [ name: $o, auction: $au ] ]",
        )
        .unwrap()
    }

    #[test]
    fn fig5_left_becomes_the_papers_oql() {
        // Bind + Select(year > 1800): the exact example of Section 4.1
        let plan = Alg::select(
            Alg::bind(Alg::source("artifacts"), view_filter()),
            Pred::cmp(CmpOp::Gt, Operand::var("y"), Operand::cst(1800)),
        );
        let t = plan_to_oql(&plan).unwrap();
        assert_eq!(
            t.oql,
            "select t: A.title, y: A.year, c: A.creator, p: A.price, o: B.name, au: B.auction \
             from A in artifacts, B in A.owners where A.year > 1800"
        );
        assert_eq!(t.columns, vec!["t", "y", "c", "p", "o", "au"]);
        // and it runs
        let store = fig1_store();
        let rows = run(&t.oql, &store).unwrap();
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn projection_restricts_columns() {
        let plan = Alg::project(
            Alg::bind(Alg::source("artifacts"), view_filter()),
            vec![("t".into(), "t".into()), ("p".into(), "price".into())],
        );
        let t = plan_to_oql(&plan).unwrap();
        assert_eq!(
            t.oql,
            "select t: A.title, price: A.price from A in artifacts, B in A.owners"
        );
        assert_eq!(t.columns, vec!["t", "price"]);
    }

    #[test]
    fn constants_in_filters_become_conditions() {
        let f =
            parse_filter("set *class: artifact: tuple [ title: $t, creator: \"Claude Monet\" ]")
                .unwrap();
        let plan = Alg::bind(Alg::source("artifacts"), f);
        let t = plan_to_oql(&plan).unwrap();
        assert!(
            t.oql.contains(r#"where A.creator = "Claude Monet""#),
            "{}",
            t.oql
        );
        let store = fig1_store();
        assert_eq!(run(&t.oql, &store).unwrap().len(), 2);
    }

    #[test]
    fn whole_object_bindings() {
        let f = parse_filter("set *$x").unwrap();
        let plan = Alg::select(
            Alg::bind(Alg::source("artifacts"), f),
            Pred::cmp(
                CmpOp::Le,
                Operand::Call {
                    name: "current_price".into(),
                    args: vec![Operand::var("x")],
                },
                Operand::cst(200000.0),
            ),
        );
        let t = plan_to_oql(&plan).unwrap();
        assert_eq!(
            t.oql,
            "select x: A from A in artifacts where A.current_price <= 200000.0"
        );
        let store = fig1_store();
        assert_eq!(run(&t.oql, &store).unwrap().len(), 1);
    }

    #[test]
    fn primed_variables_are_sanitized() {
        let f = parse_filter("set *class: artifact: tuple [ title: $t' ]").unwrap();
        let plan = Alg::bind(Alg::source("artifacts"), f);
        let t = plan_to_oql(&plan).unwrap();
        assert!(t.oql.contains("t_prime: A.title"), "{}", t.oql);
        assert_eq!(t.columns, vec!["t'"]);
        let store = fig1_store();
        assert_eq!(run(&t.oql, &store).unwrap().len(), 2);
    }

    #[test]
    fn passed_variables_become_parameters() {
        // Fig. 9's dependent fragment: `$a` and `$t'` arrive from the
        // left-hand side, `$t`/`$c`/`$y` are the filter's own
        let plan = Alg::select(
            Alg::select(
                Alg::bind(Alg::source("artifacts"), view_filter()),
                Pred::cmp(CmpOp::Gt, Operand::var("y"), Operand::cst(1800)),
            ),
            Pred::var_eq("c", "a").and(Pred::var_eq("t", "t'")),
        );
        let passed = ["a".to_string(), "t'".to_string()];
        let t = plan_to_oql_passing(&plan, &passed).unwrap();
        assert!(
            t.oql
                .ends_with("where A.creator = $1 and A.title = $2 and A.year > 1800"),
            "{}",
            t.oql
        );
        assert_eq!(t.columns, vec!["t", "y", "c", "p", "o", "au"]);
        // the text parses back, parameters included
        let q = crate::oql::parse(&t.oql).unwrap();
        assert_eq!(q.to_string(), t.oql);
        // without the values passed, the same plan does not translate:
        // `$a` is nobody's variable
        assert!(plan_to_oql(&plan).is_err());
    }

    #[test]
    fn a_passed_filter_variable_is_a_condition_not_a_column() {
        let f = parse_filter("set *class: artifact: tuple [ title: $t, year: $y ]").unwrap();
        let plan = Alg::bind(Alg::source("artifacts"), f);
        let t = plan_to_oql_passing(&plan, &["y".to_string()]).unwrap();
        assert_eq!(
            t.oql,
            "select t: A.title from A in artifacts where A.year = $1"
        );
        assert_eq!(t.columns, vec!["t"]);
    }

    #[test]
    fn unsupported_shapes_are_rejected() {
        // whole-extent binding
        let plan = Alg::bind(Alg::source("artifacts"), parse_filter("$all").unwrap());
        assert!(plan_to_oql(&plan).is_err());
        // TreeOp
        let plan = Alg::tree(
            Alg::bind(Alg::source("artifacts"), parse_filter("set *$x").unwrap()),
            yat_algebra::Template::sym("out", vec![]),
        );
        assert!(plan_to_oql(&plan).is_err());
        // unknown variable in predicate
        let plan = Alg::select(
            Alg::bind(Alg::source("artifacts"), parse_filter("set *$x").unwrap()),
            Pred::eq_const("zz", 1),
        );
        assert!(plan_to_oql(&plan).is_err());
    }
}
