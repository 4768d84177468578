//! Templates: the construction side of the `Tree` operator.
//!
//! A template describes the XML structure a `Tree` operator builds from a
//! `Tab` (Fig. 4 right; the `MAKE` clause of YATL, Section 2). Templates
//! support the grouping primitive `*(vars)` and **Skolem functions**
//! (`artwork($t,$c)`), which mint one identifier per distinct argument
//! tuple and are the only side-effecting part of the algebra
//! (Section 3.1).

use std::fmt;

/// A construction template, instantiated over a set of `Tab` rows.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Template {
    /// A node with a fixed symbol label and child templates, instantiated
    /// once in the current row context.
    Sym {
        /// Element name.
        name: String,
        /// Child templates.
        children: Vec<Template>,
    },
    /// Splices the distinct values of a variable in the current row
    /// context: trees splice as subtrees, collections splat element-wise,
    /// atoms become leaves.
    Var(String),
    /// A node labeled by the *label binding* of a variable (inverse of tag
    /// variables): `~$n[...]`.
    LabelVar {
        /// Variable holding the label.
        var: String,
        /// Child templates.
        children: Vec<Template>,
    },
    /// The grouping primitive `*(key)` (Fig. 4): partitions the current
    /// rows by the distinct values of `key` and instantiates `body` once
    /// per group, with only that group's rows in scope.
    Group {
        /// Grouping key variables.
        key: Vec<String>,
        /// Optional Skolem function name: each group's subtree is
        /// identified by `skolem(key...)`, a pure function of the key,
        /// so references converge across the whole integration
        /// (`artwork($t,$c)`).
        skolem: Option<String>,
        /// Template instantiated per group.
        body: Box<Template>,
    },
    /// A constant leaf.
    Text(String),
}

impl Template {
    /// A fixed-label node.
    pub fn sym(name: impl Into<String>, children: Vec<Template>) -> Template {
        Template::Sym {
            name: name.into(),
            children,
        }
    }

    /// `name[$var]`.
    pub fn elem_var(name: impl Into<String>, var: impl Into<String>) -> Template {
        Template::sym(name, vec![Template::Var(var.into())])
    }

    /// A group without Skolem identification.
    pub fn group(key: &[&str], body: Template) -> Template {
        Template::Group {
            key: key.iter().map(|s| s.to_string()).collect(),
            skolem: None,
            body: Box::new(body),
        }
    }

    /// A Skolem-identified group: `skolem(key...) := body`.
    pub fn skolem_group(skolem: impl Into<String>, key: &[&str], body: Template) -> Template {
        Template::Group {
            key: key.iter().map(|s| s.to_string()).collect(),
            skolem: Some(skolem.into()),
            body: Box::new(body),
        }
    }

    /// Variables mentioned by the template (used to check the input `Tab`
    /// provides them, and by projection pushdown to know what a view's
    /// `Tree` consumes).
    pub fn variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect(&mut out);
        out
    }

    fn collect(&self, out: &mut Vec<String>) {
        fn push(out: &mut Vec<String>, v: &str) {
            if !out.iter().any(|x| x == v) {
                out.push(v.to_string());
            }
        }
        match self {
            Template::Sym { children, .. } => {
                for c in children {
                    c.collect(out);
                }
            }
            Template::Var(v) => push(out, v),
            Template::LabelVar { var, children } => {
                push(out, var);
                for c in children {
                    c.collect(out);
                }
            }
            Template::Group { key, body, .. } => {
                for k in key {
                    push(out, k);
                }
                body.collect(out);
            }
            Template::Text(_) => {}
        }
    }

    /// The element names this template emits at its top level, ignoring
    /// grouping wrappers — used by the Bind–Tree composition rewriting to
    /// align a downstream filter with the view's construction.
    pub fn top_name(&self) -> Option<&str> {
        match self {
            Template::Sym { name, .. } => Some(name),
            Template::Group { body, .. } => body.top_name(),
            _ => None,
        }
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Template::Sym { name, children } => {
                write!(f, "{name}")?;
                if !children.is_empty() {
                    write!(f, "[")?;
                    for (i, c) in children.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{c}")?;
                    }
                    write!(f, "]")?;
                }
                Ok(())
            }
            Template::Var(v) => write!(f, "${v}"),
            Template::LabelVar { var, children } => {
                write!(f, "~${var}")?;
                if !children.is_empty() {
                    write!(f, "[")?;
                    for (i, c) in children.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{c}")?;
                    }
                    write!(f, "]")?;
                }
                Ok(())
            }
            Template::Group { key, skolem, body } => {
                let keys = key
                    .iter()
                    .map(|k| format!("${k}"))
                    .collect::<Vec<_>>()
                    .join(",");
                match skolem {
                    Some(s) => write!(f, "*&{s}({keys}):{body}"),
                    None => write!(f, "*({keys}):{body}"),
                }
            }
            Template::Text(t) => write!(f, "{t:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 4 Tree template: group works by artist, one `artist`
    /// subtree per name holding the titles.
    fn fig4_template() -> Template {
        Template::sym(
            "s",
            vec![Template::skolem_group(
                "artist",
                &["a"],
                Template::sym(
                    "artist",
                    vec![
                        Template::elem_var("name", "a"),
                        Template::group(&["t"], Template::elem_var("title", "t")),
                    ],
                ),
            )],
        )
    }

    #[test]
    fn variables_in_order() {
        assert_eq!(fig4_template().variables(), vec!["a", "t"]);
    }

    #[test]
    fn display_shows_grouping_and_skolems() {
        let s = fig4_template().to_string();
        assert_eq!(s, "s[*&artist($a):artist[name[$a], *($t):title[$t]]]");
    }

    #[test]
    fn top_name_skips_groups() {
        assert_eq!(fig4_template().top_name(), Some("s"));
        let g = Template::skolem_group("artwork", &["t", "c"], Template::sym("work", vec![]));
        assert_eq!(g.top_name(), Some("work"));
        assert_eq!(Template::Var("x".into()).top_name(), None);
    }
}
