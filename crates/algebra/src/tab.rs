//! The `Tab` structure: a ¬1NF relation of variable bindings.

use crate::value::Value;
use std::fmt;
use yat_model::SlotRows;

/// A table of variable bindings — "comparable to a ¬1NF relation"
/// (Section 3.1, Fig. 4). Columns are variable names; cells are
/// [`Value`]s, possibly nested collections.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tab {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl Tab {
    /// An empty table with the given column names.
    pub fn new(columns: Vec<String>) -> Self {
        Tab {
            columns,
            rows: Vec::new(),
        }
    }

    /// Builds a table from match-produced slot rows, moving their
    /// bindings: column `i` takes slot `i` (slots past the columns are
    /// dropped; an unbound slot — union branches — becomes `Null`).
    pub(crate) fn from_slot_rows(columns: Vec<String>, rows: &mut SlotRows) -> Self {
        let (len, width, ncols) = (rows.len(), rows.width(), columns.len());
        let mut cells = rows.drain();
        let mut tab = Tab {
            columns,
            rows: Vec::with_capacity(len),
        };
        for _ in 0..len {
            let mut row = Vec::with_capacity(ncols);
            for (j, cell) in cells.by_ref().take(width).enumerate() {
                if j < ncols {
                    row.push(cell.map_or(Value::Null, Value::from_binding));
                }
            }
            tab.push(row);
        }
        tab
    }

    /// A table over `rows`; panics if a row's arity differs from the
    /// columns' (see [`Tab::push`]).
    pub(crate) fn from_rows(columns: Vec<String>, rows: Vec<Vec<Value>>) -> Self {
        let tab = Tab { columns, rows };
        for row in &tab.rows {
            tab.check_arity(row);
        }
        tab
    }

    /// The columns and the rows, by value.
    pub(crate) fn into_parts(self) -> (Vec<String>, Vec<Vec<Value>>) {
        (self.columns, self.rows)
    }

    /// Keeps the rows `keep` accepts, in order, without copying any;
    /// the first error stops the scan and is returned (the table is then
    /// unspecified).
    pub(crate) fn try_retain<E>(
        &mut self,
        mut keep: impl FnMut(&[String], &[Value]) -> Result<bool, E>,
    ) -> Result<(), E> {
        let mut failure = None;
        let columns = &self.columns;
        self.rows.retain(|row| {
            if failure.is_some() {
                return false;
            }
            keep(columns, row).unwrap_or_else(|e| {
                failure = Some(e);
                false
            })
        });
        failure.map_or(Ok(()), Err)
    }

    /// Column names, in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Index of a column.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates rows.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> {
        self.rows.iter().map(|r| r.as_slice())
    }

    /// Row by index.
    pub fn row(&self, i: usize) -> &[Value] {
        &self.rows[i]
    }

    /// The value at (row, column name); `None` for unknown columns.
    pub fn get(&self, row: usize, name: &str) -> Option<&Value> {
        self.col(name).map(|c| &self.rows[row][c])
    }

    /// Appends a row; panics if the arity differs (an internal invariant —
    /// operators always construct rows from the table's own column list).
    pub fn push(&mut self, row: Vec<Value>) {
        self.check_arity(&row);
        self.rows.push(row);
    }

    fn check_arity(&self, row: &[Value]) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity {} does not match columns {:?}",
            row.len(),
            self.columns
        );
    }

    /// Appends the rows of `more`, a table with the same columns.
    pub fn append(&mut self, more: Tab) {
        assert_eq!(
            self.columns, more.columns,
            "appended table has other columns"
        );
        self.rows.extend(more.rows);
    }

    /// Takes ownership of the rows.
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        self.rows
    }

    /// The raw row store (the `crate::keys` kernels index into it).
    pub fn raw_rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Projection with renaming: `(src, dst)` pairs. Unknown sources
    /// project as `Null` columns — the permissive behaviour XML queries
    /// need when a union branch lacks a variable. Cells move into the
    /// result; only a column projected twice is copied.
    pub fn project(self, cols: &[(String, String)]) -> Tab {
        let idx: Vec<Option<usize>> = cols.iter().map(|(s, _)| self.col(s)).collect();
        // the last use of a source column takes its cell, earlier ones copy
        let moves: Vec<bool> = (0..idx.len())
            .map(|k| idx[k].is_some() && !idx[k + 1..].contains(&idx[k]))
            .collect();
        let mut out = Tab::new(cols.iter().map(|(_, d)| d.clone()).collect());
        out.rows.reserve(self.rows.len());
        for mut row in self.rows {
            let projected = idx
                .iter()
                .zip(&moves)
                .map(|(i, &take)| match i {
                    Some(i) if take => std::mem::replace(&mut row[*i], Value::Null),
                    Some(i) => row[*i].clone(),
                    None => Value::Null,
                })
                .collect();
            out.rows.push(projected);
        }
        out
    }

    /// Concatenates two tables column-wise for one row pair (join helper).
    pub(crate) fn joined_columns(left: &Tab, right: &Tab) -> Vec<String> {
        let mut cols = left.columns.clone();
        for c in &right.columns {
            if !cols.contains(c) {
                cols.push(c.clone());
            } else {
                // disambiguate duplicate columns from the right side
                cols.push(format!("{c}'"));
            }
        }
        cols
    }

    /// Removes duplicate rows (set semantics for `Union`/`Intersect`),
    /// preserving first occurrence order. Rows are keyed by structural
    /// hash with a [`Value::key_eq`] confirmation on hash hits, so hash
    /// collisions cannot drop distinct rows.
    pub fn dedup(&mut self) {
        let rows = &self.rows;
        let distinct = crate::keys::Partition::by_key(
            rows.len(),
            |i| crate::keys::row_hash(&rows[i]),
            |a, b| crate::keys::row_key_eq(&rows[a], &rows[b]),
        );
        if distinct.len() == rows.len() {
            return;
        }
        let mut first = vec![false; rows.len()];
        for group in distinct.groups() {
            first[group[0]] = true;
        }
        let mut i = 0;
        self.rows.retain(|_| {
            i += 1;
            first[i - 1]
        });
    }

    /// Total size of the table in tree nodes — the transfer meter uses
    /// this to approximate result sizes before serialization.
    pub fn node_size(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|r| r.iter())
            .map(value_size)
            .sum()
    }
}

fn value_size(v: &Value) -> usize {
    match v {
        Value::Tree(t) => t.size(),
        Value::Coll(c) => c.iter().map(value_size).sum(),
        Value::Null => 0,
        _ => 1,
    }
}

/// Renders like the Tab of Fig. 4: a header of `$`-variables and one line
/// per row.
impl fmt::Display for Tab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self.columns.iter().map(|c| format!("${c}")).collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {:w$} |", c, w = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &headers)?;
        let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &rendered {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yat_model::{Atom, Binder, Edge, MatchOptions, Node, Pattern};

    fn sample() -> Tab {
        let mut t = Tab::new(vec!["t".into(), "a".into()]);
        t.push(vec![
            Value::Atom(Atom::Str("Nympheas".into())),
            Value::Atom(Atom::Str("Monet".into())),
        ]);
        t.push(vec![
            Value::Atom(Atom::Str("Waterloo Bridge".into())),
            Value::Atom(Atom::Str("Monet".into())),
        ]);
        t
    }

    #[test]
    fn construction_and_access() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert_eq!(t.col("a"), Some(1));
        assert_eq!(t.col("zz"), None);
        assert_eq!(
            t.get(0, "t"),
            Some(&Value::Atom(Atom::Str("Nympheas".into())))
        );
        assert!(t.get(0, "zz").is_none());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = sample();
        t.push(vec![Value::Null]);
    }

    #[test]
    fn from_slot_rows_fills_nulls() {
        // d[* (y[$x] ∨ _)]: the first child binds $x, the second matches
        // the wildcard branch and leaves it unbound
        let filter = Pattern::sym(
            "d",
            vec![Edge::star(Pattern::Union(vec![
                Pattern::elem_var("y", "x"),
                Pattern::Wildcard,
            ]))],
        );
        let tree = Node::sym("d", vec![Node::elem("y", 1), Node::sym("z", vec![])]);
        let mut binder = Binder::new(&filter, MatchOptions::default());
        let t = Tab::from_slot_rows(vec!["x".into()], binder.bind(&tree));
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(0)[0], Value::Tree(Node::atom(1)));
        assert!(t.row(1)[0].is_null());
    }

    #[test]
    fn projection_renames_and_nulls_unknowns() {
        let t = sample();
        let p = t.project(&[
            ("a".into(), "artist".into()),
            ("nope".into(), "gone".into()),
        ]);
        assert_eq!(p.columns(), &["artist".to_string(), "gone".to_string()]);
        assert_eq!(
            p.get(0, "artist"),
            Some(&Value::Atom(Atom::Str("Monet".into())))
        );
        assert!(p.get(0, "gone").unwrap().is_null());
    }

    #[test]
    fn dedup_uses_value_keys() {
        let mut t = Tab::new(vec!["x".into()]);
        t.push(vec![Value::Atom(Atom::Int(1))]);
        t.push(vec![Value::Atom(Atom::Float(1.0))]); // query-equal
        t.push(vec![Value::Atom(Atom::Int(2))]);
        t.dedup();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn dedup_is_immune_to_separator_aliasing() {
        // Regression: the old implementation concatenated group_key
        // strings with a bare "\u{1}" separator, so these two distinct
        // rows shared the key "tx\u{1}ty\u{1}tz\u{1}" and one was lost.
        let mut t = Tab::new(vec!["a".into(), "b".into()]);
        t.push(vec![
            Value::Atom(Atom::Str("x\u{1}ty".into())),
            Value::Atom(Atom::Str("z".into())),
        ]);
        t.push(vec![
            Value::Atom(Atom::Str("x".into())),
            Value::Atom(Atom::Str("y\u{1}tz".into())),
        ]);
        t.dedup();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn display_fig4_layout() {
        let s = sample().to_string();
        assert!(s.contains("$t"), "{s}");
        assert!(s.contains("Nympheas"), "{s}");
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn joined_columns_disambiguates() {
        let l = Tab::new(vec!["t".into(), "a".into()]);
        let r = Tab::new(vec!["t".into(), "p".into()]);
        assert_eq!(
            Tab::joined_columns(&l, &r),
            vec![
                "t".to_string(),
                "a".to_string(),
                "t'".to_string(),
                "p".to_string()
            ]
        );
    }

    #[test]
    fn node_size_counts_trees() {
        let mut t = Tab::new(vec!["w".into()]);
        t.push(vec![Value::Tree(Node::sym("w", vec![Node::elem("t", 1)]))]);
        assert_eq!(t.node_size(), 3);
    }
}
