//! Shipping pushed fragments: bindings shipment to members and groups,
//! the merge of partition contributions, the streamed push and the one
//! replica-failover loop.

use super::ExecSpec;
use crate::transport::{Connection, Cut};
use std::cell::{Cell, OnceCell};
use std::sync::Arc;
use yat_algebra::{substitute_env, Alg, EvalError, PassedBindings, Tab};
use yat_capability::protocol::{
    split_batch_result, Bindings, Request, Response, MAX_BATCH_BINDINGS,
};
use yat_federate::{constraints_of, GroupKind};

/// One dependent fragment with the bindings it is passed. Substituted
/// plans are built lazily, per binding, only for what is keyed by them:
/// cache signatures, partition pruning and the column layout of a
/// binding no member answers — a plain cache-off push never substitutes
/// mediator-side at all.
pub(super) struct PassedFragment<'b> {
    plan: &'b Arc<Alg>,
    bindings: &'b PassedBindings,
    substituted: Vec<OnceCell<Arc<Alg>>>,
}

impl<'b> PassedFragment<'b> {
    pub(super) fn new(plan: &'b Arc<Alg>, bindings: &'b PassedBindings) -> Self {
        PassedFragment {
            plan,
            bindings,
            substituted: vec![OnceCell::new(); bindings.rows.len()],
        }
    }

    /// The plan a per-binding `execute` of binding `ordinal` would carry.
    pub(super) fn plan_of(&self, ordinal: usize) -> &Arc<Alg> {
        self.substituted[ordinal]
            .get_or_init(|| substitute_env(self.plan, &self.bindings.env(ordinal)))
    }

    /// Whether binding `ordinal` substitutes anything at all.
    pub(super) fn is_symbolic(&self, ordinal: usize) -> bool {
        self.bindings.rows[ordinal].iter().all(Option::is_none)
    }

    /// The empty answer of a binding that partition pruning sends to no
    /// member, when its plan's column layout is knowable without
    /// evaluation.
    fn empty_answer(&self, ordinal: usize) -> Option<Tab> {
        self.plan_of(ordinal).out_vars().map(Tab::new)
    }
}

/// Answers the bindings `ordinals` of a fragment from the source it
/// names, resolving federation groups, and returns their tables, in
/// order.
///
/// * a plain source or member is shipped to directly;
/// * a replica group fails over across its executing members in cost
///   order ([`fail_over`]), re-shipping the *whole* set to the next one;
/// * a partition group buckets the bindings by the members each one's
///   substituted plan prunes to (a binding that substitutes nothing
///   keeps the plan-time decision: every member), ships every member its
///   bucket, and unites the contributions per binding (the algebra's
///   `Union` semantics).
///
/// `batches` counts the requests put on the wire.
pub(super) fn ship_bindings(
    source: &str,
    fragment: &PassedFragment<'_>,
    ordinals: &[usize],
    spec: &ExecSpec<'_>,
    batches: &mut u64,
) -> Result<Vec<Tab>, EvalError> {
    match spec.registry.group_kind(source) {
        None => ship_to_member(source, fragment, ordinals, spec, batches),
        Some(GroupKind::Replicated) => fail_over(
            &spec.registry.replicas_in_cost_order(source, true),
            |member| ship_to_member(member, fragment, ordinals, spec, batches),
            |_| false,
            || no_replica(source),
        ),
        Some(GroupKind::Partitioned) => {
            let all: Vec<String> = spec
                .registry
                .members_of(source)
                .iter()
                .map(|m| m.name.clone())
                .collect();
            // which members each binding still needs once its values
            // are known
            let wanted: Vec<Vec<String>> = ordinals
                .iter()
                .map(|&o| {
                    if fragment.is_symbolic(o) {
                        all.clone()
                    } else {
                        spec.registry
                            .prune(source, &constraints_of(fragment.plan_of(o)))
                    }
                })
                .collect();
            let mut merged: Vec<Option<Tab>> = vec![None; ordinals.len()];
            let mut parts = vec![0usize; ordinals.len()];
            for member in &all {
                let bucket: Vec<usize> = (0..ordinals.len())
                    .filter(|&pos| wanted[pos].contains(member))
                    .collect();
                if bucket.is_empty() {
                    continue;
                }
                let bucket_ordinals: Vec<usize> = bucket.iter().map(|&pos| ordinals[pos]).collect();
                let tabs = ship_to_member(member, fragment, &bucket_ordinals, spec, batches)?;
                for (pos, tab) in bucket.into_iter().zip(tabs) {
                    parts[pos] += 1;
                    match merged[pos].as_mut() {
                        None => merged[pos] = Some(tab),
                        Some(acc) => merge_union(acc, &tab, source)?,
                    }
                }
            }
            let mut out = Vec::with_capacity(ordinals.len());
            for (pos, tab) in merged.into_iter().enumerate() {
                let tab =
                    match tab {
                        Some(mut tab) => {
                            // set semantics across shards, like the algebra's
                            // Union; a single contribution is already a set
                            if parts[pos] > 1 {
                                tab.dedup();
                            }
                            tab
                        }
                        None => fragment.empty_answer(ordinals[pos]).ok_or_else(|| {
                            EvalError::Source {
                                source: source.to_string(),
                                message: "no partition member answered".into(),
                            }
                        })?,
                    };
                out.push(tab);
            }
            Ok(out)
        }
    }
}

/// Unites two partition contributions: columns must agree, rows
/// concatenate (the caller dedups once at the end).
fn merge_union(acc: &mut Tab, tab: &Tab, group: &str) -> Result<(), EvalError> {
    if acc.columns() != tab.columns() {
        return Err(EvalError::Source {
            source: group.to_string(),
            message: format!(
                "partition members returned incompatible columns {:?} vs {:?}",
                acc.columns(),
                tab.columns()
            ),
        });
    }
    for row in tab.rows() {
        acc.push(row.to_vec());
    }
    Ok(())
}

/// Ships the bindings `ordinals` of a fragment to one concrete wrapper
/// and returns their tables, in order. Bindings of one *shape* — the
/// same cells atom-valued — substitute into the same positions of the
/// plan, so they travel together: the unsubstituted fragment once plus
/// their values, at most [`MAX_BATCH_BINDINGS`] per `execute-batch`. A
/// binding with nothing to substitute ships as the plain `execute` it
/// always was.
fn ship_to_member(
    member: &str,
    fragment: &PassedFragment<'_>,
    ordinals: &[usize],
    spec: &ExecSpec<'_>,
    batches: &mut u64,
) -> Result<Vec<Tab>, EvalError> {
    let conn = member_connection(member, spec)?;
    let failure = |message: String| EvalError::Source {
        source: member.to_string(),
        message,
    };
    let mut call = |request: Request| -> Result<Tab, EvalError> {
        *batches += 1;
        match conn.call_traced(&request, spec.obs) {
            Ok(Response::Result(tab)) => Ok(tab),
            Ok(other) => Err(push_failure(member, other)),
            Err(e) => Err(failure(e.to_string())),
        }
    };

    let rows = &fragment.bindings.rows;
    let mut shapes: Vec<(Vec<bool>, Vec<usize>)> = Vec::new();
    for (pos, &o) in ordinals.iter().enumerate() {
        let shape: Vec<bool> = rows[o].iter().map(Option::is_some).collect();
        match shapes.iter_mut().find(|(s, _)| *s == shape) {
            Some((_, positions)) => positions.push(pos),
            None => shapes.push((shape, vec![pos])),
        }
    }
    let mut out: Vec<Option<Tab>> = vec![None; ordinals.len()];
    for (shape, positions) in shapes {
        let vars: Vec<String> = fragment
            .bindings
            .vars
            .iter()
            .zip(&shape)
            .filter(|(_, bound)| **bound)
            .map(|(v, _)| v.clone())
            .collect();
        if vars.is_empty() {
            for pos in positions {
                out[pos] = Some(call(Request::Execute {
                    plan: fragment.plan.clone(),
                })?);
            }
            continue;
        }
        for chunk in positions.chunks(MAX_BATCH_BINDINGS) {
            let bindings = Bindings {
                vars: vars.clone(),
                rows: chunk
                    .iter()
                    .map(|&pos| rows[ordinals[pos]].iter().flatten().cloned().collect())
                    .collect(),
            };
            let tagged = call(Request::ExecuteBatch {
                plan: fragment.plan.clone(),
                bindings,
            })?;
            let tabs =
                split_batch_result(tagged, chunk.len()).map_err(|e| failure(e.to_string()))?;
            for (&pos, tab) in chunk.iter().zip(tabs) {
                out[pos] = Some(tab);
            }
        }
    }
    Ok(out
        .into_iter()
        .map(|t| t.expect("every binding belongs to one shape"))
        .collect())
}

/// The connection of the concrete wrapper `member` a push is sent to.
fn member_connection<'a>(member: &str, spec: &ExecSpec<'a>) -> Result<&'a Connection, EvalError> {
    spec.connections
        .get(member)
        .ok_or_else(|| EvalError::UnknownSource {
            source: Some(member.to_string()),
            name: "<push>".into(),
        })
}

/// The failure a wrapper's answer other than a table stands for, when
/// `member` was asked to run a pushed plan.
fn push_failure(member: &str, response: Response) -> EvalError {
    let message = match response {
        Response::Refused(reason) => {
            return EvalError::Refused {
                source: member.to_string(),
                reason,
            }
        }
        Response::Error(message) => message,
        other => format!("unexpected response {other:?}"),
    };
    EvalError::Source {
        source: member.to_string(),
        message,
    }
}

/// The failure of a push to a replica group with no member that
/// executes.
fn no_replica(group: &str) -> EvalError {
    EvalError::Source {
        source: group.to_string(),
        message: "no executable replica in group".into(),
    }
}

/// Streams the answer of a fragment that substitutes nothing from
/// `source` — a plain source or member, or a replica group — handing it
/// to `each` piece by piece as it crosses the wire. A replica group
/// fails over across its executing members in cost order, as
/// [`ship_bindings`] does, while nothing has been handed on yet; once a
/// piece has gone downstream, a failure fails the answer.
pub(super) fn stream_push(
    source: &str,
    plan: &Arc<Alg>,
    spec: &ExecSpec<'_>,
    piece_rows: usize,
    each: &mut dyn FnMut(Tab) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    let members = match spec.registry.group_kind(source) {
        Some(GroupKind::Replicated) => spec.registry.replicas_in_cost_order(source, true),
        _ => vec![source.to_string()],
    };
    let handed = Cell::new(false);
    fail_over(
        &members,
        |member| {
            stream_from_member(member, plan, spec, piece_rows, &mut |piece| {
                handed.set(true);
                each(piece)
            })
        },
        |_| handed.get(),
        || no_replica(source),
    )
}

/// One `execute` of `plan` at a concrete wrapper, its result handed to
/// `each` piece by piece ([`Connection::call_pieces`]).
fn stream_from_member(
    member: &str,
    plan: &Arc<Alg>,
    spec: &ExecSpec<'_>,
    piece_rows: usize,
    each: &mut dyn FnMut(Tab) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    let conn = member_connection(member, spec)?;
    let request = Request::Execute { plan: plan.clone() };
    match conn.call_pieces(&request, spec.obs, piece_rows, each) {
        Ok(None) => Ok(()),
        Ok(Some(other)) => Err(push_failure(member, other)),
        Err(Cut::Wire(e)) => Err(EvalError::Source {
            source: member.to_string(),
            message: e.to_string(),
        }),
        Err(Cut::Consumer(e)) => Err(e),
    }
}

/// The one replica-failover loop: tries `attempt` on each of `members`
/// in turn and returns the first success. A failure `is_final` judges
/// final is returned at once; any other moves on to the next member, and
/// when every member failed, the first failure is the answer. With no
/// member at all, `none` is.
pub(super) fn fail_over<T, E>(
    members: &[String],
    mut attempt: impl FnMut(&str) -> Result<T, E>,
    is_final: impl Fn(&E) -> bool,
    none: impl FnOnce() -> E,
) -> Result<T, E> {
    let mut first_err: Option<E> = None;
    for member in members {
        match attempt(member) {
            Ok(answer) => return Ok(answer),
            Err(e) if is_final(&e) => return Err(e),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    Err(first_err.unwrap_or_else(none))
}
