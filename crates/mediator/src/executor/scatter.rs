//! Independent push jobs: the parallel mode's scatter over worker lanes
//! and the gather of their answers.

use super::ship::{ship_bindings, PassedFragment};
use super::{ExecError, ExecSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{mpsc, Arc};
use yat_algebra::{Alg, PassedBindings, Tab};
use yat_cache::{CachedAnswer, Signature};
use yat_obs::{attr, kind};

/// One independent `Push` fragment (empty information-passing env),
/// runnable on any worker lane.
struct Job {
    /// The source the fragment is delegated to.
    source: String,
    /// The `Alg::Push` node's inner plan.
    plan: Arc<Alg>,
    /// The fragment's canonical signature — the memo key its result is
    /// gathered under, and the answer-cache key it is stored at.
    sig: Signature,
}

/// Collects the plan's *independent* push fragments: `Push` nodes not
/// nested under the dependent (right) side of a `DJoin`. Those are
/// evaluated with an empty environment exactly once, so shipping them
/// early from a worker lane is indistinguishable from the sequential
/// order. Dependent pushes get per-row bindings and stay inline.
fn independent_pushes<'p>(plan: &'p Alg, out: &mut Vec<(String, &'p Arc<Alg>)>) {
    match plan {
        Alg::Push { source, plan } => out.push((source.clone(), plan)),
        Alg::DJoin { left, .. } => independent_pushes(left, out),
        _ => {
            for child in plan.children() {
                independent_pushes(child, out);
            }
        }
    }
}

/// The parallel front half of execution: build the job list of the
/// plan's independent pushes, scatter it over at most `max_in_flight`
/// worker lanes and gather their results, keyed by signature.
///
/// Lane assignment is static round-robin over the *schedule* (lane `l`
/// runs schedule positions `l`, `l + lanes`, `l + 2·lanes`, …), so which
/// lane executes which job — and therefore the recorded span tree — is
/// deterministic. The schedule orders jobs longest-expected-first from
/// the registry's cost records; with no history every job costs the
/// same and the schedule is plan order. Errors are reported in plan-job
/// order whatever the schedule: whichever job earliest in the plan
/// failed wins, matching what the sequential path would have surfaced
/// first.
pub(super) fn scatter_gather(
    plan: &Alg,
    spec: &ExecSpec<'_>,
    max_in_flight: usize,
) -> Result<BTreeMap<Signature, Tab>, ExecError> {
    // answer-cache hits are resolved at scheduling time and never enter
    // the lane schedule at all
    let mut pushed: BTreeMap<Signature, Tab> = BTreeMap::new();
    let mut jobs: Vec<Job> = Vec::new();
    let mut pushes = Vec::new();
    independent_pushes(plan, &mut pushes);
    let mut seen_nodes = BTreeSet::new();
    for (source, inner) in pushes {
        // the same shared fragment node is shipped (and cached) once
        if !seen_nodes.insert(Arc::as_ptr(inner) as usize) {
            continue;
        }
        let sig = Signature::execute(&source, inner);
        match spec.cached_result(sig, &source, spec.epoch_of(&source)) {
            Some(tab) => {
                pushed.insert(sig, tab);
            }
            None => jobs.push(Job {
                source,
                plan: inner.clone(),
                sig,
            }),
        }
    }

    if jobs.is_empty() {
        return Ok(pushed);
    }

    // cost-ordered scheduling: start the longest-expected jobs first so
    // the critical path shrinks (classic LPT). Ties — and the whole
    // schedule when no cost history exists — stay in plan order.
    let costs: Vec<f64> = jobs
        .iter()
        .map(|job| spec.registry.cost(&job.source).expected_cost())
        .collect();
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        costs[b]
            .partial_cmp(&costs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut scatter = spec.obs.map(|o| o.span(kind::PHASE, "scatter".to_string()));
    let scatter_id = scatter.as_ref().map(|s| s.id());
    let lanes = max_in_flight.max(1).min(jobs.len());

    // Bounded gather: lanes hand finished results to the calling thread
    // through a channel whose capacity equals the lane count, so at most
    // `lanes` completed-but-unconsumed results ever sit in memory — a
    // lane that races ahead of the gatherer blocks in `send` instead of
    // buffering unbounded output. The gather folds each result into the
    // push memo as it arrives (it is key-addressed, so arrival order
    // does not matter), tracking channel occupancy so the bound is
    // *observable*, not just structural.
    let (tx, rx) = mpsc::sync_channel::<(usize, Result<Tab, ExecError>)>(lanes);
    let pending = AtomicI64::new(0);
    let peak = AtomicI64::new(0);
    // errors are reported in job order — whichever job *earliest in the
    // plan* failed wins, matching the sequential path — so the gather
    // drains everything rather than bailing on the first arrival
    let mut first_err: Option<(usize, ExecError)> = None;
    std::thread::scope(|scope| {
        for lane in 0..lanes {
            let (jobs, order) = (&jobs, &order);
            let tx = tx.clone();
            let (pending, peak) = (&pending, &peak);
            let spec = *spec;
            scope.spawn(move || {
                let mut pos = lane;
                while pos < order.len() {
                    let idx = order[pos];
                    let out = run_job(&jobs[idx], lane, &spec, scatter_id);
                    if tx.send((idx, out)).is_err() {
                        return;
                    }
                    // counted after the buffered send and decremented
                    // after receipt, so the gauge never exceeds the
                    // channel capacity; a gather that drains the item
                    // before this add lands can make the sum read 0,
                    // but the send itself proves occupancy reached 1
                    let now = (pending.fetch_add(1, Ordering::SeqCst) + 1).max(1);
                    peak.fetch_max(now, Ordering::SeqCst);
                    pos += lanes;
                }
            });
        }
        drop(tx);
        while let Ok((idx, out)) = rx.recv() {
            pending.fetch_sub(1, Ordering::SeqCst);
            match out {
                Ok(tab) => {
                    pushed.insert(jobs[idx].sig, tab);
                }
                Err(e) => {
                    if first_err.as_ref().is_none_or(|(first, _)| idx < *first) {
                        first_err = Some((idx, e));
                    }
                }
            }
        }
    });
    if let Some(s) = scatter.as_mut() {
        s.record_u64(
            attr::PEAK_PENDING,
            peak.load(Ordering::SeqCst).max(0) as u64,
        );
    }
    drop(scatter);

    if let Some((_, e)) = first_err {
        return Err(e);
    }
    Ok(pushed)
}

/// Runs one scatter job on worker lane `lane`, under its own `phase`
/// span (a child of the scatter span, tagged with the lane index), and
/// caches its answer.
fn run_job(
    job: &Job,
    lane: usize,
    spec: &ExecSpec<'_>,
    scatter_id: Option<usize>,
) -> Result<Tab, ExecError> {
    let mut span = spec.obs.map(|o| {
        let mut s = o.span_under(scatter_id, kind::PHASE, format!("push @{}", job.source));
        s.record_u64(attr::LANE, lane as u64);
        s
    });
    let epoch = spec.epoch_of(&job.source);
    // an independent fragment is the one-binding case of the batched
    // path: nothing to substitute, shipped as it is
    let unit = PassedBindings::unit();
    let fragment = PassedFragment::new(&job.plan, &unit);
    let out = ship_bindings(&job.source, &fragment, &[0], spec, &mut 0)
        .map(|mut shipped| {
            let tab = shipped.pop().expect("one binding, one answer");
            spec.cache.insert(
                job.sig,
                &job.source,
                epoch,
                CachedAnswer::Result(tab.clone()),
                spec.obs,
            );
            tab
        })
        .map_err(ExecError::from);
    if let (Some(span), Err(e)) = (span.as_mut(), &out) {
        span.record_str(attr::ERROR, e.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use yat_algebra::Pred;
    use yat_yatl::parse_filter;

    #[test]
    fn dependency_analysis_skips_djoin_right() {
        let filter = parse_filter("works *$w").unwrap();
        let wais = Alg::push("wais", Alg::bind(Alg::source("works"), filter.clone()));
        let o2 = Alg::push("o2", Alg::bind(Alg::source("artifacts"), filter.clone()));
        let dependent = Alg::push("o2", Alg::bind(Alg::source("persons"), filter));

        // Join(wais, o2): both sides independent
        let plan = Alg::join(wais.clone(), o2.clone(), Pred::True);
        let mut found = Vec::new();
        independent_pushes(&plan, &mut found);
        assert_eq!(
            found.iter().map(|(s, _)| s.as_str()).collect::<Vec<_>>(),
            ["wais", "o2"]
        );

        // DJoin(left: wais, right: dependent): the right side needs
        // per-row bindings and must not be scattered
        let plan = Alg::djoin(wais, dependent);
        let mut found = Vec::new();
        independent_pushes(&plan, &mut found);
        assert_eq!(
            found.iter().map(|(s, _)| s.as_str()).collect::<Vec<_>>(),
            ["wais"]
        );
    }
}
