//! Differential harness for the federation layer: seeded kill-k-of-N
//! sweeps over [`FedScenario`] federations. A query that consults a
//! killed partition shard must fail with an error naming a killed
//! shard; one that consults none (killed replicas are lossless via
//! failover, pruned shards are never asked) must answer byte for byte
//! what the plain two-source twin answers. All of it — traffic to every
//! member included — must hold identically under both exec modes,
//! materialized and streamed.
//! Configs, observations and the comparator are the shared differential
//! harness's (`harness/mod.rs`).
//!
//! Deterministic by construction: the master seed is fixed (override
//! with `YAT_DIFF_SEED=<u64>`) and the kill sets are drawn from it.

// the sweep machinery is differential.rs's; this file observes and compares
#[allow(dead_code)]
mod harness;

use harness::{compare, master_seed, observe, row, Case, Config, Outcome, StoreDir};
use std::path::Path;
use std::sync::Arc;
use yat::yat_algebra::{Alg, EvalOut};
use yat::yat_capability::protocol::ServerReply;
use yat::yat_mediator::{CachePolicy, ExecMode, Mediator, MediatorError, OptimizerOptions};
use yat::yat_yatl::paper;
use yat_bench::workload::{FedScenario, Scenario};
use yat_prng::Rng;

const DEFAULT_SEED: u64 = 0xFED_2026;
const SCALE: usize = 18;

fn answer_bytes(out: EvalOut) -> String {
    ServerReply::answer(out).to_xml().to_xml()
}

/// A query or a hand-built plan on a federation, some of whose members
/// may be dead.
#[derive(Clone, Debug)]
struct Fed {
    sc: FedScenario,
    run: Run,
}

#[derive(Clone, Debug)]
enum Run {
    Query(&'static str, OptimizerOptions),
    Plan(Arc<Alg>),
}

impl Case for Fed {
    fn lanes(&self) -> usize {
        4
    }

    fn federation(&self, config: Config, _: Option<&Path>) -> Mediator {
        let mut sc = self.sc.clone();
        sc.index = config.index_policy();
        sc.mediator()
    }

    fn plan(&self, m: &Mediator) -> Result<Arc<Alg>, MediatorError> {
        match &self.run {
            Run::Query(query, options) => Ok(m.optimize(&m.plan_query(query)?, *options).0),
            Run::Plan(plan) => Ok(plan.clone()),
        }
    }

    fn sources(&self) -> Vec<String> {
        self.sc.member_names()
    }
}

/// Both exec modes, each materialized and streamed, indexes on and the
/// cache off.
const EXEC_BY_DELIVERY: [Config; 4] = [
    // parallel cache  streamed index store
    row(false, false, false, true, false),
    row(false, false, true, true, false),
    row(true, false, false, true, false),
    row(true, false, true, true, false),
];

/// Every title through the view: every shard is consulted, and the
/// answer is long enough that a streamed run cuts it into several chunks.
const TITLES: &str = "MAKE out *($t) := r [ $t ] MATCH artworks WITH doc.work.[ title.$t ]";

/// Runs `query` on `sc` under every exec mode × delivery. When
/// `consults_dead`, every run must fail with an error naming one of
/// `sc.dead`, and no chunks are returned. Otherwise the first
/// observation must answer exactly what the plain twin answers and the
/// others must agree with it, traffic to every member included; returns
/// how many chunks each streamed run was cut into.
fn check_kill_set(sc: &FedScenario, query: &'static str, consults_dead: bool) -> Vec<u64> {
    let ctx = format!("members={} dead={:?} query={query}", sc.members, sc.dead);
    let case = Fed {
        sc: sc.clone(),
        run: Run::Query(query, OptimizerOptions::default()),
    };
    let store = StoreDir::new();
    if consults_dead {
        for config in EXEC_BY_DELIVERY {
            match observe(&case, config, &store).remove(0).outcome {
                Outcome::Error(e) if sc.dead.iter().any(|d| e.contains(&format!("`{d}`"))) => {}
                other => panic!("{config:?} must fail naming a dead shard ({ctx}): {other:?}"),
            }
        }
        return Vec::new();
    }
    let twin = sc.plain_twin().query(query, OptimizerOptions::default());
    let want = Outcome::Answer(answer_bytes(twin.expect("the plain twin answers")));
    let reference = observe(&case, EXEC_BY_DELIVERY[0], &store).remove(0);
    assert_eq!(reference.outcome, want, "answer ({ctx})");
    let mut chunks = Vec::new();
    for config in &EXEC_BY_DELIVERY[1..] {
        let runs = observe(&case, *config, &store);
        if let Err(e) = compare(&reference, &runs) {
            panic!("{config:?} diverges ({ctx}): {e}");
        }
        if config.streamed {
            chunks.push(runs[0].chunks);
        }
    }
    chunks
}

#[test]
fn killing_k_shards_fails_exactly_the_queries_that_consult_them() {
    let mut rng = Rng::seed_from_u64(master_seed(DEFAULT_SEED));
    let mut chunks = Vec::new();
    for members in [4usize, 9] {
        // with nobody killed every title answers, long enough for a
        // streamed run to be cut into several chunks
        chunks.extend(check_kill_set(
            &FedScenario::new(members, SCALE),
            TITLES,
            false,
        ));
        for _case in 0..3 {
            let mut sc = FedScenario::new(members, SCALE);
            let shards = sc.shard_names();
            let k = (1 + rng.gen_range(0..2) as usize).min(shards.len());
            let mut killed: Vec<String> = Vec::new();
            while killed.len() < k {
                let pick = shards[rng.gen_range(0..shards.len() as u64) as usize].clone();
                if !killed.contains(&pick) {
                    killed.push(pick);
                }
            }
            killed.sort();
            let owns_impressionist = sc.shards_owning("Impressionist");
            sc.dead = killed;
            // neither query has a style constraint: every shard is
            // consulted, so both fail
            check_kill_set(&sc, paper::Q1, true);
            check_kill_set(&sc, TITLES, true);
            // Q2 is pruned to the Impressionist owners: it fails only
            // when one of them is killed
            let consulted = sc.dead.iter().any(|k| owns_impressionist.contains(k));
            chunks.extend(check_kill_set(&sc, paper::Q2, consulted));
        }
    }
    let cut = chunks.iter().filter(|&&c| c >= 2).count();
    assert!(
        cut * 4 >= chunks.len(),
        "only {cut}/{} streamed executions were cut into 2+ chunks",
        chunks.len()
    );
}

#[test]
fn killing_replicas_is_lossless_until_the_last() {
    let mut rng = Rng::seed_from_u64(master_seed(DEFAULT_SEED) ^ 0xA5A5);
    for members in [4usize, 8] {
        let mut sc = FedScenario::new(members, SCALE);
        let replicas = sc.replica_names();
        // kill all but one replica, chosen at random
        let keep = rng.gen_range(0..replicas.len() as u64) as usize;
        sc.dead = replicas
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != keep)
            .map(|(_, n)| n.clone())
            .collect();
        // no shard died, so failover must keep the answer complete
        check_kill_set(&sc, paper::Q1, false);
    }
}

#[test]
fn pruned_dead_shards_are_never_consulted_so_never_missed() {
    // Q2 is constrained to Impressionist: plan-time pruning must leave
    // every other shard uncontacted and answer byte-identically to the
    // unpruned plan
    let unpruned = OptimizerOptions {
        prune_partitions: false,
        ..OptimizerOptions::default()
    };
    for members in [2usize, 8] {
        let sc = FedScenario::new(members, SCALE);
        let owners = sc.shards_owning("Impressionist");
        let case = |options| Fed {
            sc: sc.clone(),
            run: Run::Query(paper::Q2, options),
        };
        let store = StoreDir::new();
        for config in EXEC_BY_DELIVERY {
            let want = observe(&case(unpruned), config, &store).remove(0);
            let got = observe(&case(OptimizerOptions::default()), config, &store).remove(0);
            let ctx = format!("members={members} {config:?}");
            assert_eq!(
                got.outcome, want.outcome,
                "pruned and unpruned Q2 diverge ({ctx})"
            );
            for (member, traffic) in sc.member_names().iter().zip(&got.traffic) {
                assert!(
                    traffic.round_trips == 0
                        || !sc.shard_names().contains(member)
                        || owners.contains(member),
                    "pruned Q2 contacted excluded shard {member} {} times ({ctx})",
                    traffic.round_trips
                );
            }
        }
    }

    // a dead shard that owns no Impressionist works is pruned at plan
    // time, so the answer is complete
    let mut sc = FedScenario::new(8, SCALE);
    let victim = sc
        .shard_names()
        .into_iter()
        .enumerate()
        .find(|(i, _)| !sc.shard_styles(*i).contains("Impressionist"))
        .map(|(_, n)| n)
        .expect("some shard owns no Impressionist works");
    sc.dead = vec![victim];
    check_kill_set(&sc, paper::Q2, false);
}

/// Both exec modes, for the hand-built mediators below.
const MODES: [ExecMode; 2] = [
    ExecMode::Sequential,
    ExecMode::Parallel { max_in_flight: 4 },
];

#[test]
fn strict_mode_fails_fast_when_a_killed_shard_is_consulted() {
    let mut sc = FedScenario::new(6, SCALE);
    let killed = sc.shard_names().remove(0);
    sc.dead = vec![killed.clone()];
    for mode in MODES {
        let mut m = sc.mediator();
        m.set_exec_mode(mode);
        m.set_cache_policy(CachePolicy::Off);
        let err = m
            .query(paper::Q1, OptimizerOptions::default())
            .expect_err("strict mode must fail when a consulted shard is dead");
        assert!(
            err.to_string().contains(&killed),
            "error must name the dead member under {mode:?}: {err}"
        );
    }
}

// ------------------------------------------------ batched dependent pushes
//
// A `DJoin` into a `Push` ships its bindings as `execute-batch` requests.
// The two tests below land such a batch on each kind of federation group
// and hold the answer to the plain two-source mediator running the same
// plan.

use std::sync::atomic::{AtomicUsize, Ordering};
use yat::yat_algebra::{Operand, Pred, Template};
use yat::yat_capability::protocol::{Request, Response, WrapperServer, MAX_BATCH_BINDINGS};
use yat::yat_mediator::MemberRole;
use yat::yat_yatl::parse_filter;

/// A replica that answers its first `healthy` `execute-batch` requests
/// and fails every one after — a member lost in the middle of a batch.
struct DiesMidBatch<W: WrapperServer> {
    inner: W,
    healthy: usize,
    batches: AtomicUsize,
}

impl<W: WrapperServer> WrapperServer for DiesMidBatch<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn handle(&self, request: &Request) -> Response {
        if matches!(request, Request::ExecuteBatch { .. })
            && self.batches.fetch_add(1, Ordering::SeqCst) >= self.healthy
        {
            return Response::Error(format!("source `{}` went down", self.name()));
        }
        self.inner.handle(request)
    }
}

#[test]
fn a_replica_lost_mid_batch_fails_the_whole_batch_over() {
    use yat::yat_oql::{art::art_store, O2Wrapper};
    use yat::yat_wais::{generate_works, WaisSource, WaisWrapper};
    // more driving titles than one `execute-batch` carries: two chunks
    let scale = MAX_BATCH_BINDINGS + 200;
    let sc = Scenario {
        seed: 7,
        ..Scenario::at_scale(scale)
    };
    let (art, works) = sc.specs();
    let works = generate_works(&works);
    // every work drives; O2 answers the price of the artifact it titles
    let plan = |works_at: &str, artifacts_at: &str| {
        Alg::tree(
            Alg::djoin(
                Alg::bind(
                    Alg::source_at(works_at, "works"),
                    parse_filter("works *work [ title: $t2 ]").unwrap(),
                ),
                Alg::push(
                    artifacts_at,
                    Alg::select(
                        Alg::bind(
                            Alg::source("artifacts"),
                            parse_filter("set *class: artifact: tuple [ title: $t, price: $p ]")
                                .unwrap(),
                        ),
                        Pred::var_eq("t", "t2"),
                    ),
                ),
            ),
            Template::sym(
                "out",
                vec![Template::group(
                    &["t2", "p"],
                    Template::sym(
                        "r",
                        vec![Template::elem_var("t", "t2"), Template::elem_var("p", "p")],
                    ),
                )],
            ),
        )
    };

    let mut plain = sc.mediator();
    plain.set_cache_policy(CachePolicy::Off);
    let want = answer_bytes(plain.execute(&plan("xmlartwork", "o2artifact")).unwrap());
    assert!(want.matches("<r>").count() >= scale, "every title joins");

    for mode in MODES {
        let mut m = Mediator::new();
        m.connect_member(
            Box::new(DiesMidBatch {
                inner: O2Wrapper::new("art-0", art_store(&art)),
                healthy: 1,
                batches: AtomicUsize::new(0),
            }),
            "art",
            MemberRole::Replica,
        )
        .unwrap();
        m.connect_member(
            Box::new(O2Wrapper::new("art-1", art_store(&art))),
            "art",
            MemberRole::Replica,
        )
        .unwrap();
        m.connect(Box::new(WaisWrapper::new(
            "xmlartwork",
            WaisSource::new("works", &works),
        )))
        .unwrap();
        m.set_exec_mode(mode);
        m.set_cache_policy(CachePolicy::Off);

        m.reset_traffic();
        // the failover alone must save the query
        let out = m
            .execute(&plan("xmlartwork", "art"))
            .unwrap_or_else(|e| panic!("failover must answer under {mode:?}: {e}"));
        assert_eq!(answer_bytes(out), want, "{mode:?}");
        // art-0 took the first chunk and refused the second; art-1 was
        // then shipped *both* chunks, not just the one that failed
        for member in ["art-0", "art-1"] {
            assert_eq!(m.traffic_of(member).unwrap().round_trips, 2, "{member}");
        }
    }
}

#[test]
fn a_batch_on_a_partition_group_contacts_only_the_shards_its_bindings_need() {
    // 4 replicas + 4 shards: works-2 owns Realist, works-3 owns Cubist
    // (at a scale where every style has works)
    let mut sc = FedScenario::new(8, 60);
    let needed = ["Cubist", "Realist"];
    let owners: Vec<String> = needed
        .iter()
        .flat_map(|style| sc.shards_owning(style))
        .collect();
    let excluded: Vec<String> = sc
        .shard_names()
        .into_iter()
        .filter(|s| !owners.contains(s))
        .collect();
    assert_eq!((owners.len(), excluded.len()), (2, 2));
    // an excluded shard is even dead: it must never be asked
    sc.dead = vec![excluded[0].clone()];

    // every person drives once per style; the dependent fragment full-
    // text-searches the works for the style it is passed
    let plan = |persons_at: &str, works_at: &str| {
        let persons = Alg::bind(
            Alg::source_at(persons_at, "persons"),
            parse_filter("set *class: person: tuple [ name: $n ]").unwrap(),
        );
        let styled = |style: &str| {
            Arc::new(Alg::Map {
                input: persons.clone(),
                col: "x".into(),
                expr: Operand::cst(style),
            })
        };
        Alg::tree(
            Alg::djoin(
                Arc::new(Alg::Union {
                    left: styled(needed[0]),
                    right: styled(needed[1]),
                }),
                Alg::push(
                    works_at,
                    Alg::select(
                        Alg::bind(Alg::source("works"), parse_filter("works *$w").unwrap()),
                        Pred::Call {
                            name: "contains".into(),
                            args: vec![Operand::var("w"), Operand::var("x")],
                        },
                    ),
                ),
            ),
            Template::sym(
                "out",
                vec![Template::group(
                    &["x", "w"],
                    Template::sym(
                        "r",
                        vec![Template::elem_var("x", "x"), Template::Var("w".into())],
                    ),
                )],
            ),
        )
    };
    let mut oracle = sc.plain_twin();
    oracle.set_cache_policy(CachePolicy::Off);
    let want = answer_bytes(oracle.execute(&plan("o2artifact", "xmlartwork")).unwrap());
    assert!(
        want.contains("Cubist") && want.contains("Realist"),
        "{want}"
    );

    let case = Fed {
        sc: sc.clone(),
        run: Run::Plan(plan("art", "wais")),
    };
    let store = StoreDir::new();
    for config in EXEC_BY_DELIVERY {
        let got = observe(&case, config, &store).remove(0);
        // a consulted dead shard would have failed the query
        assert_eq!(got.outcome, Outcome::Answer(want.clone()), "{config:?}");
        for (member, traffic) in sc.member_names().iter().zip(&got.traffic) {
            // owners get one batch, their own style's binding; shards
            // owning neither style are never contacted
            let batches = match (owners.contains(member), excluded.contains(member)) {
                (true, _) => 1,
                (_, true) => 0,
                _ => continue,
            };
            assert_eq!(traffic.round_trips, batches, "{member} under {config:?}");
        }
    }
}
