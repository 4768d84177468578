//! Differential harness for the federation layer: seeded kill-k-of-N
//! sweeps over [`FedScenario`] federations. A degraded answer must equal
//! the full answer minus exactly the works held by the killed partition
//! shards (killed replicas are lossless via failover), its provenance
//! must name exactly the killed members that were actually consulted,
//! and all of it must hold identically across
//! {Sequential, Parallel} × streamed/materialized.
//!
//! Deterministic by construction: the master seed is fixed (override
//! with `YAT_DIFF_SEED=<u64>`) and the kill sets are drawn from it.

use yat::yat_algebra::{CollectSink, EvalOut};
use yat::yat_capability::protocol::ServerReply;
use yat::yat_mediator::{
    CachePolicy, ExecMode, Mediator, OptimizerOptions, PartialFailure, StreamPolicy,
};
use yat_bench::figures::fingerprint;
use yat_bench::workload::FedScenario;
use yat_prng::Rng;

const DEFAULT_SEED: u64 = 0xFED_2026;
const SCALE: usize = 18;

fn master_seed() -> u64 {
    std::env::var("YAT_DIFF_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

fn answer_fp(out: &EvalOut) -> Vec<String> {
    match out {
        EvalOut::Tree(t) => fingerprint(t),
        EvalOut::Tab(_) => panic!("paper queries answer trees"),
    }
}

fn answer_bytes(out: EvalOut) -> String {
    ServerReply::answer(out).to_xml().to_xml()
}

fn oracle_fp(m: &Mediator, query: &str) -> Vec<String> {
    answer_fp(
        &m.query(query, OptimizerOptions::default())
            .expect("the oracle mediator answers"),
    )
}

/// Both exec modes; each runs materialized and streamed.
const MODES: [ExecMode; 2] = [
    ExecMode::Sequential,
    ExecMode::Parallel { max_in_flight: 4 },
];

fn degrade_mediator(sc: &FedScenario, mode: ExecMode) -> Mediator {
    let mut m = sc.mediator();
    m.set_exec_mode(mode);
    m.set_cache_policy(CachePolicy::Off);
    m.set_partial_failure(PartialFailure::Degrade);
    m
}

/// Runs one kill set through every combination, checking answer and
/// provenance against the oracle. `expect_missing` is the sorted list of
/// members that must appear in the provenance (killed ∩ consulted).
fn check_kill_set(sc: &FedScenario, query: &str, want: &[String], expect_missing: &[String]) {
    let ctx = || format!("members={} dead={:?} query={query}", sc.members, sc.dead);
    // the materialized degraded answer must be byte-identical across
    // every combination; the streamed reassembly must match it
    let mut wire: Option<String> = None;
    for mode in MODES {
        let m = degrade_mediator(sc, mode);
        let plan = m.plan_query(query).expect("query plans");
        let (opt, _) = m.optimize(&plan, OptimizerOptions::default());
        let (out, prov) = m
            .execute_federated(&opt)
            .unwrap_or_else(|e| panic!("degrade mode must answer ({}): {e}", ctx()));
        assert_eq!(answer_fp(&out), want, "degraded answer oracle ({})", ctx());
        let missing: Vec<String> = prov.missing.keys().cloned().collect();
        assert_eq!(missing, expect_missing, "provenance ({})", ctx());
        let bytes = ServerReply::answer(out).to_xml().to_xml();
        match &wire {
            None => wire = Some(bytes),
            Some(w) => assert_eq!(&bytes, w, "answer bytes diverge under {mode:?} ({})", ctx()),
        }

        let mut st = degrade_mediator(sc, mode);
        st.set_stream_policy(StreamPolicy::chunked());
        let mut sink = CollectSink::new();
        let (_, prov) = st
            .query_stream_federated(query, OptimizerOptions::default(), &mut sink)
            .unwrap_or_else(|e| panic!("streamed degrade must answer ({}): {e}", ctx()));
        let out = sink.into_answer().expect("streamed run delivers an answer");
        let missing: Vec<String> = prov.missing.keys().cloned().collect();
        assert_eq!(missing, expect_missing, "streamed provenance ({})", ctx());
        let bytes = ServerReply::answer(out).to_xml().to_xml();
        assert_eq!(
            Some(bytes),
            wire,
            "streamed answer diverges from materialized ({})",
            ctx()
        );
    }
}

#[test]
fn killing_k_shards_subtracts_exactly_their_works() {
    let mut rng = Rng::seed_from_u64(master_seed());
    for members in [4usize, 9] {
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
            sc.dead = killed.clone();
            // Q1 has no style constraint: every shard is consulted, so
            // the provenance must name exactly the kill set
            let want = oracle_fp(&sc.plain_twin(&killed), yat::yat_yatl::paper::Q1);
            check_kill_set(&sc, yat::yat_yatl::paper::Q1, &want, &killed);
        }
    }
}

#[test]
fn killing_replicas_is_lossless_until_the_last() {
    let mut rng = Rng::seed_from_u64(master_seed() ^ 0xA5A5);
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
        let want = oracle_fp(&sc.plain_twin(&[]), yat::yat_yatl::paper::Q1);
        // no shard died, so failover must keep the answer complete and
        // the provenance empty — even under strict
        check_kill_set(&sc, yat::yat_yatl::paper::Q1, &want, &[]);
        let mut m = sc.mediator();
        m.set_cache_policy(CachePolicy::Off);
        let strict = m
            .query(yat::yat_yatl::paper::Q1, OptimizerOptions::default())
            .expect("strict mode survives replica failover");
        assert_eq!(answer_fp(&strict), want);
    }
}

#[test]
fn pruned_dead_shards_are_never_consulted_so_never_missed() {
    // Q2 is constrained to Impressionist: plan-time pruning must leave
    // every other shard uncontacted and answer byte-identically to the
    // unpruned plan
    let q2 = yat::yat_yatl::paper::Q2;
    let unpruned = OptimizerOptions {
        prune_partitions: false,
        ..OptimizerOptions::default()
    };
    for members in [2usize, 8] {
        let sc = FedScenario::new(members, SCALE);
        let owners = sc.shards_owning("Impressionist");
        for mode in MODES {
            let mut m = sc.mediator();
            m.set_exec_mode(mode);
            m.set_cache_policy(CachePolicy::Off);
            let plan = m.plan_query(q2).expect("Q2 plans");
            let want = answer_bytes(m.execute(&m.optimize(&plan, unpruned).0).unwrap());
            m.reset_traffic();
            let (pruned, _) = m.optimize(&plan, OptimizerOptions::default());
            let got = answer_bytes(m.execute(&pruned).expect("pruned Q2 executes"));
            let ctx = format!("members={members} {mode:?}");
            assert_eq!(got, want, "pruned and unpruned Q2 diverge ({ctx})");
            for shard in sc.shard_names() {
                let trips = m.traffic_of(&shard).unwrap().round_trips;
                assert!(
                    trips == 0 || owners.contains(&shard),
                    "pruned Q2 contacted excluded shard {shard} {trips} times ({ctx})"
                );
            }
        }
    }

    // a dead shard that owns no Impressionist works is pruned at plan
    // time, so the answer is complete and the provenance stays empty
    let mut sc = FedScenario::new(8, SCALE);
    let victim = sc
        .shard_names()
        .into_iter()
        .enumerate()
        .find(|(i, _)| !sc.shard_styles(*i).contains("Impressionist"))
        .map(|(_, n)| n)
        .expect("some shard owns no Impressionist works");
    sc.dead = vec![victim];
    let want = oracle_fp(&sc.plain_twin(&[]), q2);
    check_kill_set(&sc, q2, &want, &[]);
}

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
            .query(yat::yat_yatl::paper::Q1, OptimizerOptions::default())
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
use std::sync::Arc;
use yat::yat_algebra::{Alg, Operand, Pred, Template};
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
    use yat::yat_oql::art::{art_store, ArtSpec};
    use yat::yat_oql::O2Wrapper;
    use yat::yat_wais::{generate_works, WaisSource, WaisWrapper, WorksSpec};
    // more driving titles than one `execute-batch` carries: two chunks
    let scale = MAX_BATCH_BINDINGS + 200;
    let art = ArtSpec {
        artifacts: scale,
        persons: 4,
        seed: 7,
    };
    let works = generate_works(&WorksSpec {
        works: scale,
        impressionist_pct: 30,
        optional_pct: 0,
        giverny_pct: 0,
        seed: 7,
    });
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

    let mut plain = Mediator::new();
    plain
        .connect(Box::new(O2Wrapper::new("o2artifact", art_store(&art))))
        .unwrap();
    plain
        .connect(Box::new(WaisWrapper::new(
            "xmlartwork",
            WaisSource::new("works", &works),
        )))
        .unwrap();
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

        let before = |m: &Mediator, member: &str| m.traffic_of(member).unwrap().round_trips;
        let (art0, art1) = (before(&m, "art-0"), before(&m, "art-1"));
        // strict mode: the failover alone must save the query
        let (out, prov) = m
            .execute_federated(&plan("xmlartwork", "art"))
            .unwrap_or_else(|e| panic!("failover must answer under {mode:?}: {e}"));
        assert_eq!(answer_bytes(out), want, "{mode:?}");
        assert!(prov.missing.is_empty(), "a lossless failover misses nobody");
        // art-0 took the first chunk and refused the second; art-1 was
        // then shipped *both* chunks, not just the one that failed
        assert_eq!(before(&m, "art-0") - art0, 2);
        assert_eq!(before(&m, "art-1") - art1, 2);
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
    let mut oracle = sc.plain_twin(&[]);
    oracle.set_cache_policy(CachePolicy::Off);
    let want = answer_bytes(oracle.execute(&plan("o2artifact", "xmlartwork")).unwrap());
    assert!(
        want.contains("Cubist") && want.contains("Realist"),
        "{want}"
    );

    for mode in MODES {
        let mut m = sc.mediator();
        m.set_exec_mode(mode);
        m.set_cache_policy(CachePolicy::Off);
        let trips = |m: &Mediator, shard: &String| m.traffic_of(shard).unwrap().round_trips;
        let before: Vec<u64> = sc.shard_names().iter().map(|s| trips(&m, s)).collect();
        let since = |m: &Mediator, shard: &String| {
            let i = sc.shard_names().iter().position(|s| s == shard).unwrap();
            trips(m, shard) - before[i]
        };
        // strict: a consulted dead shard would fail the query
        let (out, prov) = m
            .execute_federated(&plan("art", "wais"))
            .unwrap_or_else(|e| panic!("pruned shards are never asked ({mode:?}): {e}"));
        assert_eq!(answer_bytes(out), want, "{mode:?}");
        assert!(prov.missing.is_empty());
        for shard in &excluded {
            assert_eq!(
                since(&m, shard),
                0,
                "{shard} owns neither style and must not be contacted"
            );
        }
        for shard in &owners {
            assert_eq!(
                since(&m, shard),
                1,
                "{shard} gets one batch: its own style's binding"
            );
        }
    }
}
