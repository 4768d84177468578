//! Seeded scenario builders for the cultural-goods federation.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use yat_capability::protocol::WrapperServer;
use yat_capability::IndexPolicy;
use yat_mediator::{Dead, FetchOnly, Mediator, MemberRole};
use yat_model::{Label, Node, Tree};
use yat_oql::art::{art_store, art_store_at, fig1_store, ArtSpec};
use yat_oql::O2Wrapper;
use yat_store::{StoreError, StoreOptions};
use yat_wais::{fig1_works, generate_works, WaisSource, WaisWrapper, WorksSpec};
use yat_yatl::paper;

/// One end-to-end scenario configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Artifacts in the O2 database (persons scale at 1/5).
    pub artifacts: usize,
    /// Works in the Wais collection.
    pub works: usize,
    /// Percentage of Impressionist works (Q2 full-text selectivity).
    pub impressionist_pct: u8,
    /// Percentage of works with optional fields.
    pub optional_pct: u8,
    /// Percentage of `cplace`s that are Giverny (Q1 selectivity).
    pub giverny_pct: u8,
    /// RNG seed.
    pub seed: u64,
    /// Index policy pinned on both sources (`On` by default). The
    /// differential's index axis sets it per instance so indexed and
    /// scan federations coexist in one process.
    pub index: IndexPolicy,
}

impl Scenario {
    /// A scenario with both sources at `scale` documents and the default
    /// selectivities.
    pub fn at_scale(scale: usize) -> Self {
        Scenario {
            artifacts: scale,
            works: scale,
            impressionist_pct: 30,
            optional_pct: 60,
            giverny_pct: 30,
            seed: 42,
            index: IndexPolicy::default(),
        }
    }

    /// The specs for the two generators.
    pub fn specs(&self) -> (ArtSpec, WorksSpec) {
        (
            ArtSpec {
                artifacts: self.artifacts,
                persons: (self.artifacts / 5).max(2),
                seed: self.seed,
            },
            WorksSpec {
                works: self.works,
                impressionist_pct: self.impressionist_pct,
                optional_pct: self.optional_pct,
                giverny_pct: self.giverny_pct,
                seed: self.seed,
            },
        )
    }

    /// Builds the full federation in memory: O2 wrapper + Wais wrapper +
    /// view1 — the oracle every store-backed build is held to.
    pub fn mediator(&self) -> Mediator {
        let (art, works) = self.specs();
        let mut m = Mediator::new();
        m.connect(Box::new(O2Wrapper::new(
            "o2artifact",
            art_store(&art).with_index_policy(self.index),
        )))
        .expect("fresh mediator accepts the O2 wrapper");
        m.connect(Box::new(WaisWrapper::new(
            "xmlartwork",
            WaisSource::new("works", &generate_works(&works)).with_index_policy(self.index),
        )))
        .expect("fresh mediator accepts the Wais wrapper");
        m.load_program(paper::VIEW1).expect("view1 is well-formed");
        m
    }

    /// The same federation with both sources mounted from persistent
    /// stores under `root` (one subdirectory per source), creating and
    /// populating them when fresh — a second call over the same root
    /// remounts instead of regenerating.
    pub fn mediator_store(&self, root: &Path, opts: StoreOptions) -> Result<Mediator, StoreError> {
        let (art, works) = self.specs();
        let mut m = Mediator::new();
        m.connect(Box::new(O2Wrapper::new(
            "o2artifact",
            art_store_at(&art, &root.join("o2artifact"), opts)?.with_index_policy(self.index),
        )))
        .expect("fresh mediator accepts the O2 wrapper");
        m.connect(Box::new(WaisWrapper::new(
            "xmlartwork",
            WaisSource::open_store(
                "works",
                &generate_works(&works),
                &root.join("xmlartwork"),
                opts,
            )?
            .with_index_policy(self.index),
        )))
        .expect("fresh mediator accepts the Wais wrapper");
        m.load_program(paper::VIEW1).expect("view1 is well-formed");
        Ok(m)
    }
}

/// The style vocabulary `generate_works` draws from — the partition
/// field values of a federated works collection.
pub const FED_STYLES: [&str; 5] = [
    "Impressionist",
    "Post-Impressionist",
    "Realist",
    "Cubist",
    "Romantic",
];

/// An N-member federation over the cultural-goods data: the O2 database
/// replicated across an `art` group, the Wais collection partitioned by
/// `style` across a `wais` group.
///
/// Shard value sets must be disjoint (the registry enforces it), so
/// shard `i` owns the styles `j ≡ i (mod S)` and S caps at the 5-style
/// vocabulary — past that, extra members replicate the O2 database. A
/// query constrained to one style needs only that style's owner — the
/// plan-time pruning `tests/federated.rs` checks.
#[derive(Debug, Clone, PartialEq)]
pub struct FedScenario {
    /// Total member count: `members / 2` (min 1) replicas, the rest
    /// shards.
    pub members: usize,
    /// Artifacts in the replicated O2 database (persons scale at 1/5).
    pub artifacts: usize,
    /// Works across the whole partitioned collection.
    pub works: usize,
    /// Percentage of Impressionist works (Q2 selectivity).
    pub impressionist_pct: u8,
    /// Every k-th shard joins fetch-only (0 = none): its documents are
    /// pulled and evaluated mediator-side, never pushed to.
    pub fetch_only_every: usize,
    /// Member names wrapped in [`Dead`]: they connect, then fail every
    /// data request.
    pub dead: Vec<String>,
    /// RNG seed.
    pub seed: u64,
    /// Index policy pinned on every member source (`On` by default),
    /// like [`Scenario::index`].
    pub index: IndexPolicy,
}

impl FedScenario {
    /// `members` members over `scale` documents per collection, no
    /// fetch-only members, everyone alive.
    pub fn new(members: usize, scale: usize) -> Self {
        FedScenario {
            members,
            artifacts: scale,
            works: scale,
            impressionist_pct: 30,
            fetch_only_every: 0,
            dead: Vec::new(),
            seed: 42,
            index: IndexPolicy::default(),
        }
    }

    /// How many members partition the Wais collection: half the
    /// federation, capped at the style vocabulary (value sets must be
    /// disjoint).
    pub fn shard_count(&self) -> usize {
        self.members
            .saturating_sub(self.members / 2)
            .clamp(1, FED_STYLES.len())
    }

    /// How many members replicate the O2 database: everyone else.
    pub fn replica_count(&self) -> usize {
        self.members.saturating_sub(self.shard_count()).max(1)
    }

    /// Names of the `art` replicas.
    pub fn replica_names(&self) -> Vec<String> {
        (0..self.replica_count())
            .map(|i| format!("art-{i}"))
            .collect()
    }

    /// Names of the `wais` shards.
    pub fn shard_names(&self) -> Vec<String> {
        (0..self.shard_count())
            .map(|i| format!("works-{i}"))
            .collect()
    }

    /// All member names, replicas first.
    pub fn member_names(&self) -> Vec<String> {
        let mut names = self.replica_names();
        names.extend(self.shard_names());
        names
    }

    /// The styles shard `i` owns (disjoint across shards, covering the
    /// whole vocabulary).
    pub fn shard_styles(&self, i: usize) -> BTreeSet<String> {
        let s = self.shard_count();
        FED_STYLES
            .iter()
            .enumerate()
            .filter(|(j, _)| j % s == i)
            .map(|(_, style)| style.to_string())
            .collect()
    }

    /// The shards owning works of `style` — the only members a query
    /// constrained to that style may contact.
    pub fn shards_owning(&self, style: &str) -> Vec<String> {
        (0..self.shard_count())
            .filter(|&i| self.shard_styles(i).contains(style))
            .map(|i| format!("works-{i}"))
            .collect()
    }

    fn art_spec(&self) -> ArtSpec {
        ArtSpec {
            artifacts: self.artifacts,
            persons: (self.artifacts / 5).max(2),
            seed: self.seed,
        }
    }

    /// The works document each shard serves, in shard order: each work
    /// is dealt to one owner of its style, round-robin.
    pub fn shard_docs(&self) -> Vec<Tree> {
        let works = generate_works(&WorksSpec {
            works: self.works,
            impressionist_pct: self.impressionist_pct,
            optional_pct: 60,
            giverny_pct: 30,
            seed: self.seed,
        });
        let s = self.shard_count();
        let mut buckets: Vec<Vec<Tree>> = vec![Vec::new(); s];
        let mut dealt: HashMap<String, usize> = HashMap::new();
        for work in &works.children {
            let style = style_of(work);
            let owners: Vec<usize> = (0..s)
                .filter(|&i| self.shard_styles(i).contains(&style))
                .collect();
            let owners = if owners.is_empty() { vec![0] } else { owners };
            let turn = dealt.entry(style).or_insert(0);
            buckets[owners[*turn % owners.len()]].push(work.clone());
            *turn += 1;
        }
        buckets
            .into_iter()
            .map(|works_of_shard| Node::labeled(works.label.clone(), works_of_shard))
            .collect()
    }

    /// A plain two-source mediator over the same data, its works in the
    /// order the federation's shards unite them — the oracle a federated
    /// answer is checked against byte for byte (killed *replicas* are
    /// lossless and must not change the answer at all).
    pub fn plain_twin(&self) -> Mediator {
        let docs = self.shard_docs();
        let label = docs.first().expect("at least one shard").label.clone();
        let works = Node::labeled(
            label,
            docs.iter()
                .flat_map(|d| d.children.iter().cloned())
                .collect(),
        );
        let mut m = Mediator::new();
        m.connect(Box::new(O2Wrapper::new(
            "o2artifact",
            art_store(&self.art_spec()),
        )))
        .expect("fresh mediator accepts the O2 wrapper");
        m.connect(Box::new(WaisWrapper::new(
            "xmlartwork",
            WaisSource::new("works", &works),
        )))
        .expect("fresh mediator accepts the Wais wrapper");
        m.load_program(paper::VIEW1).expect("view1 is well-formed");
        m
    }

    /// Builds the federation: replicas and shards connected as group
    /// members, `view1` loaded.
    pub fn mediator(&self) -> Mediator {
        let spec = self.art_spec();
        let docs = self.shard_docs();
        let mut m = Mediator::new();
        for name in &self.replica_names() {
            let wrapper = O2Wrapper::new(name, art_store(&spec).with_index_policy(self.index));
            m.connect_member(
                self.boxed(wrapper, self.dead.iter().any(|d| d == name), false),
                "art",
                MemberRole::Replica,
            )
            .expect("fresh mediator accepts every replica");
        }
        for ((i, name), doc) in self.shard_names().iter().enumerate().zip(&docs) {
            let wrapper = WaisWrapper::new(
                name,
                WaisSource::new("works", doc).with_index_policy(self.index),
            );
            let fetch_only = self.fetch_only_every > 0 && (i + 1) % self.fetch_only_every == 0;
            m.connect_member(
                self.boxed(wrapper, self.dead.iter().any(|d| d == name), fetch_only),
                "wais",
                MemberRole::Shard {
                    field: "style".into(),
                    values: self.shard_styles(i),
                },
            )
            .expect("fresh mediator accepts every shard");
        }
        m.load_program(paper::VIEW1).expect("view1 is well-formed");
        m
    }

    fn boxed<W: WrapperServer + 'static>(
        &self,
        wrapper: W,
        dead: bool,
        fetch_only: bool,
    ) -> Box<dyn WrapperServer> {
        match (dead, fetch_only) {
            (true, true) => Box::new(Dead(FetchOnly(wrapper))),
            (true, false) => Box::new(Dead(wrapper)),
            (false, true) => Box::new(FetchOnly(wrapper)),
            (false, false) => Box::new(wrapper),
        }
    }
}

/// The text of a work's `style` element (empty when absent). Reads the
/// atom itself: a label's `Display` quotes strings, and a quoted style
/// is nobody's.
fn style_of(work: &Tree) -> String {
    work.children
        .iter()
        .find(|c| matches!(&c.label, Label::Sym(s) if s.as_str() == "style"))
        .and_then(|c| c.value_atom())
        .map(|style| style.to_string())
        .unwrap_or_default()
}

/// The tiny Fig. 1 federation (two artifacts, two works, three persons).
pub fn fig1_mediator() -> Mediator {
    let mut m = Mediator::new();
    m.connect(Box::new(O2Wrapper::new("o2artifact", fig1_store())))
        .expect("fresh mediator accepts the O2 wrapper");
    m.connect(Box::new(WaisWrapper::new(
        "xmlartwork",
        WaisSource::new("works", &fig1_works()),
    )))
    .expect("fresh mediator accepts the Wais wrapper");
    m.load_program(paper::VIEW1).expect("view1 is well-formed");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_build_and_answer() {
        let m = Scenario::at_scale(30).mediator();
        let out = m
            .query(
                yat_yatl::paper::Q2,
                yat_mediator::OptimizerOptions::default(),
            )
            .unwrap();
        match out {
            yat_algebra::EvalOut::Tree(t) => assert_eq!(t.label.as_sym(), Some("answers")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn store_backed_scenario_matches_the_in_memory_oracle() {
        use yat_bench_figures_fp::fp;
        let sc = Scenario::at_scale(20);
        let root = std::env::temp_dir().join(format!("yat-scenario-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mem = sc.mediator();
        let disk = sc.mediator_store(&root, StoreOptions::default()).unwrap();
        for query in [paper::Q1, paper::Q2] {
            assert_eq!(fp(&disk, query), fp(&mem, query), "{query}");
        }
        // a remount answers identically too
        drop(disk);
        let remounted = sc.mediator_store(&root, StoreOptions::default()).unwrap();
        for query in [paper::Q1, paper::Q2] {
            assert_eq!(fp(&remounted, query), fp(&mem, query), "remount {query}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn store_backed_explain_reports_the_storage_section() {
        let sc = Scenario::at_scale(20);
        let root =
            std::env::temp_dir().join(format!("yat-scenario-explain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let disk = sc.mediator_store(&root, StoreOptions::default()).unwrap();
        let plan = disk.plan_query(paper::Q2).unwrap();
        let explain = disk.explain(&plan).unwrap();
        assert!(
            !explain.storage.is_empty(),
            "a store-backed execution reports storage lines"
        );
        let rendered = explain.render();
        assert!(rendered.contains("storage:"), "{rendered}");
        let xml = explain.to_xml().to_xml();
        assert!(xml.contains("<storage"), "{xml}");

        // the in-memory oracle executes the same plan with no storage section
        let mem = sc.mediator();
        let plan = mem.plan_query(paper::Q2).unwrap();
        let explain = mem.explain(&plan).unwrap();
        assert!(explain.storage.is_empty(), "in-memory has no storage");
        assert!(!explain.render().contains("storage:"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn specs_are_deterministic() {
        let a = Scenario::at_scale(10);
        let b = Scenario::at_scale(10);
        assert_eq!(a.specs(), b.specs());
    }

    #[test]
    fn fed_scenario_covers_every_style_disjointly() {
        for members in [2usize, 4, 8, 16, 32] {
            let sc = FedScenario::new(members, 20);
            assert_eq!(
                sc.replica_count() + sc.shard_count(),
                members.max(2),
                "members split exactly"
            );
            let mut seen = std::collections::BTreeMap::new();
            for i in 0..sc.shard_count() {
                for style in sc.shard_styles(i) {
                    assert!(
                        seen.insert(style.clone(), i).is_none(),
                        "style {style} owned by two shards at S={}",
                        sc.shard_count()
                    );
                }
            }
            for style in FED_STYLES {
                assert!(seen.contains_key(style), "style {style} unowned");
                assert!(!sc.shards_owning(style).is_empty());
            }
        }
    }

    #[test]
    fn every_shard_serves_its_own_styles_and_only_those() {
        for members in [4usize, 8, 10] {
            let sc = FedScenario::new(members, 60);
            let docs = sc.shard_docs();
            assert_eq!(docs.len(), sc.shard_count());
            for (i, doc) in docs.iter().enumerate() {
                assert!(
                    !doc.children.is_empty(),
                    "shard {i} of {} is empty",
                    sc.shard_count()
                );
                let owned = sc.shard_styles(i);
                for work in &doc.children {
                    let style = style_of(work);
                    assert!(
                        owned.contains(&style),
                        "shard {i} (owning {owned:?}) holds a {style:?} work"
                    );
                }
            }
            let dealt: usize = docs.iter().map(|d| d.children.len()).sum();
            assert_eq!(dealt, 60, "every work lands on exactly one shard");
        }
    }

    #[test]
    fn fed_scenario_answers_match_the_plain_scenario() {
        use yat_bench_figures_fp::fp;
        let plain = Scenario::at_scale(16).mediator();
        for members in [2usize, 5] {
            let fed = FedScenario::new(members, 16).mediator();
            for query in [paper::Q1, paper::Q2] {
                assert_eq!(
                    fp(&fed, query),
                    fp(&plain, query),
                    "members={members} {query}"
                );
            }
        }
    }

    mod yat_bench_figures_fp {
        use super::super::Mediator;
        use crate::figures::fingerprint;
        use yat_mediator::OptimizerOptions;

        pub fn fp(m: &Mediator, query: &str) -> Vec<String> {
            match m.query(query, OptimizerOptions::default()).unwrap() {
                yat_algebra::EvalOut::Tree(t) => fingerprint(&t),
                yat_algebra::EvalOut::Tab(_) => panic!("queries answer trees"),
            }
        }
    }
}
