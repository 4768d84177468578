//! Seeded request streams: the query texts of each workload, the
//! samplers that draw from them, and the mutation log of
//! `churn_dashboard`. Every client's stream is a pure function of
//! `(seed, client index)`; the program under test only ever sees the
//! generated texts.

use crate::stats::{fnv1a, Zipf, FNV_OFFSET};
use yat_prng::Rng;

/// The style vocabulary of the works generator (`yat_wais::docs`): the
/// partition field values of the federated collection.
pub const STYLES: [&str; 5] = [
    "Impressionist",
    "Post-Impressionist",
    "Realist",
    "Cubist",
    "Romantic",
];

/// The `cplace` vocabulary of the works generator.
pub const PLACES: [&str; 5] = ["Giverny", "Paris", "Aix-en-Provence", "London", "Rouen"];

/// Q2 price thresholds: asking prices run 50k..545k, so the O2 side of
/// the dependent join keeps between none and all of its candidates.
const THRESHOLDS: [u32; 7] = [75_000, 100_000, 150_000, 200_000, 300_000, 400_000, 500_000];

/// Which latency class a query reports into. Only `fed_tail` mixes
/// classes; everywhere else every query is `Cheap`-or-`Heavy` by
/// template and the split is informational.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Expected to stay fast whatever else is in flight.
    Cheap,
    /// Joins through the view, or scans.
    Heavy,
}

/// One generated query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryText {
    /// The YATL text sent on the wire.
    pub text: String,
    /// Its latency class.
    pub class: Class,
}

fn q(text: String, class: Class) -> QueryText {
    QueryText { text, class }
}

/// The paper's Q1 with the creation place as a parameter.
fn q1(place: &str) -> String {
    format!(
        "MAKE $t\nMATCH artworks WITH doc.work.[ title.$t, more.cplace.$cl ]\nWHERE $cl = \"{place}\"\n"
    )
}

/// The paper's Q2 with style and price threshold as parameters.
fn q2(style: &str, threshold: u32) -> String {
    format!(
        "MAKE answers *($t,$a,$p) := answer [ title: $t, artist: $a, price: $p ]\n\
         MATCH artworks WITH doc.work.[ title.$t, artist.$a, price.$p, style.$s ]\n\
         WHERE $s = \"{style}\" AND $p <= {threshold}.00\n"
    )
}

/// `serve_mix`: 5 Q1 + 35 Q2 texts. Dependent-join driving sides range
/// from a handful of rows (rare place, low threshold) to hundreds.
pub fn serve_mix_texts() -> Vec<QueryText> {
    let mut texts: Vec<QueryText> = PLACES.iter().map(|p| q(q1(p), Class::Cheap)).collect();
    for style in STYLES {
        for threshold in THRESHOLDS {
            texts.push(q(q2(style, threshold), Class::Heavy));
        }
    }
    texts
}

/// `scan_stream`: three variants of the full works scan — title only,
/// three projected fields, and the same plus a multi-term `Select` the
/// Wais wrapper cannot take (`!=`), so it runs mediator-side.
pub fn scan_stream_texts() -> Vec<QueryText> {
    let three = "MAKE rows *($t,$a,$s) := row [ title: $t, artist: $a, style: $s ]\n\
                 MATCH works WITH works *work [ title: $t, artist: $a, style: $s ]\n";
    vec![
        q(
            "MAKE titles *($t) := t [ $t ]\nMATCH works WITH works *work [ title: $t ]\n".into(),
            Class::Heavy,
        ),
        q(three.into(), Class::Heavy),
        q(
            format!(
                "{three}WHERE $s != \"Cubist\" AND $a != \"Mary Cassatt\" AND $t != \"Composition No. 7\"\n"
            ),
            Class::Heavy,
        ),
    ]
}

/// How many distinct dashboard queries `churn_dashboard` draws from.
pub const DASHBOARD_QUERIES: usize = 64;

/// `churn_dashboard`: 64 selective queries, each answering one row —
/// a rare-token `contains` on works, a title equality on works (pushed
/// as `contains`, compensated mediator-side), and a title equality on
/// the O2 extent (answered off its hash index). Keys are spread over
/// the whole collection so the touched segments outnumber what the
/// store budget keeps resident. Keys start at 100: two-digit numbers
/// also occur in `size` fields and would not be rare.
pub fn dashboard_texts(scale: usize) -> Vec<QueryText> {
    assert!(
        scale > 100 + DASHBOARD_QUERIES,
        "dashboard needs scale > 164"
    );
    let stride = (scale - 100) / DASHBOARD_QUERIES;
    (0..DASHBOARD_QUERIES)
        .map(|i| {
            let k = 100 + i * stride + (i * 7) % stride.max(1);
            let text = match i % 3 {
                0 => format!(
                    "MAKE hits *($t,$a) := hit [ title: $t, artist: $a ]\n\
                     MATCH works WITH works *$w\nWHERE contains($w, \"{k}\")\n"
                ),
                1 => format!(
                    "MAKE hits *($t,$s) := hit [ title: $t, style: $s ]\n\
                     MATCH works WITH works *work [ title: $t, style: $s ]\n\
                     WHERE $t = \"Composition No. {k}\"\n"
                ),
                _ => format!(
                    "MAKE hits *($t,$p) := hit [ title: $t, price: $p ]\n\
                     MATCH artifacts WITH set *class: artifact: tuple [ title: $t, price: $p ]\n\
                     WHERE $t = \"Composition No. {k}\"\n"
                ),
            };
            q(text, Class::Cheap)
        })
        .collect()
}

/// The audit query of `churn_dashboard`'s final check: unlike the 64
/// dashboard queries it *does* see the mutator's documents, so it only
/// matches the oracle if the mutation log really landed.
pub fn churn_audit_text() -> String {
    "MAKE hits *($t,$s) := hit [ title: $t, style: $s ]\n\
     MATCH works WITH works *$w\nWHERE contains($w, \"Churn\")\n"
        .to_string()
}

/// `fed_tail`: cheap single-style selections straight on the
/// partitioned collection (prunable to the one shard owning the style)
/// and heavy Q1/Q2 through the view (every Q1 contacts all shards;
/// every dependent push of a Q2 pays a simulated round trip).
pub fn fed_tail_texts() -> Vec<QueryText> {
    let mut texts = Vec::new();
    for style in STYLES {
        texts.push(q(
            format!(
                "MAKE hits *($t,$a) := hit [ title: $t, artist: $a ]\n\
                 MATCH works WITH works *work [ title: $t, artist: $a, style: $s ]\n\
                 WHERE $s = \"{style}\"\n"
            ),
            Class::Cheap,
        ));
        texts.push(q(
            format!(
                "MAKE hits *($t,$z) := hit [ title: $t, size: $z ]\n\
                 MATCH works WITH works *work [ title: $t, size: $z, style: $s ]\n\
                 WHERE $s = \"{style}\"\n"
            ),
            Class::Cheap,
        ));
    }
    for place in PLACES {
        texts.push(q(q1(place), Class::Heavy));
    }
    for style in STYLES {
        texts.push(q(q2(style, 200_000), Class::Heavy));
    }
    texts
}

/// How a client picks its next query.
///
/// The uniform and class samplers deal from shuffled decks instead of
/// drawing independently: every text (and, per block of
/// [`CLASS_BLOCK`] draws, every class) comes up equally often whatever
/// the seed, so two seeds differ in order but not in mix and a metric's
/// seed-to-seed spread measures the system, not the dice.
#[derive(Debug, Clone)]
pub enum Sampler {
    /// Every text equally often: a fresh shuffle of all texts per cycle.
    Uniform(usize),
    /// Text `k` with probability ∝ 1/(k+1), independent draws.
    Zipf(Zipf),
    /// `cheap_share` of every block of [`CLASS_BLOCK`] draws is cheap,
    /// the rest heavy; within a class, texts cycle through shuffles.
    Classes {
        /// Indexes of the cheap texts.
        cheap: Vec<usize>,
        /// Indexes of the heavy texts.
        heavy: Vec<usize>,
        /// Share of cheap draws.
        cheap_share: f64,
    },
}

/// Draws per block of the class sampler.
const CLASS_BLOCK: usize = 20;

impl Sampler {
    /// The class sampler over `texts` (both classes must be present).
    pub fn classes(texts: &[QueryText], cheap_share: f64) -> Sampler {
        let of = |class| -> Vec<usize> {
            (0..texts.len())
                .filter(|&i| texts[i].class == class)
                .collect()
        };
        Sampler::Classes {
            cheap: of(Class::Cheap),
            heavy: of(Class::Heavy),
            cheap_share,
        }
    }
}

/// A deck dealt to exhaustion, then reshuffled.
#[derive(Debug, Clone, Default)]
struct Deck {
    cards: Vec<usize>,
    left: Vec<usize>,
}

impl Deck {
    fn of(cards: Vec<usize>) -> Deck {
        Deck {
            cards,
            left: Vec::new(),
        }
    }

    fn deal(&mut self, rng: &mut Rng) -> usize {
        if self.left.is_empty() {
            self.left = self.cards.clone();
            // Fisher–Yates
            for i in (1..self.left.len()).rev() {
                self.left.swap(i, rng.gen_range(0..i + 1));
            }
        }
        self.left.pop().expect("a deck holds at least one card")
    }
}

/// One client's request stream: indexes into the workload's texts.
#[derive(Debug, Clone)]
pub struct ClientStream {
    rng: Rng,
    draw: Draw,
}

#[derive(Debug, Clone)]
enum Draw {
    Deck(Deck),
    Zipf(Zipf),
    Classes {
        /// One card per draw of a block; cards below `heavy_per_block`
        /// mean "heavy".
        block: Deck,
        heavy_per_block: usize,
        cheap: Deck,
        heavy: Deck,
    },
}

impl ClientStream {
    /// The stream of client `client` under `seed`.
    pub fn new(seed: u64, client: usize, sampler: Sampler) -> ClientStream {
        let draw = match sampler {
            Sampler::Uniform(n) => Draw::Deck(Deck::of((0..n).collect())),
            Sampler::Zipf(z) => Draw::Zipf(z),
            Sampler::Classes {
                cheap,
                heavy,
                cheap_share,
            } => Draw::Classes {
                block: Deck::of((0..CLASS_BLOCK).collect()),
                heavy_per_block: ((1.0 - cheap_share) * CLASS_BLOCK as f64).round() as usize,
                cheap: Deck::of(cheap),
                heavy: Deck::of(heavy),
            },
        };
        ClientStream {
            rng: Rng::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            draw,
        }
    }

    /// The index of the next query text.
    pub fn next_index(&mut self) -> usize {
        let rng = &mut self.rng;
        match &mut self.draw {
            Draw::Deck(deck) => deck.deal(rng),
            Draw::Zipf(z) => z.sample(rng),
            Draw::Classes {
                block,
                heavy_per_block,
                cheap,
                heavy,
            } => {
                if block.deal(rng) < *heavy_per_block {
                    heavy.deal(rng)
                } else {
                    cheap.deal(rng)
                }
            }
        }
    }
}

/// Styles no dashboard or audit predicate mentions.
const CHURN_STYLES: [&str; 3] = ["Baroque", "Fauvist", "Surrealist"];

/// One mutation of the `churn_dashboard` log. Documents are
/// answer-neutral for the 64 dashboard queries (no numeric token ≥ 100,
/// titles outside the `Composition No.` family), so every in-window
/// wire answer can still be byte-checked while each mutation bumps its
/// source's epoch, patches its indexes and commits to its store.
#[derive(Debug, Clone, PartialEq)]
pub enum MutOp {
    /// `WaisSource::add_document`.
    WaisAdd {
        /// Which churn document (its title carries the serial).
        serial: u64,
        /// Drawn style.
        style: &'static str,
        /// Drawn size text.
        size: String,
    },
    /// `Store::insert` of an `Artifact`.
    O2Insert {
        /// Which churn object (oid `c<serial>`).
        serial: u64,
        /// Drawn year.
        year: i64,
        /// Drawn price.
        price: f64,
    },
    /// `WaisSource::remove_document` of the document added as `serial`.
    WaisRemove {
        /// The serial to remove.
        serial: u64,
    },
    /// `Store::remove` of the object inserted as `serial`.
    O2Remove {
        /// The serial to remove.
        serial: u64,
    },
}

/// The title shared by the Wais document and the O2 object of a serial.
pub fn churn_title(serial: u64) -> String {
    format!("Churn study x{serial}")
}

/// The `i`-th mutation under `seed`: add to Wais, insert into O2,
/// remove that Wais document, remove that O2 object, and again.
pub fn mutation(seed: u64, i: u64) -> MutOp {
    let serial = i / 4;
    let mut rng = Rng::seed_from_u64(seed ^ 0x6d75_7461_746f_7221 ^ i.wrapping_mul(0x9e37_79b9));
    match i % 4 {
        0 => MutOp::WaisAdd {
            serial,
            style: CHURN_STYLES[rng.gen_range(0..CHURN_STYLES.len())],
            size: format!(
                "{} x {}",
                10 + rng.gen_range(0..90),
                10 + rng.gen_range(0..90)
            ),
        },
        1 => MutOp::O2Insert {
            serial,
            year: 1801 + rng.gen_range(0..129),
            price: 50_000.0 + rng.gen_range(0..100) as f64 * 5_000.0,
        },
        2 => MutOp::WaisRemove { serial },
        _ => MutOp::O2Remove { serial },
    }
}

/// FNV-1a over what a run with this seed will send: the first 512
/// draws of every client and, when the workload mutates, the first 64
/// mutation ops.
pub fn fingerprint(
    seed: u64,
    texts: &[QueryText],
    sampler: &Sampler,
    clients: usize,
    mutates: bool,
) -> u64 {
    let mut h = FNV_OFFSET;
    for client in 0..clients {
        let mut stream = ClientStream::new(seed, client, sampler.clone());
        for _ in 0..512 {
            h = fnv1a(h, texts[stream.next_index()].text.as_bytes());
            h = fnv1a(h, &[0]);
        }
    }
    if mutates {
        for i in 0..64 {
            h = fnv1a(h, format!("{:?}", mutation(seed, i)).as_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(seed: u64) -> u64 {
        let texts = serve_mix_texts();
        fingerprint(seed, &texts, &Sampler::Uniform(texts.len()), 2, false)
    }

    #[test]
    fn same_seed_same_fingerprint_different_seed_differs() {
        assert_eq!(fp(7), fp(7));
        assert_ne!(fp(7), fp(8));
        let texts = dashboard_texts(400);
        let zipf = Sampler::Zipf(Zipf::new(texts.len(), 1.0));
        let a = fingerprint(3, &texts, &zipf, 1, true);
        assert_eq!(a, fingerprint(3, &texts, &zipf, 1, true));
        assert_ne!(a, fingerprint(4, &texts, &zipf, 1, true));
        // the mutation log is part of the fingerprint
        assert_ne!(a, fingerprint(3, &texts, &zipf, 1, false));
    }

    #[test]
    fn clients_draw_different_streams_from_one_seed() {
        let sampler = Sampler::Uniform(40);
        let draws = |client| -> Vec<usize> {
            let mut s = ClientStream::new(11, client, sampler.clone());
            (0..32).map(|_| s.next_index()).collect()
        };
        assert_eq!(draws(0), draws(0));
        assert_ne!(draws(0), draws(1));
    }

    #[test]
    fn text_sets_have_the_documented_sizes() {
        assert_eq!(serve_mix_texts().len(), 40);
        assert_eq!(scan_stream_texts().len(), 3);
        let dash = dashboard_texts(20_000);
        assert_eq!(dash.len(), DASHBOARD_QUERIES);
        let distinct: std::collections::BTreeSet<&str> =
            dash.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(distinct.len(), DASHBOARD_QUERIES);
        let fed = fed_tail_texts();
        assert_eq!(fed.iter().filter(|t| t.class == Class::Cheap).count(), 10);
        assert_eq!(fed.iter().filter(|t| t.class == Class::Heavy).count(), 10);
    }

    #[test]
    fn class_sampler_honours_the_share() {
        let texts = fed_tail_texts();
        let mut s = ClientStream::new(5, 0, Sampler::classes(&texts, 0.9));
        let cheap = (0..10_000)
            .filter(|_| texts[s.next_index()].class == Class::Cheap)
            .count();
        assert_eq!(cheap, 9_000, "every block of 20 holds 18 cheap draws");
    }

    #[test]
    fn uniform_sampler_deals_every_text_once_per_cycle() {
        let mut s = ClientStream::new(9, 1, Sampler::Uniform(40));
        for _ in 0..3 {
            let mut cycle: Vec<usize> = (0..40).map(|_| s.next_index()).collect();
            cycle.sort_unstable();
            assert_eq!(cycle, (0..40).collect::<Vec<_>>());
        }
    }

    #[test]
    fn mutation_log_cycles_add_insert_remove_remove() {
        assert!(matches!(mutation(1, 0), MutOp::WaisAdd { serial: 0, .. }));
        assert!(matches!(mutation(1, 1), MutOp::O2Insert { serial: 0, .. }));
        assert_eq!(mutation(1, 2), MutOp::WaisRemove { serial: 0 });
        assert_eq!(mutation(1, 3), MutOp::O2Remove { serial: 0 });
        assert!(matches!(mutation(1, 4), MutOp::WaisAdd { serial: 1, .. }));
        assert_eq!(mutation(1, 5), mutation(1, 5));
    }
}
