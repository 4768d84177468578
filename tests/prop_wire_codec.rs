//! Differential property test for the DOM-free wire codec.
//!
//! The data frames — `<document>` and `<result>` on the mediator↔wrapper
//! transport, `<answer>` and `<answer-chunk>` on the client wire — are
//! encoded and decoded without an `Element` DOM
//! (`yat_capability::codec`). The `Element` path (`to_xml`/`from_xml`
//! over `parse_element`) is their reference, and this harness holds the
//! codec to it on random frames (override the master seed with
//! `YAT_CODEC_SEED=<u64>`):
//!
//! 1. **Writer.** `encode` writes exactly the bytes of
//!    `to_xml().to_xml()`, for all four data frame kinds and for a
//!    wrapper's `<refused>`.
//! 2. **Reader.** `decode` reads exactly what `from_xml(parse_element(..))`
//!    reads: equal values, or the same error — the same `ParseError` for
//!    text that is not XML, the same `WireError` variant for XML that is
//!    not a message.
//! 3. **Damage.** Truncated and mutated texts give the same outcome under
//!    both readers.
//!
//! The generated values lean on what makes the encoding subtle: oids
//! (which become `id` attributes, replacing an `@id` child's), reference
//! runs (which collapse into `refs`), `@` children with duplicate names,
//! mixed content, empty and whitespace-only text, markup characters,
//! `\r`, non-ASCII, nested collections and the odd invalid XML name.
//!
//! On a disagreement the harness shrinks the input by halving — a frame's
//! table rows or tree children, a damaged text's length — and reports the
//! master seed with the smallest failing input.

use std::fmt::Debug;
use std::mem::discriminant;
use yat::yat_algebra::{EvalOut, Tab, Value};
use yat::yat_capability::codec::DecodeError;
use yat::yat_capability::protocol::{Response, ServerReply, StreamFrame};
use yat::yat_capability::xml::WireError;
use yat::yat_model::{Atom, Node, Oid, Tree};
use yat::yat_xml::{parse_element, Element};
use yat_prng::Rng;

const DEFAULT_SEED: u64 = 0xC0DE_2026;
const CASES: usize = 300;
const DAMAGES_PER_CASE: usize = 6;

fn master_seed() -> u64 {
    std::env::var("YAT_CODEC_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// Text with escapes, line ends, padding and non-ASCII — and values that
/// type-guess as numbers and booleans.
const TEXTS: &[&str] = &[
    "Claude Monet",
    "",
    " ",
    "\t\n ",
    "a&b<c>\"d'",
    "x\ry",
    "line\r\nbreak",
    "Cézanne — 睡蓮",
    "  padded  ",
    "42",
    "1.5",
    "true",
    "]]>",
    "&amp;",
];
const TAGS: &[&str] = &[
    "work", "title", "artist", "œuvre", "a-b.c", "_x", "ref", "value",
];
const ATTRS: &[&str] = &["@lang", "@id", "@refs", "@k", "@k"];
const OIDS: &[&str] = &["a1", "p2", "o&1", "x y", ""];
/// Names that are not XML names: the reference writes them anyway, and
/// both readers must then refuse the text the same way.
const BAD_NAMES: &[&str] = &["1bad", "@", "has space"];

fn atom(rng: &mut Rng) -> Atom {
    match rng.gen_range(0..9usize) {
        0 => Atom::Int(rng.gen_range(-5..1900i64)),
        1 => Atom::Float(*rng.choose(&[1.0, 2.5, -0.0, 1e20, f64::NAN])),
        2 => Atom::Bool(rng.gen_bool(0.5)),
        _ => Atom::Str((*rng.choose(TEXTS)).to_string()),
    }
}

fn oid(rng: &mut Rng) -> Oid {
    Oid::new(*rng.choose(OIDS))
}

fn tag(rng: &mut Rng) -> &'static str {
    let names = if rng.gen_range(0..40usize) == 0 {
        BAD_NAMES
    } else {
        TAGS
    };
    names[rng.gen_range(0..names.len())]
}

fn children(rng: &mut Rng, depth: usize) -> Vec<Tree> {
    if rng.gen_range(0..6usize) == 0 {
        // all references: the Fig. 1 `owners refs="p1 p2"` shape
        return (0..rng.gen_range(1..4usize))
            .map(|_| Node::reference(oid(rng)))
            .collect();
    }
    (0..rng.gen_range(0..5usize))
        .map(|_| match rng.gen_range(0..6usize) {
            0 => Node::atom(atom(rng)),
            1 => Node::sym(*rng.choose(ATTRS), vec![Node::atom(atom(rng))]),
            2 => Node::reference(oid(rng)),
            _ => tree(rng, depth.saturating_sub(1)),
        })
        .collect()
}

fn tree(rng: &mut Rng, depth: usize) -> Tree {
    match rng.gen_range(0..10usize) {
        _ if depth == 0 => Node::elem(tag(rng), atom(rng)),
        0 => Node::atom(atom(rng)),
        1 => Node::reference(oid(rng)),
        2 | 3 => {
            let kids = match rng.gen_range(0..3usize) {
                0 => vec![tree(rng, depth - 1)],
                _ => children(rng, depth),
            };
            Node::oid(oid(rng), kids)
        }
        // an `@` child with a non-atom body stays an element
        4 => Node::sym(*rng.choose(ATTRS), vec![tree(rng, depth - 1)]),
        _ => Node::sym(tag(rng), children(rng, depth)),
    }
}

fn value(rng: &mut Rng, depth: usize) -> Value {
    match rng.gen_range(0..6usize) {
        0 => Value::Atom(atom(rng)),
        1 => Value::Label((*rng.choose(TEXTS)).to_string()),
        2 => Value::Null,
        3 if depth > 0 => Value::Coll(
            (0..rng.gen_range(0..4usize))
                .map(|_| value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Tree(tree(rng, depth)),
    }
}

fn tab(rng: &mut Rng) -> Tab {
    let cols: Vec<String> = match rng.gen_range(0..12usize) {
        0 => vec![],
        // one column name that splits into two on the way back
        1 => vec!["x y".to_string()],
        _ => ["t", "a", "p"][..rng.gen_range(1..4usize)]
            .iter()
            .map(|c| c.to_string())
            .collect(),
    };
    let mut tab = Tab::new(cols);
    for _ in 0..rng.gen_range(0..6usize) {
        let row = (0..tab.columns().len()).map(|_| value(rng, 2)).collect();
        tab.push(row);
    }
    tab
}

fn answer_body(rng: &mut Rng) -> EvalOut {
    if rng.gen_bool(0.5) {
        EvalOut::Tab(tab(rng))
    } else {
        EvalOut::Tree(tree(rng, 3))
    }
}

/// One frame of each of the five kinds: the four data frames and a
/// wrapper's refusal.
#[derive(Debug, Clone)]
enum Frame {
    Response(Response),
    Reply(ServerReply),
    Stream(StreamFrame),
}

fn frame(rng: &mut Rng) -> Frame {
    match rng.gen_range(0..5usize) {
        0 => Frame::Response(Response::Document {
            name: (*rng.choose(TEXTS)).to_string(),
            tree: tree(rng, 4),
        }),
        1 => Frame::Response(Response::Result(tab(rng))),
        2 => Frame::Reply(ServerReply::answer(answer_body(rng))),
        3 => Frame::Stream(StreamFrame::Chunk {
            seq: rng.gen_range(0..1000u64),
            payload: answer_body(rng),
        }),
        _ => Frame::Response(Response::Refused((*rng.choose(TEXTS)).to_string())),
    }
}

impl Frame {
    fn codec_text(&self) -> String {
        let mut text = String::new();
        match self {
            Frame::Response(r) => r.encode(&mut text),
            Frame::Reply(r) => r.encode(&mut text),
            Frame::Stream(f) => f.encode(&mut text),
        }
        text
    }

    fn reference_text(&self) -> String {
        match self {
            Frame::Response(r) => r.to_xml().to_xml(),
            Frame::Reply(r) => r.to_xml().to_xml(),
            Frame::Stream(f) => f.to_xml().to_xml(),
        }
    }

    /// The frame with half its table rows or tree children, if it has
    /// any to lose.
    fn halved(&self) -> Option<Frame> {
        fn half_tab(tab: &Tab) -> Option<Tab> {
            let mut t = Tab::new(tab.columns().to_vec());
            for row in tab.rows().take(tab.len() / 2) {
                t.push(row.to_vec());
            }
            (!tab.is_empty()).then_some(t)
        }
        fn half_tree(tree: &Tree) -> Option<Tree> {
            let keep = tree.children[..tree.children.len() / 2].to_vec();
            (!tree.children.is_empty()).then(|| Node::labeled(tree.label.clone(), keep))
        }
        fn half_out(out: &EvalOut) -> Option<EvalOut> {
            match out {
                EvalOut::Tab(t) => half_tab(t).map(EvalOut::Tab),
                EvalOut::Tree(t) => half_tree(t).map(EvalOut::Tree),
            }
        }
        Some(match self {
            Frame::Response(Response::Document { name, tree }) => {
                Frame::Response(Response::Document {
                    name: name.clone(),
                    tree: half_tree(tree)?,
                })
            }
            Frame::Response(Response::Result(tab)) => {
                Frame::Response(Response::Result(half_tab(tab)?))
            }
            Frame::Reply(ServerReply::Answer { out }) => {
                Frame::Reply(ServerReply::answer(half_out(out)?))
            }
            Frame::Stream(StreamFrame::Chunk { seq, payload }) => {
                Frame::Stream(StreamFrame::Chunk {
                    seq: *seq,
                    payload: half_out(payload)?,
                })
            }
            _ => return None,
        })
    }
}

/// `from_xml(parse_element(text))`, with the reader's error split.
fn reference<T>(
    text: &str,
    from_xml: fn(&Element) -> Result<T, WireError>,
) -> Result<T, DecodeError> {
    let el = parse_element(text).map_err(DecodeError::Syntax)?;
    from_xml(&el).map_err(DecodeError::Wire)
}

/// Equal values, equal syntax errors, or message errors of one variant.
/// Values compare by `Debug`, which (unlike `PartialEq`) is total on the
/// NaN atoms the generator includes.
fn agree<T: Debug>(codec: &Result<T, DecodeError>, reference: &Result<T, DecodeError>) -> bool {
    match (codec, reference) {
        (Ok(a), Ok(b)) => format!("{a:?}") == format!("{b:?}"),
        (Err(DecodeError::Syntax(a)), Err(DecodeError::Syntax(b))) => a == b,
        (Err(DecodeError::Wire(a)), Err(DecodeError::Wire(b))) => {
            discriminant(a) == discriminant(b)
        }
        _ => false,
    }
}

/// Runs all three data decoders against their references on `text`;
/// describes the first disagreement.
fn readers_disagree(text: &str) -> Option<String> {
    fn check<T: Debug>(
        what: &str,
        codec: Result<T, DecodeError>,
        reference: Result<T, DecodeError>,
    ) -> Option<String> {
        (!agree(&codec, &reference))
            .then(|| format!("{what}:\n  codec     {codec:?}\n  reference {reference:?}"))
    }
    check(
        "Response",
        Response::decode(text),
        reference(text, Response::from_xml),
    )
    .or_else(|| {
        check(
            "ServerReply",
            ServerReply::decode(text),
            reference(text, ServerReply::from_xml),
        )
    })
    .or_else(|| {
        check(
            "StreamFrame",
            StreamFrame::decode(text),
            reference(text, StreamFrame::from_xml),
        )
    })
}

/// What is wrong with `frame`'s codec, if anything: written bytes, then
/// what the readers make of them.
fn frame_fault(frame: &Frame) -> Option<String> {
    let (codec, reference) = (frame.codec_text(), frame.reference_text());
    if codec != reference {
        return Some(format!(
            "writer bytes differ:\n  codec     {codec}\n  reference {reference}"
        ));
    }
    readers_disagree(&codec)
}

/// One damaged copy of `text`: cut short, one character replaced or
/// deleted, or a character or markup fragment spliced in.
fn damage(rng: &mut Rng, text: &str) -> String {
    let bounds: Vec<usize> = (0..=text.len())
        .filter(|&i| text.is_char_boundary(i))
        .collect();
    // half the time right after a tag, where a splice lands in content
    let after_tags: Vec<usize> = text.match_indices('>').map(|(i, _)| i + 1).collect();
    let at = match rng.gen_bool(0.5) {
        true if !after_tags.is_empty() => *rng.choose(&after_tags),
        _ => *rng.choose(&bounds),
    };
    let next = bounds.iter().copied().find(|&i| i > at).unwrap_or(at);
    const SPLICES: &[&str] = &[
        "<",
        ">",
        "/",
        "&",
        ";",
        "\"",
        "'",
        "=",
        " ",
        "a",
        "\r",
        "<x/>",
        "</a>",
        "<!--c-->",
        "<?pi d?>",
        "<![CDATA[7]]>",
        "<![CDATA[ ]]>",
    ];
    let splice = *rng.choose(SPLICES);
    match rng.gen_range(0..4usize) {
        0 => text[..at].to_string(),
        1 => format!("{}{splice}{}", &text[..at], &text[next..]),
        2 => format!("{}{}", &text[..at], &text[next..]),
        _ => format!("{}{splice}{}", &text[..at], &text[at..]),
    }
}

/// Keeps the first half of a damaged text while the readers still
/// disagree on it.
fn shrink_text(mut text: String) -> String {
    loop {
        let mut half = text.len() / 2;
        while !text.is_char_boundary(half) {
            half -= 1;
        }
        if half == 0 || readers_disagree(&text[..half]).is_none() {
            return text;
        }
        text.truncate(half);
    }
}

#[test]
fn codec_matches_the_element_reference_on_random_frames_and_their_damage() {
    let seed = master_seed();
    let mut rng = Rng::seed_from_u64(seed);
    let (mut decoded, mut refused) = (0usize, 0usize);
    for case in 0..CASES {
        let frame = frame(&mut rng);
        if let Some(fault) = frame_fault(&frame) {
            let mut small = frame;
            let mut fault = fault;
            while let Some(half) = small.halved() {
                match frame_fault(&half) {
                    Some(f) => {
                        small = half;
                        fault = f;
                    }
                    None => break,
                }
            }
            panic!("codec disagrees with the Element path (seed {seed}, case {case}): {fault}\nsmallest failing frame: {small:?}");
        }
        let text = frame.codec_text();
        for _ in 0..DAMAGES_PER_CASE {
            let damaged = damage(&mut rng, &text);
            if readers_disagree(&damaged).is_some() {
                let small = shrink_text(damaged);
                let fault = readers_disagree(&small).unwrap_or_default();
                panic!("readers disagree on a damaged frame (seed {seed}, case {case}): {fault}\nsmallest failing text: {small:?}");
            }
            let any_ok = reference(&damaged, Response::from_xml).is_ok()
                || reference(&damaged, ServerReply::from_xml).is_ok()
                || reference(&damaged, StreamFrame::from_xml).is_ok();
            if any_ok {
                decoded += 1;
            } else {
                refused += 1;
            }
        }
    }
    // the damage must exercise both outcomes, or it tests nothing
    assert!(
        decoded > 0 && refused > CASES,
        "seed {seed}: {decoded} damaged texts decoded, {refused} refused"
    );
}

#[test]
fn well_formed_frames_mostly_decode() {
    // the generator must mostly produce frames that survive the wire, so
    // the sweep compares values and not just error agreement
    let seed = master_seed();
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);
    let ok = (0..CASES)
        .filter(|_| {
            let frame = frame(&mut rng);
            let text = frame.codec_text();
            match frame {
                Frame::Response(_) => Response::decode(&text).is_ok(),
                Frame::Reply(_) => ServerReply::decode(&text).is_ok(),
                Frame::Stream(_) => StreamFrame::decode(&text).is_ok(),
            }
        })
        .count();
    assert!(
        ok * 2 > CASES,
        "seed {seed}: only {ok}/{CASES} frames decode"
    );
}
