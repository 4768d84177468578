//! Differential property test for the DOM-free wire codec.
//!
//! Every frame is encoded and decoded without an `Element` DOM
//! (`yat_capability::codec`). For the data frames — `<document>` and
//! `<result>` on the mediator↔wrapper transport, `<answer>` and
//! `<answer-chunk>` on the client wire — this harness rebuilds a DOM
//! reference from `tab_to_xml`/`tree_to_xml` and reads it back with
//! `tab_from_xml`/`tree_from_xml` over `parse_element` (the `<answer>`
//! through `ServerReply::to_xml`/`from_xml`), and holds the codec to it
//! on random frames (override the master seed with
//! `YAT_CODEC_SEED=<u64>`):
//!
//! 1. **Writer.** `encode` writes exactly the bytes of the reference
//!    element, for all four data frame kinds and for a wrapper's
//!    `<refused>`.
//! 2. **Reader.** `decode` reads exactly what the reference reads from
//!    `parse_element(..)`: equal values, or the same error — the same
//!    `ParseError` for text that is not XML, the same `WireError` variant
//!    for XML that is not a message.
//! 3. **Damage.** Truncated and mutated texts give the same outcome under
//!    both readers.
//! 4. **Pieces.** A `<result>` written in pieces (`ResultPieces`, for
//!    piece sizes 1, 3, 7 and 1024 rows) concatenates to `encode`'s
//!    frame; read in order (`ResultReader`), the pieces give what
//!    `Response::decode` gives for the whole frame — with one piece
//!    damaged too, down to the error's variant.
//! 5. **Requests.** Random `execute`/`execute-batch` requests (plans over
//!    every operator, predicate, operand, template and pattern variant,
//!    bindings of every atom type), `get-document`/`get-interface`, and
//!    random client requests read back to the value written — a client
//!    request's text as XML character data reads it, trimmed and with
//!    line ends normalized — and re-encoding a decoded frame gives the
//!    same bytes. A truncated text is a `WireError`; a mutated one is a
//!    `WireError` or a frame, never a panic.
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
use std::sync::Arc;
use yat::yat_algebra::{Alg, CmpOp, EvalOut, Operand, Pred, SortDir, Tab, Template, Value};
use yat::yat_capability::codec::{DecodeError, ResultPieces, ResultReader};
use yat::yat_capability::protocol::{
    Bindings, ClientRequest, Request, Response, ServerReply, StreamFrame, BATCH_ORDINAL,
};
use yat::yat_capability::tab_xml::{tab_from_xml, tab_to_xml};
use yat::yat_capability::xml::WireError;
use yat::yat_model::xml_convert::{tree_from_xml, tree_to_xml};
use yat::yat_model::{Atom, AtomType, Edge, Node, Oid, PLabel, Pattern, Tree};
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

    /// The frame as the DOM reference writes it.
    fn reference_text(&self) -> String {
        let el = match self {
            Frame::Response(Response::Document { name, tree }) => Element::new("document")
                .with_attr("name", name.clone())
                .with_child(tree_to_xml(tree)),
            Frame::Response(Response::Result(tab)) => result_element(tab),
            Frame::Response(Response::Refused(reason)) => {
                Element::new("refused").with_attr("reason", reason.clone())
            }
            Frame::Reply(r) => r.to_xml(),
            Frame::Stream(StreamFrame::Chunk { seq, payload }) => Element::new("answer-chunk")
                .with_attr("seq", seq.to_string())
                .with_child(match payload {
                    EvalOut::Tab(tab) => result_element(tab),
                    EvalOut::Tree(tree) => tree_to_xml(tree),
                }),
            other => unreachable!("the generator makes no {other:?}"),
        };
        el.to_xml()
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

/// `<result>` and the table, as DOM.
fn result_element(tab: &Tab) -> Element {
    Element::new("result").with_child(tab_to_xml(tab))
}

fn missing(element: &str, what: &str) -> WireError {
    WireError::Missing {
        element: element.into(),
        what: what.into(),
    }
}

/// The first child element of `el`, or `Missing`.
fn first<'e>(el: &'e Element, what: &str) -> Result<&'e Element, WireError> {
    el.elements().next().ok_or_else(|| missing(&el.name, what))
}

/// The DOM reference reader of a wrapper's response frame.
fn response_from_xml(el: &Element) -> Result<Response, WireError> {
    match el.name.as_str() {
        "document" => {
            let name = el.attr("name").ok_or_else(|| missing("document", "name"))?;
            let tree = tree_from_xml(first(el, "a document tree")?);
            Ok(Response::Document {
                name: name.to_string(),
                tree,
            })
        }
        "result" => Ok(Response::Result(tab_from_xml(first(
            el,
            "a result table",
        )?)?)),
        "refused" => Ok(Response::Refused(
            el.attr("reason").unwrap_or("").to_string(),
        )),
        "error" => Ok(Response::Error(
            el.attr("message").unwrap_or("").to_string(),
        )),
        other => Err(WireError::UnknownVerb(format!(
            "unknown response <{other}>"
        ))),
    }
}

/// The DOM reference reader of a chunk frame.
fn stream_from_xml(el: &Element) -> Result<StreamFrame, WireError> {
    if el.name != "answer-chunk" {
        return Err(WireError::UnknownVerb(format!(
            "unknown stream frame <{}>",
            el.name
        )));
    }
    let raw = el
        .attr("seq")
        .ok_or_else(|| missing("answer-chunk", "seq"))?;
    let seq = raw
        .parse::<u64>()
        .map_err(|_| WireError::Malformed(format!("bad seq `{raw}`")))?;
    let body = first(el, "a result or document body")?;
    let payload = if body.name == "result" {
        EvalOut::Tab(tab_from_xml(first(body, "a result table")?)?)
    } else {
        EvalOut::Tree(tree_from_xml(body))
    };
    Ok(StreamFrame::Chunk { seq, payload })
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
        reference(text, response_from_xml),
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
            reference(text, stream_from_xml),
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
            let any_ok = reference(&damaged, response_from_xml).is_ok()
                || reference(&damaged, ServerReply::from_xml).is_ok()
                || reference(&damaged, stream_from_xml).is_ok();
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

/// Piece sizes, in rows: one row a piece, uneven cuts, and the default
/// batch (one piece for every generated table).
const PIECE_ROWS: [usize; 4] = [1, 3, 7, 1024];

/// A table for a `<result>`: the generator's tables with more rows, and
/// now and then the ordinal column an `execute-batch` answer leads with.
fn result_tab(rng: &mut Rng) -> Tab {
    let base = tab(rng);
    let tagged = rng.gen_range(0..4usize) == 0;
    let mut columns = base.columns().to_vec();
    if tagged {
        columns.insert(0, BATCH_ORDINAL.to_string());
    }
    let mut out = Tab::new(columns);
    for _ in 0..rng.gen_range(0..20usize) {
        let mut row: Vec<Value> = (0..base.columns().len()).map(|_| value(rng, 2)).collect();
        if tagged {
            row.insert(0, Value::Atom(Atom::Int(rng.gen_range(0..4i64))));
        }
        out.push(row);
    }
    out
}

/// The pieces of `tab`'s `<result>`, `rows` rows each.
fn pieces_of(tab: &Tab, rows: usize) -> Vec<String> {
    let mut writer = ResultPieces::new(tab.clone(), rows);
    let mut pieces = Vec::new();
    loop {
        let mut piece = String::new();
        match writer.write_next(&mut piece) {
            Some(last) => {
                pieces.push(piece);
                if last {
                    return pieces;
                }
            }
            None => return pieces,
        }
    }
}

/// Reads `pieces` in order, as the transport does: the rows of every
/// piece appended, or the first error.
fn read_pieces(pieces: &[String]) -> Result<Tab, DecodeError> {
    let mut reader = ResultReader::new();
    let mut out: Option<Tab> = None;
    for (i, piece) in pieces.iter().enumerate() {
        if let Some(rows) = reader.read(piece, i + 1 == pieces.len())? {
            match &mut out {
                Some(acc) => acc.append(rows),
                None => out = Some(rows),
            }
        }
    }
    Ok(out.expect("the last piece always yields the table"))
}

/// Equal tables, or errors of one variant — `Syntax` against `Syntax`
/// (positions differ: a piece is read from where the last complete row
/// ended), `Wire` against `Wire` of the same kind.
fn pieces_agree(pieces: &Result<Tab, DecodeError>, whole: &Result<Response, DecodeError>) -> bool {
    match (pieces, whole) {
        (Ok(a), Ok(Response::Result(b))) => format!("{a:?}") == format!("{b:?}"),
        (Err(DecodeError::Syntax(_)), Err(DecodeError::Syntax(_))) => true,
        (Err(DecodeError::Wire(a)), Err(DecodeError::Wire(b))) => {
            discriminant(a) == discriminant(b)
        }
        _ => false,
    }
}

#[test]
fn result_pieces_concatenate_to_the_frame_and_read_as_the_whole_frame() {
    let seed = master_seed();
    let mut rng = Rng::seed_from_u64(seed ^ 0x9eec);
    let (mut damaged_ok, mut damaged_err) = (0usize, 0usize);
    for case in 0..CASES {
        let tab = result_tab(&mut rng);
        let mut whole = String::new();
        Response::Result(tab.clone()).encode(&mut whole);
        for rows in PIECE_ROWS {
            let pieces = pieces_of(&tab, rows);
            assert_eq!(
                pieces.concat(),
                whole,
                "seed {seed}, case {case}, {rows} rows a piece: the pieces are not the frame"
            );
            let read = read_pieces(&pieces);
            assert!(
                pieces_agree(&read, &Response::decode(&whole)),
                "seed {seed}, case {case}, {rows} rows a piece: read {read:?}, whole {:?}",
                Response::decode(&whole)
            );
            for _ in 0..DAMAGES_PER_CASE {
                let mut damaged = pieces.clone();
                let at = rng.gen_range(0..damaged.len());
                damaged[at] = damage(&mut rng, &damaged[at]);
                let read = read_pieces(&damaged);
                let whole = Response::decode(&damaged.concat());
                assert!(
                    pieces_agree(&read, &whole),
                    "seed {seed}, case {case}, {rows} rows a piece, piece {at} damaged \
                     ({:?}):\n  pieces {read:?}\n  whole  {whole:?}",
                    damaged[at]
                );
                if read.is_ok() {
                    damaged_ok += 1;
                } else {
                    damaged_err += 1;
                }
            }
        }
    }
    // the damage must exercise both outcomes, or it tests nothing
    assert!(
        damaged_ok > 0 && damaged_err > CASES,
        "seed {seed}: {damaged_ok} damaged piece sets read, {damaged_err} refused"
    );
}

// ------------------------------------------------------------- requests

/// Variable, column and label names: identifiers, so no whitespace (the
/// wire joins lists of them with spaces), but markup characters,
/// primes and non-ASCII.
const NAMES: &[&str] = &["t", "a", "w'", "x_1", "œuvre", "a&b", "\"q\"", "<n>"];

fn name(rng: &mut Rng) -> String {
    (*rng.choose(NAMES)).to_string()
}

fn names(rng: &mut Rng) -> Vec<String> {
    (0..rng.gen_range(0..3usize)).map(|_| name(rng)).collect()
}

fn operand(rng: &mut Rng, depth: usize) -> Operand {
    match rng.gen_range(0..4usize) {
        0 => Operand::Var(name(rng)),
        1 if depth > 0 => Operand::Call {
            name: name(rng),
            args: (0..rng.gen_range(0..3usize))
                .map(|_| operand(rng, depth - 1))
                .collect(),
        },
        _ => Operand::Const(atom(rng)),
    }
}

fn pred(rng: &mut Rng, depth: usize) -> Pred {
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    match rng.gen_range(0..6usize) {
        0 => Pred::True,
        1 if depth > 0 => Pred::And(
            Box::new(pred(rng, depth - 1)),
            Box::new(pred(rng, depth - 1)),
        ),
        2 if depth > 0 => Pred::Or(
            Box::new(pred(rng, depth - 1)),
            Box::new(pred(rng, depth - 1)),
        ),
        3 if depth > 0 => Pred::Not(Box::new(pred(rng, depth - 1))),
        4 => Pred::Call {
            name: name(rng),
            args: (0..rng.gen_range(0..3usize))
                .map(|_| operand(rng, depth))
                .collect(),
        },
        _ => Pred::cmp(*rng.choose(&ops), operand(rng, depth), operand(rng, depth)),
    }
}

fn template(rng: &mut Rng, depth: usize) -> Template {
    let kids = |rng: &mut Rng| -> Vec<Template> {
        match depth {
            0 => vec![],
            _ => (0..rng.gen_range(0..3usize))
                .map(|_| template(rng, depth - 1))
                .collect(),
        }
    };
    match rng.gen_range(0..5usize) {
        0 => Template::Var(name(rng)),
        1 => Template::Text((*rng.choose(TEXTS)).to_string()),
        2 => Template::LabelVar {
            var: name(rng),
            children: kids(rng),
        },
        3 if depth > 0 => Template::Group {
            key: names(rng),
            skolem: rng.gen_bool(0.5).then(|| name(rng)),
            body: Box::new(template(rng, depth - 1)),
        },
        _ => Template::Sym {
            name: name(rng),
            children: kids(rng),
        },
    }
}

fn pattern(rng: &mut Rng, depth: usize) -> Pattern {
    let types = [
        AtomType::Int,
        AtomType::Float,
        AtomType::Bool,
        AtomType::Str,
    ];
    match rng.gen_range(0..8usize) {
        // atoms and constants are leaves
        0 => Pattern::atom(*rng.choose(&types)),
        1 => Pattern::constant(atom(rng)),
        2 => Pattern::Ref(name(rng)),
        3 => Pattern::TreeVar(name(rng)),
        4 => Pattern::Wildcard,
        5 if depth > 0 => Pattern::Union(
            (0..rng.gen_range(0..3usize))
                .map(|_| pattern(rng, depth - 1))
                .collect(),
        ),
        _ => {
            let label = match rng.gen_range(0..4usize) {
                0 => PLabel::AnySym,
                1 => PLabel::Any,
                2 => PLabel::Var(name(rng)),
                _ => PLabel::Sym(name(rng).into()),
            };
            let edges = match depth {
                0 => vec![],
                _ => (0..rng.gen_range(0..4usize))
                    .map(|_| {
                        let child = pattern(rng, depth - 1);
                        match rng.gen_range(0..5usize) {
                            0 => Edge::opt(child),
                            1 => Edge::star(child),
                            2 => Edge::star_iter(name(rng), child),
                            3 => Edge::star_collect(name(rng), child),
                            _ => Edge::one(child),
                        }
                    })
                    .collect(),
            };
            Pattern::Node { label, edges }
        }
    }
}

fn plan(rng: &mut Rng, depth: usize) -> Arc<Alg> {
    if depth == 0 {
        return match rng.gen_bool(0.5) {
            true => Alg::source(name(rng)),
            false => Alg::source_at(name(rng), name(rng)),
        };
    }
    let d = depth - 1;
    match rng.gen_range(0..13usize) {
        0 => Alg::bind(plan(rng, d), pattern(rng, 3)),
        1 => Alg::bind_over(plan(rng, d), name(rng), pattern(rng, 3)),
        2 => Alg::tree(plan(rng, d), template(rng, 3)),
        3 => Alg::select(plan(rng, d), pred(rng, 3)),
        4 => Alg::project(
            plan(rng, d),
            (0..rng.gen_range(0..3usize))
                .map(|_| (name(rng), name(rng)))
                .collect(),
        ),
        5 => Alg::join(plan(rng, d), plan(rng, d), pred(rng, 2)),
        6 => Alg::djoin(plan(rng, d), plan(rng, d)),
        7 => {
            let (left, right) = (plan(rng, d), plan(rng, d));
            Arc::new(match rng.gen_range(0..3usize) {
                0 => Alg::Union { left, right },
                1 => Alg::Intersect { left, right },
                _ => Alg::Diff { left, right },
            })
        }
        8 => Arc::new(Alg::Group {
            input: plan(rng, d),
            keys: names(rng),
        }),
        9 => Arc::new(Alg::Sort {
            input: plan(rng, d),
            keys: (0..rng.gen_range(0..3usize))
                .map(|_| {
                    let dir = *rng.choose(&[SortDir::Asc, SortDir::Desc]);
                    (name(rng), dir)
                })
                .collect(),
        }),
        10 => Arc::new(Alg::Map {
            input: plan(rng, d),
            col: name(rng),
            expr: operand(rng, 2),
        }),
        11 => Alg::push(name(rng), plan(rng, d)),
        _ => plan(rng, 0),
    }
}

fn bindings(rng: &mut Rng) -> Bindings {
    let vars = names(rng);
    let rows = match rng.gen_range(0..5usize) {
        0 => 0,
        _ => rng.gen_range(1..5usize),
    };
    let rows = (0..rows)
        .map(|_| vars.iter().map(|_| atom(rng)).collect())
        .collect();
    Bindings { vars, rows }
}

fn request(rng: &mut Rng) -> Request {
    match rng.gen_range(0..8usize) {
        0 => Request::GetInterface,
        1 => Request::GetDocument {
            name: (*rng.choose(TEXTS)).to_string(),
        },
        2..=4 => Request::Execute { plan: plan(rng, 3) },
        _ => Request::ExecuteBatch {
            plan: plan(rng, 3),
            bindings: bindings(rng),
        },
    }
}

fn client_request(rng: &mut Rng) -> ClientRequest {
    let text = (*rng.choose(TEXTS)).to_string();
    match rng.gen_range(0..6usize) {
        0 => ClientRequest::Explain { text },
        1 => ClientRequest::Stats,
        2 => ClientRequest::Shutdown,
        _ => ClientRequest::Query {
            text,
            deadline_ms: rng.gen_bool(0.5).then(|| rng.gen_range(0..100_000u64)),
            stream: rng.gen_bool(0.5),
        },
    }
}

/// A client request as its reader gives it back: its text is XML
/// character data, read with line ends normalized and trimmed.
fn as_read(request: &ClientRequest) -> ClientRequest {
    let read = |text: &str| {
        text.replace("\r\n", "\n")
            .replace('\r', "\n")
            .trim()
            .to_string()
    };
    match request {
        ClientRequest::Query {
            text,
            deadline_ms,
            stream,
        } => ClientRequest::Query {
            text: read(text),
            deadline_ms: *deadline_ms,
            stream: *stream,
        },
        ClientRequest::Explain { text } => ClientRequest::Explain { text: read(text) },
        other => other.clone(),
    }
}

/// Holds one message kind to its round trip: `decode(encode(value))` is
/// `expected` (compared by `Debug`, which is total on NaN atoms) and
/// re-encodes to the same bytes; every damaged copy of the text decodes
/// to a frame or a `WireError`, and one cut short to a `WireError`.
/// Returns how many damaged copies were refused.
fn round_trips<T: Debug>(
    rng: &mut Rng,
    seed: u64,
    case: usize,
    value: &T,
    expected: &T,
    encode: fn(&T, &mut String),
    decode: fn(&str) -> Result<T, DecodeError>,
) -> usize {
    let mut text = String::new();
    encode(value, &mut text);
    let back = decode(&text)
        .unwrap_or_else(|e| panic!("seed {seed}, case {case}: {text} does not read back: {e:?}"));
    assert_eq!(
        format!("{back:?}"),
        format!("{expected:?}"),
        "seed {seed}, case {case}: {text}"
    );
    let mut again = String::new();
    encode(&back, &mut again);
    let mut want = String::new();
    encode(expected, &mut want);
    assert_eq!(
        again, want,
        "seed {seed}, case {case}: re-encoded bytes differ"
    );
    let mut refused = 0;
    for _ in 0..DAMAGES_PER_CASE {
        let damaged = damage(rng, &again);
        match decode(&damaged).map_err(WireError::from) {
            Ok(_) => assert!(
                !again.starts_with(&damaged) || damaged == again,
                "seed {seed}, case {case}: a cut-short text decoded: {damaged:?}"
            ),
            Err(_) => refused += 1,
        }
    }
    refused
}

#[test]
fn requests_and_client_requests_round_trip_and_refuse_their_damage() {
    let seed = master_seed();
    let mut rng = Rng::seed_from_u64(seed ^ 0x4e0e);
    let mut refused = 0;
    for case in 0..CASES {
        let r = request(&mut rng);
        refused += round_trips(
            &mut rng,
            seed,
            case,
            &r,
            &r,
            |r, out| r.encode(out),
            Request::decode,
        );
        let c = client_request(&mut rng);
        refused += round_trips(
            &mut rng,
            seed,
            case,
            &c,
            &as_read(&c),
            |r, out| r.encode(out),
            ClientRequest::decode,
        );
    }
    // the damage must reach the readers' refusals, or it tests nothing
    assert!(
        refused > CASES,
        "seed {seed}: only {refused} damaged texts refused"
    );
}
