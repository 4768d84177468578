//! Unit and property tests for the XML substrate.

use crate::*;

fn roundtrip(el: &Element) {
    let s = el.to_xml();
    let back = parse_element(&s).unwrap_or_else(|e| panic!("reparse of `{s}` failed: {e}"));
    assert_eq!(el, &back, "round-trip mismatch for `{s}`");
}

#[test]
fn parse_fig1_object() {
    // The first object of the paper's Figure 1 (sample XML data).
    let src = r#"
<object id="a1" class="artifact">
  <title> Nympheas </title>
  <year> 1897 </year>
  <creator> Claude Monet </creator>
  <owners refs="p1 p2 p3"/>
</object>"#;
    let el = parse_element(src).unwrap();
    assert_eq!(el.name, "object");
    assert_eq!(el.attr("id"), Some("a1"));
    assert_eq!(el.attr("class"), Some("artifact"));
    assert_eq!(el.child("title").unwrap().text(), "Nympheas");
    assert_eq!(el.child("year").unwrap().text(), "1897");
    assert_eq!(el.child("owners").unwrap().attr("refs"), Some("p1 p2 p3"));
    assert_eq!(el.element_count(), 4);
}

#[test]
fn parse_fig1_work_with_nested_mixed_content() {
    let src = r#"<work>
  <artist> Claude Monet </artist>
  <title> Waterloo Bridge </title>
  <history>Painted with
    <technique> Oil on canvas </technique> in ...
  </history>
</work>"#;
    let el = parse_element(src).unwrap();
    let history = el.child("history").unwrap();
    assert!(history.text().starts_with("Painted with"));
    assert_eq!(history.child("technique").unwrap().text(), "Oil on canvas");
}

#[test]
fn self_closing_and_empty_equivalent_text() {
    let a = parse_element("<owners/>").unwrap();
    let b = parse_element("<owners></owners>").unwrap();
    assert_eq!(a, b);
}

#[test]
fn attributes_single_and_double_quotes() {
    let el = parse_element(r#"<n a="x" b='y "z"'/>"#).unwrap();
    assert_eq!(el.attr("a"), Some("x"));
    assert_eq!(el.attr("b"), Some(r#"y "z""#));
}

#[test]
fn entity_unescaping_in_text_and_attrs() {
    let el = parse_element(r#"<n a="1 &lt; 2">Tom &amp; Jerry &#33;</n>"#).unwrap();
    assert_eq!(el.attr("a"), Some("1 < 2"));
    assert_eq!(el.text(), "Tom & Jerry !");
}

#[test]
fn prolog_comments_and_pis_are_skipped() {
    let el = parse(
        "<?xml version=\"1.0\"?>\n<!-- exported by o2-wrapper -->\n<?yat mediator?>\n<interface name=\"o2artifact\"/>\n<!-- trailing -->",
    )
    .unwrap();
    assert_eq!(el.name, "interface");
    assert_eq!(el.attr("name"), Some("o2artifact"));
}

#[test]
fn comments_and_cdata_in_content() {
    let el = parse_element("<d><!-- note --><![CDATA[a<b&c]]></d>").unwrap();
    assert_eq!(el.children.len(), 2);
    assert_eq!(el.text(), "a<b&c");
    roundtrip(&el);
}

#[test]
fn processing_instruction_in_content() {
    let el = parse_element("<d><?target some data?></d>").unwrap();
    match &el.children[0] {
        Content::ProcessingInstruction { target, data } => {
            assert_eq!(target, "target");
            assert_eq!(data, "some data");
        }
        other => panic!("expected PI, got {other:?}"),
    }
    roundtrip(&el);
}

#[test]
fn crlf_normalization() {
    let el = parse_element("<d>a\r\nb\rc</d>").unwrap();
    assert_eq!(el.children[0].as_text(), Some("a\nb\nc"));
}

#[test]
fn errors_carry_positions() {
    let err = parse_element("<a>\n  <b></c>\n</a>").unwrap_err();
    assert_eq!(err.position.line, 2);
    assert!(err.message.contains("mismatched"), "{err}");

    let err = parse_element("<a>").unwrap_err();
    assert!(err.message.contains("unexpected end"), "{err}");

    let err = parse_element("<a></a><b/>").unwrap_err();
    assert!(err.message.contains("after document root"), "{err}");

    let err = parse_element("<a x=1/>").unwrap_err();
    assert!(err.message.contains("quoted attribute"), "{err}");

    let err = parse_element("<a><!DOCTYPE x></a>").unwrap_err();
    assert!(err.message.contains("DTD"), "{err}");

    // The tokenizer computes positions from its byte offset only when it
    // fails; these are the line:column pairs the character-stepping
    // parser it replaced reported, over multi-line, CRLF and non-ASCII
    // inputs (columns count characters, `\r` included).
    let cases: &[(&str, (u32, u32), &str)] = &[
        ("<a>\n  <b></c>\n</a>", (2, 9), "mismatched"),
        ("<a>\r\n<b>\r\n</a>", (3, 4), "mismatched"),
        (
            "<œuvre>\n  <é x=\"1\" y=2/>\n</œuvre>",
            (2, 14),
            "quoted attribute",
        ),
        ("<a>\n  x &bogus; y\n</a>", (3, 1), "unknown entity"),
        ("<a\n b=\"&zz;\">", (2, 10), "unknown entity"),
        (
            "\r\n<?xml version=\"1.0\"?>\r\n<a>café</a>\r\n<b/>",
            (4, 1),
            "after document root",
        ),
        ("<a>\n\t<!-- never closed", (2, 6), "unterminated comment"),
        ("<a>\n<b>éé</a>", (2, 9), "mismatched"),
        ("<a>\n  <![CDATA[x</a>", (2, 12), "unterminated CDATA"),
        ("<a>\n<b>", (2, 4), "unexpected end of input inside <b>"),
        ("   \n  <1a/>", (2, 4), "expected a name"),
        ("<ü>\r\n\r\n  <!DOCTYPE x>", (3, 3), "DTD"),
        (
            "<a>\u{2003}<b\u{2003}c='1'\u{2003}/>\n<c></a>",
            (2, 7),
            "mismatched",
        ),
        ("  <!-- open\n<a/>", (1, 7), "expected `<`"),
        (
            "<a></a>\n<!-- trailing never closed",
            (2, 5),
            "after document root",
        ),
        ("<a x='1' x='2'>\n<b>\nλ&#xZZ;</b></a>", (3, 8), "bad hex"),
        ("<a>\n  <?pi never", (2, 5), "unterminated processing"),
        ("\u{feff}<a/>", (1, 1), "expected `<`"),
    ];
    for (input, (line, column), message) in cases {
        let err = parse_element(input).unwrap_err();
        assert_eq!(
            (err.position.line, err.position.column),
            (*line, *column),
            "{input:?}: {err}"
        );
        assert!(err.message.contains(message), "{input:?}: {err}");
    }
}

#[test]
fn reader_events_borrow_and_balance() {
    let mut r = Reader::new("<?xml version=\"1.0\"?><a k=\"v&amp;w\"><b/>x&lt;y<![CDATA[z]]></a>");
    assert_eq!(r.next().unwrap(), Event::Start("a"));
    assert_eq!(r.attr("k"), Some("v&w"));
    assert_eq!(r.next().unwrap(), Event::Start("b"));
    assert!(r.attrs().is_empty());
    assert_eq!(r.next().unwrap(), Event::End("b"), "self-closing tags end");
    assert_eq!(r.next().unwrap(), Event::Text("x<y".into()));
    assert_eq!(r.next().unwrap(), Event::CData("z"));
    assert_eq!(r.next().unwrap(), Event::End("a"));
    assert_eq!(r.next().unwrap(), Event::Eof);
    assert_eq!(r.next().unwrap(), Event::Eof, "Eof repeats");

    let mut r = Reader::new("<a><b><c/>t</b><d/></a>");
    assert_eq!(r.next().unwrap(), Event::Start("a"));
    assert_eq!(r.next().unwrap(), Event::Start("b"));
    r.skip_element().unwrap();
    assert_eq!(r.next().unwrap(), Event::Start("d"));
    r.finish().unwrap();
    assert!(Reader::new("<a><b></a>").finish().is_err());
}

#[test]
fn byte_count_measures_what_a_string_receives() {
    let el = parse_element(r#"<n a="say &quot;hi&quot;">Tom &amp; é</n>"#).unwrap();
    let mut count = ByteCount::default();
    crate::writer::write_xml(&el, &mut count);
    assert_eq!(count.0, el.to_xml().len() as u64);
}

#[test]
fn unterminated_constructs() {
    for bad in [
        "<a><!-- x</a>",
        "<a><![CDATA[x</a>",
        "<a b=\"c/>",
        "<a><?pi x</a>",
    ] {
        assert!(parse_element(bad).is_err(), "should reject `{bad}`");
    }
}

#[test]
fn mismatched_tag_reports_both_names() {
    let err = parse_element("<work></artifact>").unwrap_err();
    assert!(err.message.contains("work") && err.message.contains("artifact"));
}

#[test]
fn trim_ws_removes_indentation_nodes() {
    let mut el = parse_element("<a>\n  <b/>\n  <c>keep me</c>\n</a>").unwrap();
    assert_eq!(el.children.len(), 5);
    el.trim_ws();
    assert_eq!(el.children.len(), 2);
    assert_eq!(el.child("c").unwrap().text(), "keep me");
}

#[test]
fn builders_and_accessors() {
    let el = Element::new("operation")
        .with_attr("name", "bind")
        .with_attr("kind", "algebra")
        .with_child(
            Element::new("input").with_child(Element::new("value").with_attr("model", "o2model")),
        )
        .with_child(Element::new("output"));
    assert_eq!(el.attr("kind"), Some("algebra"));
    assert_eq!(el.children_named("input").count(), 1);
    assert_eq!(
        el.child("input")
            .unwrap()
            .child("value")
            .unwrap()
            .attr("model"),
        Some("o2model")
    );
    roundtrip(&el);
}

#[test]
fn set_attr_replaces() {
    let mut el = Element::new("n").with_attr("k", "1");
    el.set_attr("k", "2");
    el.set_attr("j", "3");
    assert_eq!(el.attr("k"), Some("2"));
    assert_eq!(el.attr("j"), Some("3"));
    assert_eq!(el.attributes.len(), 2);
}

#[test]
fn node_count_counts_subtree() {
    let el = parse_element("<a><b>t</b><c/></a>").unwrap();
    // a + b + text + c
    assert_eq!(el.node_count(), 4);
}

#[test]
fn pretty_print_is_reparseable_and_indented() {
    let el =
        parse_element("<works><work><artist>Monet</artist><title>Nympheas</title></work></works>")
            .unwrap();
    let pretty = el.to_pretty_xml();
    assert!(pretty.contains("\n  <work>"), "{pretty}");
    assert!(pretty.contains("\n    <artist>Monet</artist>"), "{pretty}");
    let mut back = parse_element(&pretty).unwrap();
    back.trim_ws();
    assert_eq!(el, back);
}

#[test]
fn unicode_names_and_text() {
    let el = parse_element("<œuvre peintre=\"Cézanne\">Montagne Sainte-Victoire</œuvre>").unwrap();
    assert_eq!(el.name, "œuvre");
    assert_eq!(el.attr("peintre"), Some("Cézanne"));
    roundtrip(&el);
}

#[test]
fn deeply_nested() {
    let mut s = String::new();
    let depth = 200;
    for _ in 0..depth {
        s.push_str("<d>");
    }
    s.push('x');
    for _ in 0..depth {
        s.push_str("</d>");
    }
    let el = parse_element(&s).unwrap();
    assert_eq!(el.node_count(), depth + 1); // depth elements + 1 text node
    roundtrip(&el);
}

/// Seeded randomized tests (deterministic: fixed seeds, fixed case counts).
mod properties {
    use super::*;
    use yat_prng::Rng;

    const CASES: usize = 256;

    fn gen_name(rng: &mut Rng) -> String {
        const FIRST: &[u8] = b"abcXYZ_";
        const REST: &[u8] = b"abcdefXYZ019_.-";
        let mut s = String::new();
        s.push(*rng.choose(FIRST) as char);
        for _ in 0..rng.gen_range(0..9usize) {
            s.push(*rng.choose(REST) as char);
        }
        s
    }

    /// Printable text plus some multibyte characters, without '\r' (the
    /// parser normalizes CR, so raw CR does not round-trip by design —
    /// covered by `crlf_normalization`).
    fn gen_text(rng: &mut Rng) -> String {
        let mut s = String::new();
        for _ in 0..rng.gen_range(1..21usize) {
            match rng.gen_range(0..20u8) {
                0 => s.push('é'),
                1 => s.push('λ'),
                _ => s.push(rng.gen_range(0x20..0x7fu8) as char),
            }
        }
        s
    }

    /// Printable ASCII without '>' (a `]]>` terminator may not appear
    /// inside a CDATA section).
    fn gen_cdata(rng: &mut Rng) -> String {
        (0..rng.gen_range(0..11usize))
            .map(|_| match rng.gen_range(0x20..0x7fu8) as char {
                '>' => '?',
                c => c,
            })
            .collect()
    }

    fn gen_element(rng: &mut Rng, depth: u32) -> Element {
        let mut el = Element::new(gen_name(rng));
        for _ in 0..rng.gen_range(0..3usize) {
            let k = gen_name(rng);
            // duplicate attribute names are invalid XML; dedupe
            if el.attr(&k).is_none() {
                el.attributes.push(Attribute::new(k, gen_text(rng)));
            }
        }
        if depth > 0 {
            for _ in 0..rng.gen_range(0..4usize) {
                let c = match rng.gen_range(0..7u8) {
                    0..=3 => Content::Element(gen_element(rng, depth - 1)),
                    4 | 5 => Content::Text(gen_text(rng)),
                    _ => Content::CData(gen_cdata(rng)),
                };
                // merge adjacent text children: the parser coalesces
                // character data, so adjacency does not round-trip
                match (&c, el.children.last_mut()) {
                    (Content::Text(t), Some(Content::Text(prev))) => prev.push_str(t),
                    _ => el.children.push(c),
                }
            }
        }
        el
    }

    #[test]
    fn print_parse_roundtrip() {
        let mut rng = Rng::seed_from_u64(0xC0FFEE);
        for _ in 0..CASES {
            roundtrip(&gen_element(&mut rng, 3));
        }
    }

    #[test]
    fn pretty_print_parses() {
        let mut rng = Rng::seed_from_u64(0xBEEF);
        for _ in 0..CASES {
            // pretty output must always be valid XML (possibly with extra ws)
            let pretty = gen_element(&mut rng, 3).to_pretty_xml();
            assert!(parse_element(&pretty).is_ok(), "unparseable: {pretty}");
        }
    }

    #[test]
    fn escape_unescape_text() {
        let mut rng = Rng::seed_from_u64(0xE5C);
        for _ in 0..CASES {
            let s: String = (0..rng.gen_range(0..41usize))
                .map(|_| rng.gen_range(0x20..0x7fu8) as char)
                .collect();
            let esc = escape_text(&s).into_owned();
            assert_eq!(unescape(&esc).unwrap().into_owned(), s);
        }
    }

    #[test]
    fn parser_never_panics() {
        const SOUP: &[u8] = b"<>abz&;\"= /![]-";
        let mut rng = Rng::seed_from_u64(0x5011);
        for _ in 0..CASES {
            let s: String = (0..rng.gen_range(0..61usize))
                .map(|_| *rng.choose(SOUP) as char)
                .collect();
            let _ = parse_element(&s);
        }
    }
}

#[test]
fn a_reader_within_open_elements_continues_the_document() {
    // the second half of `<a><b><c/>x</b></a>`, read as the whole
    // document's reader would read it from there
    let rest = "<c/>x</b></a><!--after-->";
    let mut r = Reader::within(rest, &["a", "b"]);
    let mut events = Vec::new();
    loop {
        let e = r.next().unwrap();
        if e == Event::Eof {
            break;
        }
        events.push(e);
    }
    assert_eq!(
        events,
        vec![
            Event::Start("c"),
            Event::End("c"),
            Event::Text("x".into()),
            Event::End("b"),
            Event::End("a"),
        ]
    );
    assert_eq!(r.offset(), rest.len());

    // a closing tag that does not match the open elements is refused,
    // and so is input that ends inside them
    let err = Reader::within("</a>", &["a", "b"]).next().unwrap_err();
    assert!(err.message.contains("expected `</b>`"), "{err}");
    let mut r = Reader::within("<c></c>", &["a"]);
    assert_eq!(r.next().unwrap(), Event::Start("c"));
    assert_eq!(r.next().unwrap(), Event::End("c"));
    let err = r.next().unwrap_err();
    assert!(err.message.contains("inside <a>"), "{err}");
}
