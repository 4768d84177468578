//! Entity escaping and unescaping for the five predefined XML entities and
//! numeric character references.

use crate::writer::Out;
use std::borrow::Cow;

/// Escapes character data for element content: `&`, `<`, `>`.
///
/// Returns a borrowed string when no escaping is needed — the common case for
/// the paper's workloads (titles, artist names) — so bulk serialization does
/// not allocate per text node.
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape_with(s, false)
}

/// Escapes an attribute value for double-quoted output: also `"`.
pub fn escape_attr(s: &str) -> Cow<'_, str> {
    escape_with(s, true)
}

fn escape_with(s: &str, attr: bool) -> Cow<'_, str> {
    if !s.bytes().any(|b| entity(b, attr).is_some()) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    push_escaped(&mut out, s, attr);
    Cow::Owned(out)
}

/// The entity replacing byte `b`, if it needs one.
fn entity(b: u8, attr: bool) -> Option<&'static str> {
    match b {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'"' if attr => Some("&quot;"),
        _ => None,
    }
}

/// Appends `s` escaped, copying the runs between special characters
/// whole.
pub(crate) fn push_escaped(out: &mut impl Out, s: &str, attr: bool) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if let Some(entity) = entity(b, attr) {
            out.push_str(&s[clean..i]);
            out.push_str(entity);
            clean = i + 1;
        }
    }
    out.push_str(&s[clean..]);
}

/// Expands entity and character references in `s`.
///
/// Recognizes `&amp;` `&lt;` `&gt;` `&quot;` `&apos;` and `&#NN;` /
/// `&#xHH;`. Unknown or malformed references are an error: the wrapper
/// protocol never produces them, so encountering one indicates a corrupt
/// message.
pub fn unescape(s: &str) -> Result<Cow<'_, str>, String> {
    if !s.contains('&') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        let semi = rest
            .find(';')
            .ok_or_else(|| format!("unterminated entity reference near {:.20}", rest))?;
        let ent = &rest[1..semi];
        match ent {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                let code = u32::from_str_radix(&ent[2..], 16)
                    .map_err(|_| format!("bad hex character reference &{};", ent))?;
                out.push(
                    char::from_u32(code).ok_or_else(|| format!("invalid code point &{};", ent))?,
                );
            }
            _ if ent.starts_with('#') => {
                let code: u32 = ent[1..]
                    .parse()
                    .map_err(|_| format!("bad decimal character reference &{};", ent))?;
                out.push(
                    char::from_u32(code).ok_or_else(|| format!("invalid code point &{};", ent))?,
                );
            }
            _ => return Err(format!("unknown entity &{};", ent)),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_no_alloc_when_clean() {
        assert!(matches!(escape_text("Claude Monet"), Cow::Borrowed(_)));
    }

    #[test]
    fn escapes_specials() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
        assert_eq!(escape_attr(r#"say "hi""#), "say &quot;hi&quot;");
    }

    #[test]
    fn unescape_round_trip() {
        let raw = r#"21 x 61 < "29" & more"#;
        let esc = escape_attr(raw).into_owned();
        assert_eq!(unescape(&esc).unwrap(), raw);
    }

    #[test]
    fn numeric_references() {
        assert_eq!(unescape("caf&#233;").unwrap(), "café");
        assert_eq!(unescape("caf&#xE9;").unwrap(), "café");
    }

    #[test]
    fn bad_entities_rejected() {
        assert!(unescape("&bogus;").is_err());
        assert!(unescape("&amp").is_err());
        assert!(unescape("&#xZZ;").is_err());
        assert!(unescape("&#1114112;").is_err()); // > U+10FFFF
    }
}
