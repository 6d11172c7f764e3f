//! The XML layer under the GPX reader: the error type its tokenizer
//! reports and the entity codec.
//!
//! The tokenizer, [`crate::stream::StreamReader`], supports the subset
//! of XML that GPX documents use: the XML declaration, comments,
//! elements with attributes, self-closing tags, character data, and the
//! five predefined entities plus character references. It does **not**
//! support DTDs, CDATA sections, processing instructions beyond the
//! declaration, or namespaces beyond treating prefixed names opaquely —
//! none of which occur in fitness-tracker GPX exports.
//!
//! Its events carry attribute values and text raw: [`check_entities`]
//! validates their references during the scan, [`decode_entities`]
//! materializes a value when a caller reads it (copy-free when there
//! is nothing to decode), and [`encode_entities`] escapes text for the
//! writer.

use crate::stream::find_byte;
use std::borrow::Cow;

/// Errors from the XML tokenizer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum XmlError {
    /// Document ended in the middle of a construct.
    UnexpectedEof {
        /// What the parser was in the middle of.
        context: &'static str,
    },
    /// A malformed construct at the given byte offset.
    Malformed {
        /// Byte offset in the source.
        offset: usize,
        /// What was wrong.
        reason: &'static str,
    },
    /// An unknown `&entity;` reference.
    UnknownEntity {
        /// The entity name (without `&`/`;`).
        entity: String,
    },
    /// A closing tag did not match the open element.
    MismatchedTag {
        /// Name that was open.
        expected: String,
        /// Name that was found.
        found: String,
    },
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XmlError::UnexpectedEof { context } => write!(f, "unexpected eof in {context}"),
            XmlError::Malformed { offset, reason } => {
                write!(f, "{reason} at byte {offset}")
            }
            XmlError::UnknownEntity { entity } => write!(f, "unknown entity &{entity};"),
            XmlError::MismatchedTag { expected, found } => {
                write!(f, "mismatched tag: expected </{expected}>, found </{found}>")
            }
        }
    }
}

impl std::error::Error for XmlError {}

/// Resolves one entity body (the text between `&` and `;`) to its
/// character, or `None` when the reference is unknown/invalid.
fn resolve_entity(entity: &str) -> Option<char> {
    match entity {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ if entity.starts_with("#x") || entity.starts_with("#X") => {
            u32::from_str_radix(&entity[2..], 16).ok().and_then(char::from_u32)
        }
        _ if entity.starts_with('#') => entity[1..].parse::<u32>().ok().and_then(char::from_u32),
        _ => None,
    }
}

/// Validates every `&entity;` reference in `s` without building the
/// decoded text — the streaming reader's scan-time half of
/// [`decode_entities`], producing the identical errors.
///
/// # Errors
///
/// [`XmlError::UnknownEntity`] exactly when [`decode_entities`] would
/// fail on the same input.
pub fn check_entities(s: &str) -> Result<(), XmlError> {
    let mut rest = s;
    while let Some(i) = find_byte(rest.as_bytes(), b'&') {
        rest = &rest[i + 1..];
        let Some(j) = rest.find(';') else {
            return Err(XmlError::UnknownEntity { entity: rest.chars().take(8).collect() });
        };
        let entity = &rest[..j];
        if resolve_entity(entity).is_none() {
            return Err(XmlError::UnknownEntity { entity: entity.to_owned() });
        }
        rest = &rest[j + 1..];
    }
    Ok(())
}

/// Decodes the five predefined entities plus decimal/hex character
/// refs. Returns the input borrowed (no allocation) when it contains no
/// `&` at all.
///
/// # Errors
///
/// [`XmlError::UnknownEntity`] for unresolvable references.
pub fn decode_entities(s: &str) -> Result<Cow<'_, str>, XmlError> {
    if find_byte(s.as_bytes(), b'&').is_none() {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = find_byte(rest.as_bytes(), b'&') {
        out.push_str(&rest[..i]);
        rest = &rest[i + 1..];
        let Some(j) = rest.find(';') else {
            return Err(XmlError::UnknownEntity { entity: rest.chars().take(8).collect() });
        };
        let entity = &rest[..j];
        match resolve_entity(entity) {
            Some(c) => out.push(c),
            None => return Err(XmlError::UnknownEntity { entity: entity.to_owned() }),
        }
        rest = &rest[j + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

/// Encodes text content for embedding in XML. Returns the input
/// borrowed (no allocation) when nothing needs escaping.
pub fn encode_entities(s: &str) -> Cow<'_, str> {
    if !s.bytes().any(|b| matches!(b, b'&' | b'<' | b'>' | b'"' | b'\'')) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{StreamEvent, StreamReader};

    /// The reader's events, one line each, values raw as it yields them.
    fn events(src: &str) -> Result<Vec<String>, XmlError> {
        let mut r = StreamReader::new(src);
        let mut out = Vec::new();
        while let Some(e) = r.next_event()? {
            out.push(match e {
                StreamEvent::Start { name, attrs } => format!("<{name} {attrs:?}>"),
                StreamEvent::End { name } => format!("</{name}>"),
                StreamEvent::Text(t) => format!("#{t}"),
            });
        }
        Ok(out)
    }

    #[test]
    fn parses_simple_document() {
        let ev = events(r#"<?xml version="1.0"?><a x="1"><b/>text</a>"#).unwrap();
        assert_eq!(ev, [r#"<a [("x", "1")]>"#, "<b []>", "</b>", "#text", "</a>"]);
    }

    #[test]
    fn skips_comments_and_doctype() {
        let ev = events("<!DOCTYPE gpx><!-- hi --><a></a>").unwrap();
        assert_eq!(ev, ["<a []>", "</a>"]);
    }

    #[test]
    fn decodes_entities_in_text_and_attrs() {
        let mut r = StreamReader::new(r#"<a t="&lt;&amp;&gt;">x &#65;&#x42; y</a>"#);
        let Some(StreamEvent::Start { attrs, .. }) = r.next_event().unwrap() else {
            panic!("expected the start tag");
        };
        let raw = attrs[0].1;
        assert_eq!(raw, "&lt;&amp;&gt;");
        assert_eq!(decode_entities(raw).unwrap(), "<&>");
        let Some(StreamEvent::Text(raw)) = r.next_event().unwrap() else {
            panic!("expected the text run");
        };
        assert_eq!(raw, "x &#65;&#x42; y");
        assert_eq!(decode_entities(raw).unwrap(), "x AB y");
    }

    #[test]
    fn rejects_mismatched_tags() {
        assert!(matches!(events("<a><b></a></b>"), Err(XmlError::MismatchedTag { .. })));
    }

    #[test]
    fn rejects_truncated_document() {
        let eof = |context| Err(XmlError::UnexpectedEof { context });
        assert_eq!(events("<a><b>"), eof("unclosed element"));
        assert_eq!(events("<a"), eof("start tag"));
        assert_eq!(events("<a x="), eof("attribute value"));
        assert_eq!(events("<a x='1"), eof("attribute value"));
    }

    #[test]
    fn rejects_unknown_entity() {
        assert!(matches!(events("<a>&nope;</a>"), Err(XmlError::UnknownEntity { .. })));
    }

    #[test]
    fn rejects_stray_close() {
        assert!(events("</a>").is_err());
    }

    #[test]
    fn entity_roundtrip() {
        let original = r#"5 < 6 & "quotes" 'apos' > 4"#;
        assert_eq!(decode_entities(&encode_entities(original)).unwrap(), original);
    }

    #[test]
    fn attributes_allow_single_quotes() {
        let ev = events("<a x='1 2'/>").unwrap();
        assert_eq!(ev[0], r#"<a [("x", "1 2")]>"#);
    }

    #[test]
    fn codec_borrows_when_nothing_to_do() {
        assert!(matches!(decode_entities("plain text").unwrap(), Cow::Borrowed(_)));
        assert!(matches!(encode_entities("plain text"), Cow::Borrowed(_)));
        assert!(matches!(decode_entities("a &amp; b").unwrap(), Cow::Owned(_)));
        assert!(matches!(encode_entities("a & b"), Cow::Owned(_)));
    }

    #[test]
    fn check_matches_decode() {
        for s in ["plain", "a &amp; b", "&bogus;", "&unterminated", "&#65;", "&#x4G;", "&#xffffffff;"] {
            assert_eq!(check_entities(s).err(), decode_entities(s).err(), "on {s:?}");
        }
    }
}
