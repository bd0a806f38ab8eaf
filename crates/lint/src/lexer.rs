//! A small hand-rolled Rust lexer that is comment-, string- and
//! raw-string-aware.
//!
//! The linter's rules work on token streams, never on raw text, so a
//! `HashMap` mentioned in a doc comment or inside a string literal can
//! never produce a finding. The lexer does *not* attempt full Rust
//! fidelity — it only has to be sound about three things:
//!
//! 1. what is a comment / string / char literal (so rule patterns never
//!    match inside them),
//! 2. line accounting (findings and suppressions are line-addressed),
//! 3. never panicking on arbitrary input (it runs over every file the
//!    module walker reaches, plus fuzzed inputs in its own tests).
//!
//! Suppression comments (see [`AllowDirective`]) are recognised here,
//! because after lexing the comment text is gone.

/// Token classes the rule engine distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`for`, `HashMap`, `fn`, ...).
    Ident,
    /// A single punctuation character (`.`, `:`, `<`, `{`, ...).
    Punct,
    /// A string literal (`"..."`, `r#"..."#`, `b"..."`); `text` holds the
    /// raw contents without quotes or escape processing.
    Str,
    /// A character or byte literal (`'a'`, `b'\n'`).
    Char,
    /// A numeric literal (integers and floats, any radix).
    Num,
    /// A lifetime or loop label (`'a`, `'outer`); `text` omits the quote.
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    /// 1-based line the token starts on.
    pub line: u32,
    /// Token class.
    pub kind: TokKind,
    /// Token text (see [`TokKind`] for per-kind contents).
    pub text: String,
}

/// A parsed `lint:allow` suppression comment.
///
/// The concrete syntax is a line comment of the form
/// `// lint:allow(CD001, reason = "order-independent sum")` — one or
/// more rule ids followed by a mandatory, non-empty reason string. A
/// directive suppresses matching findings on its own line and on the
/// line directly below it, so it can sit above a statement or trail it.
#[derive(Clone, Debug)]
pub struct AllowDirective {
    /// 1-based line of the comment.
    pub line: u32,
    /// Rule ids listed in the directive (e.g. `["CD001"]`).
    pub rules: Vec<String>,
    /// The reason string, when present and well-formed.
    pub reason: Option<String>,
    /// `None` when the directive parsed cleanly; otherwise a short
    /// description of what is malformed (reported as CD000).
    pub parse_error: Option<String>,
}

/// The result of lexing one file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// All suppression directives found in line comments.
    pub allows: Vec<AllowDirective>,
    /// Total number of source lines (a trailing newline does not start a
    /// new line; the empty file has one line).
    pub lines: u32,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into tokens and suppression directives. Never panics.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed {
        lines: 1,
        ..Lexed::default()
    };
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' | 0x0b | 0x0c => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i + 2;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let text = &src[start.min(src.len())..i];
                // Doc comments (`///`, `//!`) are rendered documentation,
                // not directives — they may *mention* the syntax freely.
                let is_doc = text.starts_with('/') || text.starts_with('!');
                if !is_doc {
                    if let Some(pos) = text.find("lint:allow(") {
                        out.allows.push(parse_allow(&text[pos..], line));
                    }
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Nested block comment; unterminated comments swallow the
                // rest of the file (like rustc, minus the error).
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let tline = line;
                let (content, ni, nl) = scan_string(src, i + 1, line);
                out.tokens.push(Token {
                    line: tline,
                    kind: TokKind::Str,
                    text: content,
                });
                i = ni;
                line = nl;
            }
            b'\'' => {
                let (tok, ni, nl) = scan_quote(src, i, line);
                out.tokens.push(tok);
                i = ni;
                line = nl;
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < b.len() {
                    let d = b[i];
                    if d.is_ascii_alphanumeric() || d == b'_' {
                        i += 1;
                    } else if (d == b'+' || d == b'-')
                        && matches!(b[i - 1], b'e' | b'E')
                        && b[start..i].iter().any(|x| !x.is_ascii_alphanumeric())
                    {
                        // Float exponent sign (`1.5e-3`); the any() guard
                        // keeps hex like 0x1E-2 from consuming the sign.
                        i += 1;
                    } else if d == b'.'
                        && i + 1 < b.len()
                        && b[i + 1].is_ascii_digit()
                        && !b[start..i].contains(&b'.')
                    {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Num,
                    text: src[start..i].to_owned(),
                });
            }
            _ if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                let ident = &src[start..i];
                // String/char literal prefixes: r"", r#""#, b"", br#""#,
                // b'', c"", cr#""#. A raw *identifier* (r#fn) stays an
                // identifier.
                let next = b.get(i).copied();
                match (ident, next) {
                    ("r" | "br" | "rb" | "b" | "c" | "cr", Some(b'"')) => {
                        if ident.contains('r') && ident != "b" {
                            let (content, ni, nl) = scan_raw_string(src, i + 1, line, 0);
                            out.tokens.push(Token {
                                line,
                                kind: TokKind::Str,
                                text: content,
                            });
                            i = ni;
                            line = nl;
                        } else {
                            let (content, ni, nl) = scan_string(src, i + 1, line);
                            out.tokens.push(Token {
                                line,
                                kind: TokKind::Str,
                                text: content,
                            });
                            i = ni;
                            line = nl;
                        }
                    }
                    ("r" | "br" | "rb" | "cr", Some(b'#')) => {
                        // Count the #s; a quote after them means a raw
                        // string, an identifier char means a raw ident.
                        let mut j = i;
                        while j < b.len() && b[j] == b'#' {
                            j += 1;
                        }
                        if j < b.len() && b[j] == b'"' {
                            let hashes = j - i;
                            let (content, ni, nl) = scan_raw_string(src, j + 1, line, hashes);
                            out.tokens.push(Token {
                                line,
                                kind: TokKind::Str,
                                text: content,
                            });
                            i = ni;
                            line = nl;
                        } else if ident == "r" && j == i + 1 && j < b.len() && is_ident_start(b[j])
                        {
                            let start2 = j;
                            let mut k = j;
                            while k < b.len() && is_ident_continue(b[k]) {
                                k += 1;
                            }
                            out.tokens.push(Token {
                                line,
                                kind: TokKind::Ident,
                                text: src[start2..k].to_owned(),
                            });
                            i = k;
                        } else {
                            out.tokens.push(Token {
                                line,
                                kind: TokKind::Ident,
                                text: ident.to_owned(),
                            });
                        }
                    }
                    ("b", Some(b'\'')) => {
                        let (tok, ni, nl) = scan_quote(src, i, line);
                        out.tokens.push(tok);
                        i = ni;
                        line = nl;
                    }
                    _ => out.tokens.push(Token {
                        line,
                        kind: TokKind::Ident,
                        text: ident.to_owned(),
                    }),
                }
            }
            _ => {
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                });
                i += 1;
            }
        }
    }
    out.lines = line;
    out
}

/// Scans a non-raw string body starting *after* the opening quote.
/// Returns (contents, index after closing quote, line after).
fn scan_string(src: &str, mut i: usize, mut line: u32) -> (String, usize, u32) {
    let b = src.as_bytes();
    let start = i;
    while i < b.len() {
        match b[i] {
            b'\\' => i = (i + 2).min(b.len()),
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'"' => {
                return (src[start..i].to_owned(), i + 1, line);
            }
            _ => i += 1,
        }
    }
    (src[start.min(src.len())..].to_owned(), i, line)
}

/// Scans a raw string body starting *after* the opening quote, expecting
/// `hashes` closing `#`s after the closing quote.
fn scan_raw_string(src: &str, mut i: usize, mut line: u32, hashes: usize) -> (String, usize, u32) {
    let b = src.as_bytes();
    let start = i;
    while i < b.len() {
        if b[i] == b'\n' {
            line += 1;
            i += 1;
        } else if b[i] == b'"'
            && b[i + 1..].len() >= hashes
            && b[i + 1..i + 1 + hashes].iter().all(|&h| h == b'#')
        {
            return (src[start..i].to_owned(), i + 1 + hashes, line);
        } else {
            i += 1;
        }
    }
    (src[start.min(src.len())..].to_owned(), i, line)
}

/// Scans at a `'` (or `b'`): yields a char literal, lifetime or label.
/// `i` points at the quote (for `b''`, at the `'`). Returns the token,
/// the index after it and the updated line.
fn scan_quote(src: &str, i: usize, mut line: u32) -> (Token, usize, u32) {
    let b = src.as_bytes();
    let q = i; // index of the opening quote
    debug_assert!(b.get(q) == Some(&b'\''));
    let tline = line;
    if let Some(&n) = b.get(q + 1) {
        if n == b'\\' {
            // Escaped char literal: scan to the closing quote.
            let mut j = q + 2;
            // Skip the escaped character itself (covers \' and \\).
            j = (j + 1).min(b.len());
            while j < b.len() && b[j] != b'\'' {
                if b[j] == b'\n' {
                    line += 1;
                }
                j += 1;
            }
            let end = (j + 1).min(b.len());
            return (
                Token {
                    line: tline,
                    kind: TokKind::Char,
                    text: src[q + 1..j.min(src.len())].to_owned(),
                },
                end,
                line,
            );
        }
        if is_ident_start(n) {
            let mut j = q + 2;
            while j < b.len() && is_ident_continue(b[j]) {
                j += 1;
            }
            if b.get(j) == Some(&b'\'') && j == q + 2 {
                // 'a' — a one-char literal.
                return (
                    Token {
                        line: tline,
                        kind: TokKind::Char,
                        text: src[q + 1..j].to_owned(),
                    },
                    j + 1,
                    line,
                );
            }
            // 'abc or 'a followed by non-quote: lifetime/label.
            return (
                Token {
                    line: tline,
                    kind: TokKind::Lifetime,
                    text: src[q + 1..j].to_owned(),
                },
                j,
                line,
            );
        }
        if n != b'\'' {
            // Something like '1' or '"': single-char literal when closed.
            if b.get(q + 2) == Some(&b'\'') {
                return (
                    Token {
                        line: tline,
                        kind: TokKind::Char,
                        text: src[q + 1..q + 2].to_owned(),
                    },
                    q + 3,
                    if n == b'\n' { line + 1 } else { line },
                );
            }
        }
    }
    // Lone or doubled quote: emit as punctuation and move one byte.
    (
        Token {
            line: tline,
            kind: TokKind::Punct,
            text: "'".to_owned(),
        },
        q + 1,
        line,
    )
}

/// Parses the inside of a `lint:allow(...)` comment. `text` starts at
/// `lint:allow(`.
fn parse_allow(text: &str, line: u32) -> AllowDirective {
    let mut d = AllowDirective {
        line,
        rules: Vec::new(),
        reason: None,
        parse_error: None,
    };
    let inner = &text["lint:allow(".len()..];
    let Some(close) = find_closing_paren(inner) else {
        d.parse_error = Some("unterminated lint:allow directive".to_owned());
        return d;
    };
    let inner = &inner[..close];
    for part in split_top_level_commas(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some(rest) = part.strip_prefix("reason") {
            let rest = rest.trim_start();
            let Some(rest) = rest.strip_prefix('=') else {
                d.parse_error = Some("malformed reason (expected `reason = \"...\"`)".to_owned());
                continue;
            };
            let rest = rest.trim();
            if rest.len() >= 2 && rest.starts_with('"') && rest.ends_with('"') {
                let r = &rest[1..rest.len() - 1];
                if r.trim().is_empty() {
                    d.parse_error = Some("empty reason string".to_owned());
                } else {
                    d.reason = Some(r.to_owned());
                }
            } else {
                d.parse_error = Some("reason must be a quoted string".to_owned());
            }
        } else if is_rule_id(part) {
            d.rules.push(part.to_owned());
        } else {
            d.parse_error = Some(format!("unrecognised item `{part}`"));
        }
    }
    if d.rules.is_empty() && d.parse_error.is_none() {
        d.parse_error = Some("no rule ids listed".to_owned());
    }
    d
}

/// `CD` followed by exactly three ASCII digits.
fn is_rule_id(s: &str) -> bool {
    s.len() == 5 && s.starts_with("CD") && s[2..].bytes().all(|b| b.is_ascii_digit())
}

/// Index of the `)` closing the directive, honouring quoted strings.
fn find_closing_paren(s: &str) -> Option<usize> {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            ')' if !in_str => return Some(i),
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    None
}

/// Splits on commas outside quoted strings.
fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut in_str = false;
    let mut prev_backslash = false;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_identifiers() {
        let src = r##"
// HashMap in a line comment
/* HashMap in /* a nested */ block comment */
let s = "HashMap in a string";
let r = r#"HashMap in a raw string"#;
let b = b"HashMap bytes";
let ok = 1;
"##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_owned()), "{ids:?}");
        assert!(ids.contains(&"ok".to_owned()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { 'outer: loop { break 'outer; } x }";
        let toks = lex(src);
        assert!(toks
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        assert!(toks
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "outer"));
    }

    #[test]
    fn char_literals_including_escapes() {
        let toks = lex(r"let c = 'x'; let n = '\n'; let q = '\''; let u = '\u{1F600}';");
        let chars: Vec<&str> = toks
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars.len(), 4, "{chars:?}");
    }

    #[test]
    fn multiline_string_line_accounting() {
        let src = "let a = \"x\ny\nz\";\nlet b = 1;";
        let toks = lex(src);
        let b = toks.tokens.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 4);
        assert_eq!(toks.lines, 4);
    }

    #[test]
    fn raw_string_with_hashes_and_quotes() {
        let src = "let a = r#\"say \"hi\" now\"#; let tail = 2;";
        let toks = lex(src);
        assert!(toks.tokens.iter().any(|t| t.text == "tail"));
        let s = toks.tokens.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.text, "say \"hi\" now");
    }

    #[test]
    fn raw_identifier_is_an_ident() {
        let ids = idents("let r#fn = 1; r#match");
        assert!(ids.contains(&"fn".to_owned()));
        assert!(ids.contains(&"match".to_owned()));
    }

    #[test]
    fn allow_directive_roundtrip() {
        let src = "// lint:allow(CD001, reason = \"order-independent sum\")\nlet x = 1;";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        let a = &lexed.allows[0];
        assert_eq!(a.rules, vec!["CD001".to_owned()]);
        assert_eq!(a.reason.as_deref(), Some("order-independent sum"));
        assert!(a.parse_error.is_none());
        assert_eq!(a.line, 1);
    }

    #[test]
    fn allow_directive_multi_rule_and_malformed() {
        let l = lex("// lint:allow(CD001, CD003, reason = \"both fine\")");
        assert_eq!(l.allows[0].rules.len(), 2);
        let bad = lex("// lint:allow(CD001)");
        assert!(bad.allows[0].reason.is_none());
        let worse = lex("// lint:allow(CD001, reason = \"\")");
        assert!(worse.allows[0].parse_error.is_some());
        let unterminated = lex("// lint:allow(CD001, reason = \"x\"");
        assert!(unterminated.allows[0].parse_error.is_some());
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let toks = lex("for i in 0..10 { x(1.5e-3); m.0.iter(); }");
        let nums: Vec<&str> = toks
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert!(nums.contains(&"0"));
        assert!(nums.contains(&"10"));
        assert!(nums.contains(&"1.5e-3"));
        assert!(toks.tokens.iter().any(|t| t.text == "iter"));
    }

    #[test]
    fn empty_and_pathological_inputs() {
        assert_eq!(lex("").lines, 1);
        lex("\"unterminated");
        lex("r#\"unterminated");
        lex("/* unterminated");
        lex("'");
        lex("''");
        lex("b'");
        lex("r#");
    }
}
