//! A std-only token-level lexer for Rust source.
//!
//! The lints in this crate reason about *token patterns*, not syntax
//! trees, so the only hard requirement on the lexer is that it never
//! mistakes the inside of a string, char literal, or comment for code.
//! That means handling the full literal zoo correctly: cooked strings
//! with escapes, raw strings with arbitrary `#` fences, byte and raw-byte
//! strings, char literals (including `'"'` and `'\''`), lifetimes vs
//! char literals, nested block comments, and raw identifiers (`r#fn`).
//!
//! Comments are preserved out-of-band (with their line numbers) because
//! the annotation grammar (`// lint:allow(...)`) and the unsafe-audit
//! lint (`// SAFETY:`) live in comments.

/// One lexed token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (raw identifiers are stored without `r#`).
    Ident(String),
    /// A lifetime or loop label (without the leading `'`).
    Lifetime(String),
    /// Any string literal: cooked, raw, byte, raw-byte. The payload is the
    /// literal's *content* (escapes left as written, fences stripped).
    Str(String),
    /// A char or byte literal (content not needed by any lint).
    Char,
    /// A numeric literal.
    Num(String),
    /// A single punctuation character.
    Punct(char),
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token kind/payload.
    pub tok: Tok,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

/// A comment with its 1-based starting line. `text` excludes the comment
/// markers (`//`, `/*`, `*/`) but keeps interior newlines for block
/// comments.
#[derive(Debug, Clone, PartialEq)]
pub struct Comment {
    /// 1-based line of the comment's first character.
    pub line: u32,
    /// Comment body without delimiters.
    pub text: String,
}

/// Lexer output: the token stream plus all comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

struct Cursor<'a> {
    src: &'a [u8],
    text: &'a str,
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.text[self.pos..].chars().nth(ahead)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.text[self.pos..].chars().next()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }
}

/// Lexes `text` into tokens + comments. Unterminated literals and
/// comments do not abort the lex: the rest of the file is swallowed into
/// the open literal, which is the safe direction for a linter (never
/// misreads literal content as code).
pub fn lex(text: &str) -> Lexed {
    let mut cur = Cursor { src: text.as_bytes(), text, pos: 0, line: 1 };
    let mut out = Lexed::default();

    while let Some(c) = cur.peek(0) {
        let line = cur.line;
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        if cur.starts_with("//") {
            lex_line_comment(&mut cur, &mut out, line);
            continue;
        }
        if cur.starts_with("/*") {
            lex_block_comment(&mut cur, &mut out, line);
            continue;
        }
        if c == '"' {
            cur.bump();
            let s = lex_cooked_string(&mut cur);
            out.tokens.push(Token { tok: Tok::Str(s), line });
            continue;
        }
        if c == '\'' {
            lex_quote(&mut cur, &mut out, line);
            continue;
        }
        // b"...", b'...', br"...", br#"..."#
        if c == 'b' {
            match cur.peek(1) {
                Some('"') => {
                    cur.bump();
                    cur.bump();
                    let s = lex_cooked_string(&mut cur);
                    out.tokens.push(Token { tok: Tok::Str(s), line });
                    continue;
                }
                Some('\'') => {
                    cur.bump();
                    cur.bump();
                    lex_char_tail(&mut cur);
                    out.tokens.push(Token { tok: Tok::Char, line });
                    continue;
                }
                Some('r') if matches!(cur.peek(2), Some('"') | Some('#')) => {
                    cur.bump();
                    cur.bump();
                    if let Some(s) = lex_raw_string(&mut cur) {
                        out.tokens.push(Token { tok: Tok::Str(s), line });
                        continue;
                    }
                    // Not actually a raw string (e.g. `br#ident` — not
                    // valid Rust, but stay graceful): fall through as ident.
                    let ident = lex_ident(&mut cur, String::from("br"));
                    out.tokens.push(Token { tok: Tok::Ident(ident), line });
                    continue;
                }
                _ => {}
            }
        }
        // r"...", r#"..."#, or a raw identifier r#ident.
        if c == 'r' && matches!(cur.peek(1), Some('"') | Some('#')) {
            let mark = (cur.pos, cur.line);
            cur.bump();
            if let Some(s) = lex_raw_string(&mut cur) {
                out.tokens.push(Token { tok: Tok::Str(s), line });
                continue;
            }
            // r#ident — a raw identifier. lex_raw_string restored nothing,
            // so rewind and consume `r#` + ident.
            cur.pos = mark.0;
            cur.line = mark.1;
            cur.bump(); // r
            cur.bump(); // #
            let ident = lex_ident(&mut cur, String::new());
            out.tokens.push(Token { tok: Tok::Ident(ident), line });
            continue;
        }
        if is_ident_start(c) {
            let ident = lex_ident(&mut cur, String::new());
            out.tokens.push(Token { tok: Tok::Ident(ident), line });
            continue;
        }
        if c.is_ascii_digit() {
            let num = lex_number(&mut cur);
            out.tokens.push(Token { tok: Tok::Num(num), line });
            continue;
        }
        cur.bump();
        out.tokens.push(Token { tok: Tok::Punct(c), line });
    }
    out
}

fn lex_line_comment(cur: &mut Cursor, out: &mut Lexed, line: u32) {
    cur.bump();
    cur.bump();
    let start = cur.pos;
    while let Some(c) = cur.peek(0) {
        if c == '\n' {
            break;
        }
        cur.bump();
    }
    out.comments.push(Comment { line, text: cur.text[start..cur.pos].to_string() });
}

fn lex_block_comment(cur: &mut Cursor, out: &mut Lexed, line: u32) {
    cur.bump();
    cur.bump();
    let start = cur.pos;
    let mut depth = 1u32;
    let mut end = cur.pos;
    while depth > 0 {
        if cur.starts_with("/*") {
            depth += 1;
            cur.bump();
            cur.bump();
        } else if cur.starts_with("*/") {
            depth -= 1;
            end = cur.pos;
            cur.bump();
            cur.bump();
        } else if cur.bump().is_none() {
            end = cur.pos;
            break;
        }
    }
    out.comments.push(Comment { line, text: cur.text[start..end].to_string() });
}

/// Content of a cooked string; the opening `"` is already consumed.
fn lex_cooked_string(cur: &mut Cursor) -> String {
    let start = cur.pos;
    let end;
    loop {
        match cur.bump() {
            None => {
                end = cur.pos;
                break;
            }
            Some('\\') => {
                cur.bump(); // the escaped character, whatever it is
            }
            Some('"') => {
                end = cur.pos - 1;
                break;
            }
            Some(_) => {}
        }
    }
    cur.text[start..end].to_string()
}

/// Raw string starting at the current position (after `r`/`br`): zero or
/// more `#`, then `"`. Returns `None` without consuming anything when the
/// fence is not actually a raw string (i.e. a raw identifier).
fn lex_raw_string(cur: &mut Cursor) -> Option<String> {
    let mut hashes = 0usize;
    while cur.peek(hashes) == Some('#') {
        hashes += 1;
    }
    if cur.peek(hashes) != Some('"') {
        return None;
    }
    for _ in 0..=hashes {
        cur.bump();
    }
    let start = cur.pos;
    let fence: String = std::iter::once('"').chain(std::iter::repeat_n('#', hashes)).collect();
    loop {
        if cur.starts_with(&fence) {
            let end = cur.pos;
            for _ in 0..fence.len() {
                cur.bump();
            }
            return Some(cur.text[start..end].to_string());
        }
        if cur.bump().is_none() {
            return Some(cur.text[start..].to_string());
        }
    }
}

/// After a `'`: a char literal or a lifetime/label.
fn lex_quote(cur: &mut Cursor, out: &mut Lexed, line: u32) {
    cur.bump(); // the opening '
    match cur.peek(0) {
        Some('\\') => {
            lex_char_tail(cur);
            out.tokens.push(Token { tok: Tok::Char, line });
        }
        Some(c) if is_ident_start(c) => {
            // `'a'` is a char literal; `'a` followed by anything but a
            // closing quote is a lifetime or label. A single-char lookahead
            // past the identifier character decides.
            let after = cur.peek(1);
            if after == Some('\'') {
                cur.bump();
                cur.bump();
                out.tokens.push(Token { tok: Tok::Char, line });
            } else {
                let name = lex_ident(cur, String::new());
                out.tokens.push(Token { tok: Tok::Lifetime(name), line });
            }
        }
        Some(_) => {
            // Punctuation char literal like '"' or '['.
            lex_char_tail(cur);
            out.tokens.push(Token { tok: Tok::Char, line });
        }
        None => {
            out.tokens.push(Token { tok: Tok::Punct('\''), line });
        }
    }
}

/// Consumes the rest of a char literal up to and including the closing `'`.
fn lex_char_tail(cur: &mut Cursor) {
    loop {
        match cur.bump() {
            None | Some('\'') => break,
            Some('\\') => {
                cur.bump();
            }
            Some(_) => {}
        }
    }
}

fn lex_ident(cur: &mut Cursor, mut prefix: String) -> String {
    while let Some(c) = cur.peek(0) {
        if is_ident_continue(c) {
            prefix.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    prefix
}

fn lex_number(cur: &mut Cursor) -> String {
    let start = cur.pos;
    // Integer/float body: digits, underscores, radix letters, exponents.
    while let Some(c) = cur.peek(0) {
        if c.is_ascii_alphanumeric() || c == '_' {
            cur.bump();
        } else if c == '.' {
            // Consume the dot only for a fractional part (`1.5`), not a
            // range (`1..n`) or method call (`1.max(2)`).
            match cur.peek(1) {
                Some(d) if d.is_ascii_digit() => {
                    cur.bump();
                }
                _ => break,
            }
        } else if (c == '+' || c == '-')
            && matches!(cur.text[start..cur.pos].chars().last(), Some('e') | Some('E'))
        {
            cur.bump(); // exponent sign: 1e-9
        } else {
            break;
        }
    }
    cur.text[start..cur.pos].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(lexed: &Lexed) -> Vec<&str> {
        lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect()
    }

    fn strings(lexed: &Lexed) -> Vec<&str> {
        lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn code_inside_strings_is_not_tokenized() {
        let l = lex(r#"let s = "x.unwrap() // not a comment"; s.len();"#);
        assert_eq!(idents(&l), vec!["let", "s", "s", "len"]);
        assert_eq!(strings(&l), vec!["x.unwrap() // not a comment"]);
        assert!(l.comments.is_empty());
    }

    #[test]
    fn raw_strings_with_fences() {
        let l = lex(r###"let a = r#"quote " and hash # inside"#; let b = r"plain";"###);
        assert_eq!(strings(&l), vec!["quote \" and hash # inside", "plain"]);
        assert_eq!(idents(&l), vec!["let", "a", "let", "b"]);
    }

    #[test]
    fn raw_string_with_multiple_hashes_containing_inner_fence() {
        let l = lex("let x = r##\"has \"# inside\"##;");
        assert_eq!(strings(&l), vec!["has \"# inside"]);
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let l = lex(r##"let a = b"bytes"; let b = br#"raw " bytes"#; let c = b'x';"##);
        assert_eq!(strings(&l), vec!["bytes", "raw \" bytes"]);
        assert_eq!(l.tokens.iter().filter(|t| t.tok == Tok::Char).count(), 1);
    }

    #[test]
    fn char_literal_containing_a_double_quote() {
        // The `'"'` must not open a string: everything after it still lexes.
        let l = lex(r#"if c == '"' { x.unwrap(); }"#);
        assert_eq!(idents(&l), vec!["if", "c", "x", "unwrap"]);
        assert!(strings(&l).is_empty());
    }

    #[test]
    fn escaped_quote_char_literal_and_escapes() {
        let l = lex(r"let a = '\''; let b = '\\'; let c = '\u{1F600}'; let d = '\n';");
        assert_eq!(l.tokens.iter().filter(|t| t.tok == Tok::Char).count(), 4);
        assert_eq!(idents(&l), vec!["let", "a", "let", "b", "let", "c", "let", "d"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str, y: &'static u8) {} 'outer: loop {}");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Lifetime(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(lifetimes, vec!["a", "a", "static", "outer"]);
        assert!(!l.tokens.iter().any(|t| t.tok == Tok::Char));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("a /* outer /* inner */ still comment */ b");
        assert_eq!(idents(&l), vec!["a", "b"]);
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("inner"));
    }

    #[test]
    fn line_comments_capture_text_and_lines() {
        let l = lex("x\n// SAFETY: fine\ny // trailing\n");
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].line, 2);
        assert_eq!(l.comments[0].text, " SAFETY: fine");
        assert_eq!(l.comments[1].line, 3);
        assert_eq!(l.comments[1].text, " trailing");
    }

    #[test]
    fn line_numbers_track_through_multiline_literals() {
        let src = "let a = \"one\ntwo\nthree\";\nlet b = 1;";
        let l = lex(src);
        let b = l
            .tokens
            .iter()
            .find(|t| matches!(&t.tok, Tok::Ident(s) if s == "b"))
            .expect("token b");
        assert_eq!(b.line, 4);
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let l = lex("let r#fn = 1; r#match.call();");
        assert_eq!(idents(&l), vec!["let", "fn", "match", "call"]);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let l = lex("for i in 0..10 { let x = 1.5e-3; let y = 2.max(3); }");
        let nums: Vec<_> = l
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Num(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5e-3", "2", "3"]);
        assert!(idents(&l).contains(&"max"));
    }

    #[test]
    fn unterminated_string_swallows_tail_gracefully() {
        let l = lex("let a = \"never closed... unwrap()");
        assert_eq!(idents(&l), vec!["let", "a"]);
        assert_eq!(strings(&l), vec!["never closed... unwrap()"]);
    }

    #[test]
    fn hash_attribute_tokens_survive() {
        let l = lex("#[cfg(test)]\nmod tests {}");
        assert_eq!(l.tokens[0].tok, Tok::Punct('#'));
        assert_eq!(l.tokens[1].tok, Tok::Punct('['));
        assert!(idents(&l).contains(&"cfg"));
        assert!(idents(&l).contains(&"test"));
    }
}
