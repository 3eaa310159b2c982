//! A real token stream for the workspace's own Rust sources.
//!
//! Both analysis passes that read the repo's source — the
//! [`crate::repolint`] pattern rules and the [`crate::effects`]
//! determinism analyzer — used to share a line-oriented
//! comment/string stripper. That stripper had two classes of bug this
//! module fixes for good:
//!
//! * **raw strings** — only `r"…"` and single-hash `r#"…"#` were
//!   recognised; `r##"…"##` (any hash count ≥ 2) and byte-string
//!   variants (`b"…"`, `br#"…"#`) fell through, so a `.unwrap()`
//!   *inside* such a literal counted as code (and, worse, the
//!   unbalanced quote inverted code/string parity for the rest of the
//!   file);
//! * **block comments** — `/*/` was treated as an opener immediately
//!   closed by its own overlapping `*/`, so `/*/ hidden */ code` leaked
//!   "hidden" as code and swallowed "code" depending on what followed.
//!
//! The lexer produces [`Token`]s with line numbers, keeps comments as
//! trivia (so `// effect-allow(...)` directives survive for the effect
//! engine), and renders a line-preserving stripped text for the
//! pattern rules, making the token stream the single source of truth.

/// What a token is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `execute_cell`, `HashMap`).
    Ident,
    /// A lifetime or loop label (`'a`, `'outer`) — distinguished from
    /// char literals so `&'a str` never opens a "string".
    Lifetime,
    /// Any punctuation byte (`{`, `(`, `:`, `!`, …), one per token.
    Punct(char),
    /// A string/char/byte/numeric literal (contents elided).
    Literal,
    /// A comment (`//…` or `/*…*/`), contents preserved — directives
    /// like `effect-allow(...)` live here.
    Comment,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Kind.
    pub kind: TokenKind,
    /// The text: ident/lifetime spelling, comment body (without the
    /// `//` / `/*` framing), or empty for literals.
    pub text: String,
    /// 0-based line the token starts on.
    pub line: usize,
}

impl Token {
    /// Is this an identifier with exactly this spelling?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Is this a given punctuation character?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// Lex Rust source into tokens. Never fails: unterminated literals or
/// comments simply run to end-of-file, which is the resilient choice
/// for a linter (the compiler will report the real error).
pub fn lex(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut line = 0usize;
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        let start_line = line;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => {
                i += 1;
            }
            '/' if b.get(i + 1) == Some(&'/') => {
                // Line comment: up to (not including) the newline.
                let mut j = i + 2;
                while j < b.len() && b[j] != '\n' {
                    j += 1;
                }
                out.push(Token {
                    kind: TokenKind::Comment,
                    text: b[i + 2..j].iter().collect(),
                    line: start_line,
                });
                i = j;
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                // Block comment with proper nesting. Scanning resumes
                // *after* the opener, so the overlapping `/*/` cannot
                // close itself.
                let mut depth = 1u32;
                let mut j = i + 2;
                let text_start = j;
                while j < b.len() && depth > 0 {
                    if b[j] == '/' && b.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 2;
                    } else if b[j] == '*' && b.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        if b[j] == '\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                }
                let text_end = j.saturating_sub(2).max(text_start);
                out.push(Token {
                    kind: TokenKind::Comment,
                    text: b[text_start..text_end].iter().collect(),
                    line: start_line,
                });
                i = j;
            }
            '"' => {
                i = lex_string(&b, i, &mut line);
                out.push(Token { kind: TokenKind::Literal, text: String::new(), line: start_line });
            }
            '\'' => {
                // Char literal vs lifetime/label. A literal closes with
                // a quote within a short window or starts with an
                // escape; otherwise it is a lifetime.
                let is_char = matches!(
                    (b.get(i + 1), b.get(i + 2)),
                    (Some('\\'), _) | (Some(_), Some('\''))
                );
                if is_char {
                    i = lex_char(&b, i, &mut line);
                    out.push(Token {
                        kind: TokenKind::Literal,
                        text: String::new(),
                        line: start_line,
                    });
                } else {
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                        j += 1;
                    }
                    out.push(Token {
                        kind: TokenKind::Lifetime,
                        text: b[i + 1..j].iter().collect(),
                        line: start_line,
                    });
                    i = j;
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                let word: String = b[i..j].iter().collect();
                // Raw/byte string prefixes: r"…", r#"…"#, b"…", br##"…"##.
                // Only when the quote (or hashes then a quote) follows
                // immediately — `var"` is not a prefix because `var`
                // does not match a prefix spelling.
                if matches!(word.as_str(), "r" | "b" | "br" | "rb") {
                    let raw = word.contains('r');
                    let mut k = j;
                    let mut hashes = 0usize;
                    if raw {
                        while b.get(k) == Some(&'#') {
                            hashes += 1;
                            k += 1;
                        }
                    }
                    if b.get(k) == Some(&'"') {
                        i = if raw {
                            lex_raw_string(&b, k, hashes, &mut line)
                        } else {
                            lex_string(&b, k, &mut line)
                        };
                        out.push(Token {
                            kind: TokenKind::Literal,
                            text: String::new(),
                            line: start_line,
                        });
                        continue;
                    }
                    if word.as_str() == "b" && b.get(k) == Some(&'\'') {
                        i = lex_char(&b, k, &mut line);
                        out.push(Token {
                            kind: TokenKind::Literal,
                            text: String::new(),
                            line: start_line,
                        });
                        continue;
                    }
                }
                out.push(Token { kind: TokenKind::Ident, text: word, line: start_line });
                i = j;
            }
            c if c.is_ascii_digit() => {
                // Numeric literal (incl. underscores, suffixes, hex,
                // exponent's `e±`, float dots).
                let mut j = i;
                while j < b.len()
                    && (b[j].is_alphanumeric()
                        || b[j] == '_'
                        || b[j] == '.'
                        || ((b[j] == '+' || b[j] == '-')
                            && matches!(b.get(j.wrapping_sub(1)), Some('e') | Some('E'))))
                {
                    // `1..2` is a range, not a float with two dots.
                    if b[j] == '.' && b.get(j + 1) == Some(&'.') {
                        break;
                    }
                    j += 1;
                }
                out.push(Token { kind: TokenKind::Literal, text: String::new(), line: start_line });
                i = j;
            }
            c => {
                out.push(Token { kind: TokenKind::Punct(c), text: String::new(), line: start_line });
                i += 1;
            }
        }
    }
    out
}

/// Consume a `"…"` string starting at the opening quote; returns the
/// index after the closing quote. Tracks newlines, including the one
/// a `\`-continuation escapes.
fn lex_string(b: &[char], start: usize, line: &mut usize) -> usize {
    let mut j = start + 1;
    while j < b.len() {
        match b[j] {
            '\\' => j = skip_escape(b, j, line),
            '"' => return j + 1,
            c => {
                if c == '\n' {
                    *line += 1;
                }
                j += 1;
            }
        }
    }
    j
}

/// Skip the backslash at `j` and the character it escapes; returns
/// the index after both. An escaped newline still ends a line.
fn skip_escape(b: &[char], j: usize, line: &mut usize) -> usize {
    if b.get(j + 1) == Some(&'\n') {
        *line += 1;
    }
    j + 2
}

/// Consume a raw string whose opening quote is at `start`, closed by
/// `"` followed by `hashes` `#`s. No escapes exist in raw strings.
fn lex_raw_string(b: &[char], start: usize, hashes: usize, line: &mut usize) -> usize {
    let mut j = start + 1;
    while j < b.len() {
        if b[j] == '"' && (0..hashes).all(|h| b.get(j + 1 + h) == Some(&'#')) {
            return j + 1 + hashes;
        }
        if b[j] == '\n' {
            *line += 1;
        }
        j += 1;
    }
    j
}

/// Consume a `'…'` char literal starting at the opening quote.
fn lex_char(b: &[char], start: usize, line: &mut usize) -> usize {
    let mut j = start + 1;
    while j < b.len() {
        match b[j] {
            '\\' => j = skip_escape(b, j, line),
            '\'' => return j + 1,
            c => {
                if c == '\n' {
                    *line += 1;
                }
                j += 1;
            }
        }
    }
    j
}

/// Render a line-preserving "code only" text: comments, string/char
/// literal contents and lifetimes are blanked, identifiers and
/// punctuation keep their spelling and line, and every line of the
/// original file exists in the output. Pattern rules (`.unwrap()`,
/// `#[cfg(test)]` brace balancing, …) match against this.
pub fn stripped_text(src: &str) -> String {
    let total_lines = src.lines().count().max(1);
    let mut lines: Vec<String> = vec![String::new(); total_lines];
    let mut last: Option<(usize, TokenKind)> = None;
    for t in lex(src) {
        let Some(buf) = lines.get_mut(t.line) else { continue };
        match &t.kind {
            TokenKind::Ident => {
                // A space only between two adjacent identifiers (`let x`);
                // `.unwrap()`-style punctuation-joined patterns must stay
                // byte-adjacent for the rules to match.
                if matches!(&last, Some((l, TokenKind::Ident)) if *l == t.line) {
                    buf.push(' ');
                }
                buf.push_str(&t.text);
            }
            TokenKind::Punct(c) => buf.push(*c),
            TokenKind::Literal | TokenKind::Lifetime | TokenKind::Comment => {}
        }
        last = Some((t.line, t.kind));
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn multi_hash_raw_strings_are_literals() {
        // The old stripper only knew r" and r#", so the ##-form leaked
        // its contents (and its quotes flipped string parity).
        let src = r####"let a = r##"x.unwrap() "quoted" y"##; a.commit()"####;
        let ids = idents(src);
        assert!(ids.contains(&"commit".to_string()), "{ids:?}");
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
        assert!(!ids.contains(&"quoted".to_string()), "{ids:?}");
    }

    #[test]
    fn byte_strings_are_literals() {
        let ids = idents(r##"let a = b"x.unwrap()"; let c = br#"y.expect("m")"#; f()"##);
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
        assert!(!ids.contains(&"expect".to_string()), "{ids:?}");
        assert!(ids.contains(&"f".to_string()));
    }

    #[test]
    fn byte_char_literal_is_consumed() {
        let ids = idents(r"let nl = b'\n'; g()");
        assert_eq!(ids, vec!["let", "nl", "g"]);
    }

    #[test]
    fn overlapping_block_comment_opener_does_not_self_close() {
        // `/*/` is an opener whose `*/` must not also close it: the
        // comment runs to the *next* `*/`.
        let ids = idents("/*/ hidden.unwrap() */ code()");
        assert_eq!(ids, vec!["code"]);
    }

    #[test]
    fn nested_block_comments_balance() {
        let ids = idents("/* a /* b */ still_comment */ after()");
        assert_eq!(ids, vec!["after"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x.trim() }");
        assert!(ids.contains(&"trim".to_string()));
        let lifetimes: Vec<_> =
            lex("&'a str").into_iter().filter(|t| t.kind == TokenKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 1);
        assert_eq!(lifetimes[0].text, "a");
    }

    #[test]
    fn comments_keep_their_text_for_directives() {
        let toks = lex("// effect-allow(GlobalState): stat counters\nfn f() {}");
        let comment = &toks[0];
        assert_eq!(comment.kind, TokenKind::Comment);
        assert!(comment.text.contains("effect-allow(GlobalState)"));
        assert_eq!(comment.line, 0);
        assert!(toks.iter().any(|t| t.is_ident("fn") && t.line == 1));
    }

    #[test]
    fn line_numbers_survive_multiline_literals() {
        let src = "let a = \"line\nline\nline\";\nfn g() {}\n";
        let toks = lex(src);
        let g = toks.iter().find(|t| t.is_ident("g")).expect("g");
        assert_eq!(g.line, 3);
    }

    #[test]
    fn line_numbers_survive_backslash_continuations() {
        // `\` at the end of a line continues the string literal: the
        // escaped newline is still a line break in the file.
        let src = "let a = \"one \\\n two \\\n three\";\nlet c = '\\\n';\nfn g() {}\n";
        let toks = lex(src);
        let g = toks.iter().find(|t| t.is_ident("g")).expect("g");
        assert_eq!(g.line, 5);
        let s = stripped_text(src);
        assert_eq!(s.lines().nth(5), Some("fn g(){}"));
    }

    #[test]
    fn stripped_text_preserves_lines_and_code() {
        let src = "let a = \"x.unwrap()\"; // .expect(\n/* panic!( */ let c = 'x'; let s = b.unwrap();\n";
        let s = stripped_text(src);
        assert_eq!(s.lines().count(), 2);
        assert!(!s.contains(".expect("));
        assert!(!s.contains("panic!("));
        assert!(s.contains("b.unwrap()"));
        let s2 = stripped_text("r##\"fake.unwrap()\"##;\nreal.unwrap();\n");
        assert!(!s2.lines().next().expect("line").contains("unwrap"));
        assert!(s2.lines().nth(1).expect("line").contains("real.unwrap()"));
    }

    #[test]
    fn range_after_integer_is_not_a_float() {
        let toks = lex("for i in 0..n { f(i) }");
        assert!(toks.iter().any(|t| t.is_punct('.')));
        assert!(toks.iter().any(|t| t.is_ident("n")));
    }
}
