//! A comment-, string- and raw-string-aware Rust token scanner.
//!
//! This is deliberately **not** a full Rust lexer: the rules in
//! [`crate::rules`] only need identifier words, numeric literals and
//! single-character punctuation, reported with accurate line numbers, and
//! they need those
//! tokens to *exclude* everything that is not code — line comments, nested
//! block comments, string literals (including escapes), raw strings with any
//! number of `#` guards, byte strings, character literals and lifetimes.
//! Getting the exclusions right is the whole point: a rule that fires on
//! `// the old code called thread_rng()` or on a fixture embedded in a
//! `r#"..."#` literal would make the lint unusable, so the scanner's
//! treatment of those regions is covered by fixtures and a proptest
//! (`crates/lint/tests/proptests.rs`).
//!
//! Comments are not discarded: they are collected separately (with their
//! text and whether they are `//!`/`/*!` module docs) because two rules
//! read them — `CIJ-U201` looks for `// SAFETY:` comments above `unsafe`
//! tokens, and `CIJ-A401` looks for a relaxed-consistency contract in
//! module docs.

/// One code token: an identifier/keyword word, a numeric literal or a
/// single punctuation character. Strings, comments and lifetimes produce no
/// tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword word (`unsafe`, `HashMap`, `read`, …).
    Ident(String),
    /// A numeric literal, verbatim (`0..n` is two literals around puncts).
    Number(String),
    /// A single punctuation character (`:`, `(`, `{`, `#`, …).
    Punct(char),
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokKind,
    /// 1-based line number of the token's first character.
    pub line: usize,
}

/// One comment, kept out of the token stream but available to rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// The raw comment text including its delimiters.
    pub text: String,
    /// True for `//!` and `/*! … */` module-level doc comments.
    pub module_doc: bool,
}

/// The scan of one source file: code tokens, comments, a parallel
/// in-test-region flag per token, and the raw lines (for the
/// comment-above-`unsafe` check).
#[derive(Debug, Clone, Default)]
pub struct FileScan {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
    /// `in_test[i]` is true when `tokens[i]` sits inside a `#[cfg(test)]`
    /// item or a `#[test]` function body.
    pub in_test: Vec<bool>,
    /// The file's lines, verbatim (index 0 is line 1).
    pub lines: Vec<String>,
}

impl FileScan {
    /// The identifier word of token `i`, if it is one.
    pub fn ident(&self, i: usize) -> Option<&str> {
        match &self.tokens.get(i)?.kind {
            TokKind::Ident(w) => Some(w),
            TokKind::Number(_) | TokKind::Punct(_) => None,
        }
    }

    /// The text of token `i`, if it is a numeric literal.
    pub fn number(&self, i: usize) -> Option<&str> {
        match &self.tokens.get(i)?.kind {
            TokKind::Number(n) => Some(n),
            _ => None,
        }
    }

    /// True when token `i` is the punctuation character `ch`.
    pub fn punct(&self, i: usize, ch: char) -> bool {
        matches!(self.tokens.get(i), Some(t) if t.kind == TokKind::Punct(ch))
    }

    /// True when tokens at `i` spell the path segment `a::b`.
    pub fn path2(&self, i: usize, a: &str, b: &str) -> bool {
        self.ident(i) == Some(a)
            && self.punct(i + 1, ':')
            && self.punct(i + 2, ':')
            && self.ident(i + 3) == Some(b)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scans `source`, producing tokens, comments and test-region marks.
pub fn scan(source: &str) -> FileScan {
    let chars: Vec<char> = source.chars().collect();
    let mut lx = Lexer {
        chars: &chars,
        i: 0,
        line: 1,
        out: FileScan {
            lines: source.lines().map(str::to_string).collect(),
            ..FileScan::default()
        },
    };
    lx.run();
    let mut scan = lx.out;
    scan.in_test = mark_test_regions(&scan.tokens);
    scan
}

struct Lexer<'a> {
    chars: &'a [char],
    i: usize,
    line: usize,
    out: FileScan,
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    /// Consumes one character, counting newlines.
    fn bump(&mut self) {
        if self.peek(0) == Some('\n') {
            self.line += 1;
        }
        self.i += 1;
    }

    fn run(&mut self) {
        while let Some(c) = self.peek(0) {
            match c {
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(),
                '\'' => self.char_or_lifetime(),
                c if is_ident_start(c) => self.ident_or_prefixed_literal(),
                c if c.is_ascii_digit() => self.number(),
                c if c.is_whitespace() => self.bump(),
                c => {
                    self.out.tokens.push(Token {
                        kind: TokKind::Punct(c),
                        line: self.line,
                    });
                    self.bump();
                }
            }
        }
    }

    fn line_comment(&mut self) {
        let start_line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        let module_doc = text.starts_with("//!");
        self.out.comments.push(Comment {
            line: start_line,
            text,
            module_doc,
        });
    }

    fn block_comment(&mut self) {
        let start_line = self.line;
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push('/');
                self.bump();
                text.push('*');
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push('*');
                self.bump();
                text.push('/');
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        let module_doc = text.starts_with("/*!");
        self.out.comments.push(Comment {
            line: start_line,
            text,
            module_doc,
        });
    }

    /// A `"…"` literal with escapes; emits nothing.
    fn string_literal(&mut self) {
        self.bump(); // opening quote
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    self.bump();
                    self.bump(); // the escaped character (covers \" and \\)
                }
                '"' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// A `r#"…"#`-style literal (any number of `#` guards, including zero);
    /// the caller has already consumed the `r`/`br` prefix. Emits nothing.
    fn raw_string_literal(&mut self) {
        let mut guards = 0usize;
        while self.peek(0) == Some('#') {
            guards += 1;
            self.bump();
        }
        debug_assert_eq!(self.peek(0), Some('"'));
        self.bump(); // opening quote
        while let Some(c) = self.peek(0) {
            if c == '"' && (0..guards).all(|k| self.peek(1 + k) == Some('#')) {
                self.bump(); // closing quote
                for _ in 0..guards {
                    self.bump();
                }
                return;
            }
            self.bump();
        }
    }

    /// Distinguishes `'a` (lifetime — emits nothing), `'x'` / `'\n'` (char
    /// literal — emits nothing).
    fn char_or_lifetime(&mut self) {
        let next = self.peek(1);
        let lifetime = matches!(next, Some(c) if is_ident_start(c)) && self.peek(2) != Some('\'');
        self.bump(); // the quote
        if lifetime {
            while matches!(self.peek(0), Some(c) if is_ident_continue(c)) {
                self.bump();
            }
            return;
        }
        // Char literal: consume to the closing quote, honouring escapes
        // (\', \\, \u{…} — the escape consumes the next char, the rest is
        // ordinary content).
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    self.bump();
                    self.bump();
                }
                '\'' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// An identifier word — or, for `r` / `b` / `br` prefixes, the literal
    /// they introduce (raw string, byte string, byte char, raw identifier).
    fn ident_or_prefixed_literal(&mut self) {
        let start_line = self.line;
        let mut word = String::new();
        while matches!(self.peek(0), Some(c) if is_ident_continue(c)) {
            word.push(self.peek(0).expect("peeked"));
            self.bump();
        }
        match (word.as_str(), self.peek(0)) {
            ("r" | "br", Some('"')) => return self.raw_string_literal(),
            ("r" | "br", Some('#')) => {
                // Either a raw string guard (`r#"…"#`) or a raw identifier
                // (`r#type`). Look past the run of `#`s: a quote means a raw
                // string.
                let mut k = 0;
                while self.peek(k) == Some('#') {
                    k += 1;
                }
                if self.peek(k) == Some('"') {
                    return self.raw_string_literal();
                }
                if word == "r" && k == 1 && matches!(self.peek(1), Some(c) if is_ident_start(c)) {
                    // Raw identifier: emit the bare word.
                    self.bump(); // '#'
                    let mut raw = String::new();
                    while matches!(self.peek(0), Some(c) if is_ident_continue(c)) {
                        raw.push(self.peek(0).expect("peeked"));
                        self.bump();
                    }
                    self.out.tokens.push(Token {
                        kind: TokKind::Ident(raw),
                        line: start_line,
                    });
                    return;
                }
            }
            ("b", Some('"')) => return self.string_literal(),
            ("b", Some('\'')) => {
                // Byte char: consume like a char literal (never a lifetime).
                self.bump();
                while let Some(c) = self.peek(0) {
                    match c {
                        '\\' => {
                            self.bump();
                            self.bump();
                        }
                        '\'' => {
                            self.bump();
                            break;
                        }
                        _ => self.bump(),
                    }
                }
                return;
            }
            _ => {}
        }
        self.out.tokens.push(Token {
            kind: TokKind::Ident(word),
            line: start_line,
        });
    }

    /// A numeric literal, emitted verbatim. Consumes digits, `_`,
    /// radix/suffix letters, a `.` only when a digit follows (so `0..n`
    /// ranges stay two separate puncts), and the sign of an exponent.
    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            let fraction_dot = c == '.' && matches!(self.peek(1), Some(d) if d.is_ascii_digit());
            let exponent_sign = matches!(c, '+' | '-')
                && matches!(text.chars().last(), Some('e' | 'E'))
                && !text.starts_with("0x");
            if is_ident_continue(c) || fraction_dot || exponent_sign {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.out.tokens.push(Token {
            kind: TokKind::Number(text),
            line,
        });
    }
}

/// Marks every token inside a `#[cfg(test)]` item or `#[test]` function as
/// test code. Rules skip marked tokens: test-only clocks, RNG seeds and
/// `unwrap()`s do not threaten the production invariants the lint protects.
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        let Some(attr_end) = test_attr_end(tokens, i) else {
            i += 1;
            continue;
        };
        // The attribute applies to the next item; its body is the next `{`
        // block — unless a `;` ends the item first (e.g. `#[cfg(test)] use …;`).
        let mut j = attr_end;
        let mut body = None;
        while j < tokens.len() {
            match tokens[j].kind {
                TokKind::Punct('{') => {
                    body = Some(j);
                    break;
                }
                TokKind::Punct(';') => break,
                _ => j += 1,
            }
        }
        let Some(open) = body else {
            i = attr_end;
            continue;
        };
        let mut depth = 0usize;
        let mut close = open;
        for (k, t) in tokens.iter().enumerate().skip(open) {
            match t.kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        close = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        for flag in in_test.iter_mut().take(close + 1).skip(i) {
            *flag = true;
        }
        i = close + 1;
    }
    in_test
}

/// When tokens at `i` begin a `#[test]` or `#[cfg(test)]` attribute,
/// returns the index one past its closing `]`.
fn test_attr_end(tokens: &[Token], i: usize) -> Option<usize> {
    let p =
        |k: usize, ch: char| matches!(tokens.get(i + k), Some(t) if t.kind == TokKind::Punct(ch));
    let w = |k: usize, word: &str| matches!(tokens.get(i + k), Some(t) if t.kind == TokKind::Ident(word.to_string()));
    if !(p(0, '#') && p(1, '[')) {
        return None;
    }
    if w(2, "test") && p(3, ']') {
        return Some(i + 4);
    }
    if w(2, "cfg") && p(3, '(') && w(4, "test") && p(5, ')') && p(6, ']') {
        return Some(i + 7);
    }
    None
}
