//! A small hand-rolled Rust lexer.
//!
//! The build container has no crates.io access, so `syn`/`proc-macro2`
//! are out of reach; the lint rules in this crate only need a faithful
//! *token* view of the source anyway (identifiers, punctuation, and
//! literal boundaries), never a full parse tree. The lexer therefore
//! handles exactly the places where naive substring matching goes
//! wrong — string/char/byte literals (including raw strings with any
//! number of `#`s), nested block comments, lifetimes vs. char literals,
//! and numeric literals with `.`/exponent — and emits everything else
//! as identifier or single-character punctuation tokens.
//!
//! Comments are consumed but not emitted: rules that care about comment
//! text (the `// SAFETY:` check) read the raw source lines instead.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `unwrap`, `HashMap`, ...).
    Ident,
    /// Lifetime such as `'a` (kept distinct so `'a'` stays a char).
    Lifetime,
    /// Numeric literal.
    Num,
    /// String literal of any flavour (`"..."`, `r#"..."#`, `b"..."`).
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A single punctuation character (`.`, `:`, `!`, `[`, ...).
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Source text. For `Str` this is the *unquoted* content so rules
    /// can match on literal keys; for everything else the raw spelling.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// True when this is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// True when this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

// The token-walking helpers every pass shares. Ranges are half-open
// token index ranges; `end` bounds every scan.

/// Index of the first `c` punct in `i..end`, or `end`.
pub(crate) fn find_punct(toks: &[Tok], i: usize, end: usize, c: char) -> usize {
    (i..end).find(|&j| toks[j].is_punct(c)).unwrap_or(end)
}

/// Index of the `c` matching the first `o` at/after `open`, or `end`
/// when it is unmatched.
pub(crate) fn close_delim(toks: &[Tok], open: usize, end: usize, o: char, c: char) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().take(end).skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j;
            }
        }
    }
    end
}

/// Index just past the closer [`close_delim`] finds, or `end`.
pub(crate) fn match_delim(toks: &[Tok], open: usize, end: usize, o: char, c: char) -> usize {
    (close_delim(toks, open, end, o, c) + 1).min(end)
}

/// Is the token at `i` a `>` that closes a generic? The lexer never
/// fuses puncts, so the `>` of `->` (`Box<dyn Fn(u8) -> u8>`) must
/// not count.
pub(crate) fn closes_angle(toks: &[Tok], i: usize) -> bool {
    toks[i].is_punct('>') && !(i > 0 && toks[i - 1].is_punct('-'))
}

/// Index just past the `>` matching the `<` at `open`, or `end`.
pub(crate) fn skip_angle(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 0usize;
    for j in open..end {
        if toks[j].is_punct('<') {
            depth += 1;
        } else if closes_angle(toks, j) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        }
    }
    end
}

/// Index of the first token in `from..end` that satisfies `stop` while
/// outside every `()`/`[]`/`<>` group opened in the range, or `end`:
/// the end of a parameter, field or ascribed type.
pub(crate) fn find_top_level(
    toks: &[Tok],
    from: usize,
    end: usize,
    stop: impl Fn(&Tok) -> bool,
) -> usize {
    let mut depth = 0usize;
    for j in from..end {
        let t = &toks[j];
        if depth == 0 && stop(t) {
            return j;
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || closes_angle(toks, j) {
            depth = depth.saturating_sub(1);
        }
    }
    end
}

/// Flat spans of `body` between `;`, `{` and `}` tokens: every
/// non-delimiter token belongs to exactly one span, whether the span
/// is a `;`-terminated statement, a loop/`if` header or a tail
/// expression.
pub(crate) fn segments(
    toks: &[Tok],
    body: std::ops::Range<usize>,
) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let end = body.end.min(toks.len());
    let mut start = body.start;
    for (i, t) in toks.iter().enumerate().take(end).skip(body.start) {
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            if start < i {
                out.push(start..i);
            }
            start = i + 1;
        }
    }
    if start < end {
        out.push(start..end);
    }
    out
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `source` into tokens. Never fails: unterminated literals simply
/// swallow the rest of the file, which is the useful behaviour for a
/// linter that must not panic on the code it is judging.
pub fn lex(source: &str) -> Vec<Tok> {
    let chars: Vec<char> = source.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    let n = chars.len();
    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                // Line comment (incl. doc comments): skip to newline.
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                // Block comment, nesting like Rust's.
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                let (text, next, lines) = scan_string(&chars, i + 1);
                toks.push(Tok { kind: TokKind::Str, text, line: start_line });
                line += lines;
                i = next;
            }
            'r' if starts_raw_ident(&chars, i) => {
                // Raw identifier `r#ident`: semantically the same name
                // as `ident` (that is what `r#` means), so the token
                // text drops the prefix and rules match it like any
                // other spelling of the identifier.
                let start = i + 2;
                let mut j = start;
                while j < n && is_ident_continue(chars[j]) {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: chars[start..j].iter().collect(),
                    line,
                });
                i = j;
            }
            'r' | 'b' if starts_raw_or_byte_literal(&chars, i) => {
                let start_line = line;
                let (kind, text, next, lines) = scan_prefixed_literal(&chars, i);
                toks.push(Tok { kind, text, line: start_line });
                line += lines;
                i = next;
            }
            '\'' => {
                // Lifetime or char literal. `'a` followed by a
                // non-quote is a lifetime; otherwise a char literal.
                let mut j = i + 1;
                let mut ident = String::new();
                while j < n && is_ident_continue(chars[j]) {
                    ident.push(chars[j]);
                    j += 1;
                }
                let is_lifetime = !ident.is_empty()
                    && is_ident_start(ident.chars().next().unwrap_or('_'))
                    && (j >= n || chars[j] != '\'');
                if is_lifetime {
                    toks.push(Tok { kind: TokKind::Lifetime, text: ident, line });
                    i = j;
                } else {
                    let start_line = line;
                    let (text, next, lines) = scan_char(&chars, i + 1);
                    toks.push(Tok { kind: TokKind::Char, text, line: start_line });
                    line += lines;
                    i = next;
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < n && (is_ident_continue(chars[i])) {
                    i += 1;
                }
                // Fraction part only when the `.` cannot be a method
                // call or range: `1.max(2)` and `0..n` keep their `.`
                // as punctuation, but `1_000.5`, `1.e3` (dot + bare
                // exponent), and a trailing-dot float like `1.` are all
                // one numeric token.
                if i < n && chars[i] == '.' {
                    let after = chars.get(i + 1).copied();
                    let exp_digit = |k: usize| {
                        matches!(chars.get(k), Some(d) if d.is_ascii_digit())
                            || (matches!(chars.get(k), Some('+') | Some('-'))
                                && matches!(chars.get(k + 1), Some(d) if d.is_ascii_digit()))
                    };
                    if after.is_some_and(|c| c.is_ascii_digit()) {
                        i += 1;
                        while i < n && is_ident_continue(chars[i]) {
                            i += 1;
                        }
                    } else if matches!(after, Some('e' | 'E')) && exp_digit(i + 2) {
                        // `1.e3` / `1.E-3`: dot straight into an
                        // exponent. `2.exp()` stays a method call
                        // because no digit follows the `e`.
                        i += 2;
                        if matches!(chars.get(i), Some('+') | Some('-')) {
                            i += 1;
                        }
                        while i < n && is_ident_continue(chars[i]) {
                            i += 1;
                        }
                    } else if !matches!(after, Some(c) if is_ident_start(c) || c == '.') {
                        // Trailing-dot float (`1.;`, `vec![1., 2.]`, or
                        // `1.` at EOF): the dot belongs to the number.
                        i += 1;
                    }
                }
                // Signed exponent (`1e-5`); unsigned is eaten above.
                if i + 1 < n
                    && (chars[i] == '-' || chars[i] == '+')
                    && matches!(chars.get(i.wrapping_sub(1)), Some('e' | 'E'))
                    && chars[i + 1].is_ascii_digit()
                {
                    i += 1;
                    while i < n && is_ident_continue(chars[i]) {
                        i += 1;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Num,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < n && is_ident_continue(chars[i]) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            other => {
                toks.push(Tok { kind: TokKind::Punct, text: other.to_string(), line });
                i += 1;
            }
        }
    }
    toks
}

/// Does `r#...` at `i` begin a raw identifier (`r#type`, `r#match`),
/// as opposed to a raw string (`r#"..."#`)?
fn starts_raw_ident(chars: &[char], i: usize) -> bool {
    chars.get(i + 1) == Some(&'#')
        && matches!(chars.get(i + 2), Some(&c) if is_ident_start(c))
}

/// Does `r...` / `b...` at `i` begin a raw string, byte string, or byte
/// char (as opposed to a plain identifier starting with r/b)?
fn starts_raw_or_byte_literal(chars: &[char], i: usize) -> bool {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        match chars.get(j) {
            Some('\'') | Some('"') => return true,
            Some('r') => j += 1,
            _ => return false,
        }
    } else {
        // 'r'
        j += 1;
    }
    // After `r` / `br`: any number of '#' then '"'.
    while matches!(chars.get(j), Some('#')) {
        j += 1;
    }
    matches!(chars.get(j), Some('"'))
}

/// Scan a literal starting with `r`, `b`, or `br` at `i`. Returns
/// `(kind, content, next_index, newline_count)`.
fn scan_prefixed_literal(chars: &[char], i: usize) -> (TokKind, String, usize, u32) {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) == Some(&'\'') {
            let (text, next, lines) = scan_char(chars, j + 1);
            return (TokKind::Char, text, next, lines);
        }
        if chars.get(j) == Some(&'"') {
            let (text, next, lines) = scan_string(chars, j + 1);
            return (TokKind::Str, text, next, lines);
        }
        j += 1; // skip the 'r' of `br`
    } else {
        j += 1; // skip the 'r'
    }
    let mut hashes = 0usize;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote (guaranteed by starts_raw_or_byte_literal)
    let mut text = String::new();
    let mut lines = 0u32;
    let n = chars.len();
    while j < n {
        if chars[j] == '"' {
            // Need `hashes` trailing '#'s to close.
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && chars.get(k) == Some(&'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return (TokKind::Str, text, k, lines);
            }
        }
        if chars[j] == '\n' {
            lines += 1;
        }
        text.push(chars[j]);
        j += 1;
    }
    (TokKind::Str, text, n, lines)
}

/// Scan a normal string body starting just after the opening quote.
fn scan_string(chars: &[char], mut i: usize) -> (String, usize, u32) {
    let mut text = String::new();
    let mut lines = 0u32;
    let n = chars.len();
    while i < n {
        match chars[i] {
            '"' => return (text, i + 1, lines),
            '\\' if i + 1 < n => {
                text.push(chars[i]);
                if chars[i + 1] == '\n' {
                    lines += 1;
                }
                text.push(chars[i + 1]);
                i += 2;
            }
            c => {
                if c == '\n' {
                    lines += 1;
                }
                text.push(c);
                i += 1;
            }
        }
    }
    (text, n, lines)
}

/// Scan a char literal body starting just after the opening quote.
fn scan_char(chars: &[char], mut i: usize) -> (String, usize, u32) {
    let mut text = String::new();
    let mut lines = 0u32;
    let n = chars.len();
    while i < n {
        match chars[i] {
            '\'' => return (text, i + 1, lines),
            '\\' if i + 1 < n => {
                text.push(chars[i]);
                text.push(chars[i + 1]);
                i += 2;
            }
            c => {
                if c == '\n' {
                    lines += 1;
                }
                text.push(c);
                i += 1;
            }
        }
    }
    (text, n, lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_numbers_and_punct() {
        let toks = kinds("let x = foo.unwrap();");
        assert_eq!(
            toks,
            vec![
                (TokKind::Ident, "let".into()),
                (TokKind::Ident, "x".into()),
                (TokKind::Punct, "=".into()),
                (TokKind::Ident, "foo".into()),
                (TokKind::Punct, ".".into()),
                (TokKind::Ident, "unwrap".into()),
                (TokKind::Punct, "(".into()),
                (TokKind::Punct, ")".into()),
                (TokKind::Punct, ";".into()),
            ]
        );
    }

    #[test]
    fn strings_hide_their_contents_from_ident_rules() {
        let toks = kinds(r#"let s = "panic! unwrap() unsafe";"#);
        assert!(toks.iter().all(|(k, t)| *k != TokKind::Ident || t != "unsafe"));
        assert_eq!(toks[3], (TokKind::Str, "panic! unwrap() unsafe".into()));
    }

    #[test]
    fn raw_and_byte_strings() {
        let toks = kinds(r##"let s = r#"a "quoted" b"#; let b = b"xy"; let c = br"z";"##);
        let strs: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Str)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(strs, vec![r#"a "quoted" b"#, "xy", "z"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'a' }");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Lifetime && t == "a"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == "a"));
        let toks = kinds(r"let c = '\''; let d = '\n';");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn comments_are_dropped_including_nested_blocks() {
        let toks = kinds("a // unwrap()\n/* panic! /* nested */ still */ b");
        assert_eq!(
            toks,
            vec![(TokKind::Ident, "a".into()), (TokKind::Ident, "b".into())]
        );
    }

    #[test]
    fn float_literals_keep_method_call_dots() {
        let toks = kinds("let a = 1.0_f64; let b = 2.sqrt(); let r = 0..n;");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "1.0_f64"));
        // `2.sqrt()` lexes as Num(2) Punct(.) Ident(sqrt).
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "sqrt"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "2"));
    }

    #[test]
    fn line_numbers_survive_multiline_literals() {
        let src = "let a = \"x\ny\";\nlet b = 1;";
        let toks = lex(src);
        let b = toks.iter().find(|t| t.is_ident("b")).expect("b lexed");
        assert_eq!(b.line, 3);
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        assert!(!lex("let s = \"never closed").is_empty());
        assert!(!lex("let s = r#\"never closed").is_empty());
    }

    #[test]
    fn raw_identifiers_lex_as_their_unprefixed_name() {
        // `r#ident` IS the identifier `ident`; the prefix only exists
        // to escape keywords, so rules must see one token, same name.
        let toks = kinds("let r#type = r#match.r#unwrap();");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "type"), "{toks:?}");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "unwrap"), "{toks:?}");
        // No stray `r` / `#` fragments left behind.
        assert!(toks.iter().all(|(k, t)| !(*k == TokKind::Ident && t == "r")), "{toks:?}");
        assert!(toks.iter().all(|(k, t)| !(*k == TokKind::Punct && t == "#")), "{toks:?}");
        // Raw *strings* are unaffected.
        let toks = kinds(r##"let s = r#"body"#;"##);
        assert_eq!(toks[3], (TokKind::Str, "body".into()));
    }

    #[test]
    fn double_gt_in_nested_generics_stays_split() {
        // The parser closes nested generics one `>` at a time, so the
        // lexer must never fuse `>>` into a shift token.
        let toks = kinds("fn f() -> Result<Vec<u8>, E> { g::<Vec<Vec<u8>>>() }");
        let gts = toks.iter().filter(|(k, t)| *k == TokKind::Punct && t == ">").count();
        // One from `->`, two closing `Result<Vec<u8>, E>`, three
        // closing the `::<Vec<Vec<u8>>>` turbofish.
        assert_eq!(gts, 6, "{toks:?}");
        assert!(toks.iter().all(|(k, t)| !(*k == TokKind::Punct && t == ">>")), "{toks:?}");
    }

    #[test]
    fn token_helpers_match_groups_and_skip_arrows() {
        let toks =
            lex("f(a, (b)) Vec::<Box<dyn Fn(u8) -> u8>>::new() g(h: Box<dyn Fn() -> u8>, k)");
        let at = |text: &str| toks.iter().position(|t| t.text == text).expect("token present");
        // `(` of `f` matches the `)` after `(b)`.
        let open = at("(");
        assert_eq!(close_delim(&toks, open, toks.len(), '(', ')'), open + 6);
        assert_eq!(match_delim(&toks, open, toks.len(), '(', ')'), open + 7);
        // Unmatched: both report `end`.
        assert_eq!(close_delim(&toks, open, open + 3, '(', ')'), open + 3);
        assert_eq!(match_delim(&toks, open, open + 3, '(', ')'), open + 3);
        // The turbofish ends at its own `>>`, not at the `->`.
        let lt = at("<");
        let past = skip_angle(&toks, lt, toks.len());
        assert!(toks[past].is_punct(':') && toks[past + 2].is_ident("new"), "{:?}", toks[past]);
        // A parameter's type runs past the arrow to the top-level `,`.
        let h = at("h");
        let comma = find_top_level(&toks, h, toks.len(), |t| t.is_punct(','));
        assert!(toks[comma + 1].is_ident("k"), "{:?}", toks[comma + 1]);
    }

    #[test]
    fn bare_exponent_and_trailing_dot_floats() {
        // `1.e3`: dot straight into an exponent is one number.
        let toks = kinds("let a = 1.e3; let b = 1.E-3;");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "1.e3"), "{toks:?}");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "1.E-3"), "{toks:?}");
        // Underscored float with fraction.
        let toks = kinds("let c = 1_000.5;");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "1_000.5"), "{toks:?}");
        // Trailing-dot float keeps its dot; method calls and ranges do not.
        let toks = kinds("let d = 1.; let e = vec![2., 3.]; let f = 2.sqrt(); let r = 0..9;");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "1."), "{toks:?}");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "2."), "{toks:?}");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "sqrt"), "{toks:?}");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "2"), "{toks:?}");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "0"), "{toks:?}");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "9"), "{toks:?}");
        // `1.e3x` style (exponent then ident chars) still terminates.
        let toks = kinds("let g = 2.exp();");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "exp"), "{toks:?}");
    }
}
