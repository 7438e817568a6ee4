//! A minimal, dependency-free Rust source scanner.
//!
//! The analyzer does not need a full parse of the language: every rule it
//! enforces is phrased over identifiers and punctuation. What it *does*
//! need, to avoid false positives, is to know for every source line
//!
//! * which characters are **code** (as opposed to comment or literal
//!   content),
//! * whether the line sits inside a `#[cfg(test)]` / `#[test]` region,
//! * which `vsgm-allow(RULE): reason` waivers and `vsgm-lock-tier(N)`
//!   declarations its comments carry.
//!
//! [`scan`] produces exactly that: a *code mask* (the source with comment
//! and string/char-literal contents blanked to spaces, newlines preserved
//! so line/column numbers survive), a per-line test flag, and the parsed
//! waivers. Nested block comments, raw strings (`r#"…"#`), byte strings,
//! and the char-literal/lifetime ambiguity are handled.

/// A waiver comment: `// vsgm-allow(R1): reason` or
/// `// vsgm-allow(R1, I1): reason`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// 1-based line the waiver comment appears on.
    pub line: usize,
    /// The rule identifiers inside the parentheses, trimmed.
    pub rules: Vec<String>,
    /// Whether a non-empty `: reason` followed the closing parenthesis.
    /// Waivers without a reason are reported (rule `W0`) and not applied.
    pub has_reason: bool,
}

/// A lock-order tier declaration: `// vsgm-lock-tier(1): reason`.
/// Rule `R1` requires one on every lock-typed struct field in the
/// threaded net layer; the tier number documents the global acquisition
/// order (lower tiers are taken first, same-tier locks never nest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierDecl {
    /// 1-based line the declaration comment appears on.
    pub line: usize,
    /// The tier number inside the parentheses, if it parsed as one.
    pub tier: Option<u64>,
    /// Whether a non-empty `: reason` followed the closing parenthesis.
    pub has_reason: bool,
}

impl TierDecl {
    /// A declaration counts only when the tier parsed and a reason
    /// follows; malformed ones are reported (rule `W0`) and ignored.
    pub fn is_well_formed(&self) -> bool {
        self.tier.is_some() && self.has_reason
    }
}

/// The result of scanning one source file.
#[derive(Debug, Default)]
pub struct Scanned {
    /// Code mask, one entry per source line: comments and literal
    /// contents replaced by spaces, code characters kept in place.
    pub mask: Vec<String>,
    /// Per line: inside a `#[cfg(test)]` module / `#[test]` item.
    pub test_line: Vec<bool>,
    /// Per line: the line holds no code at all (blank or comment-only).
    pub no_code: Vec<bool>,
    /// Per line: the original line is entirely blank.
    pub blank: Vec<bool>,
    /// All waiver comments found, in order of appearance.
    pub waivers: Vec<Waiver>,
    /// All lock-tier declarations found, in order of appearance.
    pub tiers: Vec<TierDecl>,
}

impl Scanned {
    /// Whether `rule` is waived for a finding on 1-based line `line`: a
    /// well-formed waiver naming the rule on the same line, or on the
    /// contiguous run of comment-only lines directly above it.
    pub fn is_waived(&self, rule: &str, line: usize) -> bool {
        let names_rule = |l: usize| {
            self.waivers
                .iter()
                .any(|w| w.line == l && w.has_reason && w.rules.iter().any(|r| r == rule))
        };
        if names_rule(line) {
            return true;
        }
        self.comment_block_above(line, names_rule)
    }

    /// The well-formed lock-tier declaration covering 1-based line
    /// `line`, if any: on the same line or on the contiguous run of
    /// comment-only lines directly above (the same placement rule as
    /// waivers).
    pub fn tier_for(&self, line: usize) -> Option<&TierDecl> {
        let at = |l: usize| self.tiers.iter().find(|t| t.line == l && t.is_well_formed());
        if let Some(t) = at(line) {
            return Some(t);
        }
        let mut found = None;
        self.comment_block_above(line, |l| {
            if let Some(t) = at(l) {
                found = Some(t);
                true
            } else {
                false
            }
        });
        found
    }

    /// Whether a waiver/tier comment on `w_line` is positioned to cover
    /// a finding on `line`: the same line, or the contiguous run of
    /// comment-only lines directly above it.
    pub fn covers(&self, w_line: usize, line: usize) -> bool {
        w_line == line || self.comment_block_above(line, |l| l == w_line)
    }

    /// Walks the contiguous run of comment-only lines directly above
    /// 1-based `line`, calling `hit` on each; returns whether `hit`
    /// returned true before the run ended.
    fn comment_block_above(&self, line: usize, mut hit: impl FnMut(usize) -> bool) -> bool {
        let mut l = line;
        while l > 1 {
            l -= 1;
            let idx = l - 1;
            let comment_only = self.no_code.get(idx).copied().unwrap_or(false)
                && !self.blank.get(idx).copied().unwrap_or(true);
            if !comment_only {
                return false;
            }
            if hit(l) {
                return true;
            }
        }
        false
    }
}

/// Scans `src`, producing the code mask, test regions, and waivers.
pub fn scan(src: &str) -> Scanned {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut mask = String::with_capacity(src.len());
    // Comment text collected per 1-based line (for waiver parsing).
    let mut comments: Vec<(usize, String)> = Vec::new();
    let mut line = 1usize;

    let comment_push = |comments: &mut Vec<(usize, String)>, line: usize, c: char| {
        match comments.last_mut() {
            Some((l, text)) if *l == line => text.push(c),
            _ => comments.push((line, String::from(c))),
        }
    };

    let mut i = 0usize;
    while i < n {
        let c = chars.get(i).copied().unwrap_or(' ');
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            mask.push('\n');
            line += 1;
            i += 1;
        } else if c == '/' && next == Some('/') {
            // Line comment: blank it, capture its text for waiver parsing.
            while i < n && chars.get(i).copied() != Some('\n') {
                comment_push(&mut comments, line, chars.get(i).copied().unwrap_or(' '));
                mask.push(' ');
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            // Block comment (nested, per Rust).
            let mut depth = 1usize;
            mask.push(' ');
            mask.push(' ');
            i += 2;
            while i < n && depth > 0 {
                let a = chars.get(i).copied().unwrap_or(' ');
                let b = chars.get(i + 1).copied();
                if a == '/' && b == Some('*') {
                    depth += 1;
                    mask.push(' ');
                    mask.push(' ');
                    i += 2;
                } else if a == '*' && b == Some('/') {
                    depth -= 1;
                    mask.push(' ');
                    mask.push(' ');
                    i += 2;
                } else if a == '\n' {
                    mask.push('\n');
                    line += 1;
                    i += 1;
                } else {
                    comment_push(&mut comments, line, a);
                    mask.push(' ');
                    i += 1;
                }
            }
        } else if c == 'r' && (next == Some('"') || next == Some('#'))
            && raw_string_hashes(&chars, i + 1).is_some()
        {
            // Raw string r"…", r#"…"#, … (also reached for br/rb via the
            // byte-string arm below).
            let hashes = raw_string_hashes(&chars, i + 1).unwrap_or(0);
            mask.push(' ');
            i += 1;
            i = blank_raw_string(&chars, i, hashes, &mut mask, &mut line);
        } else if c == 'b' && next == Some('r') && raw_string_hashes(&chars, i + 2).is_some() {
            mask.push(' ');
            mask.push(' ');
            i += 2;
            let hashes = raw_string_hashes(&chars, i).unwrap_or(0);
            i = blank_raw_string(&chars, i, hashes, &mut mask, &mut line);
        } else if c == '"' || (c == 'b' && next == Some('"')) {
            // Ordinary (byte) string literal.
            if c == 'b' {
                mask.push(' ');
                i += 1;
            }
            mask.push(' ');
            i += 1; // past the opening quote
            while i < n {
                let a = chars.get(i).copied().unwrap_or(' ');
                if a == '\\' {
                    mask.push(' ');
                    if chars.get(i + 1).copied() == Some('\n') {
                        mask.push('\n');
                        line += 1;
                    } else {
                        mask.push(' ');
                    }
                    i += 2;
                } else if a == '"' {
                    mask.push(' ');
                    i += 1;
                    break;
                } else if a == '\n' {
                    mask.push('\n');
                    line += 1;
                    i += 1;
                } else {
                    mask.push(' ');
                    i += 1;
                }
            }
        } else if c == '\'' {
            // Char literal or lifetime.
            if next == Some('\\') {
                // '\n', '\u{..}', … — consume to the closing quote.
                mask.push(' ');
                mask.push(' ');
                i += 2;
                while i < n {
                    let a = chars.get(i).copied().unwrap_or(' ');
                    mask.push(if a == '\n' { '\n' } else { ' ' });
                    if a == '\n' {
                        line += 1;
                    }
                    i += 1;
                    if a == '\'' {
                        break;
                    }
                }
            } else if chars.get(i + 2).copied() == Some('\'') && next != Some('\'') {
                // 'x'
                mask.push(' ');
                mask.push(' ');
                mask.push(' ');
                i += 3;
            } else {
                // Lifetime ('a) or loop label: keep as code.
                mask.push('\'');
                i += 1;
            }
        } else {
            mask.push(c);
            i += 1;
        }
    }

    let mask_lines: Vec<String> = mask.split('\n').map(str::to_string).collect();
    let src_lines: Vec<&str> = src.split('\n').collect();
    let total = mask_lines.len();
    let blank: Vec<bool> =
        (0..total).map(|k| src_lines.get(k).is_none_or(|l| l.trim().is_empty())).collect();
    let no_code: Vec<bool> = mask_lines.iter().map(|l| l.trim().is_empty()).collect();
    let test_line = mark_test_regions(&mask_lines);
    let waivers = comments.iter().flat_map(|(l, text)| parse_waivers(*l, text)).collect();
    let tiers = comments.iter().flat_map(|(l, text)| parse_tiers(*l, text)).collect();

    Scanned { mask: mask_lines, test_line, no_code, blank, waivers, tiers }
}

/// If position `i` starts `#*"` (zero or more hashes then a quote),
/// returns the number of hashes — the tail of a raw-string opener.
fn raw_string_hashes(chars: &[char], i: usize) -> Option<usize> {
    let mut hashes = 0usize;
    let mut j = i;
    while chars.get(j).copied() == Some('#') {
        hashes += 1;
        j += 1;
    }
    (chars.get(j).copied() == Some('"')).then_some(hashes)
}

/// Blanks a raw string starting at its `#…"` opener; returns the index
/// just past the closing `"#…`.
fn blank_raw_string(
    chars: &[char],
    mut i: usize,
    hashes: usize,
    mask: &mut String,
    line: &mut usize,
) -> usize {
    for _ in 0..=hashes {
        // hashes + opening quote
        mask.push(' ');
        i += 1;
    }
    while i < chars.len() {
        let a = chars.get(i).copied().unwrap_or(' ');
        if a == '"' && (1..=hashes).all(|k| chars.get(i + k).copied() == Some('#')) {
            for _ in 0..=hashes {
                mask.push(' ');
                i += 1;
            }
            return i;
        }
        mask.push(if a == '\n' { '\n' } else { ' ' });
        if a == '\n' {
            *line += 1;
        }
        i += 1;
    }
    i
}

/// Parses `vsgm-allow(RULES): reason` occurrences out of one line's
/// comment text.
fn parse_waivers(line: usize, text: &str) -> Vec<Waiver> {
    const NEEDLE: &str = "vsgm-allow(";
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(NEEDLE) {
        let after = rest.get(pos + NEEDLE.len()..).unwrap_or("");
        let Some(close) = after.find(')') else { break };
        let inside = after.get(..close).unwrap_or("");
        let rules: Vec<String> = inside
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let tail = after.get(close + 1..).unwrap_or("").trim_start();
        let has_reason = tail.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
        out.push(Waiver { line, rules, has_reason });
        rest = after.get(close + 1..).unwrap_or("");
    }
    out
}

/// Parses `vsgm-lock-tier(N): reason` occurrences out of one line's
/// comment text.
fn parse_tiers(line: usize, text: &str) -> Vec<TierDecl> {
    const NEEDLE: &str = "vsgm-lock-tier(";
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(NEEDLE) {
        let after = rest.get(pos + NEEDLE.len()..).unwrap_or("");
        let Some(close) = after.find(')') else { break };
        let tier = after.get(..close).unwrap_or("").trim().parse::<u64>().ok();
        let tail = after.get(close + 1..).unwrap_or("").trim_start();
        let has_reason = tail.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
        out.push(TierDecl { line, tier, has_reason });
        rest = after.get(close + 1..).unwrap_or("");
    }
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Marks the line spans covered by `#[cfg(test)]` / `#[test]`-attributed
/// items (typically `mod tests { … }` blocks).
fn mark_test_regions(mask_lines: &[String]) -> Vec<bool> {
    // Work over a flat char stream with a line number per char.
    let mut chars: Vec<(char, usize)> = Vec::new();
    for (k, l) in mask_lines.iter().enumerate() {
        for c in l.chars() {
            chars.push((c, k));
        }
        chars.push(('\n', k));
    }
    let mut test = vec![false; mask_lines.len()];
    let mut i = 0usize;
    while i < chars.len() {
        let (c, start_line) = chars.get(i).copied().unwrap_or((' ', 0));
        if c != '#' {
            i += 1;
            continue;
        }
        // Attribute: '#' possibly '!' then '[ … ]'.
        let mut j = i + 1;
        if chars.get(j).map(|&(c, _)| c) == Some('!') {
            j += 1;
        }
        if chars.get(j).map(|&(c, _)| c) != Some('[') {
            i += 1;
            continue;
        }
        let (content, after) = bracket_span(&chars, j);
        let compact: String = content.chars().filter(|c| !c.is_whitespace()).collect();
        let is_test_attr = compact == "test"
            || (compact.starts_with("cfg(") && compact.contains("test"));
        if !is_test_attr {
            i = after;
            continue;
        }
        // Skip any further attributes, then find the item's body: the
        // first '{' at zero paren/bracket depth, or a ';' ending a
        // body-less item.
        let mut k = after;
        loop {
            while chars.get(k).is_some_and(|&(c, _)| c.is_whitespace()) {
                k += 1;
            }
            if chars.get(k).map(|&(c, _)| c) == Some('#') {
                let mut a = k + 1;
                if chars.get(a).map(|&(c, _)| c) == Some('!') {
                    a += 1;
                }
                if chars.get(a).map(|&(c, _)| c) == Some('[') {
                    let (_, past) = bracket_span(&chars, a);
                    k = past;
                    continue;
                }
            }
            break;
        }
        let mut depth = 0i64;
        let mut end_line = start_line;
        while k < chars.len() {
            let (c, l) = chars.get(k).copied().unwrap_or((' ', 0));
            match c {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                ';' if depth == 0 => {
                    end_line = l;
                    k += 1;
                    break;
                }
                '{' if depth == 0 => {
                    // Brace-match the body.
                    let mut braces = 1i64;
                    k += 1;
                    while k < chars.len() && braces > 0 {
                        let (b, bl) = chars.get(k).copied().unwrap_or((' ', 0));
                        match b {
                            '{' => braces += 1,
                            '}' => braces -= 1,
                            _ => {}
                        }
                        end_line = bl;
                        k += 1;
                    }
                    break;
                }
                _ => {}
            }
            end_line = l;
            k += 1;
        }
        for flag in test.iter_mut().take(end_line + 1).skip(start_line) {
            *flag = true;
        }
        i = k.max(i + 1);
    }
    test
}

/// Returns the text inside the bracket pair opening at `open_idx` (which
/// must hold `[`) and the index just past the matching `]`.
fn bracket_span(chars: &[(char, usize)], open_idx: usize) -> (String, usize) {
    let mut depth = 0i64;
    let mut out = String::new();
    let mut i = open_idx;
    while i < chars.len() {
        let (c, _) = chars.get(i).copied().unwrap_or((' ', 0));
        match c {
            '[' => {
                depth += 1;
                if depth > 1 {
                    out.push(c);
                }
            }
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return (out, i + 1);
                }
                out.push(c);
            }
            _ => out.push(c),
        }
        i += 1;
    }
    (out, i)
}

/// Byte offsets at which `pattern` occurs in `line` with identifier
/// boundaries respected: when the pattern starts (ends) with an
/// identifier character, the character just before (after) the match
/// must not be one. Patterns with punctuation edges (`.unwrap(`) match
/// positionally.
pub fn find_word(line: &str, pattern: &str) -> Vec<usize> {
    let first_ident = pattern.chars().next().is_some_and(is_ident_char);
    let last_ident = pattern.chars().last().is_some_and(is_ident_char);
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = line.get(from..).and_then(|s| s.find(pattern)) {
        let at = from + rel;
        let before_ok = !first_ident
            || at == 0
            || !line.get(..at).and_then(|s| s.chars().last()).is_some_and(is_ident_char);
        let after = at + pattern.len();
        let after_ok = !last_ident
            || !line.get(after..).and_then(|s| s.chars().next()).is_some_and(is_ident_char);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + pattern.len().max(1);
    }
    out
}

/// One token of the code mask: an identifier (or number) or a single
/// punctuation character, with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Identifier text, or the punctuation character as a string.
    pub text: String,
    /// 1-based line number.
    pub line: usize,
    /// Whether this is an identifier/number token.
    pub ident: bool,
}

/// Tokenizes the code mask into identifiers and punctuation (whitespace
/// dropped; comments/literals are already blank in the mask).
pub fn tokens(mask_lines: &[String]) -> Vec<Tok> {
    let mut out = Vec::new();
    for (k, l) in mask_lines.iter().enumerate() {
        let line = k + 1;
        let mut cur = String::new();
        for c in l.chars() {
            if is_ident_char(c) {
                cur.push(c);
            } else {
                if !cur.is_empty() {
                    out.push(Tok { text: std::mem::take(&mut cur), line, ident: true });
                }
                if !c.is_whitespace() {
                    out.push(Tok { text: c.to_string(), line, ident: false });
                }
            }
        }
        if !cur.is_empty() {
            out.push(Tok { text: cur, line, ident: true });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let s = scan("let x = \"Mutex\"; // Mutex here\nlet y = Mutex::new();\n");
        assert!(!s.mask.first().unwrap().contains("Mutex"), "{:?}", s.mask);
        assert!(s.mask.get(1).unwrap().contains("Mutex"));
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let s = scan("let a = r#\"lock() \"inner\" \"#; let b = '\\''; let c: &'static str = x;");
        let m = s.mask.first().unwrap();
        assert!(!m.contains("lock"), "{m}");
        assert!(m.contains("&'static"), "{m}");
    }

    #[test]
    fn nested_block_comments() {
        let s = scan("/* outer /* inner */ still comment */ code()\n");
        let m = s.mask.first().unwrap();
        assert!(!m.contains("comment"), "{m}");
        assert!(m.contains("code()"), "{m}");
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.lock(); }\n}\nfn after() {}\n";
        let s = scan(src);
        assert_eq!(s.test_line, vec![false, true, true, true, true, false, false]);
    }

    #[test]
    fn test_attr_on_fn_is_marked() {
        let src = "#[test]\nfn t() {\n    boom();\n}\nfn real() {}\n";
        let s = scan(src);
        assert!(*s.test_line.first().unwrap() && s.test_line.get(3).copied().unwrap());
        assert!(!s.test_line.get(4).copied().unwrap());
    }

    #[test]
    fn waiver_parsing_with_and_without_reason() {
        let s = scan("// vsgm-allow(R1): the hold is bounded\n// vsgm-allow(R1,I1)\n");
        assert_eq!(s.waivers.len(), 2);
        let first = s.waivers.first().unwrap();
        assert_eq!(first.rules, vec!["R1"]);
        assert!(first.has_reason);
        let second = s.waivers.get(1).unwrap();
        assert_eq!(second.rules, vec!["R1", "I1"]);
        assert!(!second.has_reason);
    }

    #[test]
    fn waiver_applies_to_same_line_and_comment_block_above() {
        let src = "// vsgm-allow(R1): fine here\nx.lock();\ny.lock(); // vsgm-allow(R1): inline\nz.lock();\n";
        let s = scan(src);
        assert!(s.is_waived("R1", 2));
        assert!(s.is_waived("R1", 3));
        assert!(!s.is_waived("R1", 4));
        assert!(!s.is_waived("I1", 2));
    }

    #[test]
    fn blank_line_breaks_waiver_chain() {
        let src = "// vsgm-allow(R1): above\n\nx.lock();\n";
        let s = scan(src);
        assert!(!s.is_waived("R1", 3));
    }

    #[test]
    fn tier_parsing_and_placement() {
        let src = "// vsgm-lock-tier(2): taken after the connect guard\n\
                   inner: Mutex<State>,\n\
                   other: Mutex<State>, // vsgm-lock-tier(1): leaf lock, nothing nests inside\n\
                   bare: Mutex<State>,\n";
        let s = scan(src);
        assert_eq!(s.tiers.len(), 2);
        assert_eq!(s.tier_for(2).and_then(|t| t.tier), Some(2));
        assert_eq!(s.tier_for(3).and_then(|t| t.tier), Some(1));
        assert!(s.tier_for(4).is_none());
    }

    #[test]
    fn malformed_tiers_are_kept_but_not_applied() {
        let s = scan("a: Mutex<X>, // vsgm-lock-tier(one): not a number\nb: Mutex<X>, // vsgm-lock-tier(3)\n");
        assert_eq!(s.tiers.len(), 2);
        assert!(s.tiers.iter().all(|t| !t.is_well_formed()));
        assert!(s.tier_for(1).is_none() && s.tier_for(2).is_none());
    }

    #[test]
    fn find_word_respects_boundaries() {
        assert_eq!(find_word("Mutex<Foo, MutexLike>", "Mutex"), vec![0]);
        assert_eq!(find_word("a.lock().lock()", ".lock("), vec![1, 8]);
    }
}
