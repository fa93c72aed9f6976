//! # seizure-lint
//!
//! A hand-rolled static analyzer for the invariants this workspace depends
//! on but `clippy` cannot know about. Three separate PRs fixed the same
//! NaN-unsafe comparator bug class; the persistence layer promises to never
//! panic on hostile bytes; the batch hot paths promise to never allocate;
//! node-identity across save/resume depends on every source of randomness
//! being seeded. Each of those invariants lives here as a mechanical rule
//! instead of reviewer memory.
//!
//! The scanner is a lightweight masking tokenizer, not a full parser: it
//! blanks comments, string/char literals and doc text out of a byte-exact
//! copy of each source file (so offsets and line numbers still line up),
//! then runs substring rules over the remaining code. `#[cfg(test)]`
//! blocks, marked hot-path blocks and escape-hatch annotations are tracked
//! as byte ranges via brace matching on the masked text. `syn` is neither
//! vendored nor needed for rules of this shape.
//!
//! ## Rules
//!
//! | rule | invariant |
//! |------|-----------|
//! | `nan-ordering` | float comparisons use `f64::total_cmp`, never `partial_cmp` + `unwrap`/`expect`/`unwrap_or` |
//! | `panic-free-decode` | `ml/src/persist/` never panics on untrusted bytes (no `unwrap`/`expect`/`panic!`/literal indexing) |
//! | `hot-path-alloc` | blocks marked hot never allocate (`Vec::new`, `vec!`, `collect`, `format!`, `.clone()`, ...) |
//! | `determinism` | `ml`/`features`/`dsp`/`core` non-test code never uses wall clocks, OS entropy or hash-ordered containers |
//! | `unsafe-audit` | every `unsafe` carries an adjacent `SAFETY:` comment; unsafe-free crates carry `#![forbid(unsafe_code)]` |
//!
//! ## Escape hatch
//!
//! A provably-safe site is annotated, never silently exempted. The
//! annotation is a comment of the form `lint: allow(<rule>) — <reason>`
//! (an ASCII `-` separator also works) placed on the flagged line or on
//! the line directly above it. An annotation without a reason, for an
//! unknown rule, or covering no violation is itself a violation.
//!
//! `panic-free-decode` takes no annotation: the persist surface decodes
//! through bounds-checked readers, so an `allow(panic-free-decode)` is
//! itself a violation and the site it covers is still reported.
//!
//! Hot blocks are opted in with a `lint: hot-path` comment directly above
//! the function (or impl block): the marker covers the next braced block.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// The five repo-specific rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    NanOrdering,
    PanicFreeDecode,
    HotPathAlloc,
    Determinism,
    UnsafeAudit,
}

impl Rule {
    pub const ALL: [Rule; 5] = [
        Rule::NanOrdering,
        Rule::PanicFreeDecode,
        Rule::HotPathAlloc,
        Rule::Determinism,
        Rule::UnsafeAudit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Rule::NanOrdering => "nan-ordering",
            Rule::PanicFreeDecode => "panic-free-decode",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::Determinism => "determinism",
            Rule::UnsafeAudit => "unsafe-audit",
        }
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// One-line fix hint printed next to every diagnostic.
    pub fn hint(self) -> &'static str {
        match self {
            Rule::NanOrdering => "compare floats with f64::total_cmp (NaN-safe total order)",
            Rule::PanicFreeDecode => {
                "decode must return PersistError, never panic: validate lengths, use checked reads"
            }
            Rule::HotPathAlloc => {
                "hot paths reuse caller-owned scratch; move the allocation to setup or a workspace"
            }
            Rule::Determinism => {
                "use seeded ChaCha8 rngs and order-deterministic containers (BTreeMap/Vec)"
            }
            Rule::UnsafeAudit => {
                "document the invariant in an adjacent SAFETY: comment, or drop the unsafe"
            }
        }
    }
}

/// A single finding. `rule` is the rule label; annotation problems use the
/// reserved label `lint-annotation`.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
    pub hint: &'static str,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} (fix: {})",
            self.file, self.line, self.rule, self.message, self.hint
        )
    }
}

/// How a file's path scopes the rules that run over it.
#[derive(Clone, Debug, Default)]
pub struct FileClass {
    /// Directory name under `crates/`, or `None` for the root package.
    pub crate_dir: Option<String>,
    /// Whole file is test/bench/example scope.
    pub is_test_file: bool,
    /// File participates in the persist decode surface.
    pub in_persist: bool,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel_path: &str) -> FileClass {
    let components: Vec<&str> = rel_path.split('/').collect();
    let crate_dir = match components.as_slice() {
        ["crates", name, ..] => Some((*name).to_string()),
        _ => None,
    };
    let is_test_file = components
        .iter()
        .any(|c| matches!(*c, "tests" | "benches" | "examples"));
    let in_persist = rel_path.contains("ml/src/persist");
    FileClass {
        crate_dir,
        is_test_file,
        in_persist,
    }
}

/// Crates whose non-test code must be deterministic (node-identity across
/// save/resume depends on them).
const DETERMINISTIC_CRATES: [&str; 4] = ["core", "dsp", "features", "ml"];

// ---------------------------------------------------------------------------
// Masking tokenizer
// ---------------------------------------------------------------------------

struct CommentSpan {
    line: usize,
    text: String,
}

struct Masked {
    /// Source with comments and string/char literals blanked to spaces,
    /// newlines preserved — byte offsets and line numbers match the input.
    code: String,
    comments: Vec<CommentSpan>,
    /// Byte offset of the start of each line (1-indexed via `line_of`).
    line_starts: Vec<usize>,
}

impl Masked {
    fn line_of(&self, offset: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= offset)
    }

    fn line_range(&self, line: usize) -> (usize, usize) {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .copied()
            .unwrap_or(self.code.len());
        (start, end)
    }
}

fn mask(src: &str) -> Masked {
    let bytes = src.as_bytes();
    let len = bytes.len();
    let mut code: Vec<u8> = Vec::with_capacity(len);
    let mut comments = Vec::new();
    let mut line_starts = vec![0usize];
    let mut line = 1usize;
    let mut i = 0usize;

    // Copies one source byte into the masked buffer verbatim.
    macro_rules! keep {
        () => {{
            if bytes[i] == b'\n' {
                line += 1;
                line_starts.push(i + 1);
                code.push(b'\n');
            } else {
                code.push(bytes[i]);
            }
            i += 1;
        }};
    }
    // Blanks one source byte (newlines still advance the line map).
    macro_rules! blank {
        () => {{
            if bytes[i] == b'\n' {
                line += 1;
                line_starts.push(i + 1);
                code.push(b'\n');
            } else {
                code.push(b' ');
            }
            i += 1;
        }};
    }

    while i < len {
        let b = bytes[i];
        let next = if i + 1 < len { bytes[i + 1] } else { 0 };
        let prev_byte_is_ident = !code.is_empty() && {
            let c = code[code.len() - 1];
            c.is_ascii_alphanumeric() || c == b'_'
        };

        if b == b'/' && next == b'/' {
            // Line comment (incl. doc comments).
            let start = i;
            let start_line = line;
            while i < len && bytes[i] != b'\n' {
                blank!();
            }
            comments.push(CommentSpan {
                line: start_line,
                text: src[start..i].to_string(),
            });
        } else if b == b'/' && next == b'*' {
            // Block comment, nesting honoured.
            let start = i;
            let start_line = line;
            let mut depth = 0usize;
            while i < len {
                if i + 1 < len && bytes[i] == b'/' && bytes[i + 1] == b'*' {
                    depth += 1;
                    blank!();
                    blank!();
                } else if i + 1 < len && bytes[i] == b'*' && bytes[i + 1] == b'/' {
                    depth -= 1;
                    blank!();
                    blank!();
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank!();
                }
            }
            comments.push(CommentSpan {
                line: start_line,
                text: src[start..i.min(len)].to_string(),
            });
        } else if b == b'"' {
            // Ordinary string literal.
            blank!();
            while i < len {
                if bytes[i] == b'\\' && i + 1 < len {
                    blank!();
                    blank!();
                } else if bytes[i] == b'"' {
                    blank!();
                    break;
                } else {
                    blank!();
                }
            }
        } else if (b == b'r' || b == b'b') && !prev_byte_is_ident && starts_raw_string(bytes, i) {
            // Raw (and raw byte) string: r"...", r#"..."#, br#"..."#.
            let mut j = i;
            if bytes[j] == b'b' {
                keep!();
                j = i;
            }
            debug_assert_eq!(bytes[j], b'r');
            keep!();
            let mut hashes = 0usize;
            while i < len && bytes[i] == b'#' {
                hashes += 1;
                keep!();
            }
            if i < len && bytes[i] == b'"' {
                blank!();
                'raw: while i < len {
                    if bytes[i] == b'"' {
                        // A closing quote must be followed by `hashes` hashes.
                        let mut k = 0usize;
                        while k < hashes && i + 1 + k < len && bytes[i + 1 + k] == b'#' {
                            k += 1;
                        }
                        if k == hashes {
                            blank!();
                            for _ in 0..hashes {
                                blank!();
                            }
                            break 'raw;
                        }
                    }
                    blank!();
                }
            }
        } else if b == b'b' && next == b'\'' && !prev_byte_is_ident {
            // Byte char literal b'x' / b'\n'.
            keep!();
            mask_char_literal(bytes, len, &mut i, &mut line, &mut line_starts, &mut code);
        } else if b == b'\'' {
            if next == b'\\' || (i + 2 < len && bytes[i + 2] == b'\'' && next != b'\'') {
                mask_char_literal(bytes, len, &mut i, &mut line, &mut line_starts, &mut code);
            } else {
                // Lifetime (or stray quote): keep as code.
                keep!();
            }
        } else {
            keep!();
        }
    }

    Masked {
        code: String::from_utf8(code).expect("masking preserves UTF-8"),
        comments,
        line_starts,
    }
}

fn starts_raw_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if j >= bytes.len() || bytes[j] != b'r' {
        // Plain b"..." is handled by the ordinary-string arm after the `b`
        // passes through as code.
        return false;
    }
    j += 1;
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == b'"'
}

fn mask_char_literal(
    bytes: &[u8],
    len: usize,
    i: &mut usize,
    line: &mut usize,
    line_starts: &mut Vec<usize>,
    code: &mut Vec<u8>,
) {
    let mut push_blank = |i: &mut usize| {
        if bytes[*i] == b'\n' {
            *line += 1;
            line_starts.push(*i + 1);
            code.push(b'\n');
        } else {
            code.push(b' ');
        }
        *i += 1;
    };
    debug_assert_eq!(bytes[*i], b'\'');
    push_blank(i); // opening quote
    while *i < len {
        if bytes[*i] == b'\\' && *i + 1 < len {
            push_blank(i);
            push_blank(i);
        } else if bytes[*i] == b'\'' {
            push_blank(i);
            break;
        } else {
            push_blank(i);
        }
    }
}

// ---------------------------------------------------------------------------
// Annotations and regions
// ---------------------------------------------------------------------------

struct Allow {
    rule: Rule,
    /// Lines this annotation covers (its own line and the next code line).
    covered: Vec<usize>,
    used: bool,
    line: usize,
}

struct Regions {
    test: Vec<(usize, usize)>,
    hot: Vec<(usize, usize)>,
}

impl Regions {
    fn in_test(&self, offset: usize) -> bool {
        self.test.iter().any(|&(a, b)| offset >= a && offset < b)
    }
    fn in_hot(&self, offset: usize) -> bool {
        self.hot.iter().any(|&(a, b)| offset >= a && offset < b)
    }
}

/// Finds the byte range of the first `{ ... }` block starting at or after
/// `from` in masked code. Returns `None` when no block opens.
fn next_block(code: &str, from: usize) -> Option<(usize, usize)> {
    let bytes = code.as_bytes();
    let open = (from..bytes.len()).find(|&i| bytes[i] == b'{')?;
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i + 1));
                }
            }
            _ => {}
        }
    }
    Some((open, bytes.len()))
}

/// Strips comment sigils from a comment's text and returns a `lint:`
/// directive body, if the comment is one.
fn directive_body(text: &str) -> Option<&str> {
    let mut t = text.trim_start();
    for sigil in ["//!", "///", "//", "/*!", "/**", "/*"] {
        if let Some(rest) = t.strip_prefix(sigil) {
            t = rest;
            break;
        }
    }
    let t = t.trim_start().trim_end_matches("*/").trim();
    t.strip_prefix("lint:").map(str::trim)
}

fn parse_annotations(file: &str, masked: &Masked) -> (Vec<Allow>, Vec<usize>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut hot_markers = Vec::new();
    let mut diags = Vec::new();
    for comment in &masked.comments {
        let Some(body) = directive_body(&comment.text) else {
            continue;
        };
        if body == "hot-path" {
            hot_markers.push(comment.line);
            continue;
        }
        if let Some(rest) = body.strip_prefix("allow(") {
            let Some(close) = rest.find(')') else {
                diags.push(annotation_diag(
                    file,
                    comment.line,
                    "malformed lint allow: missing `)`".to_string(),
                ));
                continue;
            };
            let rule_name = rest[..close].trim();
            let Some(rule) = Rule::from_name(rule_name) else {
                diags.push(annotation_diag(
                    file,
                    comment.line,
                    format!("lint allow names unknown rule `{rule_name}`"),
                ));
                continue;
            };
            if rule == Rule::PanicFreeDecode {
                diags.push(annotation_diag(
                    file,
                    comment.line,
                    "panic-free-decode cannot be waived: read through a bounds-checked \
                     reader that returns a typed error"
                        .to_string(),
                ));
                continue;
            }
            let after = rest[close + 1..].trim_start();
            let reason = after
                .strip_prefix('\u{2014}')
                .or_else(|| after.strip_prefix("--"))
                .or_else(|| after.strip_prefix('-'))
                .map(str::trim)
                .unwrap_or("");
            if reason.is_empty() {
                diags.push(annotation_diag(
                    file,
                    comment.line,
                    format!(
                        "lint allow({}) has no reason: write `lint: allow({}) — <why this site is safe>`",
                        rule.name(),
                        rule.name()
                    ),
                ));
                continue;
            }
            let covered = covered_lines(masked, comment.line);
            allows.push(Allow {
                rule,
                covered,
                used: false,
                line: comment.line,
            });
        } else {
            diags.push(annotation_diag(
                file,
                comment.line,
                format!("unknown lint directive `{body}` (expected `hot-path` or `allow(<rule>) — <reason>`)"),
            ));
        }
    }
    (allows, hot_markers, diags)
}

fn annotation_diag(file: &str, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line,
        rule: "lint-annotation",
        message,
        hint: "see the Static analysis section of the README for the annotation grammar",
    }
}

/// An allow covers its own line (trailing-comment form) plus the next line
/// that contains any code (standalone-comment form).
fn covered_lines(masked: &Masked, comment_line: usize) -> Vec<usize> {
    let mut covered = vec![comment_line];
    let last_line = masked.line_starts.len();
    for line in comment_line + 1..=(comment_line + 8).min(last_line) {
        let (a, b) = masked.line_range(line);
        if masked.code[a..b].trim().is_empty() {
            continue;
        }
        covered.push(line);
        break;
    }
    covered
}

fn find_regions(masked: &Masked, hot_markers: &[usize], file: &str) -> (Regions, Vec<Diagnostic>) {
    let mut diags = Vec::new();
    let code = &masked.code;
    let mut test = Vec::new();
    for pat in ["#[cfg(test)]", "#[cfg(all(test"] {
        let mut from = 0usize;
        while let Some(pos) = code[from..].find(pat) {
            let at = from + pos;
            from = at + pat.len();
            if let Some((open, close)) = next_block(code, at) {
                // Guard against the attribute applying to a non-block item
                // (`#[cfg(test)] use ...;`): a `;` before the block opener
                // means the next `{` belongs to something else.
                if !code[at..open].contains(';') {
                    test.push((open, close));
                }
            }
        }
    }
    let mut hot = Vec::new();
    for &marker_line in hot_markers {
        let (line_start, _) = masked.line_range(marker_line);
        match next_block(code, line_start) {
            Some((open, close)) => hot.push((open, close)),
            None => diags.push(annotation_diag(
                file,
                marker_line,
                "hot-path marker is not followed by a block".to_string(),
            )),
        }
    }
    (Regions { test, hot }, diags)
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

fn find_all(code: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(pat) {
        out.push(from + pos);
        from += pos + pat.len();
    }
    out
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Word-boundary occurrences of `pat` in `code`.
fn find_words(code: &str, pat: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    find_all(code, pat)
        .into_iter()
        .filter(|&at| {
            let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
            let end = at + pat.len();
            let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
            before_ok && after_ok
        })
        .collect()
}

struct RuleCtx<'a> {
    class: &'a FileClass,
    masked: &'a Masked,
    regions: &'a Regions,
    findings: Vec<(Rule, usize, String)>, // (rule, byte offset, message)
}

impl RuleCtx<'_> {
    fn push(&mut self, rule: Rule, offset: usize, message: String) {
        self.findings.push((rule, offset, message));
    }
}

fn rule_nan_ordering(ctx: &mut RuleCtx<'_>) {
    let code = &ctx.masked.code;
    for at in find_words(code, "partial_cmp") {
        // Scan the rest of the statement (or a bounded window) for a
        // panicking or Equal-defaulting consumer of the ordering.
        let tail_end = code[at..]
            .find(';')
            .map_or_else(|| code.len(), |p| at + p)
            .min(at + 240);
        let tail = &code[at..tail_end];
        if tail.contains(".unwrap") || tail.contains(".expect") {
            ctx.push(
                Rule::NanOrdering,
                at,
                "float ordering built on `partial_cmp` with a panicking/Equal-defaulting fallback"
                    .to_string(),
            );
        }
    }
}

fn rule_panic_free_decode(ctx: &mut RuleCtx<'_>) {
    if !ctx.class.in_persist || ctx.class.is_test_file {
        return;
    }
    let code = &ctx.masked.code;
    let patterns: [(&str, &str); 6] = [
        (".unwrap()", "`unwrap()` in the persist surface"),
        (".expect(", "`expect(..)` in the persist surface"),
        ("panic!", "`panic!` in the persist surface"),
        ("unreachable!", "`unreachable!` in the persist surface"),
        ("todo!", "`todo!` in the persist surface"),
        ("unimplemented!", "`unimplemented!` in the persist surface"),
    ];
    for (pat, what) in patterns {
        for at in find_all(code, pat) {
            if !ctx.regions.in_test(at) {
                ctx.push(
                    Rule::PanicFreeDecode,
                    at,
                    format!("{what} can panic on hostile bytes"),
                );
            }
        }
    }
    // Literal-bound indexing (`buf[12..20]`, `buf[..8]`, `buf[4]`): the
    // fixed-width header reads that panic when a torn buffer runs short.
    for at in find_all(code, "[") {
        if ctx.regions.in_test(at) {
            continue;
        }
        let prev = code[..at].trim_end().as_bytes().last().copied();
        let indexes_value = prev.is_some_and(|p| is_ident_byte(p) || p == b')' || p == b']');
        if !indexes_value {
            continue;
        }
        let Some(close_rel) = code[at..].find(']') else {
            continue;
        };
        let inner = code[at + 1..at + close_rel].trim();
        let literal_bounds = !inner.is_empty()
            && inner.bytes().any(|b| b.is_ascii_digit())
            && inner
                .bytes()
                .all(|b| b.is_ascii_digit() || b == b'.' || b == b'_' || b == b' ');
        if literal_bounds {
            ctx.push(
                Rule::PanicFreeDecode,
                at,
                format!("literal-bound indexing `[{inner}]` panics when the buffer runs short"),
            );
        }
    }
}

fn rule_hot_path_alloc(ctx: &mut RuleCtx<'_>) {
    if ctx.regions.hot.is_empty() {
        return;
    }
    let code = &ctx.masked.code;
    let patterns: [&str; 14] = [
        "Vec::new",
        "Vec::with_capacity",
        "vec!",
        ".to_vec(",
        ".collect(",
        "collect::<",
        "Box::new",
        "format!",
        ".clone(",
        "String::new",
        "String::from",
        ".to_string(",
        ".to_owned(",
        "HashMap::new",
    ];
    for pat in patterns {
        for at in find_all(code, pat) {
            if ctx.regions.in_hot(at) {
                ctx.push(
                    Rule::HotPathAlloc,
                    at,
                    format!(
                        "`{}` allocates inside a `hot-path` block",
                        pat.trim_matches('.')
                    ),
                );
            }
        }
    }
}

fn rule_determinism(ctx: &mut RuleCtx<'_>) {
    let in_scope = ctx
        .class
        .crate_dir
        .as_deref()
        .is_some_and(|c| DETERMINISTIC_CRATES.contains(&c));
    if !in_scope || ctx.class.is_test_file {
        return;
    }
    let code = &ctx.masked.code;
    let patterns: [(&str, &str); 5] = [
        ("thread_rng", "OS-entropy rng breaks seeded reproducibility"),
        (
            "Instant::now",
            "wall-clock reads make runs non-reproducible",
        ),
        (
            "SystemTime::now",
            "wall-clock reads make runs non-reproducible",
        ),
        ("HashMap", "hash-ordered iteration varies between processes"),
        ("HashSet", "hash-ordered iteration varies between processes"),
    ];
    for (pat, why) in patterns {
        for at in find_words(code, pat) {
            if !ctx.regions.in_test(at) {
                ctx.push(
                    Rule::Determinism,
                    at,
                    format!("`{pat}` in deterministic non-test code: {why}"),
                );
            }
        }
    }
}

fn rule_unsafe_audit(ctx: &mut RuleCtx<'_>) {
    let code = &ctx.masked.code;
    for at in find_words(code, "unsafe") {
        let line = ctx.masked.line_of(at);
        let documented = ctx
            .masked
            .comments
            .iter()
            .any(|c| c.text.contains("SAFETY:") && c.line + 3 >= line && c.line <= line);
        if !documented {
            ctx.push(
                Rule::UnsafeAudit,
                at,
                "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Per-file driver
// ---------------------------------------------------------------------------

/// Result of scanning one file: diagnostics plus the facts the crate-level
/// unsafe audit needs.
pub struct FileReport {
    pub diagnostics: Vec<Diagnostic>,
    pub has_unsafe: bool,
    pub has_forbid_unsafe: bool,
}

/// Runs every line-level rule over one file. `rel_path` is the
/// workspace-relative path with forward slashes; it determines rule scope.
pub fn scan_file(rel_path: &str, src: &str) -> FileReport {
    let class = classify(rel_path);
    let masked = mask(src);
    let (mut allows, hot_markers, mut diagnostics) = parse_annotations(rel_path, &masked);
    let (regions, region_diags) = find_regions(&masked, &hot_markers, rel_path);
    diagnostics.extend(region_diags);

    let mut ctx = RuleCtx {
        class: &class,
        masked: &masked,
        regions: &regions,
        findings: Vec::new(),
    };
    rule_nan_ordering(&mut ctx);
    rule_panic_free_decode(&mut ctx);
    rule_hot_path_alloc(&mut ctx);
    rule_determinism(&mut ctx);
    rule_unsafe_audit(&mut ctx);

    let has_unsafe = !find_words(&masked.code, "unsafe").is_empty();
    let has_forbid_unsafe = masked.code.contains("#![forbid(unsafe_code)]");

    for (rule, offset, message) in ctx.findings.drain(..) {
        let line = masked.line_of(offset);
        let allowed = allows
            .iter_mut()
            .find(|a| a.rule == rule && a.covered.contains(&line));
        if let Some(allow) = allowed {
            allow.used = true;
            continue;
        }
        diagnostics.push(Diagnostic {
            file: rel_path.to_string(),
            line,
            rule: rule.name(),
            message,
            hint: rule.hint(),
        });
    }

    for allow in &allows {
        if !allow.used {
            diagnostics.push(annotation_diag(
                rel_path,
                allow.line,
                format!(
                    "unused lint allow({}): nothing on the covered lines violates the rule",
                    allow.rule.name()
                ),
            ));
        }
    }

    diagnostics.sort_by_key(|d| d.line);
    FileReport {
        diagnostics,
        has_unsafe,
        has_forbid_unsafe,
    }
}

/// Crate-level pass: a crate whose files contain zero `unsafe` must forbid
/// it at the root so none can creep back in.
pub fn crate_forbid_diagnostic(
    crate_label: &str,
    lib_rel_path: &str,
    any_unsafe: bool,
    lib_has_forbid: bool,
) -> Option<Diagnostic> {
    if any_unsafe || lib_has_forbid {
        return None;
    }
    Some(Diagnostic {
        file: lib_rel_path.to_string(),
        line: 1,
        rule: Rule::UnsafeAudit.name(),
        message: format!(
            "crate `{crate_label}` has no unsafe code but its root lacks `#![forbid(unsafe_code)]`"
        ),
        hint: Rule::UnsafeAudit.hint(),
    })
}

// ---------------------------------------------------------------------------
// Workspace driver
// ---------------------------------------------------------------------------

/// Directories never scanned: third-party stubs, build output, VCS metadata
/// and the lint crate's own deliberately-violating fixtures.
const EXCLUDED_DIRS: [&str; 4] = ["vendor", "target", ".git", "fixtures"];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if EXCLUDED_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans every workspace `.rs` file under `root` and returns all
/// diagnostics plus the number of files scanned.
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;

    let mut reports: BTreeMap<String, FileReport> = BTreeMap::new();
    let mut diagnostics = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path)?;
        let report = scan_file(&rel, &src);
        diagnostics.extend(report.diagnostics.iter().cloned());
        reports.insert(rel, report);
    }

    // Crate-level unsafe audit: every `crates/<name>` plus the root package.
    let mut crate_roots: Vec<(String, String)> = Vec::new();
    for rel in reports.keys() {
        if let Some(name) = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
        {
            let lib = format!("crates/{name}/src/lib.rs");
            if rel == &lib {
                crate_roots.push((name.to_string(), lib));
            }
        }
    }
    if reports.contains_key("src/lib.rs") {
        crate_roots.push(("selflearn-seizure".to_string(), "src/lib.rs".to_string()));
    }
    for (name, lib) in crate_roots {
        let src_prefix = lib.trim_end_matches("lib.rs").to_string();
        // A crate's unsafe census covers everything under its directory
        // (src, tests, benches), not just the library tree. The root
        // package owns everything outside `crates/`.
        let crate_prefix = src_prefix.trim_end_matches("src/").to_string();
        let in_crate = |rel: &str| {
            if crate_prefix.is_empty() {
                !rel.starts_with("crates/")
            } else {
                rel.starts_with(&crate_prefix)
            }
        };
        let any_unsafe = reports.iter().any(|(rel, r)| in_crate(rel) && r.has_unsafe);
        let lib_has_forbid = reports.get(&lib).is_some_and(|r| r.has_forbid_unsafe);
        if let Some(diag) = crate_forbid_diagnostic(&name, &lib, any_unsafe, lib_has_forbid) {
            diagnostics.push(diag);
        }
    }

    diagnostics.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok((diagnostics, files.len()))
}

#[cfg(test)]
mod masking_tests {
    use super::mask;

    #[test]
    fn string_contents_are_blanked_but_offsets_hold() {
        let src = "let s = \"partial_cmp().unwrap()\";\nlet x = 1;\n";
        let m = mask(src);
        assert_eq!(m.code.len(), src.len());
        assert!(!m.code.contains("partial_cmp"));
        assert!(m.code.contains("let x = 1;"));
        assert_eq!(m.line_of(src.find('x').unwrap()), 2);
    }

    #[test]
    fn nested_block_comments_close_at_the_right_depth() {
        let src = "/* outer /* inner */ still comment */ fn f() {}\n";
        let m = mask(src);
        assert!(!m.code.contains("still"));
        assert!(m.code.contains("fn f() {}"));
    }

    #[test]
    fn raw_strings_with_hashes_are_blanked() {
        let src = "let s = r#\"unsafe { \"quoted\" }\"#; let t = 2;\n";
        let m = mask(src);
        assert!(!m.code.contains("unsafe"));
        assert!(m.code.contains("let t = 2;"));
    }

    #[test]
    fn lifetimes_are_not_mistaken_for_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = '\\'';\nlet d = 'x';\n";
        let m = mask(src);
        // Lifetime syntax survives; char literal payloads are blanked.
        assert!(m.code.contains("&'a str"));
        assert!(!m.code.contains("'x'"));
    }

    #[test]
    fn comments_are_captured_with_their_line_numbers() {
        let src = "fn f() {}\n// trailing note\nfn g() {}\n";
        let m = mask(src);
        assert_eq!(m.comments.len(), 1);
        assert_eq!(m.comments[0].line, 2);
        assert!(m.comments[0].text.contains("trailing note"));
        assert!(!m.code.contains("trailing"));
    }
}
