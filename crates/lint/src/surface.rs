//! The surface rules: `CIJ-S601` (a public item nobody calls) and
//! `CIJ-S602` (a public item only the benchmark package calls).
//!
//! Unlike the per-file rules in [`crate::rules`], these read the whole
//! workspace at once. Every bare-`pub` fn, method, type, trait, const and
//! static of a product crate (`crates/{core,rtree,voronoi,pagestore,geom,
//! datagen}/src`, outside test code) is an *item*. A *reference* to an item
//! is an identifier token spelling its name anywhere in the files read,
//! except:
//!
//! * comments and string literals (the lexer emits no tokens for them);
//! * product-crate code inside `#[cfg(test)]` items and `#[test]` fns — a
//!   crate's own unit tests do not make its surface pay rent;
//! * the item's own definition (a recursive call, a struct's own fields),
//!   and the name token of any definition (`fn name` of another type
//!   defines the name; it does not call it);
//! * the impl blocks of the item's own type — `impl Foo` and
//!   `impl Trait for Foo` for a type `Foo`, and for a method or associated
//!   const of `Foo` likewise every impl block of `Foo`;
//! * `pub use` re-exports, which publish a name without calling it.
//!
//! References are sorted into three groups by the file they sit in:
//! product code; the facade and its consumers (`src/`, root `tests/`,
//! `examples/`, `crates/bench/`); and the benchmark package
//! (`cij_benchmark/src/`) alone. An item with no reference in any group is
//! a `CIJ-S601` diagnostic; one referenced only from the benchmark package
//! is a `CIJ-S602` diagnostic. Both name the item's definition.
//!
//! The check is name-based, so it is conservative: a name shared with
//! anything else (`len`, `path`, `name`, a local variable) counts that
//! thing's tokens as references and can hide a dead item, but an item the
//! rule reports really has no caller by that name.

use crate::lexer::{FileScan, TokKind};
use crate::rules::{Diagnostic, S601, S602};
use std::collections::HashMap;

/// The product crates whose public items must pay rent.
const PRODUCT_CRATES: [&str; 6] = ["core", "rtree", "voronoi", "pagestore", "geom", "datagen"];

/// Prefixes of the facade group: the facade crate, its integration tests
/// and examples, and the paper reproduction.
const FACADE_PREFIXES: [&str; 4] = ["src/", "tests/", "examples/", "crates/bench/"];

/// The benchmark package, a group of its own.
const BENCHMARK_PREFIX: &str = "cij_benchmark/src/";

/// Keywords whose next word is the name being defined.
const DEFINING_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "union", "const", "static", "mod",
];

/// Where a reference sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    Product,
    Facade,
    Benchmark,
}

fn group_of(path: &str) -> Option<Group> {
    if PRODUCT_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
    {
        Some(Group::Product)
    } else if FACADE_PREFIXES.iter().any(|p| path.starts_with(p)) {
        Some(Group::Facade)
    } else if path.starts_with(BENCHMARK_PREFIX) {
        Some(Group::Benchmark)
    } else {
        None
    }
}

/// One public item of a product crate.
struct Item {
    file: usize,
    line: usize,
    keyword: &'static str,
    name: String,
    /// The self type of the impl block the item is defined in, if any.
    owner: Option<String>,
    /// The item's own definition, as a token range.
    span: (usize, usize),
}

/// An `impl` block: its self type's name and its token range (header
/// included).
struct ImplBlock {
    self_type: String,
    span: (usize, usize),
}

/// What the surface rules need of one file beyond its scan.
struct Layout {
    group: Group,
    impls: Vec<ImplBlock>,
    /// `in_pub_use[i]`: token `i` is part of a `pub use … ;` re-export.
    in_pub_use: Vec<bool>,
}

/// Runs `CIJ-S601` / `CIJ-S602` over every file of the workspace that
/// holds items or references (`(workspace-relative path, scan)` pairs;
/// files outside the three groups are ignored). Returns the diagnostics and
/// the number of public items checked.
pub fn scan_workspace(files: &[(String, FileScan)]) -> (Vec<Diagnostic>, usize) {
    let layouts: Vec<Option<Layout>> = files
        .iter()
        .map(|(path, scan)| {
            group_of(path).map(|group| Layout {
                group,
                impls: impl_blocks(scan),
                in_pub_use: pub_use_marks(scan),
            })
        })
        .collect();
    let mut items = Vec::new();
    for (f, (_, scan)) in files.iter().enumerate() {
        if let Some(layout) = &layouts[f] {
            if layout.group == Group::Product {
                items.extend(public_items(f, scan, &layout.impls));
            }
        }
    }
    // Every occurrence of an item's name, indexed once.
    let mut occurrences: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for item in &items {
        occurrences.entry(item.name.as_str()).or_default();
    }
    for (f, (_, scan)) in files.iter().enumerate() {
        if layouts[f].is_none() {
            continue;
        }
        for (i, tok) in scan.tokens.iter().enumerate() {
            if let TokKind::Ident(w) = &tok.kind {
                if let Some(list) = occurrences.get_mut(w.as_str()) {
                    list.push((f, i));
                }
            }
        }
    }
    let mut out = Vec::new();
    for item in &items {
        let (mut elsewhere, mut benchmark) = (0usize, 0usize);
        for &(f, i) in &occurrences[item.name.as_str()] {
            let layout = layouts[f].as_ref().expect("indexed files have a layout");
            if is_reference(item, f, i, &files[f].1, layout) {
                match layout.group {
                    Group::Product | Group::Facade => elsewhere += 1,
                    Group::Benchmark => benchmark += 1,
                }
            }
        }
        let (rule, message) = if elsewhere + benchmark == 0 {
            (
                S601,
                format!(
                    "pub {} `{}` has no reference outside its own definition, \
                     its impl blocks, re-exports and test code — delete it or \
                     narrow it, or allowlist it with a reason",
                    item.keyword, item.name
                ),
            )
        } else if elsewhere == 0 {
            (
                S602,
                format!(
                    "pub {} `{}` is referenced only from cij_benchmark/src — \
                     surface kept alive by the benchmark alone",
                    item.keyword, item.name
                ),
            )
        } else {
            continue;
        };
        out.push(Diagnostic {
            rule,
            path: files[item.file].0.clone(),
            line: item.line,
            message,
        });
    }
    (out, items.len())
}

/// True when token `i` of file `f` is a reference to `item`.
fn is_reference(item: &Item, f: usize, i: usize, scan: &FileScan, layout: &Layout) -> bool {
    if layout.in_pub_use[i] {
        return false;
    }
    if layout.group == Group::Product && scan.in_test[i] {
        return false;
    }
    if f == item.file && (item.span.0..=item.span.1).contains(&i) {
        return false;
    }
    // Any definition of the name (a same-named fn of another type, a trait
    // method's impl) defines it; it does not call it.
    if i > 0
        && scan
            .ident(i - 1)
            .is_some_and(|w| DEFINING_KEYWORDS.contains(&w))
    {
        return false;
    }
    // The impl blocks of the item's own type: the type itself for a type
    // item, the owner for a method or associated const.
    let own_type = item.owner.as_deref().unwrap_or(&item.name);
    let in_own_impl = layout
        .impls
        .iter()
        .any(|b| b.self_type == own_type && (b.span.0..=b.span.1).contains(&i));
    !in_own_impl
}

/// The bare-`pub` items of a product file, outside test code.
fn public_items(file: usize, scan: &FileScan, impls: &[ImplBlock]) -> Vec<Item> {
    let mut items = Vec::new();
    for i in 0..scan.tokens.len() {
        if scan.ident(i) != Some("pub") || scan.in_test[i] || scan.punct(i + 1, '(') {
            continue;
        }
        let mut k = i + 1;
        while matches!(scan.ident(k), Some("unsafe" | "async" | "extern"))
            || (scan.ident(k) == Some("const") && scan.ident(k + 1) == Some("fn"))
        {
            k += 1;
        }
        let keyword = match scan.ident(k) {
            Some("fn") => "fn",
            Some("struct") => "struct",
            Some("enum") => "enum",
            Some("trait") => "trait",
            Some("type") => "type",
            Some("union") => "union",
            Some("const") => "const",
            Some("static") => "static",
            _ => continue,
        };
        let Some(name) = scan.ident(k + 1) else {
            continue;
        };
        let owner = impls
            .iter()
            .filter(|b| (b.span.0..=b.span.1).contains(&i))
            .max_by_key(|b| b.span.0)
            .map(|b| b.self_type.clone());
        items.push(Item {
            file,
            line: scan.tokens[i].line,
            keyword,
            name: name.to_string(),
            owner,
            span: (i, item_end(scan, k + 1)),
        });
    }
    items
}

/// The last token of the item whose name is token `from`: the `}` closing
/// its first top-level brace block, or its terminating `;`.
fn item_end(scan: &FileScan, from: usize) -> usize {
    let mut depth = 0usize;
    for k in from..scan.tokens.len() {
        match scan.tokens[k].kind {
            TokKind::Punct('(' | '[') => depth += 1,
            TokKind::Punct(')' | ']') => depth = depth.saturating_sub(1),
            TokKind::Punct(';') if depth == 0 => return k,
            TokKind::Punct('{') if depth == 0 => return matching_brace(scan, k),
            _ => {}
        }
    }
    scan.tokens.len().saturating_sub(1)
}

/// The index of the `}` matching the `{` at `open`.
fn matching_brace(scan: &FileScan, open: usize) -> usize {
    let mut depth = 0usize;
    for k in open..scan.tokens.len() {
        if scan.punct(k, '{') {
            depth += 1;
        } else if scan.punct(k, '}') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    scan.tokens.len().saturating_sub(1)
}

/// Every `impl` item of the file with its self type. An `impl` in type
/// position (`-> impl Iterator`, `x: impl Fn()`) follows a type-context
/// token and is not an item.
fn impl_blocks(scan: &FileScan) -> Vec<ImplBlock> {
    let mut blocks = Vec::new();
    for i in 0..scan.tokens.len() {
        if scan.ident(i) != Some("impl") {
            continue;
        }
        let item_position = i == 0
            || ['}', ';', '{', ']'].iter().any(|&c| scan.punct(i - 1, c))
            || matches!(scan.ident(i - 1), Some("unsafe" | "default"));
        if !item_position {
            continue;
        }
        // The header runs to the body's `{`, skipping generic brackets (a
        // `>` right after `-` is an arrow, not a bracket).
        let mut angle = 0usize;
        let mut k = i + 1;
        let mut self_start = i + 1;
        let mut self_end = None;
        while k < scan.tokens.len() {
            if scan.punct(k, '<') {
                angle += 1;
            } else if scan.punct(k, '>') && !scan.punct(k - 1, '-') {
                angle = angle.saturating_sub(1);
            } else if angle == 0 && scan.ident(k) == Some("for") {
                self_start = k + 1;
            } else if angle == 0 && (scan.ident(k) == Some("where") || scan.punct(k, '{')) {
                self_end.get_or_insert(k);
                if scan.punct(k, '{') {
                    break;
                }
            }
            k += 1;
        }
        if k >= scan.tokens.len() {
            continue;
        }
        if let Some(self_type) = type_name(scan, self_start, self_end.unwrap_or(k)) {
            blocks.push(ImplBlock {
                self_type,
                span: (i, matching_brace(scan, k)),
            });
        }
    }
    blocks
}

/// The name of the type spelled by tokens `from..to`: the last path
/// segment before its generic arguments (`a::Foo<T>` → `Foo`).
fn type_name(scan: &FileScan, from: usize, to: usize) -> Option<String> {
    let mut name = None;
    for k in from..to {
        if scan.punct(k, '<') {
            break;
        }
        if let Some(w) = scan.ident(k) {
            if !matches!(w, "dyn" | "mut" | "const" | "impl") {
                name = Some(w.to_string());
            }
        }
    }
    name
}

/// Marks the tokens of every `pub use … ;` (and `pub(…) use … ;`).
fn pub_use_marks(scan: &FileScan) -> Vec<bool> {
    let mut marks = vec![false; scan.tokens.len()];
    let mut i = 0;
    while i < scan.tokens.len() {
        if scan.ident(i) != Some("pub") {
            i += 1;
            continue;
        }
        let mut k = i + 1;
        if scan.punct(k, '(') {
            while k < scan.tokens.len() && !scan.punct(k, ')') {
                k += 1;
            }
            k += 1;
        }
        if scan.ident(k) != Some("use") {
            i += 1;
            continue;
        }
        while k < scan.tokens.len() && !scan.punct(k, ';') {
            k += 1;
        }
        for mark in marks.iter_mut().take(k + 1).skip(i) {
            *mark = true;
        }
        i = k + 1;
    }
    marks
}
