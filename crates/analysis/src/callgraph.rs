//! Workspace call-graph extraction for the effect-inference analyzer.
//!
//! This is the *syntactic* half of [`crate::effects`]: it walks every
//! crate's `src/` tree (the root umbrella crate plus `crates/*`;
//! `shims/*` are external stand-ins and are deliberately out of
//! scope), lexes each file with [`crate::lexer`], and extracts
//!
//! * **items** — free functions, inherent/trait methods and associated
//!   functions, with their crate, module path (derived from the file
//!   layout plus inline `mod` blocks), `impl`/`trait` type context,
//!   and a `cfg(test)`/`#[test]` flag;
//! * **call sites** — qualified paths (`Instant::now`, `pool::run_ordered`),
//!   method calls (`.lock(…)`), and macro invocations (`panic!`),
//!   with local `let`/parameter bindings shadowing bare idents so a
//!   closure variable named like a workspace function never resolves
//!   to it;
//! * **iteration facts** — `for _ in map` / `map.iter()`-family uses
//!   whose receiver is bound to a `HashMap`/`HashSet` (locally, by
//!   parameter type, or by any struct field of hash type), feeding the
//!   `UnorderedIter` effect;
//! * **allow directives** — `// effect-allow(Effect, …): reason`
//!   comments immediately preceding a function, the audited-boundary
//!   escape hatch consumed by the inference pass.
//!
//! Resolution of call sites to workspace functions (and the
//! dependency-cone filtering that keeps, say, the CLI's file-journal
//! `append` from leaking `Io` into `core::harness::Sweep::run_slice`
//! through a `dyn` sink) lives in [`crate::effects`]; this module only
//! reports what the source *says*.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// How a call site invokes its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// A path call: `f(…)`, `mod::f(…)`, `Type::assoc(…)`.
    Plain,
    /// A method call: `recv.m(…)`.
    Method,
    /// A macro invocation: `name!(…)`.
    Macro,
}

/// One syntactic call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// How the call is written.
    pub kind: CallKind,
    /// Path segments: the full path for [`CallKind::Plain`]
    /// (`["Instant", "now"]`), a single segment for methods/macros.
    pub path: Vec<String>,
    /// 0-based source line of the call.
    pub line: usize,
    /// For method calls named `load`/`store`/`swap` etc.: whether the
    /// argument list mentions an atomic memory `Ordering`, which
    /// distinguishes atomics from same-named methods on domain types.
    pub has_ordering_arg: bool,
}

/// A `// effect-allow(Effect, …): reason` directive attached to the
/// function item it immediately precedes.
#[derive(Debug, Clone)]
pub struct Directive {
    /// Raw effect names from inside the parentheses (validated by the
    /// inference pass, which rejects unknown names).
    pub effects: Vec<String>,
    /// The free-text audit justification after the colon.
    pub reason: String,
    /// 0-based line of the directive comment.
    pub line: usize,
}

/// One function item: a free function, an inherent or trait method,
/// or an associated function.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Crate identifier (the directory name under `crates/`, or the
    /// root package name for the umbrella crate).
    pub crate_id: String,
    /// Module path inside the crate (file layout + inline `mod`s).
    pub module: Vec<String>,
    /// `impl`/`trait` type context when this is a method or associated
    /// function.
    pub self_type: Option<String>,
    /// The function name.
    pub name: String,
    /// Repo-relative source file.
    pub file: String,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// Inside `#[cfg(test)]`/`#[test]` — excluded from enforcement.
    pub is_test: bool,
    /// Effect allowances declared on this function.
    pub directives: Vec<Directive>,
    /// Call sites in the body.
    pub calls: Vec<CallSite>,
    /// Lines where an ident *known locally* to be hash-typed is
    /// iterated.
    pub hash_iter_lines: Vec<usize>,
    /// Iterated idents of unknown type (checked against the global
    /// hash-field name set by the inference pass): `(ident, line)`.
    pub maybe_hash_iters: Vec<(String, usize)>,
}

impl FnInfo {
    /// Full qualified path: `crate::module::Type::name`.
    pub fn qualified(&self) -> String {
        self.segments().join("::")
    }

    /// Qualified path as owned segments.
    pub fn segments(&self) -> Vec<String> {
        let mut s = vec![self.crate_id.clone()];
        s.extend(self.module.iter().cloned());
        if let Some(t) = &self.self_type {
            s.push(t.clone());
        }
        s.push(self.name.clone());
        s
    }
}

/// Per-crate metadata from `Cargo.toml`.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Crate identifier (directory name; root package name for `.`).
    pub id: String,
    /// `[package] name` (equals `id` when no manifest was found).
    pub package: String,
    /// Direct dependencies, as crate identifiers (workspace members
    /// only; external names are dropped).
    pub deps: BTreeSet<String>,
    /// Whether a manifest was parsed. Without one the dependency cone
    /// conservatively includes every crate.
    pub deps_known: bool,
}

/// The extracted workspace: all functions plus crate metadata.
#[derive(Debug)]
pub struct CallGraph {
    /// Every function item found (tests included, flagged).
    pub fns: Vec<FnInfo>,
    /// Crate id → metadata.
    pub crates: BTreeMap<String, CrateInfo>,
    /// Names of struct fields declared with a `HashMap`/`HashSet`
    /// type anywhere in the workspace (coarse, name-keyed).
    pub hash_fields: BTreeSet<String>,
    /// Number of `.rs` files scanned.
    pub files: usize,
}

impl CallGraph {
    /// Scan a workspace rooted at `root`: the root package's `src/`
    /// (if any) plus every `crates/*/src`. Fails only on unreadable
    /// directory structure; unreadable single files are skipped.
    pub fn scan(root: &Path) -> Result<CallGraph, String> {
        let mut graph = CallGraph {
            fns: Vec::new(),
            crates: BTreeMap::new(),
            hash_fields: BTreeSet::new(),
            files: 0,
        };
        let mut members: Vec<(String, PathBuf)> = Vec::new();

        // Root umbrella package.
        let root_manifest = manifest_of(&root.join("Cargo.toml"));
        if root.join("src").is_dir() {
            let id = root_manifest
                .as_ref()
                .map(|m| m.package.clone())
                .unwrap_or_else(|| "root".to_string());
            members.push((id, root.to_path_buf()));
        }

        // crates/* members, sorted for determinism.
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)
                .map_err(|e| format!("read {}: {e}", crates_dir.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.join("src").is_dir())
                .collect();
            entries.sort();
            for dir in entries {
                let id = dir
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                if !id.is_empty() {
                    members.push((id, dir));
                }
            }
        }

        // Crate metadata: package names first, then dependency edges
        // (manifest keys are package names; map them back to ids).
        let mut manifests: BTreeMap<String, Manifest> = BTreeMap::new();
        for (id, dir) in &members {
            if let Some(m) = manifest_of(&dir.join("Cargo.toml")) {
                manifests.insert(id.clone(), m);
            }
        }
        let package_to_id: BTreeMap<String, String> = members
            .iter()
            .map(|(id, _)| {
                let pkg = manifests.get(id).map(|m| m.package.clone()).unwrap_or_else(|| id.clone());
                (pkg, id.clone())
            })
            .collect();
        for (id, _) in &members {
            let (package, deps, known) = match manifests.get(id) {
                Some(m) => {
                    let deps = m
                        .dep_keys
                        .iter()
                        .filter_map(|k| package_to_id.get(k).cloned())
                        .filter(|d| d != id)
                        .collect();
                    (m.package.clone(), deps, true)
                }
                None => (id.clone(), BTreeSet::new(), false),
            };
            graph.crates.insert(
                id.clone(),
                CrateInfo { id: id.clone(), package, deps, deps_known: known },
            );
        }

        // Source files.
        for (id, dir) in &members {
            let mut files = Vec::new();
            collect_rs(&dir.join("src"), &mut files);
            files.sort();
            for f in files {
                let Ok(src) = fs::read_to_string(&f) else { continue };
                graph.files += 1;
                let rel = f
                    .strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .replace('\\', "/");
                let module = module_path_of(&f, &dir.join("src"));
                let toks = lex(&src);
                let mut p = Parser {
                    t: &toks,
                    i: 0,
                    out: &mut graph.fns,
                    hash_fields: &mut graph.hash_fields,
                };
                let ctx = Ctx {
                    crate_id: id,
                    file: &rel,
                    module,
                    self_type: None,
                    in_test: false,
                };
                let end = toks.len();
                p.parse_items(end, &ctx);
            }
        }
        Ok(graph)
    }

    /// The dependency cone of a crate: itself plus its transitive
    /// workspace dependencies. A crate without a parsed manifest gets
    /// the whole workspace (conservative).
    pub fn cone(&self, crate_id: &str) -> BTreeSet<String> {
        match self.crates.get(crate_id) {
            None => self.crates.keys().cloned().collect(),
            Some(c) if !c.deps_known => self.crates.keys().cloned().collect(),
            Some(_) => {
                let mut seen: BTreeSet<String> = BTreeSet::new();
                let mut work = vec![crate_id.to_string()];
                while let Some(cur) = work.pop() {
                    if !seen.insert(cur.clone()) {
                        continue;
                    }
                    if let Some(info) = self.crates.get(&cur) {
                        for d in &info.deps {
                            if !seen.contains(d) {
                                work.push(d.clone());
                            }
                        }
                    }
                }
                seen
            }
        }
    }
}

struct Manifest {
    package: String,
    dep_keys: BTreeSet<String>,
}

/// Minimal `Cargo.toml` reader: `[package] name` and the keys of
/// `[dependencies]`. Line-oriented; enough for workspace manifests.
fn manifest_of(path: &Path) -> Option<Manifest> {
    let text = fs::read_to_string(path).ok()?;
    let mut section = String::new();
    let mut package = String::new();
    let mut dep_keys = BTreeSet::new();
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        if section == "package" {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    package = v.trim().trim_matches('"').to_string();
                }
            }
        } else if section == "dependencies" {
            let key: String = line
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '-')
                .collect();
            if !key.is_empty() {
                dep_keys.insert(key);
            }
        }
    }
    if package.is_empty() {
        None
    } else {
        Some(Manifest { package, dep_keys })
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    for entry in rd.filter_map(|e| e.ok()) {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Module path for a file under `src/`: directory components plus the
/// file stem, with `lib`/`main`/`mod` stems dropped.
fn module_path_of(file: &Path, src: &Path) -> Vec<String> {
    let rel = file.strip_prefix(src).unwrap_or(file);
    let mut parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    if let Some(last) = parts.last_mut() {
        *last = last.trim_end_matches(".rs").to_string();
        if matches!(last.as_str(), "lib" | "main" | "mod") {
            parts.pop();
        }
    }
    parts
}

#[derive(Clone)]
struct Ctx<'a> {
    crate_id: &'a str,
    file: &'a str,
    module: Vec<String>,
    self_type: Option<String>,
    in_test: bool,
}

const ITER_METHODS: &[&str] = &[
    "iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "into_keys", "into_values",
    "drain",
];

const ORDERED_ATOMIC_METHODS: &[&str] =
    &["load", "store", "swap", "compare_exchange", "compare_exchange_weak", "fetch_update"];

const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "ref", "mut", "box",
    "unsafe", "else", "let", "fn", "impl", "dyn", "where", "break", "continue", "await",
];

struct Parser<'a> {
    t: &'a [Token],
    i: usize,
    out: &'a mut Vec<FnInfo>,
    hash_fields: &'a mut BTreeSet<String>,
}

impl Parser<'_> {
    fn ident_at(&self, i: usize) -> Option<&str> {
        match self.t.get(i) {
            Some(Token { kind: TokenKind::Ident, text, .. }) => Some(text),
            _ => None,
        }
    }

    fn punct_at(&self, i: usize, c: char) -> bool {
        matches!(self.t.get(i), Some(t) if t.kind == TokenKind::Punct(c))
    }

    fn line_at(&self, i: usize) -> usize {
        self.t.get(i).map(|t| t.line).unwrap_or(0)
    }

    /// Index just past the token matching the opener at `open_idx`.
    fn skip_balanced(&self, open_idx: usize, open: char, close: char, end: usize) -> usize {
        let mut depth = 0i64;
        let mut j = open_idx;
        while j < end {
            if self.punct_at(j, open) {
                depth += 1;
            } else if self.punct_at(j, close) {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        end
    }

    /// Skip a generic parameter list starting at `<`. Treats `->`'s
    /// `>` as plain punctuation (it can appear inside `Fn(..) -> T`
    /// bounds).
    fn skip_angles(&self, open_idx: usize, end: usize) -> usize {
        let mut depth = 0i64;
        let mut j = open_idx;
        while j < end {
            if self.punct_at(j, '<') {
                depth += 1;
            } else if self.punct_at(j, '>') && !(j > 0 && self.punct_at(j - 1, '-')) {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        end
    }

    fn skip_to_semi(&self, from: usize, end: usize) -> usize {
        let mut depth = 0i64;
        let mut j = from;
        while j < end {
            match self.t.get(j).map(|t| &t.kind) {
                Some(TokenKind::Punct(c @ ('{' | '(' | '['))) => {
                    let _ = c;
                    depth += 1;
                }
                Some(TokenKind::Punct('}' | ')' | ']')) => depth -= 1,
                Some(TokenKind::Punct(';')) if depth <= 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        end
    }

    /// Parse items until `end`. Recurses into `mod`/`impl`/`trait`
    /// blocks; registers functions into `self.out`.
    fn parse_items(&mut self, end: usize, ctx: &Ctx) {
        let mut pending_test = false;
        let mut pending_dirs: Vec<Directive> = Vec::new();
        while self.i < end {
            let i = self.i;
            match self.t.get(i).map(|t| &t.kind) {
                Some(TokenKind::Comment) => {
                    if let Some(d) = parse_directive(&self.t[i]) {
                        pending_dirs.push(d);
                    }
                    self.i += 1;
                }
                Some(TokenKind::Punct('#')) => {
                    // Attribute. Inner (`#![…]`) attrs are skipped;
                    // outer attrs mentioning `test` (without `not`)
                    // mark the next item as test-only.
                    let inner = self.punct_at(i + 1, '!');
                    let open = if inner { i + 2 } else { i + 1 };
                    if self.punct_at(open, '[') {
                        let after = self.skip_balanced(open, '[', ']', end);
                        if !inner {
                            let mut has_test = false;
                            let mut has_not = false;
                            for k in open..after {
                                if let Some(w) = self.ident_at(k) {
                                    has_test |= w == "test";
                                    has_not |= w == "not";
                                }
                            }
                            if has_test && !has_not {
                                pending_test = true;
                            }
                        }
                        self.i = after;
                    } else {
                        self.i += 1;
                    }
                }
                Some(TokenKind::Ident) => {
                    let word = self.t[i].text.as_str();
                    match word {
                        "mod" => {
                            if self.punct_at(i + 2, '{') {
                                let name =
                                    self.ident_at(i + 1).unwrap_or_default().to_string();
                                let body_end = self.skip_balanced(i + 2, '{', '}', end);
                                let mut sub = ctx.clone();
                                sub.module.push(name);
                                sub.in_test |= pending_test;
                                self.i = i + 3;
                                self.parse_items(body_end.saturating_sub(1), &sub);
                                self.i = body_end;
                            } else {
                                self.i = self.skip_to_semi(i, end);
                            }
                            pending_test = false;
                            pending_dirs.clear();
                        }
                        "impl" | "trait" => {
                            let (ty, body_open) = self.impl_header(i, end, word == "trait");
                            if self.punct_at(body_open, '{') {
                                let body_end =
                                    self.skip_balanced(body_open, '{', '}', end);
                                let mut sub = ctx.clone();
                                sub.self_type = ty;
                                sub.in_test |= pending_test;
                                self.i = body_open + 1;
                                self.parse_items(body_end.saturating_sub(1), &sub);
                                self.i = body_end;
                            } else {
                                self.i = body_open.max(i + 1);
                            }
                            pending_test = false;
                            pending_dirs.clear();
                        }
                        "fn" => {
                            let mut sub = ctx.clone();
                            sub.in_test |= pending_test;
                            let dirs = std::mem::take(&mut pending_dirs);
                            self.parse_fn(end, &sub, dirs);
                            pending_test = false;
                        }
                        "struct" | "union" => {
                            self.parse_struct(end);
                            pending_test = false;
                            pending_dirs.clear();
                        }
                        "enum" => {
                            let mut j = i + 1;
                            while j < end
                                && !self.punct_at(j, '{')
                                && !self.punct_at(j, ';')
                            {
                                j = if self.punct_at(j, '<') {
                                    self.skip_angles(j, end)
                                } else {
                                    j + 1
                                };
                            }
                            self.i = if self.punct_at(j, '{') {
                                self.skip_balanced(j, '{', '}', end)
                            } else {
                                j + 1
                            };
                            pending_test = false;
                            pending_dirs.clear();
                        }
                        "macro_rules" => {
                            let mut j = i + 1;
                            while j < end
                                && !self.punct_at(j, '{')
                                && !self.punct_at(j, '(')
                            {
                                j += 1;
                            }
                            self.i = if self.punct_at(j, '{') {
                                self.skip_balanced(j, '{', '}', end)
                            } else if self.punct_at(j, '(') {
                                self.skip_to_semi(j, end)
                            } else {
                                j
                            };
                            pending_test = false;
                            pending_dirs.clear();
                        }
                        "use" | "static" | "type" => {
                            self.i = self.skip_to_semi(i, end);
                            pending_test = false;
                            pending_dirs.clear();
                        }
                        "const" => {
                            if self.ident_at(i + 1) == Some("fn") {
                                self.i += 1; // const fn — handled next.
                            } else {
                                self.i = self.skip_to_semi(i, end);
                                pending_test = false;
                                pending_dirs.clear();
                            }
                        }
                        "pub" => {
                            self.i = if self.punct_at(i + 1, '(') {
                                self.skip_balanced(i + 1, '(', ')', end)
                            } else {
                                i + 1
                            };
                        }
                        _ => self.i += 1,
                    }
                }
                Some(_) => self.i += 1,
                None => break,
            }
        }
    }

    /// Resolve an `impl`/`trait` header starting at `at`: the subject
    /// type name and the index of the opening `{`.
    fn impl_header(&self, at: usize, end: usize, is_trait: bool) -> (Option<String>, usize) {
        let mut j = at + 1;
        let mut first: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        let mut saw_where = false;
        while j < end && !self.punct_at(j, '{') && !self.punct_at(j, ';') {
            if self.punct_at(j, '<') {
                j = self.skip_angles(j, end);
                continue;
            }
            if let Some(w) = self.ident_at(j) {
                match w {
                    "for" => saw_for = true,
                    "where" => saw_where = true,
                    "dyn" | "mut" | "const" | "unsafe" => {}
                    _ if saw_where => {}
                    _ if saw_for => {
                        if after_for.is_none() {
                            after_for = Some(w.to_string());
                        }
                    }
                    _ => {
                        if first.is_none() {
                            first = Some(w.to_string());
                        }
                    }
                }
            }
            j += 1;
        }
        let ty = if is_trait { first } else { after_for.or(first) };
        (ty, j)
    }

    /// Harvest `HashMap`/`HashSet`-typed field names from a `struct`.
    fn parse_struct(&mut self, end: usize) {
        let i = self.i;
        let mut j = i + 1;
        while j < end
            && !self.punct_at(j, '{')
            && !self.punct_at(j, '(')
            && !self.punct_at(j, ';')
        {
            j = if self.punct_at(j, '<') { self.skip_angles(j, end) } else { j + 1 };
        }
        if self.punct_at(j, '(') {
            // Tuple struct: `struct X(…);`
            self.i = self.skip_to_semi(j, end);
            return;
        }
        if !self.punct_at(j, '{') {
            self.i = j + 1;
            return;
        }
        let body_end = self.skip_balanced(j, '{', '}', end);
        let mut k = j + 1;
        let last = body_end.saturating_sub(1);
        while k < last {
            // A field is `name :` at top depth, type runs to the comma.
            if self.ident_at(k).is_some()
                && self.punct_at(k + 1, ':')
                && !self.punct_at(k + 2, ':')
                && !self.punct_at(k.wrapping_sub(1), ':')
            {
                let name = self.ident_at(k).unwrap_or_default().to_string();
                let mut depth = 0i64;
                let mut m = k + 2;
                let mut is_hash = false;
                while m < last {
                    match self.t.get(m).map(|t| &t.kind) {
                        Some(TokenKind::Punct('(' | '[')) => depth += 1,
                        Some(TokenKind::Punct(')' | ']')) => depth -= 1,
                        Some(TokenKind::Punct('<')) => depth += 1,
                        Some(TokenKind::Punct('>')) => depth -= 1,
                        Some(TokenKind::Punct(',')) if depth <= 0 => break,
                        Some(TokenKind::Ident)
                            if matches!(self.t[m].text.as_str(), "HashMap" | "HashSet") =>
                        {
                            is_hash = true;
                        }
                        _ => {}
                    }
                    m += 1;
                }
                if is_hash {
                    self.hash_fields.insert(name);
                }
                k = m;
            } else {
                k += 1;
            }
        }
        self.i = body_end;
    }

    /// Parse a `fn` item at `self.i`; registers it (with body facts)
    /// unless it is a body-less trait method declaration.
    fn parse_fn(&mut self, end: usize, ctx: &Ctx, dirs: Vec<Directive>) {
        let at = self.i;
        let Some(name) = self.ident_at(at + 1).map(|s| s.to_string()) else {
            self.i = at + 1;
            return;
        };
        let mut j = at + 2;
        if self.punct_at(j, '<') {
            j = self.skip_angles(j, end);
        }
        if !self.punct_at(j, '(') {
            self.i = at + 1;
            return;
        }
        let params_end = self.skip_balanced(j, '(', ')', end);

        // Parameter names (shadow set) and hash-typed params.
        let mut locals: BTreeSet<String> = BTreeSet::new();
        let mut local_hash: BTreeSet<String> = BTreeSet::new();
        let mut depth = 0i64;
        let mut k = j;
        while k < params_end {
            match self.t.get(k).map(|t| &t.kind) {
                Some(TokenKind::Punct('(' | '[' | '<')) => depth += 1,
                Some(TokenKind::Punct(')' | ']' | '>')) => depth -= 1,
                Some(TokenKind::Ident)
                    if depth == 1
                        && self.punct_at(k + 1, ':')
                        && !self.punct_at(k + 2, ':')
                        && self.t[k].text != "self" =>
                {
                    let pname = self.t[k].text.clone();
                    // Scan the type for hash containers.
                    let mut m = k + 2;
                    let mut d2 = 0i64;
                    let mut is_hash = false;
                    while m < params_end {
                        match self.t.get(m).map(|t| &t.kind) {
                            Some(TokenKind::Punct('(' | '[' | '<')) => d2 += 1,
                            Some(TokenKind::Punct(']' | '>')) => d2 -= 1,
                            Some(TokenKind::Punct(')')) => {
                                if d2 <= 0 {
                                    break;
                                }
                                d2 -= 1;
                            }
                            Some(TokenKind::Punct(',')) if d2 <= 0 => break,
                            Some(TokenKind::Ident)
                                if matches!(
                                    self.t[m].text.as_str(),
                                    "HashMap" | "HashSet"
                                ) =>
                            {
                                is_hash = true;
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                    if is_hash {
                        local_hash.insert(pname.clone());
                    }
                    locals.insert(pname);
                }
                _ => {}
            }
            k += 1;
        }

        // Return type / where clause: scan to `{` or `;`.
        let mut b = params_end;
        while b < end && !self.punct_at(b, '{') && !self.punct_at(b, ';') {
            b += 1;
        }
        if !self.punct_at(b, '{') {
            // Trait method declaration without a body.
            self.i = b + 1;
            return;
        }
        let body_end = self.skip_balanced(b, '{', '}', end);

        let mut info = FnInfo {
            crate_id: ctx.crate_id.to_string(),
            module: ctx.module.clone(),
            self_type: ctx.self_type.clone(),
            name,
            file: ctx.file.to_string(),
            line: self.line_at(at),
            is_test: ctx.in_test,
            directives: dirs,
            calls: Vec::new(),
            hash_iter_lines: Vec::new(),
            maybe_hash_iters: Vec::new(),
        };
        self.extract_facts(b + 1, body_end.saturating_sub(1), ctx, &mut info, locals, local_hash);
        self.out.push(info);
        self.i = body_end;
    }

    /// Walk a function body collecting call sites and iteration facts.
    #[allow(clippy::too_many_arguments)]
    fn extract_facts(
        &mut self,
        start: usize,
        end: usize,
        ctx: &Ctx,
        info: &mut FnInfo,
        mut locals: BTreeSet<String>,
        mut local_hash: BTreeSet<String>,
    ) {
        let mut j = start;
        while j < end {
            match self.t.get(j).map(|t| &t.kind) {
                Some(TokenKind::Comment) | None => {
                    j += 1;
                }
                Some(TokenKind::Ident) => {
                    let w = self.t[j].text.as_str();
                    if w == "fn" && self.ident_at(j + 1).is_some() {
                        // Nested function item.
                        self.i = j;
                        self.parse_fn(end, ctx, Vec::new());
                        j = self.i.max(j + 1);
                        continue;
                    }
                    if w == "let" {
                        let mut off = j + 1;
                        if self.ident_at(off) == Some("mut") {
                            off += 1;
                        }
                        // A tuple pattern binds each of its names.
                        let names = if self.punct_at(off, '(') {
                            self.pattern_bindings(off, self.skip_balanced(off, '(', ')', end))
                        } else {
                            self.ident_at(off).map(str::to_string).into_iter().collect()
                        };
                        // Hash-typed if the decl/initializer up to
                        // `;` mentions HashMap/HashSet.
                        let stop = self.skip_to_semi(off, end);
                        let is_hash = (off..stop).any(|m| {
                            matches!(self.ident_at(m), Some("HashMap") | Some("HashSet"))
                        });
                        for bname in names {
                            if is_hash {
                                local_hash.insert(bname.clone());
                            } else {
                                local_hash.remove(&bname);
                            }
                            locals.insert(bname);
                        }
                        j += 1;
                        continue;
                    }
                    if w == "for" {
                        if let Some(in_at) = self.for_in(j, end) {
                            self.for_loop_iter_fact(j, in_at, info, &locals, &local_hash);
                            for bname in self.pattern_bindings(j + 1, in_at) {
                                local_hash.remove(&bname);
                                locals.insert(bname);
                            }
                        }
                        j += 1;
                        continue;
                    }
                    // Macro invocation: `name!(…)` / `name![…]` / `name!{…}`.
                    if self.punct_at(j + 1, '!')
                        && (self.punct_at(j + 2, '(')
                            || self.punct_at(j + 2, '[')
                            || self.punct_at(j + 2, '{'))
                    {
                        info.calls.push(CallSite {
                            kind: CallKind::Macro,
                            path: vec![w.to_string()],
                            line: self.t[j].line,
                            has_ordering_arg: false,
                        });
                        j += 2;
                        continue;
                    }
                    // Plain path call: `x(…)` not preceded by `.`.
                    if self.punct_at(j + 1, '(')
                        && !(j > 0 && self.punct_at(j - 1, '.'))
                        && !CALL_KEYWORDS.contains(&w)
                    {
                        if let Some(path) = self.path_backwards(j, start) {
                            let single = path.len() == 1;
                            let last_upper = path
                                .last()
                                .and_then(|s| s.chars().next())
                                .is_some_and(|c| c.is_uppercase());
                            let shadowed = single && locals.contains(&path[0]);
                            if !last_upper && !shadowed {
                                info.calls.push(CallSite {
                                    kind: CallKind::Plain,
                                    path,
                                    line: self.t[j].line,
                                    has_ordering_arg: false,
                                });
                            }
                        }
                    }
                    j += 1;
                }
                Some(TokenKind::Punct('.')) => {
                    if let Some(m) = self.ident_at(j + 1) {
                        if self.punct_at(j + 2, '(') {
                            let m = m.to_string();
                            let has_ordering = ORDERED_ATOMIC_METHODS
                                .contains(&m.as_str())
                                && self.args_mention_ordering(j + 2, end);
                            if ITER_METHODS.contains(&m.as_str()) {
                                self.receiver_iter_fact(j, info, &locals, &local_hash);
                            }
                            info.calls.push(CallSite {
                                kind: CallKind::Method,
                                path: vec![m],
                                line: self.t[j].line,
                                has_ordering_arg: has_ordering,
                            });
                            j += 2;
                            continue;
                        }
                    }
                    j += 1;
                }
                Some(_) => j += 1,
            }
        }
    }

    /// Build the `a::b::f` path ending at the ident at `j`, walking
    /// `::`-joined segments backwards (stopping at turbofish `>`).
    fn path_backwards(&self, j: usize, floor: usize) -> Option<Vec<String>> {
        let mut segs = vec![self.t.get(j)?.text.clone()];
        let mut k = j;
        while k >= floor + 3
            && self.punct_at(k - 1, ':')
            && self.punct_at(k - 2, ':')
            && self.ident_at(k - 3).is_some()
        {
            segs.insert(0, self.t[k - 3].text.clone());
            k -= 3;
        }
        Some(segs)
    }

    /// Does the argument list starting at `(` mention an atomic
    /// memory ordering?
    fn args_mention_ordering(&self, open: usize, end: usize) -> bool {
        let close = self.skip_balanced(open, '(', ')', end);
        (open..close).any(|m| {
            matches!(
                self.ident_at(m),
                Some("Ordering" | "SeqCst" | "Relaxed" | "Acquire" | "Release" | "AcqRel")
            )
        })
    }

    /// The `in` of the `for` at `at`: the first `in` outside brackets,
    /// within a short window and before any `{`.
    fn for_in(&self, at: usize, end: usize) -> Option<usize> {
        let mut depth = 0i64;
        for j in at + 1..(at + 40).min(end) {
            match self.t.get(j).map(|t| &t.kind) {
                Some(TokenKind::Punct('(' | '[')) => depth += 1,
                Some(TokenKind::Punct(')' | ']')) => depth -= 1,
                Some(TokenKind::Ident) if depth == 0 && self.t[j].text == "in" => return Some(j),
                Some(TokenKind::Punct('{')) => return None,
                _ => {}
            }
        }
        None
    }

    /// The names a pattern spanning `from..to` binds: its lowercase
    /// idents other than `mut`, `ref` and `_`, and not part of a path
    /// or a constructor (`Some(x)` binds `x` only).
    fn pattern_bindings(&self, from: usize, to: usize) -> Vec<String> {
        (from..to)
            .filter(|&k| {
                self.ident_at(k).is_some_and(|w| {
                    !matches!(w, "mut" | "ref" | "_")
                        && !w.starts_with(|c: char| c.is_uppercase())
                })
            })
            .filter(|&k| {
                let path_or_call = [':', '(', '{'].iter().any(|&c| self.punct_at(k + 1, c))
                    || (k > 0 && self.punct_at(k - 1, ':'));
                !path_or_call
            })
            .map(|k| self.t[k].text.clone())
            .collect()
    }

    /// `for pat in <chain> {`, with `in` at `in_at`: record an
    /// iteration fact for the last ident of a plain receiver chain
    /// (`&self.results` → `results`).
    fn for_loop_iter_fact(
        &self,
        at: usize,
        in_at: usize,
        info: &mut FnInfo,
        locals: &BTreeSet<String>,
        local_hash: &BTreeSet<String>,
    ) {
        let mut k = in_at + 1;
        while self.punct_at(k, '&') || self.ident_at(k) == Some("mut") {
            k += 1;
        }
        // Ident ('.' Ident)* chain.
        let mut last: Option<String> = None;
        while let Some(w) = self.ident_at(k) {
            last = Some(w.to_string());
            if self.punct_at(k + 1, '.') && self.ident_at(k + 2).is_some() {
                k += 2;
            } else {
                k += 1;
                break;
            }
        }
        // A trailing `(` means the chain ends in a call — the method
        // handler owns that case.
        if self.punct_at(k, '(') {
            return;
        }
        let Some(name) = last else { return };
        if name == "self" {
            return;
        }
        if local_hash.contains(&name) {
            info.hash_iter_lines.push(self.t[at].line);
        } else if !locals.contains(&name) {
            info.maybe_hash_iters.push((name, self.t[at].line));
        }
    }

    /// `recv.iter()`-family: record an iteration fact for the ident
    /// immediately before the dot at `dot`.
    fn receiver_iter_fact(
        &self,
        dot: usize,
        info: &mut FnInfo,
        locals: &BTreeSet<String>,
        local_hash: &BTreeSet<String>,
    ) {
        if dot == 0 {
            return;
        }
        let Some(recv) = self.ident_at(dot - 1) else { return };
        if recv == "self" || recv.chars().next().is_some_and(|c| c.is_uppercase()) {
            return;
        }
        let recv = recv.to_string();
        if local_hash.contains(&recv) {
            info.hash_iter_lines.push(self.t[dot].line);
        } else if !locals.contains(&recv) {
            info.maybe_hash_iters.push((recv, self.t[dot].line));
        }
    }
}

/// Parse a `// effect-allow(Effect, …): reason` comment. Doc comments
/// (`///`, `//!`, `/**`) are prose — mentioning the directive there
/// must not declare one.
fn parse_directive(tok: &Token) -> Option<Directive> {
    if tok.text.starts_with('/') || tok.text.starts_with('!') || tok.text.starts_with('*') {
        return None;
    }
    let text = tok.text.trim();
    let rest = text.split_once("effect-allow(")?.1;
    let (inside, tail) = rest.split_once(')')?;
    let effects: Vec<String> = inside
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if effects.is_empty() {
        return None;
    }
    let reason = tail.trim_start_matches(':').trim().to_string();
    Some(Directive { effects, reason, line: tok.line })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_src(src: &str) -> (Vec<FnInfo>, BTreeSet<String>) {
        let toks = lex(src);
        let mut fns = Vec::new();
        let mut hash_fields = BTreeSet::new();
        let mut p = Parser { t: &toks, i: 0, out: &mut fns, hash_fields: &mut hash_fields };
        let ctx = Ctx {
            crate_id: "c",
            file: "c/src/lib.rs",
            module: vec![],
            self_type: None,
            in_test: false,
        };
        let end = toks.len();
        p.parse_items(end, &ctx);
        (fns, hash_fields)
    }

    #[test]
    fn extracts_free_fn_and_method() {
        let (fns, _) = parse_src(
            "pub fn free() { helper(); }\nimpl Widget { fn m(&self) { self.free_list.push(1); } }",
        );
        let names: Vec<String> = fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["c::free", "c::Widget::m"]);
        assert_eq!(fns[0].calls.len(), 1);
        assert_eq!(fns[0].calls[0].path, vec!["helper"]);
    }

    #[test]
    fn trait_impl_uses_the_implementing_type() {
        let (fns, _) = parse_src(
            "impl<P: Bound, F> Sink for Journal<P, F> { fn append(&mut self) { flush_it() } }",
        );
        assert_eq!(fns[0].qualified(), "c::Journal::append");
    }

    #[test]
    fn cfg_test_items_are_flagged() {
        let (fns, _) = parse_src(
            "#[cfg(test)]\nmod tests { fn helper() {} #[test] fn t() {} }\nfn real() {}",
        );
        let by_name: BTreeMap<&str, bool> =
            fns.iter().map(|f| (f.name.as_str(), f.is_test)).collect();
        assert!(by_name["helper"]);
        assert!(by_name["t"]);
        assert!(!by_name["real"]);
    }

    #[test]
    fn cfg_not_test_is_not_test() {
        let (fns, _) = parse_src("#[cfg(not(test))]\nfn shipped() {}");
        assert!(!fns[0].is_test);
    }

    #[test]
    fn qualified_paths_and_macros_are_captured() {
        let (fns, _) = parse_src(
            "fn f() { let t = Instant::now(); std::thread::sleep(d); panic!(\"x\"); }",
        );
        let calls = &fns[0].calls;
        assert!(calls
            .iter()
            .any(|c| c.kind == CallKind::Plain && c.path == vec!["Instant", "now"]));
        assert!(calls
            .iter()
            .any(|c| c.kind == CallKind::Plain && c.path == vec!["std", "thread", "sleep"]));
        assert!(calls.iter().any(|c| c.kind == CallKind::Macro && c.path == vec!["panic"]));
    }

    #[test]
    fn locals_shadow_bare_calls() {
        let (fns, _) = parse_src("fn f(gate: impl Fn()) { gate(); let cb = mk(); cb(); real(); }");
        let plain: Vec<&str> = fns[0]
            .calls
            .iter()
            .filter(|c| c.kind == CallKind::Plain)
            .map(|c| c.path[0].as_str())
            .collect();
        assert!(!plain.contains(&"gate"));
        assert!(!plain.contains(&"cb"));
        assert!(plain.contains(&"mk"));
        assert!(plain.contains(&"real"));
    }

    #[test]
    fn constructors_are_not_calls() {
        let (fns, _) = parse_src("fn f() { let a = Some(1); let b = CellId(2); mk_pair(a, b); }");
        let plain: Vec<&str> =
            fns[0].calls.iter().map(|c| c.path.last().map(|s| s.as_str()).unwrap_or("")).collect();
        assert!(!plain.contains(&"Some"));
        assert!(!plain.contains(&"CellId"));
        assert!(plain.contains(&"mk_pair"));
    }

    #[test]
    fn hash_iteration_is_detected_for_locals_and_fields() {
        let (fns, fields) = parse_src(
            "struct S { index: HashMap<u32, u32>, names: Vec<String> }\n\
             fn f() { let mut m = HashMap::new(); for k in &m { use_it(k); } }\n\
             fn g(s: &S) { for (k, v) in s.index.iter() { use_it(k); } }\n\
             fn h() { let v = vec![1]; for x in &v { use_it(x); } }",
        );
        assert!(fields.contains("index"));
        assert!(!fields.contains("names"));
        let f = fns.iter().find(|f| f.name == "f").expect("f");
        assert_eq!(f.hash_iter_lines.len(), 1);
        let g = fns.iter().find(|f| f.name == "g").expect("g");
        assert!(g.maybe_hash_iters.iter().any(|(n, _)| n == "index"));
        let h = fns.iter().find(|f| f.name == "h").expect("h");
        assert!(h.hash_iter_lines.is_empty());
        assert!(h.maybe_hash_iters.is_empty());
    }

    /// Names bound by a `for` pattern or a tuple `let` are locals: a
    /// loop over `Vec`s binding `prefixes` must not be taken for an
    /// iteration of some struct's `HashSet` field of that name, while
    /// the field itself still is one.
    #[test]
    fn loop_and_tuple_let_bindings_are_locals() {
        let (fns, fields) = parse_src(
            "struct Scale { prefixes: HashSet<u32> }\n\
             fn generate(owned: &[Vec<u32>]) { for (d, prefixes) in owned.iter().enumerate() { for &p in prefixes { use_it(d, p); } } }\n\
             fn split(v: &[u32]) { let (head, mut tail) = v.split_at(1); for x in tail.iter() { use_it(x); } for y in head { use_it(y); } }\n\
             fn field(s: &Scale) { for p in s.prefixes.iter() { use_it(p); } }",
        );
        assert!(fields.contains("prefixes"));
        for name in ["generate", "split"] {
            let f = fns.iter().find(|f| f.name == name).expect(name);
            assert!(f.maybe_hash_iters.is_empty(), "{name}: {:?}", f.maybe_hash_iters);
        }
        let field = fns.iter().find(|f| f.name == "field").expect("field");
        assert!(field.maybe_hash_iters.iter().any(|(n, _)| n == "prefixes"));
    }

    #[test]
    fn atomic_ordering_args_are_flagged() {
        let (fns, _) = parse_src(
            "fn f(a: &AtomicU64, s: &Store) { a.load(Ordering::Relaxed); s.load(key); }",
        );
        let loads: Vec<bool> = fns[0]
            .calls
            .iter()
            .filter(|c| c.kind == CallKind::Method && c.path[0] == "load")
            .map(|c| c.has_ordering_arg)
            .collect();
        assert_eq!(loads, vec![true, false]);
    }

    #[test]
    fn effect_allow_directives_attach_to_the_next_fn() {
        let (fns, _) = parse_src(
            "// effect-allow(GlobalState, Io): audited journal boundary\nfn sink() {}\nfn clean() {}",
        );
        assert_eq!(fns[0].directives.len(), 1);
        assert_eq!(fns[0].directives[0].effects, vec!["GlobalState", "Io"]);
        assert_eq!(fns[0].directives[0].reason, "audited journal boundary");
        assert!(fns[1].directives.is_empty());
    }

    #[test]
    fn trait_decls_without_bodies_are_skipped() {
        let (fns, _) = parse_src(
            "trait Sink { fn append(&mut self, s: &str) -> Result<(), String>; fn ok(&self) -> bool { true } }",
        );
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["ok"]);
        assert_eq!(fns[0].self_type.as_deref(), Some("Sink"));
    }

    #[test]
    fn nested_fns_are_registered_separately() {
        let (fns, _) = parse_src("fn outer() { fn inner() { deep(); } inner(); }");
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"inner"));
        assert!(names.contains(&"outer"));
        let outer = fns.iter().find(|f| f.name == "outer").expect("outer");
        assert!(outer.calls.iter().all(|c| c.path != vec!["deep"]));
    }

    #[test]
    fn module_paths_from_inline_mods() {
        let (fns, _) = parse_src("mod inner { pub fn f() {} }");
        assert_eq!(fns[0].qualified(), "c::inner::f");
    }
}
