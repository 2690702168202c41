//! The six invariant rules plus the waiver engine.
//!
//! Every rule works on the lexed token stream from [`crate::source`] — no type
//! information, so each rule is a carefully scoped heuristic tuned to this
//! workspace's idiom. Heuristics cut both ways: the deterministic-iteration
//! rule recognizes the repo's collect-and-sort pattern and order-independent
//! terminal folds so the codebase doesn't drown in waivers, and anything a
//! rule cannot prove harmless must be waived *with a written justification*.

use crate::source::{CodeTok, Directive, DirectiveKind, SourceFile};
use crate::zones;
use crate::Diagnostic;
use std::collections::{HashMap, HashSet};

pub const RULE_SANS_IO: &str = "sans-io";
pub const RULE_DET_ITER: &str = "deterministic-iteration";
pub const RULE_BOUNDED: &str = "bounded-collections";
pub const RULE_NO_PANIC: &str = "no-panic-protocol";
pub const RULE_WIRE: &str = "wire-coverage";
pub const RULE_VENDOR: &str = "vendor-lock-sync";
/// Pseudo-rule for problems with the directives themselves (empty reasons,
/// unknown rule names, stale waivers). Not waivable.
pub const RULE_WAIVER: &str = "waiver";

pub const KNOWN_RULES: &[&str] = &[
    RULE_SANS_IO,
    RULE_DET_ITER,
    RULE_BOUNDED,
    RULE_NO_PANIC,
    RULE_WIRE,
    RULE_VENDOR,
];

// ---------------------------------------------------------------------------
// sans-io
// ---------------------------------------------------------------------------

/// Deny I/O, threading, and wall-clock access in engine-side zones. The engine
/// observes time only as the `now_ms` its driver passes in; `std::time::Duration`
/// is pure data and stays allowed.
const FORBIDDEN_STD_SEGMENTS: &[&str] = &["net", "thread", "fs", "process"];
const FORBIDDEN_IDENTS: &[&str] = &["Instant", "SystemTime"];

pub fn sans_io(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !zones::is_engine_side(&file.path) {
        return;
    }
    let code = &file.code;
    for (i, c) in code.iter().enumerate() {
        let line = c.line;
        if file.in_test_code(line) {
            continue;
        }
        if let CodeTok::Ident(name) = &c.tok {
            if FORBIDDEN_IDENTS.contains(&name.as_str()) {
                push(out, RULE_SANS_IO, file, line, format!(
                    "`{name}` in sans-I/O zone: engine code must take time as `now_ms` from its driver"
                ));
                continue;
            }
            if name == "std" && file.is_path_sep(i + 1) {
                if let Some(seg) = file.ident(i + 2) {
                    if FORBIDDEN_STD_SEGMENTS.contains(&seg) {
                        push(out, RULE_SANS_IO, file, line, format!(
                            "`std::{seg}` in sans-I/O zone: I/O and threads belong to the drivers, not the engine"
                        ));
                    } else if seg == "sync"
                        && file.is_path_sep(i + 3)
                        && file.is_ident(i + 4, "mpsc")
                    {
                        push(out, RULE_SANS_IO, file, line,
                            "`std::sync::mpsc` in sans-I/O zone: channels imply threads; the engine is single-stepped".into());
                    } else if seg == "time"
                        && !(file.is_path_sep(i + 3) && file.is_ident(i + 4, "Duration"))
                    {
                        push(out, RULE_SANS_IO, file, line,
                            "`std::time` in sans-I/O zone (only `std::time::Duration`, pure data, is allowed)".into());
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// deterministic-iteration
// ---------------------------------------------------------------------------

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const ITER_METHODS: &[&str] = &[
    "iter", "iter_mut", "keys", "values", "values_mut", "drain", "into_iter", "into_keys",
    "into_values",
];
/// Terminal folds whose result does not depend on visit order.
const ORDER_FREE: &[&str] = &[
    "min", "max", "min_by", "max_by", "min_by_key", "max_by_key", "sum", "count", "any", "all",
    "product",
];

pub fn deterministic_iteration(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !zones::is_engine_side(&file.path) {
        return;
    }
    let code = &file.code;
    // Pass 1: names declared hash-typed in this file, via `name: [&][mut]
    // [std::collections::] HashMap/HashSet` ascriptions (fields, params, lets)
    // or `name = HashMap::...` / `name = HashSet::...` constructor bindings.
    let mut hash_names: HashSet<&str> = HashSet::new();
    for (i, c) in code.iter().enumerate() {
        let CodeTok::Ident(name) = &c.tok else { continue };
        if file.is_punct(i + 1, ':') {
            let mut j = i + 2;
            if file.is_punct(j, '&') {
                j += 1;
            }
            if file.is_ident(j, "mut") {
                j += 1;
            }
            if file.is_ident(j, "std") && file.is_path_sep(j + 1) && file.is_ident(j + 2, "collections") && file.is_path_sep(j + 3) {
                j += 4;
            }
            if file.ident(j).is_some_and(|t| HASH_TYPES.contains(&t)) {
                hash_names.insert(name);
            }
        } else if file.is_punct(i + 1, '=')
            && file.ident(i + 2).is_some_and(|t| HASH_TYPES.contains(&t))
            && file.is_path_sep(i + 3)
        {
            hash_names.insert(name);
        }
    }
    if hash_names.is_empty() {
        return;
    }
    // Pass 2: iteration sites over those names.
    for (i, c) in code.iter().enumerate() {
        let CodeTok::Ident(name) = &c.tok else { continue };
        if !hash_names.contains(name.as_str()) {
            continue;
        }
        let line = c.line;
        if file.in_test_code(line) {
            continue;
        }
        // `name.iter()` and friends. Tracking is by name, so only a bare
        // `name` or `self.name` receiver counts: `other.name` is a field of a
        // different type that happens to share the identifier.
        let foreign_receiver =
            i >= 2 && file.is_punct(i - 1, '.') && !file.is_ident(i - 2, "self");
        if file.is_punct(i + 1, '.') && !foreign_receiver {
            if let Some(m) = file.ident(i + 2) {
                if ITER_METHODS.contains(&m) && file.is_punct(i + 3, '(') && !order_excused(file, i) {
                    push(out, RULE_DET_ITER, file, line, format!(
                        "iterating unordered `{name}.{m}()` — use BTreeMap/BTreeSet or collect-and-sort before iterating"
                    ));
                }
            }
            continue;
        }
        // `for x in [&][mut] [self.] name {` — direct loop over the map/set.
        let mut k = i;
        if k >= 2 && file.is_punct(k - 1, '.') && file.is_ident(k - 2, "self") {
            k -= 2;
        }
        if k >= 1 && file.is_ident(k - 1, "mut") {
            k -= 1;
        }
        if k >= 1 && file.is_punct(k - 1, '&') {
            k -= 1;
        }
        if k >= 1 && file.is_ident(k - 1, "in") && file.is_punct(i + 1, '{') {
            push(out, RULE_DET_ITER, file, line, format!(
                "`for` loop over unordered `{name}` visits entries in hash order — use BTreeMap/BTreeSet or sort first"
            ));
        }
    }
}

/// True when the statement containing the iteration at token `i` ends in an
/// order-independent terminal fold, collects into an ordered structure, or is
/// sorted in the same or the immediately following statement — the repo's
/// canonical collect-and-sort idiom.
fn order_excused(file: &SourceFile, i: usize) -> bool {
    let code = &file.code;
    let depth = code[i].depth;
    let mut j = i;
    let sorted_or_btree = |j: usize| -> bool {
        matches!(&code[j].tok, CodeTok::Ident(id)
            if id.starts_with("sort") || id.contains("BTree"))
    };
    // Same statement: to `;` / `{` at this depth, or a dedent.
    while j < code.len() && code[j].depth >= depth {
        if code[j].depth == depth && matches!(&code[j].tok, CodeTok::Punct(';' | '{')) {
            break;
        }
        if let CodeTok::Ident(id) = &code[j].tok {
            if ORDER_FREE.contains(&id.as_str()) || sorted_or_btree(j) {
                return true;
            }
        }
        j += 1;
    }
    // Next statement: a `collect()` followed by `keys.sort_unstable();`.
    j += 1;
    while j < code.len() && code[j].depth >= depth {
        if code[j].depth == depth && matches!(&code[j].tok, CodeTok::Punct(';')) {
            break;
        }
        if sorted_or_btree(j) {
            return true;
        }
        j += 1;
    }
    false
}

// ---------------------------------------------------------------------------
// bounded-collections
// ---------------------------------------------------------------------------

/// The growable std collections. `BoundedFifoMap` (ng_chain) is deliberately not
/// among them: its constructor takes the cap and every insert evicts down to it,
/// so a field of that type is bounded by construction and needs no annotation —
/// a leftover `bound(..)` comment on one is reported as stale.
const COLLECTION_TYPES: &[&str] = &[
    "Vec", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "BinaryHeap",
];

/// Every collection-typed field of a (brace) struct in a bounded-state file
/// must carry `// ng-lint: bound(<CAP>)` naming the constant or config field
/// that caps it. Returns the bound directives it consumed so the waiver pass
/// can flag stale ones.
pub fn bounded_collections(
    file: &SourceFile,
    out: &mut Vec<Diagnostic>,
    used_bounds: &mut Vec<usize>,
    bound_names: &mut Vec<(String, u32)>,
) {
    if !zones::is_bounded_state(&file.path) {
        return;
    }
    let code = &file.code;
    let mut i = 0;
    while i < code.len() {
        if !file.is_ident(i, "struct") || file.in_test_code(code[i].line) {
            i += 1;
            continue;
        }
        let struct_depth = code[i].depth;
        // Walk the header to its body `{`; a `;` first means a unit/tuple struct.
        let mut j = i + 1;
        let body_start = loop {
            match code.get(j).map(|c| &c.tok) {
                Some(CodeTok::Punct('{')) if code[j].depth == struct_depth => break Some(j),
                Some(CodeTok::Punct(';')) if code[j].depth == struct_depth => break None,
                Some(_) => j += 1,
                None => break None,
            }
        };
        let Some(body) = body_start else {
            i = j + 1;
            continue;
        };
        let field_depth = struct_depth + 1;
        let mut k = body + 1;
        while k < code.len() && code[k].depth >= field_depth {
            // A field is an ident at field depth directly followed by `:`.
            if code[k].depth == field_depth
                && matches!(&code[k].tok, CodeTok::Ident(_))
                && file.is_punct(k + 1, ':')
            {
                let field = file.ident(k).unwrap_or("").to_string();
                let line = code[k].line;
                let mut t = k + 2;
                if file.is_ident(t, "std") && file.is_path_sep(t + 1) && file.is_ident(t + 2, "collections") && file.is_path_sep(t + 3) {
                    t += 4;
                }
                let is_collection = file.ident(t).is_some_and(|h| COLLECTION_TYPES.contains(&h));
                if is_collection && !file.in_test_code(line) {
                    let bound = file.directives.iter().enumerate().find(|(_, d)| {
                        matches!(d.kind, DirectiveKind::Bound { .. }) && d.target_line == line
                    });
                    match bound {
                        Some((di, d)) => {
                            used_bounds.push(di);
                            if let DirectiveKind::Bound { name } = &d.kind {
                                bound_names.push((name.clone(), d.line));
                            }
                        }
                        None => push(out, RULE_BOUNDED, file, line, format!(
                            "collection field `{field}` has no `// ng-lint: bound(<CAP>)` annotation naming its eviction cap"
                        )),
                    }
                }
            }
            k += 1;
        }
        i = k;
    }
}

// ---------------------------------------------------------------------------
// no-panic-protocol
// ---------------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

pub fn no_panic_protocol(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !zones::is_panic_free(&file.path) {
        return;
    }
    let code = &file.code;
    for (i, c) in code.iter().enumerate() {
        let line = c.line;
        if file.in_test_code(line) {
            continue;
        }
        if let CodeTok::Ident(name) = &c.tok {
            if (name == "unwrap" || name == "expect")
                && i > 0
                && file.is_punct(i - 1, '.')
                && file.is_punct(i + 1, '(')
            {
                push(out, RULE_NO_PANIC, file, line, format!(
                    "`.{name}()` on a peer-input-reachable path — return a typed error and disconnect instead"
                ));
            } else if PANIC_MACROS.contains(&name.as_str()) && file.is_punct(i + 1, '!') {
                push(out, RULE_NO_PANIC, file, line, format!(
                    "`{name}!` on a peer-input-reachable path — malformed input must never abort a node"
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// wire-coverage (cross-file)
// ---------------------------------------------------------------------------

pub fn wire_coverage(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let Some(def) = files.iter().find(|f| zones::is_message_def(&f.path)) else {
        return;
    };
    let variants = enum_variants(def, "Message");
    if variants.is_empty() {
        return;
    }
    let mut covered: HashSet<&str> = HashSet::new();
    for f in files.iter().filter(|f| zones::is_codec_roundtrip(&f.path)) {
        for i in 0..f.code.len() {
            if f.is_ident(i, "Message") && f.is_path_sep(i + 1) {
                if let Some(v) = f.ident(i + 2) {
                    covered.insert(v);
                }
            }
        }
    }
    for (name, line) in &variants {
        if !covered.contains(name.as_str()) {
            push(out, RULE_WIRE, def, *line, format!(
                "wire variant `Message::{name}` has no round-trip case in codec_roundtrip.rs"
            ));
        }
    }
}

fn enum_variants(file: &SourceFile, enum_name: &str) -> Vec<(String, u32)> {
    let code = &file.code;
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if file.is_ident(i, "enum") && file.is_ident(i + 1, enum_name) {
            let depth = code[i].depth;
            let mut j = i + 2;
            while j < code.len() && !(matches!(&code[j].tok, CodeTok::Punct('{')) && code[j].depth == depth) {
                j += 1;
            }
            j += 1;
            // Variant names are exactly the idents at body depth; payload types
            // and attribute contents all sit at least one level deeper.
            while j < code.len() && code[j].depth > depth {
                if code[j].depth == depth + 1 {
                    if let CodeTok::Ident(v) = &code[j].tok {
                        out.push((v.clone(), code[j].line));
                    }
                }
                j += 1;
            }
            return out;
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// vendor-lock-sync (manifest files, no Rust lexing)
// ---------------------------------------------------------------------------

pub fn vendor_lock_sync(manifests: &[(String, String)], out: &mut Vec<Diagnostic>) {
    let Some((lock_path, lock)) = manifests.iter().find(|(p, _)| p.ends_with("Cargo.lock")) else {
        return;
    };
    let locked: HashMap<String, String> = parse_lock(lock);
    for (path, content) in manifests {
        if !path.contains("vendor/") || !path.ends_with("Cargo.toml") {
            continue;
        }
        // TOML manifests can't carry Rust directives, so the vendor rule reads
        // its own waiver comment form: `# ng-lint: allow(vendor-lock-sync): <why>`.
        if let Some(waiver_line) = content
            .lines()
            .position(|l| l.trim().starts_with("# ng-lint: allow(vendor-lock-sync)"))
        {
            let l = content.lines().nth(waiver_line).unwrap().trim();
            let reason = l
                .strip_prefix("# ng-lint: allow(vendor-lock-sync)")
                .unwrap_or("")
                .trim_start_matches(':')
                .trim();
            if reason.is_empty() {
                out.push(Diagnostic::new(RULE_WAIVER, path, waiver_line as u32 + 1,
                    "waiver for `vendor-lock-sync` carries no justification — say why the invariant holds anyway".into()));
            }
            continue;
        }
        let Some((name, version, line)) = parse_package(content) else {
            out.push(Diagnostic::new(RULE_VENDOR, path, 1,
                "vendored Cargo.toml has no parseable [package] name/version".into()));
            continue;
        };
        match locked.get(&name) {
            None => out.push(Diagnostic::new(RULE_VENDOR, path, line, format!(
                "vendored crate `{name}` is missing from {lock_path}"
            ))),
            Some(lv) if *lv != version => out.push(Diagnostic::new(RULE_VENDOR, path, line, format!(
                "vendored crate `{name}` is {version} but {lock_path} records {lv}"
            ))),
            Some(_) => {}
        }
    }
}

fn parse_lock(lock: &str) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut name: Option<String> = None;
    for raw in lock.lines() {
        let l = raw.trim();
        if l == "[[package]]" {
            name = None;
        } else if let Some(v) = toml_str(l, "name") {
            name = Some(v);
        } else if let Some(v) = toml_str(l, "version") {
            if let Some(n) = name.take() {
                out.insert(n, v);
            }
        }
    }
    out
}

/// Extract (name, version, version-line) from a manifest's `[package]` section.
fn parse_package(toml: &str) -> Option<(String, String, u32)> {
    let mut in_package = false;
    let mut name = None;
    let mut version = None;
    for (idx, raw) in toml.lines().enumerate() {
        let l = raw.trim();
        if l.starts_with('[') {
            in_package = l == "[package]";
            continue;
        }
        if !in_package {
            continue;
        }
        if let Some(v) = toml_str(l, "name") {
            name = Some(v);
        } else if let Some(v) = toml_str(l, "version") {
            version = Some((v, idx as u32 + 1));
        }
    }
    let (v, line) = version?;
    Some((name?, v, line))
}

fn toml_str(line: &str, key: &str) -> Option<String> {
    let rest = line.strip_prefix(key)?.trim_start().strip_prefix('=')?.trim();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

// ---------------------------------------------------------------------------
// Waiver pass
// ---------------------------------------------------------------------------

/// Apply `allow(...)` waivers to a file's diagnostics, then audit the
/// directives themselves: malformed syntax, unknown rules, missing
/// justifications, and stale waivers/bounds are all diagnostics.
pub fn apply_waivers(
    file: &SourceFile,
    diags: Vec<Diagnostic>,
    used_bounds: &[usize],
    out: &mut Vec<Diagnostic>,
) {
    let mut used = vec![false; file.directives.len()];
    for d in diags {
        let waived = file.directives.iter().enumerate().find(|(_, dir)| {
            match &dir.kind {
                DirectiveKind::Allow { rule, .. } => {
                    *rule == d.rule && (dir.line == d.line || dir.target_line == d.line)
                }
                _ => false,
            }
        });
        match waived {
            Some((i, _)) => used[i] = true,
            None => out.push(d),
        }
    }
    for (i, dir) in file.directives.iter().enumerate() {
        match &dir.kind {
            DirectiveKind::Malformed => push(out, RULE_WAIVER, file, dir.line,
                "unparseable ng-lint directive (expected `allow(<rule>): <reason>` or `bound(<NAME>)`)".into()),
            DirectiveKind::Allow { rule, reason } => {
                if !KNOWN_RULES.contains(&rule.as_str()) {
                    push(out, RULE_WAIVER, file, dir.line,
                        format!("waiver names unknown rule `{rule}`"));
                } else if reason.is_empty() {
                    push(out, RULE_WAIVER, file, dir.line,
                        format!("waiver for `{rule}` carries no justification — say why the invariant holds anyway"));
                } else if !used[i] {
                    push(out, RULE_WAIVER, file, dir.line,
                        format!("stale waiver: no `{rule}` diagnostic here to suppress — delete it"));
                }
            }
            DirectiveKind::Bound { .. } => {
                if zones::is_bounded_state(&file.path) && !used_bounds.contains(&i) {
                    push(out, RULE_WAIVER, file, dir.line,
                        "stale bound annotation: attaches to no collection field".into());
                }
            }
        }
    }
}

/// Validate that every consumed `bound(<NAME>)` names an identifier that
/// actually exists somewhere in the scanned file set.
pub fn check_bound_names(
    file_path: &str,
    bound_names: &[(String, u32)],
    all_idents: &HashSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    for (name, line) in bound_names {
        if !all_idents.contains(name) {
            out.push(Diagnostic::new(RULE_BOUNDED, file_path, *line, format!(
                "bound({name}) names no constant or config field in the workspace"
            )));
        }
    }
}

pub fn directives(file: &SourceFile) -> &[Directive] {
    &file.directives
}

fn push(out: &mut Vec<Diagnostic>, rule: &'static str, file: &SourceFile, line: u32, message: String) {
    out.push(Diagnostic::new(rule, &file.path, line, message));
}
