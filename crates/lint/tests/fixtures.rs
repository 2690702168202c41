//! ui-test style fixture harness: every `fixtures/<rule>/<case>.rs` is split
//! into virtual files on its `//@ path:` headers, analyzed, and the formatted
//! diagnostics compared byte-for-byte against the `<case>.expected` golden.
//!
//! Also hosts the acceptance gates: the real workspace must be clean in
//! deny-all mode, and seeding a known violation into any engine module must fail.

use ng_lint::{analyze_files, analyze_workspace};
use std::fs;
use std::path::{Path, PathBuf};

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Split a fixture into `(virtual path, content)` sections on `//@ path:`
/// headers. Section content starts at line 1 of the virtual file, so golden
/// line numbers read naturally.
fn split_sections(fixture: &str) -> Vec<(String, String)> {
    let mut sections: Vec<(String, String)> = Vec::new();
    for line in fixture.lines() {
        if let Some(p) = line.strip_prefix("//@ path:") {
            sections.push((p.trim().to_string(), String::new()));
        } else {
            let (_, body) = sections
                .last_mut()
                .expect("fixture content before the first `//@ path:` header");
            body.push_str(line);
            body.push('\n');
        }
    }
    assert!(!sections.is_empty(), "fixture has no `//@ path:` header");
    sections
}

fn run_fixture(case: &Path) -> (String, String) {
    let content = fs::read_to_string(case).unwrap();
    let diags = analyze_files(&split_sections(&content));
    let actual: String = diags.iter().map(|d| format!("{d}\n")).collect();
    let golden = case.with_extension("expected");
    let expected = fs::read_to_string(&golden)
        .unwrap_or_else(|_| panic!("missing golden file {}", golden.display()));
    (actual, expected)
}

#[test]
fn fixtures_match_goldens() {
    let mut dirs: Vec<PathBuf> = fs::read_dir(fixtures_root())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    let mut checked = 0;
    for dir in dirs {
        let mut cases: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        cases.sort();
        for case in cases {
            let (actual, expected) = run_fixture(&case);
            assert_eq!(
                actual,
                expected,
                "fixture {} diverged from its golden file\n--- actual ---\n{actual}--- expected ---\n{expected}",
                case.display()
            );
            checked += 1;
        }
    }
    assert!(checked >= 20, "expected the full fixture corpus, found only {checked} cases");
}

/// The goldens themselves must encode "fires" and "waives" for all six rules:
/// a violating case whose every diagnostic carries the rule's tag, and a
/// waived case that is completely silent.
#[test]
fn every_rule_fires_and_waives() {
    for rule in [
        "sans-io",
        "deterministic-iteration",
        "bounded-collections",
        "no-panic-protocol",
        "wire-coverage",
        "vendor-lock-sync",
    ] {
        let dir = fixtures_root().join(rule);
        let violating = fs::read_to_string(dir.join("violating.expected")).unwrap();
        assert!(
            !violating.trim().is_empty(),
            "rule `{rule}` has no firing case in its violating golden"
        );
        assert!(
            violating.lines().all(|l| l.contains(&format!("[{rule}]"))),
            "rule `{rule}`'s violating golden contains foreign diagnostics"
        );
        let waived = fs::read_to_string(dir.join("waived.expected")).unwrap();
        assert!(
            waived.trim().is_empty(),
            "rule `{rule}`'s waived case still produces diagnostics"
        );
        let clean = fs::read_to_string(dir.join("clean.expected")).unwrap();
        assert!(clean.trim().is_empty(), "rule `{rule}`'s clean case is not clean");
    }
}

/// Deny-all gate: the checked-in workspace carries zero diagnostics. This is
/// the same check `ng-lint` performs in CI.
#[test]
fn workspace_is_clean_in_deny_all_mode() {
    let diags = analyze_workspace(&workspace_root()).unwrap();
    let listing: String = diags.iter().map(|d| format!("  {d}\n")).collect();
    assert!(diags.is_empty(), "workspace has lint diagnostics:\n{listing}");
}

/// Every module of the engine (`crates/node/src/engine/*.rs`) with its source.
fn engine_modules() -> Vec<(String, String)> {
    let dir = "crates/node/src/engine";
    let mut modules: Vec<(String, String)> = fs::read_dir(workspace_root().join(dir))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".rs"))
        .map(|name| {
            let path = format!("{dir}/{name}");
            let source = fs::read_to_string(workspace_root().join(&path)).unwrap();
            (path, source)
        })
        .collect();
    modules.sort();
    assert!(modules.len() >= 2, "the engine is a directory of modules");
    modules
}

/// Acceptance criterion: seeding `use std::time::Instant;` into any real engine
/// module must produce a sans-io diagnostic.
#[test]
fn seeded_instant_import_fails_every_engine_module() {
    for (path, source) in engine_modules() {
        let baseline = analyze_files(&[(path.clone(), source.clone())]);
        assert!(baseline.is_empty(), "unmodified {path} must be clean: {baseline:?}");

        let seeded = format!("{source}\nuse std::time::Instant;\n");
        let diags = analyze_files(&[(path.clone(), seeded)]);
        assert!(
            diags.iter().any(|d| d.rule == "sans-io" && d.message.contains("Instant")),
            "seeded Instant import did not fire sans-io in {path}: {diags:?}"
        );
    }
}

/// Acceptance criterion: an unannotated collection field, or an `unwrap()`,
/// seeded into any real engine module must produce a bounded-collections /
/// no-panic-protocol diagnostic.
#[test]
fn seeded_unbounded_field_and_unwrap_fail_every_engine_module() {
    for (path, source) in engine_modules() {
        let seeded = format!(
            "{source}\nstruct Seeded {{\n    backlog: Vec<u64>,\n}}\nfn seeded(x: Option<u8>) -> u8 {{\n    x.unwrap()\n}}\n"
        );
        let diags = analyze_files(&[(path.clone(), seeded)]);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "bounded-collections" && d.message.contains("backlog")),
            "seeded unbounded field did not fire bounded-collections in {path}: {diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.rule == "no-panic-protocol"),
            "seeded unwrap did not fire no-panic-protocol in {path}: {diags:?}"
        );
    }
}
