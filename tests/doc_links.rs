//! Checks that the repository's documentation cross-references resolve.
//!
//! The docs are part of the deliverable (ARCHITECTURE.md is the map of the
//! three communicator backends; README.md points into it and into the other
//! top-level documents), and a renamed section or deleted file silently
//! breaks them — so the link graph is tested like code.
//!
//! Scope: relative markdown links `[text](target)` in the top-level
//! documents.  External links (`http…`) are out of scope — CI must not
//! depend on the network — as are bare intra-page anchors on external
//! targets.  For intra-repo anchors (`FILE.md#section`) the target file must
//! contain a heading that slugifies to the anchor.

use std::fs;
use std::path::Path;

/// The documents whose outgoing links are checked.
const DOCS: &[&str] = &[
    "README.md",
    "ARCHITECTURE.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
];

/// Extract `(target, anchor)` from every inline markdown link in `text`,
/// skipping external and mailto links.
fn relative_links(text: &str) -> Vec<(String, Option<String>)> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // Find "](", then read to the matching ")".
        if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
            let start = i + 2;
            if let Some(len) = text[start..].find(')') {
                let target = &text[start..start + len];
                let external = target.starts_with("http://")
                    || target.starts_with("https://")
                    || target.starts_with("mailto:");
                if !external && !target.is_empty() {
                    match target.split_once('#') {
                        Some((file, anchor)) if !file.is_empty() => {
                            out.push((file.to_string(), Some(anchor.to_string())));
                        }
                        Some((_, _anchor)) => {} // same-page anchor: heading
                        // moves are caught when the other docs link to it.
                        None => out.push((target.to_string(), None)),
                    }
                }
                i = start + len;
            }
        }
        i += 1;
    }
    out
}

/// GitHub-style heading slug: lowercase, spaces to dashes, punctuation
/// (except dashes/underscores) dropped.
fn slugify(heading: &str) -> String {
    heading
        .trim()
        .chars()
        .filter_map(|c| {
            if c.is_alphanumeric() || c == '_' {
                Some(c.to_ascii_lowercase())
            } else if c == ' ' || c == '-' {
                Some('-')
            } else {
                None
            }
        })
        .collect()
}

fn heading_slugs(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| l.starts_with('#'))
        .map(|l| slugify(l.trim_start_matches('#')))
        .collect()
}

#[test]
fn documentation_cross_references_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut failures = Vec::new();
    for doc in DOCS {
        let path = root.join(doc);
        let text = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("top-level document {doc} must exist: {e}"));
        for (target, anchor) in relative_links(&text) {
            let target_path = root.join(&target);
            if !target_path.exists() {
                failures.push(format!("{doc}: broken link to {target}"));
                continue;
            }
            if let Some(anchor) = anchor {
                let target_text = fs::read_to_string(&target_path)
                    .unwrap_or_else(|e| panic!("cannot read link target {target}: {e}"));
                if !heading_slugs(&target_text).contains(&anchor) {
                    failures.push(format!("{doc}: {target}#{anchor} — no such heading"));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "broken documentation links:\n  {}",
        failures.join("\n  ")
    );
}

#[test]
fn readme_links_the_architecture_book_and_it_covers_all_backends() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = fs::read_to_string(root.join("README.md")).expect("README.md");
    assert!(
        readme.contains("ARCHITECTURE.md"),
        "README.md must link to ARCHITECTURE.md"
    );
    let arch = fs::read_to_string(root.join("ARCHITECTURE.md")).expect("ARCHITECTURE.md");
    for entry in ["World::threaded", "World::seq", "World::mux", "run_on!"] {
        assert!(
            arch.contains(entry),
            "ARCHITECTURE.md must document the `{entry}` entry point"
        );
    }
}
