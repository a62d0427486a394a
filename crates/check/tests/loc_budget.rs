//! The line budget: every crate's non-test source must fit its row in
//! `results/loc.txt`.
//!
//! Counting rule (also documented in `results/README.md`): for each
//! crate under `crates/`, every `.rs` file below its `src/` directory
//! contributes the lines that hold code once comments are removed —
//! blank lines and comment-only lines (`//`, `///`, `//!`, `/* */`) do
//! not count. Items gated on `test` (`#[cfg(test)]`, or an `all(..)`
//! with `test` among its conjuncts, such as
//! `#[cfg(all(test, tn_check))]`) are excluded whole, attribute line
//! included. A PR that deletes code lowers its crate's row in the same
//! diff; a PR that adds code has to raise it in plain sight.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Replace comments with spaces and the contents of string and char
/// literals with `x`, keeping every newline, so that what remains is
/// code whose braces and attributes can be matched without lexing.
fn strip_comments_and_literals(src: &str) -> String {
    let c: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let keep_newlines = |out: &mut String, s: &[char], with: char| {
        for &ch in s {
            out.push(if ch == '\n' { '\n' } else { with });
        }
    };
    let mut i = 0;
    while i < c.len() {
        let rest = &c[i..];
        if rest.starts_with(&['/', '/']) {
            let end = rest.iter().position(|&ch| ch == '\n').unwrap_or(rest.len());
            keep_newlines(&mut out, &rest[..end], ' ');
            i += end;
        } else if rest.starts_with(&['/', '*']) {
            let mut depth = 0;
            let mut j = 0;
            while j < rest.len() {
                if rest[j..].starts_with(&['/', '*']) {
                    depth += 1;
                    j += 2;
                } else if rest[j..].starts_with(&['*', '/']) {
                    depth -= 1;
                    j += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    j += 1;
                }
            }
            keep_newlines(&mut out, &rest[..j], ' ');
            i += j;
        } else if let Some(len) = raw_string_len(rest).filter(|_| !ident_before(&c, i)) {
            out.push('"');
            keep_newlines(&mut out, &rest[1..len - 1], 'x');
            out.push('"');
            i += len;
        } else if rest[0] == '"' {
            let mut j = 1;
            while j < rest.len() && rest[j] != '"' {
                j += if rest[j] == '\\' { 2 } else { 1 };
            }
            out.push('"');
            keep_newlines(&mut out, &rest[1..j.min(rest.len())], 'x');
            out.push('"');
            i += j + 1;
        } else if rest[0] == '\'' && rest.get(1) == Some(&'\\') {
            // Escaped char literal: '\n', '\'', '\u{..}'.
            let end = 2 + rest[2..].iter().position(|&ch| ch == '\'').unwrap_or(0);
            out.push_str("'x'");
            i += end + 1;
        } else if rest[0] == '\'' && rest.get(2) == Some(&'\'') {
            out.push_str("'x'");
            i += 3;
        } else {
            // Code, or a lifetime's tick.
            out.push(rest[0]);
            i += 1;
        }
    }
    out
}

/// Whether the char before `i` continues an identifier (so an `r` or
/// `br` at `i` is part of a name, not a raw-string prefix).
fn ident_before(c: &[char], i: usize) -> bool {
    i > 0 && (c[i - 1].is_alphanumeric() || c[i - 1] == '_')
}

/// Length of a raw string literal (`r"..."`, `r#"..."#`, `br"..."`)
/// at the start of `s`, if there is one.
fn raw_string_len(s: &[char]) -> Option<usize> {
    let start = match s {
        ['r', ..] => 1,
        ['b', 'r', ..] => 2,
        _ => return None,
    };
    let hashes = s[start..].iter().take_while(|&&ch| ch == '#').count();
    if s.get(start + hashes) != Some(&'"') {
        return None;
    }
    let body = start + hashes + 1;
    (body..s.len())
        .find(|&j| s[j] == '"' && s[j + 1..].iter().take_while(|&&ch| ch == '#').count() >= hashes)
        .map(|j| j + 1 + hashes)
}

/// Whether a `cfg` predicate only holds in test builds.
fn is_test_only(predicate: &str) -> bool {
    let p: String = predicate.chars().filter(|ch| !ch.is_whitespace()).collect();
    if p == "test" {
        return true;
    }
    let Some(inner) = p.strip_prefix("all(").and_then(|s| s.strip_suffix(')')) else {
        return false;
    };
    let mut depth = 0;
    let mut start = 0;
    let mut conjuncts = Vec::new();
    for (k, ch) in inner.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth -= 1,
            ',' if depth == 0 => {
                conjuncts.push(&inner[start..k]);
                start = k + 1;
            }
            _ => {}
        }
    }
    conjuncts.push(&inner[start..]);
    conjuncts.contains(&"test")
}

/// Non-test code lines of one source file.
fn count_file(src: &str) -> usize {
    let code: Vec<char> = strip_comments_and_literals(src).chars().collect();
    let mut line_of = Vec::with_capacity(code.len());
    let mut line = 0;
    for &ch in &code {
        line_of.push(line);
        if ch == '\n' {
            line += 1;
        }
    }
    let mut excluded = vec![false; line + 1];
    let mut i = 0;
    while i < code.len() {
        if !(code[i..].starts_with(&['#', '['])
            && attr_cfg(&code[i..]).as_deref().is_some_and(is_test_only))
        {
            i += 1;
            continue;
        }
        // Skip the gated item: up to the first `;` outside braces, the
        // brace that closes its first `{`, or the end of the enclosing
        // block.
        let mut j = i;
        let mut depth = 0i32;
        let mut bracket = 0i32;
        while j < code.len() {
            match code[j] {
                '[' => bracket += 1,
                ']' => bracket -= 1,
                '{' => depth += 1,
                '}' if depth == 0 => {
                    // The enclosing block closes: the item ended before.
                    j -= 1;
                    break;
                }
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                ';' if depth == 0 && bracket == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let end = j.min(code.len() - 1);
        for flag in &mut excluded[line_of[i]..=line_of[end]] {
            *flag = true;
        }
        i = end + 1;
    }
    let text: String = code.iter().collect();
    text.lines()
        .enumerate()
        .filter(|(n, l)| !excluded[*n] && !l.trim().is_empty())
        .count()
}

/// The predicate of a `#[cfg(...)]` attribute at the start of `s`.
fn attr_cfg(s: &[char]) -> Option<String> {
    let close = s.iter().position(|&ch| ch == ']')?;
    let attr: String = s[2..close]
        .iter()
        .filter(|ch| !ch.is_whitespace())
        .collect();
    let inner = attr.strip_prefix("cfg(")?.strip_suffix(')')?;
    Some(inner.to_string())
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn package_name(manifest: &Path) -> String {
    let text = fs::read_to_string(manifest).expect("crate manifest");
    text.lines()
        .find_map(|l| {
            let value = l.trim().strip_prefix("name")?.trim().strip_prefix('=')?;
            Some(value.trim().trim_matches('"').to_string())
        })
        .expect("package name")
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/check sits two levels under the workspace root")
}

#[test]
fn every_crate_fits_its_line_budget() {
    let root = workspace_root();
    let mut counts = BTreeMap::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates dir") {
        let dir = entry.expect("dir entry").path();
        if !dir.join("src").is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&dir.join("src"), &mut files);
        let lines: usize = files
            .iter()
            .map(|f| count_file(&fs::read_to_string(f).expect("utf-8 source")))
            .sum();
        counts.insert(package_name(&dir.join("Cargo.toml")), lines);
    }
    assert!(counts.len() > 10, "suspiciously few crates: {counts:?}");

    let table = fs::read_to_string(root.join("results/loc.txt")).expect("results/loc.txt");
    let mut budgets = BTreeMap::new();
    for l in table.lines().map(str::trim) {
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        let (name, n) = l
            .split_once(char::is_whitespace)
            .expect("`crate lines` row");
        budgets.insert(
            name.to_string(),
            n.trim().parse::<usize>().expect("line count"),
        );
    }

    // The current counts, in `results/loc.txt` row format.
    for (name, n) in &counts {
        println!("{name} {n}");
    }
    let mut problems = Vec::new();
    for (name, &n) in &counts {
        match budgets.get(name) {
            Some(&budget) if n > budget => {
                problems.push(format!("{name}: {n} lines, over its budget of {budget}"))
            }
            Some(_) => {}
            None => problems.push(format!("{name}: {n} lines, no row in results/loc.txt")),
        }
    }
    for name in budgets.keys().filter(|b| !counts.contains_key(*b)) {
        problems.push(format!("{name}: row in results/loc.txt but no such crate"));
    }
    assert!(problems.is_empty(), "line budget:\n{}", problems.join("\n"));
}

#[test]
fn counting_rule_skips_comments_blanks_and_test_items() {
    let src = r##"//! Crate docs.
use std::fmt; // trailing comment

/// Doc comment.
fn f() -> &'static str {
    /* block
       comment */
    let _c = '{';
    "text with // no comment and { brace"
}

#[cfg(all(test, tn_check))]
mod model {
    fn g() { let _s = r#"}"#; }
}

#[cfg(test)]
use std::fmt::Debug;

#[cfg(all(feature = "simd", not(test)))]
fn h() {}
"##;
    // Counted: `use`, `fn f`, `let _c`, the string, `}`, and `fn h`
    // with its attribute (`not(test)` is not a test-only gate).
    assert_eq!(count_file(src), 7);
}
