//! Workspace automation (`cargo xtask` pattern — a plain bin crate, no
//! external dependencies).
//!
//! ```text
//! cargo run -p xtask -- lint
//! ```
//!
//! The `lint` subcommand enforces three source-level contracts that
//! rustc/clippy cannot express across the workspace:
//!
//! 1. **Unsafe confinement** — the `unsafe` keyword may appear only in
//!    the files on [`UNSAFE_ALLOWLIST`]: the two SIMD kernels modules
//!    and the work-stealing pool whose FFI-ish job handoff requires a
//!    `Send` assertion. Everywhere else `#![deny(unsafe_code)]` plus
//!    this lint keep the audit surface fixed.
//! 2. **SAFETY annotations** — inside the allowlisted files, every use
//!    of `unsafe` must carry a `SAFETY:` comment (or `# Safety` doc
//!    section) within the preceding few lines, stating the proof
//!    obligation it discharges.
//! 3. **No `unwrap`/`expect` on fallible serving paths** — the files on
//!    [`NO_PANIC_PATHS`] (matrix io, schedule serialization, the
//!    serving runtime) handle untrusted bytes and client traffic; they
//!    must degrade or return typed errors, never panic. Test modules
//!    (`#[cfg(test)] mod … { … }`, brace-matched) are exempt; any other
//!    `#[cfg(test)]` item exempts nothing.
//!
//! The scanner is token-aware: comments and string literals are blanked
//! before keyword matching, so prose mentions of `unsafe` don't trip
//! rule 1 and string payloads don't trip rule 3.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files permitted to contain the `unsafe` keyword.
const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/core/src/kernels.rs",
    "crates/sparse/src/kernels.rs",
    "crates/core/src/parallel.rs",
];

/// Files that must stay panic-free outside their test modules.
const NO_PANIC_PATHS: &[&str] = &[
    "crates/sparse/src/io.rs",
    "crates/core/src/schedule/serialize.rs",
    "crates/core/src/serve.rs",
];

/// How many lines above an `unsafe` token a SAFETY annotation may sit.
const SAFETY_LOOKBACK: usize = 12;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some(other) => {
            eprintln!("xtask: unknown subcommand `{other}`");
            eprintln!("usage: cargo run -p xtask -- lint");
            ExitCode::from(2)
        }
        None => {
            eprintln!("usage: cargo run -p xtask -- lint");
            ExitCode::from(2)
        }
    }
}

/// Runs all three lints over `crates/` and `src/`; nonzero on any hit,
/// and on any [`UNSAFE_ALLOWLIST`] / [`NO_PANIC_PATHS`] entry that names
/// a missing file.
fn lint() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    for top in ["crates", "src"] {
        collect_rust_files(&root.join(top), &mut files);
    }
    files.sort();

    // A listed file that no longer exists would silently drop out of its
    // rule (say, after code moves between files), so it is a violation.
    let mut problems: Vec<String> = UNSAFE_ALLOWLIST
        .iter()
        .map(|rel| (rel, "UNSAFE_ALLOWLIST"))
        .chain(NO_PANIC_PATHS.iter().map(|rel| (rel, "NO_PANIC_PATHS")))
        .filter(|(rel, _)| !root.join(rel).is_file())
        .map(|(rel, list)| format!("{rel}: listed in {list} but missing"))
        .collect();
    for path in &files {
        let Ok(source) = std::fs::read_to_string(path) else {
            problems.push(format!("{}: unreadable", display(path, &root)));
            continue;
        };
        let rel = display(path, &root);
        let code_lines = blank_comments_and_strings(&source);
        let raw_lines: Vec<&str> = source.lines().collect();

        if UNSAFE_ALLOWLIST.contains(&rel.as_str()) {
            check_safety_annotations(&rel, &code_lines, &raw_lines, &mut problems);
        } else {
            check_unsafe_confinement(&rel, &code_lines, &mut problems);
        }
        if NO_PANIC_PATHS.contains(&rel.as_str()) {
            check_no_panic(&rel, &code_lines, &mut problems);
        }
    }

    if problems.is_empty() {
        println!(
            "xtask lint: OK ({} files; unsafe confined to {} modules; {} no-panic paths clean)",
            files.len(),
            UNSAFE_ALLOWLIST.len(),
            NO_PANIC_PATHS.len()
        );
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("xtask lint: {p}");
        }
        eprintln!("xtask lint: {} violation(s)", problems.len());
        ExitCode::from(1)
    }
}

/// Rule 1: no `unsafe` keyword outside the allowlist.
fn check_unsafe_confinement(rel: &str, code_lines: &[String], problems: &mut Vec<String>) {
    for (i, line) in code_lines.iter().enumerate() {
        if has_keyword(line, "unsafe") {
            problems.push(format!(
                "{rel}:{}: `unsafe` outside the allowlisted kernels/pool modules",
                i + 1
            ));
        }
    }
}

/// Rule 2: every `unsafe` in an allowlisted file carries a SAFETY
/// annotation within [`SAFETY_LOOKBACK`] preceding lines (or on the
/// same line, for one-line blocks).
fn check_safety_annotations(
    rel: &str,
    code_lines: &[String],
    raw_lines: &[&str],
    problems: &mut Vec<String>,
) {
    for (i, line) in code_lines.iter().enumerate() {
        if !has_keyword(line, "unsafe") {
            continue;
        }
        let start = i.saturating_sub(SAFETY_LOOKBACK);
        let annotated = raw_lines[start..=i.min(raw_lines.len() - 1)]
            .iter()
            .any(|l| l.contains("SAFETY") || l.contains("# Safety"));
        if !annotated {
            problems.push(format!(
                "{rel}:{}: `unsafe` without a SAFETY/`# Safety` annotation in the {} lines above",
                i + 1,
                SAFETY_LOOKBACK
            ));
        }
    }
}

/// Rule 3: no `.unwrap()` / `.expect(` outside `#[cfg(test)]` modules.
fn check_no_panic(rel: &str, code_lines: &[String], problems: &mut Vec<String>) {
    let exempt = test_module_lines(code_lines);
    for (i, line) in code_lines.iter().enumerate() {
        if exempt[i] {
            continue;
        }
        for needle in [".unwrap()", ".expect("] {
            if line.contains(needle) {
                problems.push(format!(
                    "{rel}:{}: `{needle}` on a no-panic path (io/serialize/serve must return errors)",
                    i + 1
                ));
            }
        }
    }
}

/// Marks the lines of every `#[cfg(test)] mod name { … }` block, from the
/// attribute to the matching closing brace. Works on blanked code, so
/// braces inside comments and literals do not count. Any other item under
/// `#[cfg(test)]` (a helper `fn`, an out-of-line `mod name;`) marks
/// nothing.
fn test_module_lines(code_lines: &[String]) -> Vec<bool> {
    const ATTR: &str = "#[cfg(test)]";
    let code = code_lines.join("\n");
    let line_of = |offset: usize| code[..offset].matches('\n').count();
    let mut exempt = vec![false; code_lines.len()];
    let mut from = 0;
    while let Some(pos) = code[from..].find(ATTR) {
        let attr = from + pos;
        from = attr + ATTR.len();
        let mut item = code[from..].trim_start();
        // Further outer attributes on the same item.
        while item.starts_with("#[") {
            let Some(end) = item.find(']') else { break };
            item = item[end + 1..].trim_start();
        }
        let item = item
            .strip_prefix("pub(crate) ")
            .or_else(|| item.strip_prefix("pub "))
            .unwrap_or(item);
        let Some(after_mod) = item.strip_prefix("mod ") else {
            continue;
        };
        let name_len = after_mod
            .find(|c: char| !(c == '_' || c.is_ascii_alphanumeric()))
            .unwrap_or(after_mod.len());
        let body = after_mod[name_len..].trim_start();
        if !body.starts_with('{') {
            continue;
        }
        let open = code.len() - body.len();
        let mut depth = 0usize;
        let mut close = code.len();
        for (k, b) in code.bytes().enumerate().skip(open) {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        // An unclosed module runs to the end of the file.
        let last = line_of(close.min(code.len())).min(code_lines.len() - 1);
        exempt[line_of(attr)..=last].fill(true);
        from = close;
    }
    exempt
}

/// `word` as a standalone keyword: not part of a larger identifier.
fn has_keyword(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let after = at + word.len();
        let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
        if before_ok && after_ok {
            return true;
        }
        from = at + word.len();
    }
    false
}

fn is_ident(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Returns the source split into lines with comments and string/char
/// literal contents blanked out (replaced by spaces), so keyword and
/// method-call matching only sees real code. Handles line comments,
/// nested block comments, escapes, and raw strings (`r"…"`, `r#"…"#`).
fn blank_comments_and_strings(source: &str) -> Vec<String> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let mut state = State::Code;
    let mut out = String::with_capacity(source.len());
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    out.push(' ');
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    out.push(' ');
                }
                '"' => {
                    state = State::Str;
                    out.push(' ');
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string: count the `#`s after `r`.
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        state = State::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                        continue;
                    }
                    out.push(c);
                }
                '\'' => {
                    // Char literal vs lifetime: a lifetime is `'ident`
                    // not followed by a closing quote.
                    let is_lifetime = next.is_some_and(|n| is_ident(n as u8) || n == '_')
                        && chars.get(i + 2) != Some(&'\'');
                    if is_lifetime {
                        out.push(c);
                    } else {
                        state = State::Char;
                        out.push(' ');
                    }
                }
                '\n' => out.push('\n'),
                _ => out.push(c),
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            State::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
            State::Str => match c {
                '\\' => {
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                '"' => {
                    state = State::Code;
                    out.push(' ');
                }
                '\n' => out.push('\n'),
                _ => out.push(' '),
            },
            State::RawStr(hashes) => {
                if c == '"' {
                    let closes = (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'));
                    if closes {
                        state = State::Code;
                        for _ in 0..=hashes {
                            out.push(' ');
                        }
                        i += hashes + 1;
                        continue;
                    }
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
            State::Char => match c {
                '\\' => {
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                '\'' => {
                    state = State::Code;
                    out.push(' ');
                }
                _ => out.push(' '),
            },
        }
        i += 1;
    }
    out.lines().map(str::to_owned).collect()
}

/// All `.rs` files under `dir`, recursively (skips `target/`).
fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The workspace root: `CARGO_MANIFEST_DIR/..` (xtask lives one level
/// below the root), falling back to the current directory.
fn workspace_root() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("..").to_path_buf())
        .and_then(|p| p.canonicalize().ok())
        .unwrap_or_else(|| PathBuf::from("."))
}

fn display(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `.unwrap()`/`.expect(` lines `check_no_panic` reports in `source`.
    fn no_panic_hits(source: &str) -> Vec<usize> {
        let mut problems = Vec::new();
        check_no_panic("f.rs", &blank_comments_and_strings(source), &mut problems);
        problems
            .iter()
            .map(|p| {
                p.split(':')
                    .nth(1)
                    .and_then(|n| n.parse().ok())
                    .unwrap_or(0)
            })
            .collect()
    }

    #[test]
    fn trailing_test_module_is_exempt() {
        let source = "\
fn serve() -> Option<u8> {
    Some(1)
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v = Some(1).expect(\"present\");
        if v > 0 { Some(2).unwrap(); }
    }
}
";
        assert_eq!(no_panic_hits(source), Vec::<usize>::new());
    }

    #[test]
    fn mid_file_test_fn_does_not_exempt_code_below_it() {
        let source = "\
#[cfg(test)]
fn helper() -> u8 {
    1
}

fn serve(x: Option<u8>) -> u8 {
    x.expect(\"client sent a value\")
}

#[cfg(test)]
mod tests {
    fn t() { Some(1).unwrap(); }
}
";
        assert_eq!(no_panic_hits(source), vec![7]);
    }

    #[test]
    fn expect_in_strings_and_comments_is_not_reported() {
        let source = "\
// Never call .expect( here.
/* nor .unwrap() */
fn serve() -> &'static str {
    \"x.expect(y) and .unwrap()\"
}
";
        assert_eq!(no_panic_hits(source), Vec::<usize>::new());
    }

    #[test]
    fn braces_in_literals_do_not_end_the_test_module() {
        let source = "\
#[cfg(test)]
mod tests {
    fn t() { let _ = \"}\"; let _ = '}'; Some(1).unwrap(); }
}

fn serve(x: Option<u8>) -> u8 {
    x.unwrap()
}
";
        assert_eq!(no_panic_hits(source), vec![7]);
    }
}
