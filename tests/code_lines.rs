//! Prints the non-test code lines of every crate's `src`, per crate and in
//! total: the size a change reports. A line counts when it sits ahead of
//! its file's first top-level `#[cfg(test)]` (the rule `public_api.rs`
//! applies) and is neither blank nor a `//` comment, which is what
//!
//! ```text
//! awk '/^#\[cfg\(test\)\]/{exit} !/^[[:space:]]*(\/\/|$)/{c++} END{print c+0}'
//! ```
//!
//! counts per file. It asserts nothing, so it is ignored by default; run
//! it with
//!
//! ```text
//! cargo test -p photon-tests --test code_lines -- --ignored --nocapture
//! ```

use photon_tests::{crate_sources, non_test_lines};
use std::collections::BTreeMap;

/// The non-test code lines of one source file.
fn code_lines(source: &str) -> usize {
    non_test_lines(source)
        .map(str::trim_start)
        .filter(|line| !line.is_empty() && !line.starts_with("//"))
        .count()
}

#[test]
#[ignore = "prints a measurement; run with --ignored --nocapture"]
fn non_test_code_lines_per_crate() {
    let mut per_crate: BTreeMap<String, usize> = BTreeMap::new();
    for (file, source) in crate_sources("src") {
        let krate = file.split('/').next().expect("a path under crates/");
        *per_crate.entry(krate.to_string()).or_default() += code_lines(&source);
    }
    for (krate, lines) in &per_crate {
        println!("{krate:<18} {lines:>6}");
    }
    println!("{:<18} {:>6}", "total", per_crate.values().sum::<usize>());
}

#[test]
fn blank_comment_and_test_lines_do_not_count() {
    let source = "\
//! Crate docs.
use std::fmt;

/// Documented.
fn f() {
    // a comment
    let x = 1; // trailing comments still count the line
}
#[cfg(test)]
mod tests {
    fn g() {}
}
";
    assert_eq!(code_lines(source), 4);
}
