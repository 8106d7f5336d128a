//! The benchmark is a workspace of its own, so the root manifest's
//! `[profile.release]` and `[patch.crates-io]` do not reach it: they are
//! copied, and this test fails when the copies drift — otherwise the
//! benchmark would measure a different build than the one the repo ships.

use std::collections::BTreeMap;

/// The `key = value` lines of `[section]`, comments and blanks dropped.
fn section(manifest: &str, name: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != format!("[{name}]"))
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter_map(|l| l.split('#').next()?.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

fn manifests() -> (String, String) {
    let dir = env!("CARGO_MANIFEST_DIR");
    let read = |p: String| std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p}: {e}"));
    (
        read(format!("{dir}/../Cargo.toml")),
        read(format!("{dir}/Cargo.toml")),
    )
}

#[test]
fn release_profile_equals_the_root_manifests() {
    let (root, bench) = manifests();
    let profile = section(&root, "profile.release");
    assert!(!profile.is_empty(), "root manifest lost [profile.release]");
    assert_eq!(profile, section(&bench, "profile.release"));
}

#[test]
fn patch_set_equals_the_root_manifests_one_level_up() {
    let (root, bench) = manifests();
    let expected: BTreeMap<String, String> = section(&root, "patch.crates-io")
        .into_iter()
        .map(|(k, v)| (k, v.replace("path = \"", "path = \"../")))
        .collect();
    assert!(!expected.is_empty(), "root manifest lost [patch.crates-io]");
    assert_eq!(expected, section(&bench, "patch.crates-io"));
}
