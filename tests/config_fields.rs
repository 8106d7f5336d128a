//! `FederationConfig`'s fields are pinned: each is listed below with the
//! non-test line outside photon-core that sets it — an option-table row,
//! `finish_plan`, a benchmark workload or an example. A field nothing
//! outside photon-core sets has one value in use, and its row gives the
//! reason it stays a field instead of becoming that value. A new field
//! fails this test until it gets a row, and a row fails once its field or
//! its setter line is gone.
//!
//! Non-test code is a file's lines ahead of its first top-level
//! `#[cfg(test)]`. A setter line names the field as `cfg.<field>`.

use photon_tests::{non_test_lines, workspace_root};

/// Where a field gets its value outside photon-core.
enum Setter {
    /// `(file under the workspace root, a fragment of the line that sets it)`.
    Line(&'static str, &'static str),
    /// One value in use; why it stays a field.
    Kept(&'static str),
}

use Setter::{Kept, Line};

const OPTIONS: &str = "crates/photon-cli/src/options.rs";

/// Every field of `FederationConfig`, with its setter.
const FIELDS: &[(&str, Setter)] = &[
    ("model", Line(OPTIONS, "plan.cfg.model in models()")),
    (
        "positions",
        Line(OPTIONS, "plan.cfg.positions in POSITIONS"),
    ),
    (
        "population",
        Line(OPTIONS, "\"population size\", plan.cfg.population"),
    ),
    (
        "cohort",
        Line(OPTIONS, "o.plan.cfg.cohort = CohortSpec::Sample { k }"),
    ),
    (
        "local_steps",
        Line(OPTIONS, "\"tau, steps per round\", plan.cfg.local_steps"),
    ),
    (
        "local_batch",
        Line(OPTIONS, "\"local batch size B_l\", plan.cfg.local_batch"),
    ),
    (
        "server_opt",
        Line(OPTIONS, "plan.cfg.server_opt in server_opts()"),
    ),
    (
        "aggregation",
        Line(OPTIONS, "o.plan.cfg.aggregation = rule"),
    ),
    (
        "guard",
        Line("benchmark/src/workloads.rs", "cfg.guard = GuardConfig {"),
    ),
    (
        "loss_spike_mult",
        Line(OPTIONS, "Some(plan.cfg.loss_spike_mult)"),
    ),
    (
        "adamw",
        Kept(
            "every run trains with `AdamWConfig::default()`; `benchmark/src/probes.rs` \
             reads the field for its optimizer probes, so it stays while the benchmark reads it",
        ),
    ),
    (
        "schedule",
        Line(
            OPTIONS,
            "cfg.schedule = LrSchedule::paper_cosine(o.lr, 10, steps);",
        ),
    ),
    (
        "grad_clip",
        Kept(
            "every run clips at `Some(1.0)`; `benchmark/src/probes.rs` reads the field \
             for its clip probe, so it stays while the benchmark reads it",
        ),
    ),
    (
        "compress_link",
        Line(
            OPTIONS,
            "\"lossless Link compression\", plan.cfg.compress_link",
        ),
    ),
    (
        "secure_agg",
        Line(OPTIONS, "\"secure aggregation\", plan.cfg.secure_agg"),
    ),
    (
        "allow_partial_results",
        Line(OPTIONS, "o.plan.cfg.allow_partial_results = true;"),
    ),
    (
        "round_deadline_ms",
        Line(OPTIONS, "Some(plan.cfg.round_deadline_ms)"),
    ),
    (
        "retransmit",
        Line(OPTIONS, "plan.cfg.retransmit.max_retries"),
    ),
    (
        "network",
        Line(OPTIONS, "plan.cfg.network?.profile.loss_rate"),
    ),
    (
        "adaptive_deadline",
        Line(
            OPTIONS,
            "o.plan.cfg.adaptive_deadline.get_or_insert_with(Default::default);",
        ),
    ),
    (
        "membership",
        Line(
            OPTIONS,
            "o.plan.cfg.membership.get_or_insert_with(Default::default);",
        ),
    ),
    ("buffer", Line(OPTIONS, "plan.cfg.buffer?.quorum")),
    ("hierarchy", Line(OPTIONS, "plan.cfg.hierarchy?.shards")),
    ("dtype", Line(OPTIONS, "o.plan.cfg.dtype = dtype")),
    ("seed", Line(OPTIONS, "\"root seed\", plan.cfg.seed")),
];

/// The field names of `pub struct <name>` in `source`, in order: the
/// `pub <field>:` lines one level inside its braces.
fn struct_fields(source: &str, name: &str) -> Vec<String> {
    let head = format!("pub struct {name} {{");
    non_test_lines(source)
        .skip_while(|line| line.trim_end() != head)
        .skip(1)
        .take_while(|line| *line != "}")
        .filter_map(|line| {
            let field = line.strip_prefix("    pub ")?.split(':').next()?;
            field
                .chars()
                .all(|c| c.is_alphanumeric() || c == '_')
                .then(|| field.to_string())
        })
        .collect()
}

/// Whether `line` names `field` as `cfg.<field>`, not as a prefix of a
/// longer name.
fn names_field(line: &str, field: &str) -> bool {
    let needle = format!("cfg.{field}");
    line.match_indices(&needle).any(|(at, _)| {
        let rest = &line[at + needle.len()..];
        !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_')
    })
}

#[test]
fn every_federation_config_field_has_a_setter_outside_photon_core() {
    let root = workspace_root();
    let config = std::fs::read_to_string(root.join("crates/photon-core/src/config.rs"))
        .expect("readable config.rs");
    let mut fields = struct_fields(&config, "FederationConfig");
    fields.sort();
    let mut pinned: Vec<String> = FIELDS.iter().map(|(f, _)| f.to_string()).collect();
    pinned.sort();
    assert_eq!(
        fields, pinned,
        "FederationConfig's fields changed: give a new field the line outside \
         photon-core that sets it, or the reason it has one value, and drop \
         the row of a removed one"
    );
    for (field, setter) in FIELDS {
        match setter {
            Line(file, fragment) => {
                assert!(
                    !file.starts_with("crates/photon-core/"),
                    "{field}: the setter must sit outside photon-core"
                );
                assert!(
                    names_field(fragment, field),
                    "{field}: `{fragment}` does not set it"
                );
                let source = std::fs::read_to_string(root.join(file))
                    .unwrap_or_else(|e| panic!("{field}: {file}: {e}"));
                assert!(
                    non_test_lines(&source).any(|line| line.contains(fragment)),
                    "{field}: no non-test line of {file} contains `{fragment}`"
                );
            }
            Kept(why) => assert!(!why.is_empty(), "{field}: a kept field needs its reason"),
        }
    }
}

#[test]
fn the_field_parser_reads_one_struct_and_skips_the_rest() {
    let source = "\
/// Not this one.
pub struct FederationConfigExtra {
    pub decoy: u8,
}

/// This one.
#[derive(Debug)]
pub struct FederationConfig {
    /// A documented field with `pub kept: bool` in its doc.
    pub model: ModelConfig,
    #[serde(default)]
    pub membership: Option<MembershipConfig>,
    private: u8,
    pub(crate) internal: u8,
    pub nested: Vec<
        u8,
    >,
}

impl FederationConfig {
    pub fn quick_demo() {}
}

#[cfg(test)]
pub struct FederationConfig {
    pub in_tests: u8,
}
";
    assert_eq!(
        struct_fields(source, "FederationConfig"),
        ["model", "membership", "nested"]
    );
    assert!(struct_fields(source, "Missing").is_empty());
    assert!(names_field("o.plan.cfg.seed = 1", "seed"));
    assert!(names_field("plan.cfg.network?.profile", "network"));
    assert!(!names_field("plan.cfg.seeded", "seed"));
    assert!(!names_field("plan.seed", "seed"));
}
