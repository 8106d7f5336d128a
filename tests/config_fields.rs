//! The run configuration's fields are pinned: each field of
//! `FederationConfig` and of the config structs it nests is listed below
//! with the non-test line that sets it — an option-table row,
//! `finish_plan`, a benchmark workload or an example. A setter sits
//! outside photon-core and outside the crate that declares the struct, so
//! a constructor or `Default` there does not count. A field nothing else
//! sets has one value in use, and its row gives the reason it stays a
//! field instead of becoming that value. A new field fails this test until
//! it gets a row, and a row fails once its field or its setter line is
//! gone.
//!
//! `ModelConfig`, `AdamWConfig` and the `DdpConfig` a client derives
//! from `FederationConfig` each round are pinned the same way.
//! `LrSchedule`'s fields are private (a schedule is built whole by its
//! constructors), so `schedule` is pinned on `FederationConfig`'s row
//! alone.
//!
//! Non-test code is a file's lines ahead of its first top-level
//! `#[cfg(test)]`. A `FederationConfig` setter line names the field as
//! `cfg.<field>`; a nested struct's names it as `.<field>` or as
//! `<field>:` in a struct literal.

use photon_tests::{non_test_lines, workspace_root};

/// Where a field gets its value outside photon-core.
enum Setter {
    /// `(file under the workspace root, a fragment of the line that sets it)`.
    Line(&'static str, &'static str),
    /// One value in use; why it stays a field.
    Kept(&'static str),
}

use Setter::{Kept, Line};

/// A struct's fields, each with its setter.
type Fields = &'static [(&'static str, Setter)];

const OPTIONS: &str = "crates/photon-cli/src/options.rs";
const WORKLOADS: &str = "benchmark/src/workloads.rs";

/// `AdamWConfig`'s hyper-parameters: one value each in use.
const ADAMW_DEFAULT: &str = "one value in use, `AdamWConfig::default()`'s (the paper's \
     β1 = 0.9, β2 = 0.95, ε = 1e-8); the update reads it by name, and `FederationConfig::adamw` \
     carries it";

/// `DdpConfig` is built from the run's config, not set by anyone.
const DERIVED: &str = "`LlmClient::ddp_config` derives it from `FederationConfig` every round";

/// Every field of `FederationConfig`, with its setter.
const FIELDS: Fields = &[
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
    ("guard", Line(WORKLOADS, "cfg.guard = GuardConfig {")),
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
        Line(OPTIONS, "plan.cfg.network?.profile.dup_rate"),
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

/// The config structs `FederationConfig` nests, and the `DdpConfig` a
/// client derives from it: `(struct, the file under crates/ that declares
/// it, every field with its setter)`.
const NESTED: &[(&str, &str, Fields)] = &[
    (
        "ModelConfig",
        "photon-nn/src/config.rs",
        &[
            ("n_layers", Line(WORKLOADS, "n_layers: 1,")),
            ("d_model", Line(WORKLOADS, "d_model: 8,")),
            ("n_heads", Line(WORKLOADS, "n_heads: 1,")),
            ("exp_ratio", Line(WORKLOADS, "exp_ratio: 2,")),
            ("vocab_size", Line(WORKLOADS, "vocab_size: 257,")),
            ("seq_len", Line(WORKLOADS, "seq_len: 8,")),
        ],
    ),
    (
        "AdamWConfig",
        "photon-optim/src/adamw.rs",
        &[
            ("beta1", Kept(ADAMW_DEFAULT)),
            ("beta2", Kept(ADAMW_DEFAULT)),
            ("eps", Kept(ADAMW_DEFAULT)),
            (
                "weight_decay",
                Kept(
                    "0 in every run; only photon-optim's unit tests set another value, to \
                     check the decoupled decay (a removal candidate, named in CHANGES.md)",
                ),
            ),
        ],
    ),
    (
        "DdpConfig",
        "photon-core/src/ddp.rs",
        &[
            ("model", Kept(DERIVED)),
            ("per_worker_batch", Kept(DERIVED)),
            (
                "seq_len",
                Kept(
                    "always `model.seq_len` (a removal candidate, named in CHANGES.md); \
                     derived by `LlmClient::ddp_config`",
                ),
            ),
            ("steps", Kept(DERIVED)),
            ("start_step", Kept(DERIVED)),
            ("adamw", Kept(DERIVED)),
            ("schedule", Kept(DERIVED)),
            ("grad_clip", Kept(DERIVED)),
        ],
    ),
    (
        "GuardConfig",
        "photon-fedopt/src/guard.rs",
        &[
            ("enabled", Line(OPTIONS, "plan.cfg.guard.enabled")),
            (
                "zscore_threshold",
                Line(WORKLOADS, "zscore_threshold: 1e12,"),
            ),
        ],
    ),
    (
        "RetransmitPolicy",
        "photon-comms/src/link.rs",
        &[(
            "max_retries",
            Line(OPTIONS, "plan.cfg.retransmit.max_retries"),
        )],
    ),
    (
        "NetworkConfig",
        "photon-comms/src/network.rs",
        &[
            (
                "profile",
                Line(OPTIONS, "plan.cfg.network?.profile.dup_rate"),
            ),
            (
                "min_quorum_frac",
                Line(OPTIONS, "plan.cfg.network?.min_quorum_frac"),
            ),
            (
                "slow_factor",
                Line(OPTIONS, "plan.cfg.network?.slow_factor"),
            ),
        ],
    ),
    (
        "LinkProfile",
        "photon-comms/src/network.rs",
        &[
            (
                "base_latency_ms",
                Line(OPTIONS, "plan.cfg.network?.profile.base_latency_ms"),
            ),
            (
                "jitter_ms",
                Line(OPTIONS, "plan.cfg.network?.profile.jitter_ms"),
            ),
            (
                "bandwidth_kbps",
                Line(OPTIONS, "plan.cfg.network?.profile.bandwidth_kbps"),
            ),
            (
                "dup_rate",
                Line(OPTIONS, "plan.cfg.network?.profile.dup_rate"),
            ),
        ],
    ),
    (
        "AdaptiveDeadlineConfig",
        "photon-comms/src/network.rs",
        &[
            (
                "percentile",
                Line(OPTIONS, "plan.cfg.adaptive_deadline?.percentile"),
            ),
            (
                "floor_ms",
                Line(OPTIONS, "plan.cfg.adaptive_deadline?.floor_ms"),
            ),
            (
                "ceiling_ms",
                Line(OPTIONS, "plan.cfg.adaptive_deadline?.ceiling_ms"),
            ),
        ],
    ),
    (
        "MembershipConfig",
        "photon-core/src/membership.rs",
        &[
            ("lease_ms", Line(OPTIONS, "plan.cfg.membership?.lease_ms")),
            ("round_ms", Line(OPTIONS, "plan.cfg.membership?.round_ms")),
        ],
    ),
    (
        "HierarchyConfig",
        "photon-core/src/hierarchy.rs",
        &[
            ("shards", Line(OPTIONS, "plan.cfg.hierarchy?.shards")),
            (
                "shard_quorum_frac",
                Line(OPTIONS, "plan.cfg.hierarchy?.shard_quorum_frac"),
            ),
            (
                "max_resident",
                Line(OPTIONS, "plan.cfg.hierarchy?.max_resident"),
            ),
        ],
    ),
    (
        "BufferConfig",
        "photon-fedopt/src/buffer.rs",
        &[
            ("quorum", Line(OPTIONS, "plan.cfg.buffer?.quorum")),
            (
                "staleness_decay",
                Line(OPTIONS, "plan.cfg.buffer?.staleness_decay"),
            ),
        ],
    ),
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

/// Whether `line` names `field` as a member: `.<field>`, or `<field>:` in
/// a struct literal, not as a prefix or suffix of a longer name.
fn names_member(line: &str, field: &str) -> bool {
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(field).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        let rest = &line[at + field.len()..];
        !before.is_some_and(is_word)
            && !rest.starts_with(is_word)
            && (before == Some('.') || (rest.starts_with(':') && !rest.starts_with("::")))
    })
}

/// Checks `owner.field`'s setter: a kept field gives its reason; a setter
/// line sits in none of the `barred` directories, names the field as
/// `names` reads it, and is a non-test line of its file.
fn check_setter(
    owner: &str,
    field: &str,
    setter: &Setter,
    barred: &[String],
    names: fn(&str, &str) -> bool,
) {
    match setter {
        Line(file, fragment) => {
            for dir in barred {
                assert!(
                    !file.starts_with(dir.as_str()),
                    "{owner}.{field}: the setter must sit outside {dir}"
                );
            }
            assert!(
                names(fragment, field),
                "{owner}.{field}: `{fragment}` does not set it"
            );
            let source = std::fs::read_to_string(workspace_root().join(file))
                .unwrap_or_else(|e| panic!("{owner}.{field}: {file}: {e}"));
            assert!(
                non_test_lines(&source).any(|line| line.contains(fragment)),
                "{owner}.{field}: no non-test line of {file} contains `{fragment}`"
            );
        }
        Kept(why) => assert!(
            !why.is_empty(),
            "{owner}.{field}: a kept field needs its reason"
        ),
    }
}

/// The crate directory (`crates/<name>/`) of a path under crates/.
fn crate_dir(file: &str) -> String {
    let name = file.split('/').next().expect("a path under crates/");
    format!("crates/{name}/")
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
    let barred = [crate_dir("photon-core/src/config.rs")];
    for (field, setter) in FIELDS {
        check_setter("FederationConfig", field, setter, &barred, names_field);
    }
}

#[test]
fn every_nested_config_field_has_a_setter_outside_its_crate() {
    let root = workspace_root();
    for (name, file, rows) in NESTED {
        let source = std::fs::read_to_string(root.join("crates").join(file))
            .unwrap_or_else(|e| panic!("{name}: {file}: {e}"));
        let mut fields = struct_fields(&source, name);
        assert!(
            !fields.is_empty(),
            "{name}: no `pub struct {name}` in {file}"
        );
        fields.sort();
        let mut pinned: Vec<String> = rows.iter().map(|(f, _)| f.to_string()).collect();
        pinned.sort();
        assert_eq!(
            fields, pinned,
            "{name}'s fields changed: give a new field the line outside its \
             crate and photon-core that sets it, or the reason it has one \
             value, and drop the row of a removed one"
        );
        let barred = [crate_dir("photon-core/"), crate_dir(file)];
        for (field, setter) in *rows {
            check_setter(name, field, setter, &barred, names_member);
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
    assert!(names_member("plan.cfg.buffer?.quorum", "quorum"));
    assert!(names_member(
        "    zscore_threshold: 1e12,",
        "zscore_threshold"
    ));
    assert!(!names_member("plan.cfg.network?.min_quorum_frac", "quorum"));
    assert!(!names_member("let quorum = 2;", "quorum"));
    assert!(!names_member("quorum::Rule", "quorum"));
}
