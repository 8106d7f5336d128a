//! Seeded fuzz of the config grammar: `photon` command lines built from
//! the option table's own names, and the `RunPlan` JSON that `serve`
//! ships to its clients.

use photon_cli::args::{Args, Command};
use photon_cli::options::{
    Options, CLIENT, DOWNSTREAM, GENERATE, PLAN, RESUME, SERVE, TRACE_MERGE, TRAIN,
};
use photon_net::RunPlan;
use photon_tensor::SeedStream;

const COMMANDS: [(&str, &Command); 8] = [
    ("train", &TRAIN),
    ("resume", &RESUME),
    ("serve", &SERVE),
    ("client", &CLIENT),
    ("plan", &PLAN),
    ("generate", &GENERATE),
    ("downstream", &DOWNSTREAM),
    ("trace", &TRACE_MERGE),
];

/// Values no row accepts, or accepts only sometimes.
const MALFORMED: [&str; 16] = [
    "",
    "-1",
    "abc",
    "1e999",
    "0",
    "0.0",
    "1.5",
    "18446744073709551616",
    "18446744073709551615",
    "tiny,small",
    "bogus=1",
    "crash=2",
    "ties:7",
    "sign-flip@r3",
    "partition@r2-r1:*|1",
    "127.0.0.1",
];

/// Values some row accepts.
const VALID: [&str; 13] = [
    "2",
    "4",
    "0.5",
    "small",
    "learned",
    "pile",
    "bf16",
    "diloco",
    "trimmed-mean:0.3",
    "crash=0.1,straggle=0.2,seed=3",
    "join@r1,leave=0.1,shardcrash@r1s1",
    "partition@r1-r2:*|~1",
    "127.0.0.1:0",
];

/// `train` option sets that each parse but fail plan validation: one case
/// in fifty is drawn from here, so the soup reaches the validator on
/// purpose, not by seed luck. (`--buffer-quorum` without `--membership`
/// is not here: a buffer turns membership on.)
const INVALID_PLANS: [&[&str]; 7] = [
    &["--dtype", "bf16", "--compress"],
    &["--dtype", "bf16", "--secure"],
    &["--adaptive-deadline", "--deadline-ms", "100"],
    &["--secure", "--partial-ok"],
    &["--secure", "--aggregation", "trimmed-mean"],
    &["--secure", "--net-dup", "0.1"],
    &["--secure", "--shards", "4"],
];

fn pick<'a>(rng: &mut SeedStream, items: &[&'a str]) -> &'a str {
    items[rng.next_below(items.len())]
}

/// Every flag in the table, plus near misses.
fn names() -> Vec<String> {
    let mut names: Vec<String> = COMMANDS
        .iter()
        .flat_map(|(_, command)| command.rows().map(|opt| opt.flag.to_string()))
        .collect();
    names.sort();
    names.dedup();
    names.extend(["shard", "gaurd", "-", "rounds=3"].map(String::from));
    names
}

/// A random command line: each option is absent-valued, given a value it
/// accepts (its printed default when it has one), or given a malformed
/// one; sometimes a stray token lands between options. One line in fifty
/// is instead a known-invalid `train` plan from [`INVALID_PLANS`].
fn command_line(rng: &mut SeedStream, names: &[String]) -> (usize, Vec<String>) {
    if rng.next_below(50) == 0 {
        let invalid = INVALID_PLANS[rng.next_below(INVALID_PLANS.len())];
        let tokens = std::iter::once("train").chain(invalid.iter().copied());
        return (0, tokens.map(String::from).collect());
    }
    let command = rng.next_below(COMMANDS.len());
    let (name, table) = COMMANDS[command];
    let own: Vec<_> = table.rows().collect();
    let defaults = Options::default();
    let mut tokens = vec![name.to_string()];
    for _ in 0..rng.next_below(7) {
        let own_row = rng.next_below(4) != 0;
        let (flag, default) = if own_row {
            let opt = own[rng.next_below(own.len())];
            (opt.flag.to_string(), (opt.show)(&defaults))
        } else {
            (names[rng.next_below(names.len())].clone(), None)
        };
        if flag == "help" {
            continue;
        }
        tokens.push(format!("--{flag}"));
        match rng.next_below(5) {
            0 => {}
            1 => tokens.push(default.unwrap_or_else(|| pick(rng, &VALID).to_string())),
            2 => tokens.push(pick(rng, &VALID).to_string()),
            3 => tokens.push(pick(rng, &MALFORMED).to_string()),
            _ if rng.next_below(8) == 0 => {
                tokens.push(pick(rng, &VALID).to_string());
                tokens.push(pick(rng, &VALID).to_string());
            }
            _ => {}
        }
    }
    (command, tokens)
}

/// Whether `error` names `option` as a whole word.
fn names_option(error: &str, option: &str) -> bool {
    error.match_indices(option).any(|(at, _)| {
        let next = error[at + option.len()..].chars().next();
        !next.is_some_and(|c| c.is_ascii_alphanumeric() || c == '-' || c == '=')
    })
}

/// Parsing never panics; every error names an option or the stray token,
/// or is `train`'s or `serve`'s plan validation refusing the result; and
/// every plan they accept is one a client accepts too.
#[test]
fn config_grammar_token_soup_parses_or_names_the_option() {
    for invalid in INVALID_PLANS {
        let tokens = std::iter::once("train").chain(invalid.iter().copied());
        let args = Args::parse(tokens.map(String::from)).expect("the options parse");
        let refused = TRAIN.parse(&args).err().unwrap_or_default();
        assert!(
            refused.starts_with("invalid configuration: "),
            "photon train {}: {refused:?}",
            invalid.join(" ")
        );
    }
    let names = names();
    let mut rng = SeedStream::new(0xC0F16);
    let (mut accepted, mut plans, mut invalid) = (0, 0, 0);
    for case in 0..8_000 {
        let (command, tokens) = command_line(&mut rng, &names);
        let repro = format!("case {case}: photon {}", tokens.join(" "));
        let args = match Args::parse(tokens.clone()) {
            Ok(args) => args,
            Err(e) => {
                assert!(e.contains("unexpected positional argument"), "{repro}: {e}");
                continue;
            }
        };
        let (name, table) = COMMANDS[command];
        let options = match table.parse(&args) {
            Ok(options) => options,
            Err(e) if e.starts_with("invalid configuration: ") => {
                assert!(name == "train" || name == "serve", "{repro}: {e}");
                invalid += 1;
                continue;
            }
            Err(e) => {
                let named = tokens[1..]
                    .iter()
                    .filter(|t| t.starts_with("--"))
                    .any(|t| names_option(&e, t));
                assert!(named, "{repro}: {e:?} names no option given");
                continue;
            }
        };
        accepted += 1;
        if name == "train" || name == "serve" {
            options.plan.validate().expect(&repro);
            let shipped = RunPlan::from_json_bytes(&options.plan.to_json_bytes());
            assert_eq!(shipped.as_ref(), Ok(&options.plan), "{repro}");
            plans += 1;
        }
    }
    assert!(
        accepted > 1_000 && plans > 200 && invalid > 5,
        "{accepted} {plans} {invalid}"
    );
    println!("{accepted} accepted, {plans} plans, {invalid} refused by plan validation");
}

/// Valid plans as `serve` or `train` parses them. `serve` no longer takes
/// the third's network profile and deadline flags, and refuses its
/// simulated-link faults when it runs, so `train` builds it. A client decodes
/// the same `RunPlan` either way, and a hostile peer could ship any of it.
fn plans() -> Vec<Vec<u8>> {
    [
        "serve --clients 3 --rounds 4 --faults netcrash@r1c1,nethang@r2c0",
        "serve --clients 8 --shards 4 --max-resident 4 --buffer-quorum 4 --staleness-decay 0.5 \
         --faults shardhang@r1s1,shardcrash=0.1,crash=0.05,nan-update@r2c1,seed=5",
        "train --clients 4 --net-latency-ms 30 --net-dup 0.15 --adaptive-deadline \
         --faults partition@r1-r3:*|~1.2,slowlink@r2c0,seed=7",
        "serve --clients 6 --sample 3 --membership --guard --aggregation trimmed-mean \
         --faults crash=0.1,straggle=0.2,join=0.3,leave=0.08,seed=5 --dtype bf16",
    ]
    .iter()
    .map(|line| {
        let args = Args::parse(line.split_whitespace().map(String::from)).unwrap();
        let spec = if args.command == "train" {
            &TRAIN
        } else {
            &SERVE
        };
        spec.parse(&args).expect(line).plan.to_json_bytes()
    })
    .collect()
}

/// A plan that parses expands its fault plan without panicking.
fn check(bytes: &[u8], repro: &str) -> bool {
    let plan = std::panic::catch_unwind(|| RunPlan::from_json_bytes(bytes));
    let plan = plan.unwrap_or_else(|_| panic!("from_json_bytes panicked: {repro}"));
    let Ok(plan) = plan else { return false };
    let expanded = std::panic::catch_unwind(|| plan.fault_plan());
    expanded.unwrap_or_else(|_| panic!("fault_plan panicked: {repro}"));
    true
}

#[test]
fn config_grammar_plan_json_truncations_and_mutations_never_panic() {
    let mut rng = SeedStream::new(0x91A4);
    let mut parsed = 0;
    let plans = plans();
    let third = String::from_utf8_lossy(&plans[2]);
    assert!(third.contains("\"adaptive_deadline\":{"), "{third}");
    for (i, plan) in plans.iter().enumerate() {
        assert!(check(plan, "the unmutated plan"), "plan {i} is valid");
        for len in 0..plan.len() {
            assert!(!check(&plan[..len], &format!("plan {i} cut at {len}")));
        }
        for at in 0..plan.len() {
            for _ in 0..6 {
                let mut bytes = plan.clone();
                bytes[at] = match rng.next_below(3) {
                    0 => b"0123456789"[rng.next_below(10)],
                    1 => b"-.e,:{}[]\"tfn "[rng.next_below(14)],
                    _ => rng.next_u64() as u8,
                };
                let repro = format!("plan {i} byte {at} -> {:#04x}", bytes[at]);
                parsed += usize::from(check(&bytes, &repro));
            }
        }
    }
    assert!(parsed > 1_000, "only {parsed} mutated plans parsed");
}

#[test]
fn config_grammar_arbitrary_bytes_never_panic() {
    let mut rng = SeedStream::new(0xB17E5);
    for case in 0..5_000 {
        let len = rng.next_below(64);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        check(&bytes, &format!("case {case}: {bytes:?}"));
    }
}
