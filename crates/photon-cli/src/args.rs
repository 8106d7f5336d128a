//! Minimal dependency-free argument parsing for the `photon` CLI.

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` / `--flag` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses raw arguments (excluding the program name).
    ///
    /// Grammar: `photon <command> [--key value | --flag]...`. An option is
    /// a `--key` followed by a non-`--` token; a bare `--key` at the end or
    /// before another `--` token is a boolean flag.
    ///
    /// # Errors
    /// Returns a message if no subcommand is present or a positional
    /// argument appears after options.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, String> {
        let mut iter = raw.into_iter().peekable();
        let command = iter.next().ok_or("missing subcommand")?;
        if command.starts_with("--") && command != "--help" {
            return Err(format!("expected a subcommand, got option {command}"));
        }
        let mut args = Args {
            command,
            ..Args::default()
        };
        while let Some(tok) = iter.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {tok:?}"));
            };
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = iter.next().expect("peeked");
                    args.options.insert(key.to_string(), value);
                }
                _ => args.flags.push(key.to_string()),
            }
        }
        Ok(args)
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// String option with default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Parsed numeric/typed option with default.
    ///
    /// # Errors
    /// Returns a message naming the option on parse failure.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v:?}")),
        }
    }

    /// Parsed optional option: `Ok(None)` when the option is absent, so
    /// callers can distinguish "not given" from an explicit value.
    ///
    /// # Errors
    /// Returns a message naming the option on parse failure.
    pub fn get_opt_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for --{key}: {v:?}")),
        }
    }

    /// Whether a boolean flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Checks every option given against the `--names` the command's help
    /// texts list (`--help` is always accepted): a misspelt or misplaced
    /// option fails instead of being silently ignored.
    ///
    /// # Errors
    /// Names the unknown options.
    pub fn check_known(&self, helps: &[&str]) -> Result<(), String> {
        let listed = |name: &str| {
            let option = format!("--{name}");
            helps.iter().any(|help| {
                help.match_indices(&option).any(|(at, _)| {
                    !help[at + option.len()..]
                        .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
                })
            })
        };
        let mut unknown: Vec<&String> = (self.options.keys().chain(&self.flags))
            .filter(|name| name.as_str() != "help" && (name.is_empty() || !listed(name)))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort();
        let names: Vec<String> = unknown.iter().map(|name| format!("--{name}")).collect();
        Err(format!("unknown option {} (see --help)", names.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse("train --clients 4 --compress --rounds 10").unwrap();
        assert_eq!(a.command, "train");
        assert_eq!(a.get("clients"), Some("4"));
        assert_eq!(a.get_parsed("rounds", 0u64).unwrap(), 10);
        assert!(a.flag("compress"));
        assert!(!a.flag("secure"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("train").unwrap();
        assert_eq!(a.get_or("model", "tiny"), "tiny");
        assert_eq!(a.get_parsed("clients", 4usize).unwrap(), 4);
    }

    #[test]
    fn optional_parsed_distinguishes_absent() {
        let a = parse("train --threads 0").unwrap();
        assert_eq!(a.get_opt_parsed::<usize>("threads").unwrap(), Some(0));
        assert_eq!(a.get_opt_parsed::<usize>("rounds").unwrap(), None);
        let bad = parse("train --threads many").unwrap();
        assert!(bad.get_opt_parsed::<usize>("threads").is_err());
    }

    #[test]
    fn trailing_flag() {
        let a = parse("train --secure").unwrap();
        assert!(a.flag("secure"));
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse("").is_err());
        assert!(parse("train --rounds abc")
            .unwrap()
            .get_parsed("rounds", 0u64)
            .is_err());
        assert!(parse("train oops").is_err());
    }
}
