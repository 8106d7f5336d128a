//! Dependency-free option parsing for the `photon` CLI: a command line is
//! read against the option table's rows (see [`crate::options`]), which
//! also render `--help`.

use crate::options::Options;

/// Raw command line: a subcommand plus `--key [value]` pairs in order.
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    options: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses raw arguments (excluding the program name).
    ///
    /// Grammar: `photon <command> [--key [value]]...`. A `--key` followed
    /// by a non-`--` token carries that token as its value; whether the
    /// option takes one is checked against its row by [`Command::parse`].
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
        let mut options = Vec::new();
        while let Some(tok) = iter.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {tok:?}"));
            };
            let value = iter.next_if(|next| !next.starts_with("--"));
            options.push((key.to_string(), value));
        }
        Ok(Args { command, options })
    }
}

/// One option: its flag, its help, how it stores into [`Options`], and
/// how its `[default]` is read from [`Options::default`].
#[derive(Clone, Copy)]
pub struct Opt {
    /// The name after `--`.
    pub flag: &'static str,
    /// One line of help; `\n` starts a new paragraph.
    pub help: &'static str,
    /// Switch or value option, with the code that stores it.
    pub kind: Kind,
    /// The option's `[default]`, read from the options; `None` prints none.
    pub show: fn(&Options) -> Option<String>,
}

/// Whether an option takes a value, and how it is stored.
#[derive(Clone, Copy)]
pub enum Kind {
    /// A bare `--flag`.
    Switch(fn(&mut Options)),
    /// `--flag VALUE`, with the value's placeholder in `--help`.
    Value(&'static str, fn(&mut Options, &str) -> Result<(), String>),
}

/// A subcommand: its help header and the groups of rows it reads.
pub struct Command {
    /// Help header: title line and prose.
    pub about: &'static str,
    /// The option groups this command accepts; nothing else is.
    pub groups: &'static [&'static [Opt]],
    /// Runs once every option is stored: derived fields and validation.
    pub(crate) finish: fn(&mut Options) -> Result<(), String>,
}

impl Command {
    /// A command that stores its options and checks nothing more.
    pub const fn new(about: &'static str, groups: &'static [&'static [Opt]]) -> Command {
        Command {
            about,
            groups,
            finish: |_| Ok(()),
        }
    }

    /// Every option the command accepts, in help order.
    pub fn rows(&self) -> impl Iterator<Item = &'static Opt> {
        self.groups.iter().flat_map(|group| group.iter())
    }

    /// Stores every option given, in order, into [`Options::default`],
    /// then runs the command's `finish`.
    ///
    /// # Errors
    /// Names the option: one this command does not accept, a switch given
    /// a value, a value option given none, or a value its row rejects.
    /// Then `finish`'s error: `train`'s and `serve`'s plan validation.
    pub fn parse(&self, args: &Args) -> Result<Options, String> {
        let mut options = Options::default();
        for (key, value) in &args.options {
            let opt = self
                .rows()
                .find(|opt| opt.flag == key)
                .ok_or_else(|| format!("unknown option --{key} (see --help)"))?;
            match (opt.kind, value) {
                (Kind::Switch(set), None) => set(&mut options),
                (Kind::Value(_, set), Some(value)) => set(&mut options, value)?,
                (Kind::Switch(_), Some(value)) => {
                    return Err(format!("--{key} takes no value, got {value:?}"))
                }
                (Kind::Value(placeholder, _), None) => {
                    return Err(format!("--{key} needs a value ({placeholder})"))
                }
            }
        }
        (self.finish)(&mut options)?;
        Ok(options)
    }

    /// The command's `--help`: its header, then one entry per option with
    /// the `[default]` read from [`Options::default`].
    pub fn help(&self) -> String {
        let defaults = Options::default();
        let mut out = format!("{}\n\nOPTIONS:", self.about);
        for opt in self.rows() {
            let head = match opt.kind {
                Kind::Switch(_) => format!("--{}", opt.flag),
                Kind::Value(placeholder, _) => format!("--{} {placeholder}", opt.flag),
            };
            let mut help = opt.help.to_string();
            if let Some(default) = (opt.show)(&defaults) {
                help.push_str(&format!(" [{default}]"));
            }
            for (i, line) in wrap(&help, 46).iter().enumerate() {
                let head = if i == 0 { head.as_str() } else { "" };
                out.push_str(&format!("\n    {head:<27} {line}"));
            }
        }
        out
    }
}

/// Greedy word wrap of each `\n`-separated paragraph to `width` columns.
fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut lines = Vec::new();
    for paragraph in text.split('\n') {
        let mut line = String::new();
        for word in paragraph.split_whitespace() {
            if !line.is_empty() && line.len() + 1 + word.len() > width {
                lines.push(std::mem::take(&mut line));
            }
            if !line.is_empty() {
                line.push(' ');
            }
            line.push_str(word);
        }
        lines.push(line);
    }
    lines
}

/// Parses an option's value.
///
/// # Errors
/// Names the option and the value.
pub(crate) fn value<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("invalid value for --{flag}: {v:?}"))
}

/// Looks a value's name up in `(name, value)` pairs.
///
/// # Errors
/// Names the option, the value and every name it accepts.
pub(crate) fn choose<T: Copy>(flag: &str, table: &[(&str, T)], v: &str) -> Result<T, String> {
    table
        .iter()
        .find(|(name, _)| *name == v)
        .map(|&(_, t)| t)
        .ok_or_else(|| {
            let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
            format!("unknown --{flag} {v:?} ({})", names.join("|"))
        })
}

/// The name of `value` in `(name, value)` pairs.
pub(crate) fn name_of<T: PartialEq>(table: &[(&str, T)], value: &T) -> Option<String> {
    let (name, _) = table.iter().find(|(_, t)| t == value)?;
    Some(name.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{RESUME, TRAIN};

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    fn train(s: &str) -> Result<Options, String> {
        TRAIN.parse(&parse(s).unwrap())
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse("train --clients 4 --compress --rounds 10").unwrap();
        assert_eq!(a.command, "train");
        let o = TRAIN.parse(&a).unwrap();
        assert_eq!((o.plan.cfg.population, o.plan.rounds), (4, 10));
        assert!(o.plan.cfg.compress_link);
        assert!(!o.plan.cfg.secure_agg);
    }

    #[test]
    fn defaults_apply() {
        let o = train("train").unwrap();
        assert_eq!(o.plan.cfg.model, photon_nn::ModelConfig::proxy_tiny());
        assert_eq!(o.plan.cfg.population, 4);
    }

    #[test]
    fn optional_parsed_distinguishes_absent() {
        assert_eq!(train("train --threads 0").unwrap().threads, Some(0));
        assert_eq!(train("train").unwrap().threads, None);
        let bad = train("train --threads many").unwrap_err();
        assert_eq!(bad, "invalid value for --threads: \"many\"");
    }

    #[test]
    fn trailing_flag() {
        assert!(train("train --guard").unwrap().plan.cfg.guard.enabled);
        // A switch given a value and a value option given none both fail.
        let switch = train("train --guard on").unwrap_err();
        assert!(switch.contains("--guard takes no value"), "{switch}");
        let value = train("train --rounds --guard").unwrap_err();
        assert!(value.contains("--rounds needs a value"), "{value}");
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse("").is_err());
        let bad = train("train --rounds abc").unwrap_err();
        assert!(bad.contains("--rounds"), "{bad}");
        assert!(parse("train oops").is_err());
        // `resume` takes its config from the checkpoint, not the flags.
        let refused = RESUME.parse(&parse("resume --clients 8").unwrap());
        assert!(refused.unwrap_err().contains("unknown option --clients"));
    }
}
