//! Export sinks: JSONL trace writer, the phase profile's Prometheus text
//! families, the exposition-format lint, and atomic file replacement.
//!
//! None of the I/O here panics on failure: every fallible call returns
//! `io::Result` and callers (the recorder, the CLI) degrade to a warning
//! so a full metrics disk never kills a training run.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::profile::PhaseProfile;

/// Append-only JSONL trace writer (one chrome://tracing event per line).
pub(crate) struct JsonlSink {
    writer: BufWriter<File>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file.
    pub(crate) fn create(path: &Path) -> io::Result<Self> {
        Ok(Self {
            writer: BufWriter::new(File::create(path)?),
        })
    }

    /// Writes one event line (adds the trailing newline). The line and
    /// its newline go to the writer in a single call, so even an abort
    /// mid-stream leaves only whole lines behind the `BufWriter` boundary.
    pub(crate) fn write_line(&mut self, line: &str) -> io::Result<()> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.writer.write_all(buf.as_bytes())
    }

    /// Flushes buffered lines to disk.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

impl Drop for JsonlSink {
    /// Last-chance flush so a sink dropped between round flushes (process
    /// exit, recorder reset) never truncates its final events mid-line.
    /// (`BufWriter` also flushes on drop, but silently; doing it here
    /// keeps the guarantee explicit and ahead of the file close.)
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Writes `contents` to `path` atomically: the bytes land in a sibling
/// temp file first and are `rename`d over the target, so readers (and
/// crashed runs) only ever observe a complete snapshot. The file's parent
/// directory is created if it does not exist yet.
pub fn atomic_write(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|dir| !dir.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp: PathBuf = path.to_path_buf();
    let mut name = tmp
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| ".snapshot".into());
    name.push(".tmp");
    tmp.set_file_name(name);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

/// Renders the phase profile as Prometheus text exposition: per-phase
/// self time and completed spans. Empty for an empty profile.
pub fn render_prometheus(profile: &PhaseProfile) -> String {
    let mut out = String::new();
    if profile.is_empty() {
        return out;
    }
    out.push_str("# HELP photon_phase_self_seconds Exclusive wall time per phase.\n");
    out.push_str("# TYPE photon_phase_self_seconds counter\n");
    for (phase, stat) in profile.iter() {
        out.push_str(&format!(
            "photon_phase_self_seconds{{group=\"{}\",phase=\"{}\"}} ",
            phase.group().name(),
            phase.name()
        ));
        push_f64(&mut out, stat.self_ns as f64 / 1e9);
        out.push('\n');
    }
    out.push_str("# HELP photon_phase_spans_total Completed spans per phase.\n");
    out.push_str("# TYPE photon_phase_spans_total counter\n");
    for (phase, stat) in profile.iter() {
        out.push_str(&format!(
            "photon_phase_spans_total{{phase=\"{}\"}} {}\n",
            phase.name(),
            stat.count
        ));
    }
    out
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn valid_label_key(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit()))
}

fn parse_labels(body: &str) -> Result<(), String> {
    // body is the text between '{' and '}'.
    if body.is_empty() {
        return Err("empty label set".into());
    }
    for pair in body.split(',') {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(format!("label `{pair}` missing `=`"));
        };
        if !valid_label_key(key) {
            return Err(format!("invalid label key `{key}`"));
        }
        if value.len() < 2 || !value.starts_with('"') || !value.ends_with('"') {
            return Err(format!("label value for `{key}` not quoted"));
        }
        let inner = &value[1..value.len() - 1];
        if inner.contains('"') || inner.contains('\\') || inner.contains('\n') {
            return Err(format!(
                "label value for `{key}` contains unescaped characters"
            ));
        }
    }
    Ok(())
}

fn valid_sample_value(v: &str) -> bool {
    matches!(v, "+Inf" | "-Inf" | "NaN") || v.parse::<f64>().is_ok()
}

/// Histogram sample suffixes that resolve to the bare family name.
fn family_of(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            return base;
        }
    }
    name
}

/// Validates Prometheus text exposition format: `# HELP`/`# TYPE`
/// comment shape, metric and label name charsets, quoted label values,
/// parseable sample values, and that every sample belongs to a family
/// declared by a preceding `# TYPE` line. Returns the first violation as
/// `Err("line N: ...")`.
pub fn lint_prometheus(text: &str) -> Result<(), String> {
    if !text.is_empty() && !text.ends_with('\n') {
        return Err("exposition must end with a newline".into());
    }
    let mut typed_families: Vec<String> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(type_body) = rest.strip_prefix("TYPE ") {
                let mut parts = type_body.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: invalid TYPE metric name `{name}`"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {lineno}: unknown TYPE kind `{kind}`"));
                }
                if typed_families.iter().any(|f| f == name) {
                    return Err(format!("line {lineno}: duplicate TYPE for `{name}`"));
                }
                typed_families.push(name.to_string());
            } else if rest.strip_prefix("HELP ").is_none() {
                return Err(format!("line {lineno}: comment is neither HELP nor TYPE"));
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_and_labels, value) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => return Err(format!("line {lineno}: sample has no value")),
        };
        if !valid_sample_value(value) {
            return Err(format!("line {lineno}: unparseable value `{value}`"));
        }
        let name = if let Some(open) = name_and_labels.find('{') {
            if !name_and_labels.ends_with('}') {
                return Err(format!("line {lineno}: unterminated label set"));
            }
            let body = &name_and_labels[open + 1..name_and_labels.len() - 1];
            parse_labels(body).map_err(|e| format!("line {lineno}: {e}"))?;
            &name_and_labels[..open]
        } else {
            name_and_labels
        };
        if !valid_metric_name(name) {
            return Err(format!("line {lineno}: invalid metric name `{name}`"));
        }
        let family = family_of(name);
        if !typed_families.iter().any(|f| f == family || f == name) {
            return Err(format!(
                "line {lineno}: sample `{name}` has no preceding TYPE declaration"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    #[test]
    fn rendered_snapshot_passes_the_lint() {
        let mut profile = PhaseProfile::new();
        profile.record_span(Phase::Round, 1_000_000, 50_000);
        profile.record_span(Phase::LocalStep, 900_000, 900_000);
        let text = render_prometheus(&profile);
        lint_prometheus(&text).expect("rendered snapshot must lint clean");
        assert!(text.contains("photon_phase_self_seconds{group=\"compute\",phase=\"local_step\"}"));
    }

    #[test]
    fn lint_rejects_malformed_lines() {
        assert!(lint_prometheus("no_type_decl 1\n").is_err());
        assert!(lint_prometheus("# TYPE m counter\nm{bad-key=\"v\"} 1\n").is_err());
        assert!(lint_prometheus("# TYPE m counter\nm notanumber\n").is_err());
        assert!(lint_prometheus("# TYPE m bogus\n").is_err());
        assert!(lint_prometheus("# TYPE m counter\nm 1").is_err()); // missing newline
        assert!(lint_prometheus("# TYPE m counter\nm{a=\"b\"} 1\n").is_ok());
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let dir = std::env::temp_dir().join("photon_trace_sink_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let target = dir.join("metrics.prom");
        atomic_write(&target, "first\n").expect("first write");
        atomic_write(&target, "second\n").expect("second write");
        let body = std::fs::read_to_string(&target).expect("read back");
        assert_eq!(body, "second\n");
        // A missing parent directory is created, not an error.
        let nested = dir.join("not").join("yet").join("metrics.prom");
        atomic_write(&nested, "third\n").expect("write under a new directory");
        assert_eq!(
            std::fs::read_to_string(&nested).expect("read back"),
            "third\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
