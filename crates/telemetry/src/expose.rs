//! Prometheus-text exposition: render a registry, and parse the text
//! back. The parser exists because exposition that only *looks* right is
//! worthless — the round-trip test, `safeloc_bench::TelemetryDump::validate`
//! and the `observability` example's live scrape all re-parse what the
//! renderer produced.

use crate::metric::Histogram;
use crate::registry::{MetricHandle, Registry};
use std::fmt::Write as _;

/// Escapes a label value per the Prometheus text format: backslash,
/// double quote and newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
}

/// Renders every series in `registry` as Prometheus text: `# TYPE` lines
/// per metric name, histograms as cumulative `_bucket{le=…}` series plus
/// `_sum` and `_count`, values in `{:?}`-style shortest-round-trip form.
pub fn render_prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    let mut last_typed: Option<String> = None;
    registry.visit(|entry| {
        let kind = match &entry.handle {
            MetricHandle::Counter(_) => "counter",
            MetricHandle::Gauge(_) => "gauge",
            MetricHandle::Histogram(_) => "histogram",
        };
        if last_typed.as_deref() != Some(entry.name.as_str()) {
            let _ = writeln!(out, "# TYPE {} {kind}", entry.name);
            last_typed = Some(entry.name.clone());
        }
        match &entry.handle {
            MetricHandle::Counter(c) => {
                out.push_str(&entry.name);
                render_labels(&mut out, &entry.labels, None);
                let _ = writeln!(out, " {}", c.get());
            }
            MetricHandle::Gauge(g) => {
                out.push_str(&entry.name);
                render_labels(&mut out, &entry.labels, None);
                let _ = writeln!(out, " {}", g.get());
            }
            MetricHandle::Histogram(h) => {
                let mut cumulative = 0u64;
                let counts = h.bucket_counts();
                for (i, n) in counts.iter().enumerate() {
                    // Only materialize buckets up to the last non-empty
                    // one: 48 zero lines per histogram would dominate the
                    // exposition.
                    cumulative += n;
                    let is_last_nonzero = counts[i + 1..].iter().all(|&m| m == 0);
                    if *n > 0 || !is_last_nonzero {
                        let _ = write!(out, "{}_bucket", entry.name);
                        let bound = Histogram::bucket_upper_bound(i);
                        render_labels(&mut out, &entry.labels, Some(("le", &format!("{bound}"))));
                        let _ = writeln!(out, " {cumulative}");
                    }
                }
                let _ = write!(out, "{}_bucket", entry.name);
                render_labels(&mut out, &entry.labels, Some(("le", "+Inf")));
                let _ = writeln!(out, " {}", h.count());
                let _ = write!(out, "{}_sum", entry.name);
                render_labels(&mut out, &entry.labels, None);
                let _ = writeln!(out, " {}", h.sum());
                let _ = write!(out, "{}_count", entry.name);
                render_labels(&mut out, &entry.labels, None);
                let _ = writeln!(out, " {}", h.count());
            }
        }
    });
    out
}

/// One parsed exposition sample: a series name, its labels and the value.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Series name (histogram samples appear as `_bucket`/`_sum`/
    /// `_count`).
    pub name: String,
    /// Label pairs, in text order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// Parses Prometheus text into samples. Comment (`#`) and blank lines are
/// skipped; any malformed sample line is an error naming the line.
///
/// # Errors
///
/// A human-readable description of the first malformed line.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples
            .push(parse_sample(line).map_err(|e| format!("line {}: {e}: {line:?}", lineno + 1))?);
    }
    Ok(samples)
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    let (series, value) = match line.find('{') {
        Some(brace) => {
            let close = line.rfind('}').ok_or("unclosed label braces")?;
            if close < brace {
                return Err("unclosed label braces".to_string());
            }
            let name = line[..brace].trim();
            let labels = parse_labels(&line[brace + 1..close])?;
            let rest = line[close + 1..].trim();
            ((name.to_string(), labels), rest)
        }
        None => {
            let mut parts = line.split_whitespace();
            let name = parts.next().ok_or("empty sample")?;
            let rest = parts.next().ok_or("sample without a value")?;
            if parts.next().is_some() {
                return Err("trailing tokens after value".to_string());
            }
            ((name.to_string(), Vec::new()), rest)
        }
    };
    if series.0.is_empty()
        || !series
            .0
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(format!("invalid metric name {:?}", series.0));
    }
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse::<f64>().map_err(|e| format!("bad value: {e}"))?,
    };
    Ok(PromSample {
        name: series.0,
        labels: series.1,
        value,
    })
}

/// Parses `k="v",k2="v2"` with escape handling, the inverse of
/// [`escape_label`].
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        while chars.peek() == Some(&',') || chars.peek() == Some(&' ') {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(labels);
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() {
            return Err("empty label key".to_string());
        }
        if chars.next() != Some('"') {
            return Err(format!("label {key} value is not quoted"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape {other:?} in label {key}")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err(format!("unterminated value for label {key}")),
            }
        }
        labels.push((key, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_escaping_round_trips() {
        let hostile = "he said \"hi\\there\"\nand left";
        let escaped = escape_label(hostile);
        assert!(!escaped.contains('\n'), "newlines must be escaped");
        let parsed = parse_labels(&format!("device=\"{escaped}\"")).unwrap();
        assert_eq!(parsed, vec![("device".to_string(), hostile.to_string())]);
    }

    #[test]
    fn malformed_lines_are_named_errors() {
        assert!(parse_prometheus("no_value_here").is_err());
        assert!(parse_prometheus("bad{unclosed=\"x\" 3").is_err());
        assert!(parse_prometheus("bad-name 3").is_err());
        assert!(parse_prometheus("x{k=unquoted} 3").is_err());
        let err = parse_prometheus("ok 1\nbroken{ 2\n").unwrap_err();
        assert!(err.contains("line 2"), "errors name the line: {err}");
    }

    #[test]
    fn inf_values_parse() {
        let samples = parse_prometheus("h_bucket{le=\"+Inf\"} 4").unwrap();
        assert_eq!(samples[0].labels[0].1, "+Inf");
        assert_eq!(samples[0].value, 4.0);
    }
}
