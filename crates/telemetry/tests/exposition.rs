//! Exposition-format round trip: every registered metric must appear in
//! the rendered text, label values must survive escaping, and the text
//! must parse back to the recorded values.

use safeloc_telemetry::{parse_prometheus, render_prometheus, Registry};

fn sample_value(
    samples: &[safeloc_telemetry::PromSample],
    name: &str,
    labels: &[(&str, &str)],
) -> Option<f64> {
    samples
        .iter()
        .find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), &(ek, ev))| k == ek && v == ev)
        })
        .map(|s| s.value)
}

#[test]
fn every_registered_metric_appears_and_parses_back() {
    let registry = Registry::new();
    registry
        .counter(
            "serve_requests_total",
            &[("building", "0"), ("device_class", "HTC U11")],
        )
        .add(41);
    registry
        .gauge("serve_model_version", &[("building", "0")])
        .set(3);
    let h = registry.histogram("serve_latency_ns", &[]);
    h.record(100);
    h.record(5_000);
    h.record(5_000_000);

    let text = render_prometheus(&registry);
    // Every series got a TYPE line of the right kind.
    assert!(text.contains("# TYPE serve_requests_total counter"));
    assert!(text.contains("# TYPE serve_model_version gauge"));
    assert!(text.contains("# TYPE serve_latency_ns histogram"));

    let samples = parse_prometheus(&text).expect("our own exposition parses");
    assert_eq!(
        sample_value(
            &samples,
            "serve_requests_total",
            &[("building", "0"), ("device_class", "HTC U11")]
        ),
        Some(41.0)
    );
    assert_eq!(
        sample_value(&samples, "serve_model_version", &[("building", "0")]),
        Some(3.0)
    );
    assert_eq!(
        sample_value(&samples, "serve_latency_ns_count", &[]),
        Some(3.0)
    );
    assert_eq!(
        sample_value(&samples, "serve_latency_ns_sum", &[]),
        Some(5_005_100.0)
    );
    // The +Inf bucket carries the total count, and cumulative buckets
    // never decrease.
    assert_eq!(
        sample_value(&samples, "serve_latency_ns_bucket", &[("le", "+Inf")]),
        Some(3.0)
    );
    let mut bucket_values: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| s.name == "serve_latency_ns_bucket")
        .map(|s| {
            let le = &s.labels[0].1;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap()
            };
            (bound, s.value)
        })
        .collect();
    bucket_values.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    assert!(
        bucket_values.windows(2).all(|w| w[0].1 <= w[1].1),
        "cumulative buckets must be monotone: {bucket_values:?}"
    );
}

#[test]
fn hostile_label_values_survive_the_round_trip() {
    let registry = Registry::new();
    let hostile = "Pixel \"9\"\\w\nnewline";
    registry
        .counter("wire_frames_total", &[("device", hostile)])
        .inc();
    let text = render_prometheus(&registry);
    for line in text.lines() {
        assert!(
            line.starts_with('#') || line.split_whitespace().count() >= 2,
            "escaping must keep one sample per line: {line:?}"
        );
    }
    let samples = parse_prometheus(&text).unwrap();
    assert_eq!(
        sample_value(&samples, "wire_frames_total", &[("device", hostile)]),
        Some(1.0),
        "hostile label value must parse back verbatim"
    );
}

#[test]
fn snapshot_covers_the_same_series_as_the_text() {
    let registry = Registry::new();
    registry.counter("a_total", &[]).add(2);
    registry.gauge("b", &[]).set(-5);
    registry.histogram("c", &[]).record_f64(1.5);
    let snap = registry.snapshot();
    assert_eq!(snap.len(), 3);
    assert!(snap.validate().is_empty());
    assert_eq!(snap.counters[0].value, 2);
    assert_eq!(snap.gauges[0].value, -5);
    assert_eq!(snap.histograms[0].count, 1);
    // And it serializes — the `TELEM_*.json` dump path.
    let json = serde_json::to_string_pretty(&snap).unwrap();
    let back: safeloc_telemetry::TelemetrySnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(back, snap);
}
