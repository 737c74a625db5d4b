//! The process-wide kill switch: disabled recording is a no-op for every
//! primitive. Its own test binary (= its own process) because flipping
//! the flag would race with parallel tests that record.

use safeloc_telemetry::Registry;

#[test]
fn disabled_recording_moves_nothing() {
    let registry = Registry::new();
    let counter = registry.counter("c_total", &[]);
    let gauge = registry.gauge("g", &[]);
    let histogram = registry.histogram("h", &[]);

    safeloc_telemetry::set_enabled(false);
    assert!(!safeloc_telemetry::enabled());
    counter.inc();
    counter.add(10);
    gauge.set(5);
    gauge.add(2);
    histogram.record(1);
    histogram.record_f64(2.0);
    safeloc_telemetry::set_enabled(true);

    assert_eq!(counter.get(), 0);
    assert_eq!(gauge.get(), 0);
    assert_eq!(histogram.count(), 0);

    // Re-enabled: everything moves again, same handles.
    counter.inc();
    gauge.set(1);
    histogram.record(1);
    assert_eq!(counter.get(), 1);
    assert_eq!(gauge.get(), 1);
    assert_eq!(histogram.count(), 1);
}
