//! Tiny-scale runs of every workload through both modes of the benchmark.

use dismastd_perfbench::report::Outcome;
use dismastd_perfbench::workload::{Workload, WORKLOADS};
use dismastd_perfbench::{endtoend, traced, Params};
use serde::Value;

/// Shrinks every workload to about 1% of its nonzeros: small enough to
/// run in well under a second, large enough for every warm step to get
/// new entries.
const TINY_SCALE: f64 = 0.1;

/// One pass, on two lanes whatever the host has.
const PARAMS: Params = Params {
    seconds: 0.0,
    nproc: 2,
};

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to the benchmark");
    let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let field = |o: &Value, k: &str| -> Value {
        o.as_object()
            .and_then(|o| o.iter().find(|(n, _)| n == k))
            .map(|(_, v)| v.clone())
            .unwrap_or(Value::Null)
    };
    field(&v, key)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| field(m, k).as_str().expect("string field").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn assert_matches_listing(out: &Outcome, key: &str, workload: &str) {
    assert!(
        out.correct(),
        "{workload}: {:?} {:?}",
        out.failures,
        out.run_failures
    );
    assert_eq!(out.failed, 0, "{workload}");
    assert!(out.attempted > 0, "{workload}");
    assert_eq!(
        emitted(out),
        listed(key),
        "{workload}: {key} metrics or units"
    );
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
        assert!(m.samples > 0, "{workload}: {} has no samples", m.name);
    }
}

#[test]
fn every_workload_emits_every_listed_metric_with_its_unit() {
    for name in WORKLOADS {
        let workload = Workload::new(name, 7, TINY_SCALE).expect("known workload");
        let stream = workload.stream().expect("tiny stream");
        assert_eq!(stream.warm_steps(), workload.warm_steps, "{name}");
        assert!(
            stream.new_nnz.iter().all(|&n| n > 0),
            "{name}: {:?}",
            stream.new_nnz
        );

        let out = endtoend::run(&stream, &PARAMS);
        assert_matches_listing(&out, "end_to_end", name);

        let (out, tracer) = traced::run(&stream, &PARAMS);
        assert_matches_listing(&out, "per_layer", name);
        assert!(tracer.check_nesting().is_ok());
        // One root per step of the pass.
        let roots = tracer.spans().iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, stream.snapshots.len(), "{name}");
    }
}

#[test]
fn another_seed_gives_another_tensor_but_the_same_steps_and_metrics() {
    let name = "wide-skew";
    let a = Workload::new(name, 1, TINY_SCALE).expect("known workload");
    let b = Workload::new(name, 2, TINY_SCALE).expect("known workload");
    let (sa, sb) = (a.stream().expect("stream"), b.stream().expect("stream"));
    assert_ne!(sa.snapshots.last(), sb.snapshots.last());
    assert_eq!(sa.snapshots.len(), sb.snapshots.len());
    // Same seed, same tensor.
    let again = Workload::new(name, 1, TINY_SCALE).expect("known workload");
    assert_eq!(again.stream().expect("stream").snapshots, sa.snapshots);

    let (oa, ob) = (endtoend::run(&sa, &PARAMS), endtoend::run(&sb, &PARAMS));
    assert_eq!(emitted(&oa), emitted(&ob));
    assert_eq!(oa.attempted, ob.attempted);
    let samples = |o: &Outcome| o.metrics.iter().map(|m| m.samples).collect::<Vec<_>>();
    assert_eq!(samples(&oa), samples(&ob));
}

#[test]
fn unknown_workload_is_refused() {
    assert!(Workload::new("no-such-workload", 1, 1.0).is_err());
}
