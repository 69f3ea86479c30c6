//! The benchmark's own tests: a quick-scale smoke pass of each workload
//! in both modes, the emitted metric names against `BENCHMARK.json`, and
//! the seed argument reaching the workload generator.

use gemini_harness::Scale;
use gemini_obs::jsonread::{self, Value};
use gemini_perfbench::grid::{entry_pass, Workload};
use gemini_perfbench::{run, MetricDef, Options, END_TO_END, PER_LAYER};

/// A quick-scale scale: small enough for a test, large enough that
/// every workload forms huge pages and batches hit runs.
fn quick_scale(seed: u64) -> Scale {
    Scale {
        ops: 1_200,
        seed,
        jobs: 2,
        ..Scale::quick()
    }
}

fn quick(workload: Workload, trace: bool, seed: u64) -> Options {
    Options {
        workload,
        seconds: 0.0,
        trace,
        scale: quick_scale(seed),
    }
}

fn names(defs: &[MetricDef]) -> Vec<&'static str> {
    defs.iter().map(|d| d.name).collect()
}

#[test]
fn quick_pass_of_each_workload_is_correct_and_emits_the_declared_metrics() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run(&quick(w, trace, 7)).expect("benchmark run completes");
            assert!(out.correct, "{} trace={trace}:\n{}", w.name(), out.report);
            assert_eq!(out.failed, 0);
            assert!(out.attempted > 0);
            let emitted: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
            let declared = names(if trace { PER_LAYER } else { END_TO_END });
            assert_eq!(emitted, declared, "{} trace={trace}", w.name());
            if !trace {
                for (name, value) in &out.metrics {
                    assert!(*value > 0.0, "{}: end-to-end {name} is {value}", w.name());
                }
            }
            let line = jsonread::parse(&out.result_json()).expect("result line is JSON");
            let keys: Vec<&String> = line.as_obj().expect("object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        }
    }
}

#[test]
fn the_command_line_takes_exactly_the_four_declared_flags() {
    let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    let o = Options::parse(&args(
        "--workload fleet-churn --seed 5 --seconds 2.5 --trace 1",
    ))
    .expect("the declared flags parse");
    assert_eq!(o.workload, Workload::FleetChurn);
    assert_eq!((o.scale.seed, o.seconds, o.trace), (5, 2.5, true));
    assert_eq!(o.scale.ops, Scale::demo().ops, "runs at the demo scale");
    assert!(Options::parse(&args(
        "--workload fig3-grid --seed 1 --seconds 1 --trace 0 --scale quick"
    ))
    .is_err());
    assert!(Options::parse(&args("--workload fig3-grid --seconds 1 --trace 0")).is_err());
}

#[test]
fn metric_and_workload_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = jsonread::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<Value> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("{key} list"))
            .to_vec()
    };
    let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared: Vec<(String, String, String)> = list(key)
            .iter()
            .map(|m| {
                (
                    field(m, "name").expect("name"),
                    field(m, "unit").expect("unit"),
                    field(m, "better").expect("better"),
                )
            })
            .collect();
        let emitted: Vec<(String, String, String)> = defs
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect();
        assert_eq!(declared, emitted, "{key}");
    }
    let workloads: Vec<String> = list("workloads")
        .iter()
        .map(|w| field(w, "name").expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn the_seed_argument_reaches_the_generator() {
    let digest = |seed: u64| -> Vec<u64> {
        entry_pass(Workload::Fig3Grid, &quick_scale(seed))
            .expect("fig. 3 pass")
            .cells
            .iter()
            .map(|c| c.digest)
            .collect()
    };
    let first = digest(11);
    assert_eq!(first, digest(11), "same seed, same results");
    let other = digest(12);
    let changed = first.iter().zip(&other).filter(|(a, b)| a != b).count();
    // A sequential-access workload can land on the same result under
    // two seeds; the random-access rows cannot.
    assert!(
        changed * 2 > first.len(),
        "only {changed} of {} cells changed with the seed",
        first.len()
    );
}
