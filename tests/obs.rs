//! Observability integration gates: DES-transition trace coverage,
//! cross-process metrics byte-determinism, the zero-perturbation
//! guarantee (an enabled sink must not change simulation results), the
//! pinned event stream of every committed golden configuration, the
//! pinned bytes of the `cluster` binary's trace and metrics exports, and
//! the exposition's naming rule, checked against a walk of the reports'
//! JSON that knows nothing of their field tables.
//!
//! The report goldens do not fix event order, so
//! `tests/golden/event_digests.txt` pins it: one `name events fnv64`
//! line per golden configuration, the digest being FNV-1a over
//! `format!("{event:?}\n")` of every event in emission order.
//! `tests/golden/export_digests.txt` pins what the binary writes with
//! `--trace-out` and `--metrics-out`: one `name file bytes fnv64` line
//! per file. To update either after an intentional change:
//!
//! ```text
//! IGNITE_BLESS=1 cargo test -p ignite-harness --test obs
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;

use ignite_chaos::ChaosPlan;
use ignite_cluster::json::Value;
use ignite_cluster::{
    metrics_for, validate_trace, ClusterConfig, ClusterReport, ClusterSim, KeepAliveKind,
    PolicyHook, SchedulerKind, StaticPolicy, Topology,
};
use ignite_control::{Controller, ControllerSpec};
use ignite_obs::{to_chrome_json, ChromeOptions, TraceBuffer};
use ignite_traffic::TrafficSpec;
use ignite_workloads::arrival::ArrivalSource;
use ignite_workloads::Suite;

/// Same pinned configuration as the cluster golden tests: long enough
/// that the store sees hits, misses and evictions, small enough for CI.
fn obs_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.arrival.horizon_cycles = 800_000;
    cfg.store.capacity_bytes = 8 * 1024;
    cfg
}

fn traced_run() -> (ClusterConfig, ignite_cluster::ClusterOutcome, TraceBuffer) {
    let cfg = obs_cfg();
    let sim = ClusterSim::new(cfg.clone());
    let mut buf = TraceBuffer::new(1 << 20);
    let outcome = sim.run_source_policy_obs(&mut cfg.arrival.source(), &mut buf, &mut StaticPolicy);
    (cfg, outcome, buf)
}

/// The exported trace passes the validator and contains at least one
/// event for every DES transition type the simulator can take under the
/// pinned configuration (arrival, dispatch, context switch, invocation
/// span, completion) plus store hits/misses/evictions and Ignite
/// record/replay episodes with Top-Down phase attribution.
#[test]
fn cluster_trace_covers_every_des_transition() {
    let (_, outcome, buf) = traced_run();
    let names: Vec<String> = outcome.functions.iter().map(|f| f.abbr.clone()).collect();
    let text = to_chrome_json(
        &buf,
        &ChromeOptions { process_name: "ignite-cluster", function_names: &names },
    );
    let summary = validate_trace(&text).expect("trace must pass the validator");
    assert_eq!(summary.dropped_events, 0, "buffer must hold the whole run");
    for required in [
        "arrival",
        "dispatch",
        "context-switch",
        "complete",
        "store-hit",
        "store-miss",
        "store-evict",
        "record-begin",
        "record-end",
        "replay-begin",
        "replay-end",
    ] {
        assert!(
            summary.events_by_name.get(required).copied().unwrap_or(0) > 0,
            "no '{required}' events in trace; have {:?}",
            summary.events_by_name
        );
    }
    // Invocation spans are named after the function; check by category.
    for category in ["invocation", "topdown"] {
        assert!(
            summary.events_by_category.get(category).copied().unwrap_or(0) > 0,
            "no '{category}' spans in trace; have {:?}",
            summary.events_by_category
        );
    }
    assert_eq!(
        summary.events_by_name.get("arrival").copied().unwrap_or(0),
        outcome.invocations,
        "one arrival event per served invocation"
    );
}

/// Observation is read-only: running with a live sink yields the exact
/// same outcome (and report bytes) as running without one.
#[test]
fn enabled_sink_does_not_perturb_results() {
    let (cfg, observed, _) = traced_run();
    let plain = ClusterSim::new(cfg.clone()).run();
    assert_eq!(plain, observed, "sink must not change the simulation");
    let a = ClusterReport::new(cfg.clone(), plain).to_json();
    let b = ClusterReport::new(cfg, observed).to_json();
    assert_eq!(a, b);
}

/// Cross-process byte-determinism of the metrics exposition: a fresh
/// process (fresh ASLR, allocator state, hash seeds) reproduces the same
/// metrics text. The child re-runs this test binary with
/// `IGNITE_OBS_CHILD=1`, which makes [`obs_child_emits_metrics`] print
/// the pinned-config exposition; two spawns must print identical output.
#[test]
fn metrics_identical_across_processes() {
    let exe = std::env::current_exe().expect("test binary path");
    let spawn = || {
        let out = std::process::Command::new(&exe)
            .args(["obs_child_emits_metrics", "--exact", "--nocapture"])
            .env("IGNITE_OBS_CHILD", "1")
            .output()
            .expect("spawn child test process");
        assert!(out.status.success(), "child run failed: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("utf-8 child output");
        let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with("IGNITE_OBS ")).collect();
        assert!(!lines.is_empty(), "child printed no metrics lines:\n{stdout}");
        lines.join("\n")
    };
    let first = spawn();
    let second = spawn();
    assert_eq!(first, second, "two process runs produced different metrics text");
}

/// Helper for [`metrics_identical_across_processes`]: prints the
/// pinned-config metrics exposition (one tagged line per metrics line)
/// when spawned with `IGNITE_OBS_CHILD=1`, does nothing in a normal run.
#[test]
fn obs_child_emits_metrics() {
    if std::env::var_os("IGNITE_OBS_CHILD").is_none_or(|v| v != "1") {
        return;
    }
    let cfg = obs_cfg();
    let outcome = ClusterSim::new(cfg.clone()).run();
    for line in metrics_for(&cfg, &outcome).expose().lines() {
        println!("IGNITE_OBS {line}");
    }
}

/// The Chrome export itself is byte-deterministic for the same run.
#[test]
fn trace_export_is_deterministic() {
    let (_, _, buf_a) = traced_run();
    let (_, _, buf_b) = traced_run();
    let opts = ChromeOptions { process_name: "ignite-cluster", function_names: &[] };
    assert_eq!(to_chrome_json(&buf_a, &opts), to_chrome_json(&buf_b, &opts));
}

/// The MMPP spec of the traffic and control goldens.
const MMPP_SPEC: &str = "mmpp:mults=1/6,dwells=300000/60000";

/// The control golden's controller spec.
const CONTROL_SPEC: &str = "epoch=50000,slo=600000,min-samples=4,probe=4,min-cores=1";

/// Runs `cfg` over `source` under `policy` into a buffer that holds the
/// whole run and returns its `name events fnv64` digest line.
fn digest_line<P: PolicyHook>(
    name: &str,
    cfg: &ClusterConfig,
    source: &mut dyn ArrivalSource,
    policy: &mut P,
) -> String {
    let mut buf = TraceBuffer::new(1 << 22);
    ClusterSim::new(cfg.clone()).run_source_policy_obs(source, &mut buf, policy);
    assert_eq!(buf.dropped(), 0, "{name}: buffer must hold the whole run");
    let hash = buf.iter().fold(FNV_OFFSET, |hash, e| fnv1a(hash, format!("{e:?}\n").as_bytes()));
    format!("{name} {} {hash:016x}\n", buf.len())
}

/// The FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Compares `current` with the committed `tests/golden/{file}`, or
/// writes it there under `IGNITE_BLESS=1`.
fn check_golden(file: &str, current: &str, what: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(file);
    if std::env::var_os("IGNITE_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, current).expect("write digests");
        eprintln!("blessed {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).expect("read the committed digests");
    assert_eq!(
        committed, current,
        "{what} changed; if intentional, re-bless with \
         IGNITE_BLESS=1 cargo test -p ignite-harness --test obs"
    );
}

fn mmpp_source(cfg: &ClusterConfig) -> Box<dyn ArrivalSource> {
    TrafficSpec::parse(MMPP_SPEC)
        .expect("golden spec must parse")
        .build(&cfg.arrival, &Suite::paper_suite_scaled(cfg.scale))
        .expect("golden spec must build")
}

/// The full event stream of every committed golden configuration —
/// cluster, chaos, multinode, control (with its controller) and
/// traffic_mmpp — is pinned: same events, same order, same payloads.
#[test]
fn golden_event_streams_match() {
    let cluster = obs_cfg();
    let chaos = ClusterConfig { chaos: Some(ChaosPlan::default_preset().seeded(7)), ..obs_cfg() };
    let multinode = ClusterConfig {
        cores: 2,
        topology: Topology {
            nodes: 3,
            scheduler: SchedulerKind::Affinity,
            keepalive: KeepAliveKind::Hybrid { default_window_cycles: 50_000 },
        },
        ..obs_cfg()
    };
    let mut control = ClusterConfig {
        cores: 2,
        topology: Topology {
            nodes: 2,
            scheduler: SchedulerKind::Fifo,
            keepalive: KeepAliveKind::Hybrid { default_window_cycles: 50_000 },
        },
        traffic: Some(MMPP_SPEC.to_string()),
        controller: Some(CONTROL_SPEC.to_string()),
        ..ClusterConfig::default()
    };
    control.arrival.horizon_cycles = 1_500_000;
    control.store.capacity_bytes = 4 * 1024;
    let mmpp = ClusterConfig { traffic: Some(MMPP_SPEC.to_string()), ..obs_cfg() };

    let mut current = String::new();
    for (name, cfg) in [("cluster", &cluster), ("chaos", &chaos), ("multinode", &multinode)] {
        current += &digest_line(name, cfg, &mut cfg.arrival.source(), &mut StaticPolicy);
    }
    let mut controller =
        Controller::new(ControllerSpec::parse(CONTROL_SPEC).expect("golden spec must parse"));
    current += &digest_line("control", &control, &mut *mmpp_source(&control), &mut controller);
    current += &digest_line("traffic_mmpp", &mmpp, &mut *mmpp_source(&mmpp), &mut StaticPolicy);
    check_golden("event_digests.txt", &current, "event stream");
}

/// The Chrome trace and the metrics exposition the `cluster` binary
/// writes are pinned byte for byte for two runs that carry every
/// exporter: the scope golden configuration under the default SLO, and
/// the control golden configuration with the default SLO riding along.
#[test]
fn cluster_binary_exports_match_digests() {
    let dir = std::env::temp_dir().join(format!("ignite-exports-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scope: &[&str] = &["--horizon", "800000", "--capacity", "8192", "--slo", "default"];
    let control: &[&str] = &[
        "--nodes",
        "2",
        "--cores",
        "2",
        "--keepalive",
        "hybrid",
        "--capacity",
        "4096",
        "--horizon",
        "1500000",
        "--traffic",
        MMPP_SPEC,
        "--controller",
        CONTROL_SPEC,
        "--slo",
        "default",
    ];
    let mut current = String::new();
    for (name, args) in [("scope", scope), ("control", control)] {
        let trace = dir.join(format!("{name}-trace.json"));
        let metrics = dir.join(format!("{name}-metrics.prom"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cluster"))
            .args(args)
            .arg("--trace-out")
            .arg(&trace)
            .arg("--metrics-out")
            .arg(&metrics)
            .arg("--out")
            .arg(dir.join(format!("{name}-report.json")))
            .output()
            .expect("spawn cluster binary");
        assert!(out.status.success(), "{name}: {}", String::from_utf8_lossy(&out.stderr));
        for (file, path) in [("trace", &trace), ("metrics", &metrics)] {
            let bytes = std::fs::read(path).expect("read the export");
            let hash = fnv1a(FNV_OFFSET, &bytes);
            current += &format!("{name} {file} {} {hash:016x}\n", bytes.len());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    check_golden("export_digests.txt", &current, "an exported trace or exposition");
}

/// A report's numbers as exposition samples: `(name, sorted labels)` to
/// value, with each name's `# HELP` text.
#[derive(Debug, Default, PartialEq)]
struct Samples {
    values: BTreeMap<(String, Vec<(String, String)>), f64>,
    help: BTreeMap<String, String>,
}

impl Samples {
    fn insert(&mut self, name: String, mut labels: Vec<(String, String)>, value: f64) {
        labels.sort();
        let old = self.values.insert((name.clone(), labels), value);
        assert!(old.is_none(), "two samples named {name} with the same labels");
    }
}

/// Flattens a parsed report by the exposition's naming rule, from the
/// document alone: the number at path `a.b.c` is the sample
/// `ignite_{report}_a_b_c`, whose help names that path; a row of array
/// `a` adds `a` to the name and its first entry, as a label, to
/// `labels`; strings, `null` and the controller's decision log are not
/// samples.
fn flatten(
    pairs: &[(String, Value)],
    report: &str,
    path: &str,
    labels: &[(String, String)],
    out: &mut Samples,
) {
    for (key, v) in pairs {
        let path = format!("{path}{key}");
        match v {
            Value::Number(_) => {
                let name = format!("ignite_{report}_{}", path.replace("[]", "").replace('.', "_"));
                out.help.insert(name.clone(), format!("{path} in the {report} report"));
                out.insert(name, labels.to_vec(), v.as_f64().expect("a number"));
            }
            Value::Object(section) => flatten(section, report, &format!("{path}."), labels, out),
            Value::Array(_) if path == "controller.decisions" => {}
            Value::Array(rows) => {
                for row in rows {
                    let [(label, first), rest @ ..] = row.as_object().expect("a row") else {
                        panic!("{path}: an empty row");
                    };
                    let first = match first {
                        Value::Number(x) => x.to_string(),
                        Value::String(s) => s.clone(),
                        other => panic!("{path}: a row labelled by {other:?}"),
                    };
                    let mut labels = labels.to_vec();
                    labels.push((label.clone(), first));
                    flatten(rest, report, &format!("{path}[]."), &labels, out);
                }
            }
            _ => {}
        }
    }
}

/// Flattens the report in file `path` ([`flatten`]) into `out`.
fn flatten_file(path: &std::path::Path, report: &str, labels: &[(&str, &str)], out: &mut Samples) {
    let text = std::fs::read_to_string(path).expect("read a report");
    let doc = ignite_cluster::json::parse(&text).expect("a report parses");
    let labels: Vec<_> = labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
    flatten(doc.as_object().expect("a report is an object"), report, "", &labels, out);
}

/// The samples and help texts of an exposition, but for the families no
/// report holds: the latency histogram and the live burn rates.
fn exposition_samples(text: &str) -> Samples {
    let from_reports = |name: &str| {
        !name.starts_with("ignite_cluster_latency_cycles") && name != "ignite_slo_burn_rate_milli"
    };
    let mut out = Samples::default();
    for line in text.lines() {
        if let Some(help) = line.strip_prefix("# HELP ") {
            let (name, help) = help.split_once(' ').expect("a help line names its family");
            if from_reports(name) {
                out.help.insert(name.to_string(), help.to_string());
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("a sample line");
        let (name, labels) = match series.split_once('{') {
            Some((name, labels)) => (name, labels.strip_suffix('}').expect("closed labels")),
            None => (series, ""),
        };
        if !from_reports(name) {
            continue;
        }
        let labels = labels.split(',').filter(|l| !l.is_empty()).map(|l| {
            let (k, v) = l.split_once('=').expect("a label");
            (
                k.to_string(),
                v.strip_prefix('"').and_then(|v| v.strip_suffix('"')).expect("quoted").to_string(),
            )
        });
        out.insert(name.to_string(), labels.collect(), value.parse().expect("a number"));
    }
    out
}

/// The exposition is a projection of the reports, checked against a walk
/// of their JSON that knows nothing of the field tables: on each golden
/// configuration (the cluster one with the default SLO, which is also
/// the scope golden's, and the chaos one traced, for the `obs` section),
/// the samples the binary exposes, but for the histogram and the burn
/// rates, are exactly the numbers of the reports it writes, named and
/// labelled by path, with equal values and help naming the path; and a
/// two-point sweep exposes each point's report under its
/// `store_capacity` label.
#[test]
fn each_exposition_is_its_reports_flattened() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("exposition-oracle");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let words = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let golden = "--horizon 800000 --capacity 8192";
    let fixture = repo_path("tests/fixtures/azure_mini.csv");
    let mut azure = words(&format!("{golden} --traffic"));
    azure.push(format!("azure:{},cpm=800000", fixture.display()));
    let runs = [
        ("cluster", words(&format!("{golden} --slo default --scope-out"))),
        ("chaos", words(&format!("{golden} --chaos default --chaos-seed 7 --trace-out"))),
        (
            "multinode",
            words(&format!(
                "{golden} --nodes 3 --cores 2 --scheduler affinity --keepalive hybrid:50000"
            )),
        ),
        (
            "control",
            words(&format!(
                "--nodes 2 --cores 2 --keepalive hybrid --capacity 4096 --horizon 1500000 \
                 --traffic {MMPP_SPEC} --controller {CONTROL_SPEC}"
            )),
        ),
        ("traffic_azure", azure),
        ("traffic_mmpp", words(&format!("{golden} --traffic {MMPP_SPEC}"))),
    ];
    let file = |name: &str, ext: &str| dir.join(format!("{name}.{ext}"));
    // Runs the binary with `args`, each `--*-out` flag followed by a file
    // of its own, and returns the exposition's samples.
    let run = |name: &str, args: &[String]| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_cluster"));
        for arg in args {
            match arg.as_str() {
                "--trace-out" => cmd.arg(arg).arg(file(name, "trace.json")),
                "--scope-out" => cmd.arg(arg).arg(file(name, "scope.json")),
                _ => cmd.arg(arg),
            };
        }
        cmd.arg("--out").arg(file(name, "json")).arg("--metrics-out").arg(file(name, "prom"));
        let out = cmd.output().expect("spawn cluster binary");
        assert!(out.status.success(), "{name}: {}", String::from_utf8_lossy(&out.stderr));
        exposition_samples(&std::fs::read_to_string(file(name, "prom")).expect("the exposition"))
    };
    for (name, args) in runs {
        let exposed = run(name, &args);
        let mut want = Samples::default();
        flatten_file(&file(name, "json"), "cluster", &[], &mut want);
        if args.iter().any(|a| a == "--scope-out") {
            flatten_file(&file(name, "scope.json"), "scope", &[], &mut want);
        }
        if name == "chaos" {
            assert!(want.values.keys().any(|(n, _)| n == "ignite_cluster_obs_trace_dropped"));
        }
        assert_eq!(exposed, want, "{name}: the exposition is not its reports flattened");
    }
    let mut want = Samples::default();
    for capacity in ["2048", "8192"] {
        let name = format!("capacity-{capacity}");
        run(&name, &words(&format!("--horizon 600000 --capacity {capacity}")));
        let labels = [("store_capacity", capacity)];
        flatten_file(&file(&name, "json"), "cluster", &labels, &mut want);
    }
    let exposed = run("sweep", &words("--horizon 600000 --sweep 2048,8192"));
    assert_eq!(exposed, want, "the sweep exposition is not its points' reports flattened");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The naming rule on the committed reports: each cluster golden
/// flattens to 534–700 samples and the scope golden to 245, no two with
/// the same name and labels, and none at or above 2^53, past which this
/// file's `f64` samples no longer hold every integer.
#[test]
fn committed_reports_flatten_to_distinct_exact_samples() {
    let goldens = ["cluster", "chaos", "multinode", "control", "traffic_azure", "traffic_mmpp"];
    for (file, report) in goldens.map(|g| (g, "cluster")).into_iter().chain([("scope", "scope")]) {
        let mut samples = Samples::default();
        flatten_file(&repo_path(&format!("tests/golden/{file}.json")), report, &[], &mut samples);
        let n = samples.values.len();
        let want = if report == "scope" { 245..=245 } else { 534..=700 };
        assert!(want.contains(&n), "{file}: {n} samples");
        let big = samples.values.iter().find(|(_, &v)| v.abs() >= 2f64.powi(53));
        assert!(big.is_none(), "{file}: {big:?} is past 2^53");
    }
}

/// An integer past 2^53 reads the same in the report and in the
/// exposition: a trace replay with the largest horizon writes its digits
/// in both, where an `f64` gauge would round it to 18446744073709552000.
#[test]
fn a_horizon_past_2_pow_53_keeps_its_digits_in_the_exposition() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("horizon-digits");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = |name: &str| dir.join(name);
    std::fs::write(file("trace"), "ignite-trace-v1 20\n1000 0\n5000 3\n").expect("a trace");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cluster"))
        .args(["--horizon", &u64::MAX.to_string(), "--trace"])
        .args([file("trace"), "--out".into(), file("report.json")])
        .args(["--metrics-out".into(), file("metrics.prom")])
        .output()
        .expect("spawn cluster binary");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let read = |name: &str| std::fs::read_to_string(file(name)).expect("an output");
    let (report, metrics) = (read("report.json"), read("metrics.prom"));
    let value = |text: &str, key: &str| {
        let at = text.find(key).unwrap_or_else(|| panic!("no {key} in\n{text}")) + key.len();
        text[at..].split([',', '\n']).next().expect("a value").to_string()
    };
    let digits = u64::MAX.to_string();
    assert_eq!(value(&report, "\"horizon_cycles\": "), digits);
    assert_eq!(value(&metrics, "\nignite_cluster_config_horizon_cycles "), digits);
    let _ = std::fs::remove_dir_all(&dir);
}

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel)
}
