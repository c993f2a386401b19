//! End-to-end smoke test for the `run_tables` driver: a `--quick` run
//! must produce parseable `ResultSet` JSON for every experiment, and the
//! `--check` mode must accept what was just written and reject a
//! tampered expectation.

use geo2c_bench::experiments::SUITE_IDS;
use geo2c_report::{Json, ResultSet};
use std::path::PathBuf;
use std::process::Command;

fn run(dir: &PathBuf, extra: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_tables"));
    cmd.arg("--quick").arg("--dir").arg(dir).args(extra);
    cmd.output().expect("run_tables executes")
}

#[test]
fn quick_run_produces_parseable_result_sets_and_check_works() {
    let dir = std::env::temp_dir().join(format!("geo2c-run-tables-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Write mode: every experiment lands as its own ResultSet file.
    let output = run(&dir, &[]);
    assert!(output.status.success(), "write run failed: {output:?}");
    let results_dir = dir.join("results").join("quick");
    for id in SUITE_IDS {
        let path = results_dir.join(format!("{id}.json"));
        let set =
            ResultSet::load(&path).unwrap_or_else(|e| panic!("{} must parse: {e}", path.display()));
        let experiment = set.experiment(id).expect("experiment under its own id");
        assert!(!experiment.cells.is_empty(), "{id} has no cells");
        assert_eq!(experiment.spec.seed, 0);
        assert!(experiment.spec.trials > 0);
        // Table cells carry max-load distributions with one entry per
        // trial; serving aggregates per-server loads (n per trial) and
        // churn is metric-only.
        let cell = &experiment.cells[0];
        match id {
            "dimension" => {}
            "churn" => assert!(cell.distribution.is_none(), "churn cells are metric-only"),
            "replication" => assert!(
                cell.distribution.is_none(),
                "replication cells are metric-only"
            ),
            "dht" => assert!(cell.distribution.is_none(), "dht cells are metric-only"),
            "durability" => {
                assert!(
                    cell.distribution.is_none(),
                    "durability cells are metric-only"
                );
                assert!(
                    cell.metrics.iter().any(|(k, _)| k == "replay_mean"),
                    "durability cells carry the replay-cost metric"
                );
            }
            "resilience" => {
                assert!(
                    cell.distribution.is_none(),
                    "resilience cells are metric-only"
                );
                assert!(
                    cell.metrics.iter().any(|(k, _)| k == "availability_pct"),
                    "resilience cells carry the availability metric"
                );
            }
            "scaling" => {
                assert!(cell.distribution.is_none(), "scaling cells are metric-only");
                // The wall-clock throughput column must be present (it
                // renders) but `~`-prefixed (so `--check` skips it).
                assert!(
                    cell.metrics.iter().any(|(k, _)| k == "~balls_per_s"),
                    "scaling cells carry the informational throughput metric"
                );
            }
            "serving" => {
                let n = experiment
                    .spec
                    .params
                    .iter()
                    .find(|(k, _)| k == "servers")
                    .and_then(|(_, v)| v.as_u64())
                    .expect("servers param");
                let dist = cell.distribution.as_ref().expect("distribution");
                assert_eq!(dist.total(), experiment.spec.trials as u64 * n);
            }
            _ => {
                let dist = cell.distribution.as_ref().expect("distribution");
                assert_eq!(dist.total(), experiment.spec.trials as u64);
            }
        }
    }
    // The quick scale never touches EXPERIMENTS.md (reference scale only).
    assert!(!dir.join("EXPERIMENTS.md").exists());

    // Check mode: a fresh identical run passes against what was written.
    let output = run(&dir, &["--check"]);
    assert!(
        output.status.success(),
        "self-check failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // A subset check via --only runs (and compares) just those members.
    let output = run(&dir, &["--check", "--only", "serving,churn"]);
    assert!(
        output.status.success(),
        "--only self-check failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("2 experiments"), "stdout: {stdout}");

    // Tamper with one committed distribution: the check must fail loudly.
    let victim = results_dir.join("table1.json");
    let mut set = ResultSet::load(&victim).unwrap();
    let cell = &mut set.experiments[0].cells[0];
    let trials = cell.distribution.as_ref().unwrap().total();
    let mut skewed = geo2c_util::hist::Counter::new();
    skewed.add_n(40, trials); // an absurd max load in every trial
    cell.distribution = Some(skewed);
    set.save(&victim).unwrap();

    let output = run(&dir, &["--check"]);
    assert!(!output.status.success(), "tampered check must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("check FAILED"), "stderr: {stderr}");
    assert!(stderr.contains("table1"), "stderr: {stderr}");

    // A missing expectation file is reported as such, not as a diff.
    std::fs::remove_file(&victim).unwrap();
    let output = run(&dir, &["--check"]);
    assert!(!output.status.success());
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("cannot load committed expectations"),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn only_flag_rejects_unknown_experiment_ids() {
    // `--only` must fail fast on a typo'd id — before any suite work —
    // and name the valid suite members in the error.
    let output = Command::new(env!("CARGO_BIN_EXE_run_tables"))
        .args(["--quick", "--only", "bogus"])
        .output()
        .expect("run_tables executes");
    assert!(!output.status.success(), "--only bogus must exit non-zero");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unknown experiment 'bogus'"),
        "stderr: {stderr}"
    );
    for id in SUITE_IDS {
        assert!(
            stderr.contains(id),
            "error must name suite id {id}: {stderr}"
        );
    }
}

#[test]
fn help_prints_usage_and_unknown_flags_exit_2_without_a_panic() {
    for (name, exe) in [
        ("run_tables", env!("CARGO_BIN_EXE_run_tables")),
        ("run_benches", env!("CARGO_BIN_EXE_run_benches")),
    ] {
        for help in ["--help", "-h"] {
            let output = Command::new(exe).arg(help).output().expect("executes");
            assert_eq!(output.status.code(), Some(0), "{name} {help}: {output:?}");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                stdout.starts_with(&format!("usage: {name}")),
                "{name} {help} stdout: {stdout}"
            );
            assert!(output.stderr.is_empty(), "{name} {help}: {output:?}");
        }
        let output = Command::new(exe)
            .args(["--quick", "--bogus"])
            .output()
            .expect("executes");
        assert_eq!(output.status.code(), Some(2), "{name} --bogus: {output:?}");
        assert!(output.stdout.is_empty(), "{name} --bogus: {output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("unknown flag '--bogus'") && stderr.contains(&format!("usage: {name}")),
            "{name} --bogus stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name} --bogus: {stderr}");
    }
}

#[test]
fn quick_expectations_in_the_repository_match_the_current_scale() {
    // The committed results/quick/*.json must carry the spec the QUICK
    // scale would run today — otherwise ci.sh's `--quick --check` is
    // comparing apples to stale oranges and its failure message will
    // blame the numbers instead of the spec. (The full comparison runs
    // in CI; this test just pins the committed spec shape so drift is
    // caught even when tests run without the CI script.)
    let repo_quick: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "results", "quick"]
        .iter()
        .collect();
    let scale = geo2c_bench::experiments::QUICK;
    for id in SUITE_IDS {
        let path = repo_quick.join(format!("{id}.json"));
        let set = ResultSet::load(&path)
            .unwrap_or_else(|e| panic!("{} must exist and parse: {e}", path.display()));
        let spec = &set.experiment(id).expect("experiment present").spec;
        let expected_trials = match id {
            "table2" => scale.torus_trials,
            "dimension" => scale.dim_trials,
            "ring_chart" => scale.chart_trials,
            "tabulation" => scale.tab_trials,
            "heavy" => scale.heavy_trials,
            "serving" => scale.serve_trials,
            "resilience" => scale.resil_trials,
            "churn" => scale.churn_trials,
            "replication" => scale.repl_trials,
            "dht" => scale.dht_trials,
            "scaling" => scale.scaling_trials,
            "durability" => scale.durability_trials,
            _ => scale.ring_trials,
        };
        assert_eq!(spec.trials, expected_trials, "{id}: stale trials");
        if id == "dimension" {
            // The dimension sweep was resized to paper-scale n; the
            // committed quick expectation must carry the spec the QUICK
            // scale would run today, so `--quick --check` round-trips.
            let committed_n = spec
                .params
                .iter()
                .find(|(k, _)| k == "n")
                .and_then(|(_, v)| v.as_usize())
                .expect("n param");
            assert_eq!(committed_n, 1usize << scale.dim_exp, "{id}: stale n");
        }
        if id == "table1" || id == "table3" {
            let ns: Vec<usize> = scale.ring_sizes();
            let committed: Vec<usize> = spec
                .params
                .iter()
                .find(|(k, _)| k == "n")
                .and_then(|(_, v)| v.as_array())
                .expect("n param")
                .iter()
                .filter_map(Json::as_usize)
                .collect();
            assert_eq!(committed, ns, "{id}: stale sweep sizes");
        }
    }
}
