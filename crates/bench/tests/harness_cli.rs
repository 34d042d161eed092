//! The harness binary's command-line contract.

use std::process::Command;

/// `--incr` and `--shard` runs are recorded in `BENCH_chase.json`, which
/// only experiment runs write; `--json` with either mode and no experiment
/// id is a usage error, not a silent no-op.
#[test]
fn json_incr_or_shard_without_an_experiment_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("qr-harness-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for args in [
        &["--json", "--incr"][..],
        &["--json", "--shard"],
        &["--json", "chase-incr"],
        &["--json", "--serve", "bulk-tc"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_harness"))
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("e11"), "{args:?}: {stderr}");
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "{args:?}"
        );
    }
    std::fs::remove_dir(&dir).unwrap();
}
