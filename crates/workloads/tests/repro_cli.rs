//! Command-line contract of the `repro` binary: targets it does not know
//! are rejected, never silently skipped.

use std::process::Command;

#[test]
fn unknown_targets_are_rejected_with_the_valid_ids() {
    let out_dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    // Alone, and beside a known target that must not run either.
    for (targets, unknown) in [
        (&["fig03"][..], "fig03"),
        (&["table1", "fig99"][..], "fig99"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(targets)
            .args(["--scale", "smoke", "--out"])
            .arg(&out_dir)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{targets:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown target {unknown}")),
            "{targets:?}: {stderr}"
        );
        for id in ["fig3", "fig12", "ext6", "table1", "breakeven", "all"] {
            assert!(stderr.contains(id), "the error must list {id}: {stderr}");
        }
        assert!(out.stdout.is_empty(), "{targets:?}: nothing may run");
        assert!(!out_dir.exists(), "{targets:?}: nothing may be written");
    }
}
