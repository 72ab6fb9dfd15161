//! The `figures` CLI checks every argument before it runs anything: an
//! unknown target or flag exits 2 with no experiment header on stdout, so
//! a stale invocation cannot pass silently.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("spawn figures")
}

#[test]
fn unknown_targets_and_flags_exit_2_before_running_anything() {
    for args in [
        &["bogus"][..],
        &["regress"],
        &["telemetry"],
        &["sqlbench-smoke"],
        &["export"],
        &["multi"],
        &["--record-only", "fig13"],
    ] {
        let out = figures(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(!stdout.contains("===="), "{args:?} ran a target:\n{stdout}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("fig13"), "{args:?}: no known-target list:\n{stderr}");
    }
}

#[test]
fn known_target_exits_0() {
    let out = figures(&["fig13"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("==== fig13 ===="));
}
