//! `repro --figure <id>` must name an artifact: an id that selects
//! nothing is an error listing the valid ids, never a silent success.

use std::process::Command;

fn repro(figure: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--figure", figure])
        .output()
        .expect("run repro")
}

#[test]
fn unknown_figure_id_fails_and_lists_the_valid_ones() {
    let out = repro("nope");
    assert!(!out.status.success(), "an unknown id must not exit 0");
    assert!(out.stdout.is_empty(), "nothing may run for an unknown id");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("table1"),
        "stderr lists valid ids: {stderr}"
    );
    assert!(
        stderr.contains("|adhoc|"),
        "adhoc stays a valid id: {stderr}"
    );
    assert!(stderr.contains("nope"), "stderr names the bad id: {stderr}");

    let out = repro("table1");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 1"));
}
