//! Command-line contract of the `ibwan_sim` binary, driven as a subprocess.

use std::process::Command;

/// A scenario file that cannot be read is bad input, like one the parser
/// rejects: exit 2 with a message naming the path, and print no results.
#[test]
fn unreadable_scenario_file_exits_2_naming_it() {
    let missing = std::env::temp_dir().join(format!(
        "ibwan-sim-missing-{}/scenario.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_ibwan_sim"))
        .arg(&missing)
        .output()
        .expect("spawn ibwan_sim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
    assert!(stderr.contains(&*missing.to_string_lossy()), "{stderr}");
    assert!(out.stdout.is_empty());
}
