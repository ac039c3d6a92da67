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

/// A connected-mode IPoIB scenario whose MTU exceeds the 64 KiB IP packet
/// is rejected before it runs: exit 2 naming the field, nothing on stdout.
#[test]
fn oversized_ipoib_mtu_exits_2_naming_the_field() {
    let dir = std::env::temp_dir().join(format!("ibwan-sim-mtu-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let file = dir.join("scenario.json");
    std::fs::write(
        &file,
        r#"{ "name": "big-mtu", "topology": { "delay_us": 10 },
             "workload": { "kind": "ipoib", "mode": "rc", "mtu": 100000, "window": 65536,
                           "streams": 1, "bytes_per_stream": 65536 } }"#,
    )
    .expect("write scenario");
    let out = Command::new(env!("CARGO_BIN_EXE_ibwan_sim"))
        .arg(&file)
        .output()
        .expect("spawn ibwan_sim");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(r#""mtu" is 100000"#), "{stderr}");
    assert!(out.stdout.is_empty());
}
