//! Command-line contract of the `repro` binary, driven as a subprocess.

use std::path::Path;
use std::process::Command;

/// `--json DIR --check GOLDENS` would either write nothing (the check
/// returns first) or overwrite the goldens it checks (`--json results
/// --check results`), so the pair is bad usage: exit 2 before anything
/// runs or is written, in either flag order.
#[test]
fn json_with_check_is_rejected_before_anything_is_written() {
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/quick");
    let out_dir = std::env::temp_dir().join(format!("repro-json-check-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    let json = ["--json".as_ref(), out_dir.as_os_str()];
    let check = ["--check".as_ref(), goldens.as_os_str()];
    for flags in [[json, check], [check, json]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(flags.concat())
            .arg("table1")
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains("--json and --check"), "{stderr}");
        assert!(out.stdout.is_empty());
        assert!(!out_dir.exists(), "{} was created", out_dir.display());
    }
}
