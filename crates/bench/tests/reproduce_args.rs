//! `reproduce`'s argument handling: `--help`/`-h` print the usage and exit
//! 0, a bad argument exits 2, and neither runs the study or writes a file.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `reproduce args` in a fresh empty directory; returns its output and
/// whatever the run left in that directory.
fn run_in_empty_dir(tag: &str, args: &[&str]) -> (Output, Vec<PathBuf>) {
    let dir =
        std::env::temp_dir().join(format!("spec_reproduce_args_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn reproduce");
    let left: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("list the run directory")
        .map(|e| e.expect("directory entry").path())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (output, left)
}

#[test]
fn help_prints_the_usage_and_writes_nothing() {
    for (tag, flag) in [("long", "--help"), ("short", "-h")] {
        let (output, left) = run_in_empty_dir(tag, &[flag]);
        assert_eq!(output.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.starts_with("usage: reproduce"), "{flag}: {stdout}");
        assert!(left.is_empty(), "{flag} wrote {left:?}");
    }
}

#[test]
fn bad_arguments_exit_2_and_write_nothing() {
    let cases: [(&str, &[&str]); 5] = [
        ("unknown_flag", &["--out"]),
        ("flag_after_dir", &["out", "-v"]),
        ("bad_seed", &["out", "three"]),
        ("negative_seed", &["out", "-3"]),
        ("third_arg", &["out", "3", "extra"]),
    ];
    for (tag, args) in cases {
        let (output, left) = run_in_empty_dir(tag, args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
        assert!(left.is_empty(), "{args:?} wrote {left:?}");
    }
}
