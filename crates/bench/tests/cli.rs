//! The `repro` command line: every mistake is refused with exit 2 naming
//! the culprit (never run as something else, never a panic), and a figure
//! writes the bytes it always wrote.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn mistakes_exit_2_naming_the_culprit() {
    for (args, culprit) in [
        (&[][..], "commands:"),
        (&["--help"], "commands:"),
        (&["fig99"], "fig99"),
        (&["fig17", "--schedular", "reference"], "--schedular"),
        (&["fig17", "--scheduler=reference"], "--scheduler=reference"),
        (&["fig17", "--scale", "reff"], "reff"),
        (&["fig17", "--scheduler", "compiled"], "compiled"),
        (
            &["fig17", "--scale", "test", "--stats-json"],
            "--stats-json",
        ),
        (&["fleet", "--seeds", "x"], "--seeds"),
        (&["fig14", "--profile"], "--profile"),
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(culprit), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn fig14_stats_json_bytes_are_unchanged() {
    let path = std::env::temp_dir().join(format!("repro-cli-fig14-{}.json", std::process::id()));
    let out = repro(&["fig14", "--stats-json", path.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "{out:?}");
    let json = std::fs::read_to_string(&path).expect("stats JSON written");
    std::fs::remove_file(&path).ok();
    assert_eq!(
        json,
        "{\"schema_version\":1,\"c_minus_l1d_bytes\":16384,\"c_minus_l2_bytes\":262144,\
         \"t_plus_l1d_miss_slots\":4,\"t_plus_l2_miss_slots\":2,\
         \"t_plus_walk_cache_entries\":24,\"t_plus_r_plus_rob_entries\":80}"
    );
}
