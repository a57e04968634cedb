//! `figures` refuses what it does not understand instead of ignoring it:
//! `figures --quick --trails 3 table5` used to run with the default trial
//! count and exit 0.

use std::process::Command;

/// Exit code, stdout and stderr of `figures <args>`.
fn figures(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("run figures");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("figures prints UTF-8");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn unknown_arguments_print_usage_and_exit_2() {
    for args in [
        &["--quick", "--trails", "3", "table5"][..],
        &["--quick", "3", "table5"],
        &["--quick", "--trials", "table5"],
        &["--quick", "table5", "--seed"],
        &["--quick", "table5", "fig16"],
    ] {
        let (code, stdout, stderr) = figures(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stderr.contains("usage: figures"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} ran something: {stdout}");
    }
}

#[test]
fn known_arguments_are_applied() {
    let args = "table5 --trials 2 --objects 900 --users 7 --seed 5 --quick";
    let (code, stdout, _) = figures(&args.split(' ').collect::<Vec<_>>());
    assert_eq!(code, Some(0));
    let banner = "|O|=900, |U|=7, trials=2 (quick mode)";
    assert!(stdout.contains(banner), "{stdout}");
    assert!(stdout.contains("## Table 5") && !stdout.contains("## Table 4"));
}
