//! Retired CLI spellings are usage errors, raised before any input is
//! read, and each message names what replaced it: the eager, pipelined
//! and blocked SUMMA schedules, the `--batch-rows` knob that only the
//! blocked schedule read, and the `--xdrop-kernel auto` alias.

use std::process::Command;

use elba::exit;

#[test]
fn retired_spellings_are_usage_errors_naming_their_replacement() {
    let dir = std::env::temp_dir().join(format!("elba-retired-knobs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // Never created: the knobs must be rejected before the reads are
    // opened, so a missing file cannot be what fails the run.
    let reads = dir.join("never-read.fa");
    let out = dir.join("contigs.fa");
    let cases: [(&[&str], &str); 5] = [
        (&["--spgemm", "eager"], "layered:1"),
        (&["--spgemm", "pipelined"], "layered:1"),
        (&["--spgemm", "blocked"], "--mem-budget"),
        (&["--batch-rows", "8"], "--mem-budget"),
        (&["--xdrop-kernel", "auto"], "bitparallel"),
    ];
    let launch: &[&str] = &["launch", "--ranks", "4", "--transport", "socket", "--"];
    for (knob, replacement) in cases {
        // Directly, and through `elba launch`, whose parent must reject
        // the flags before it forks any worker.
        for prefix in [&[][..], launch] {
            let result = Command::new(env!("CARGO_BIN_EXE_elba"))
                .args(prefix)
                .arg("assemble")
                .arg("--reads")
                .arg(&reads)
                .arg("--out")
                .arg(&out)
                .args(knob)
                .output()
                .expect("run elba");
            let stderr = String::from_utf8_lossy(&result.stderr);
            let label = format!("{prefix:?} assemble {knob:?}");
            assert_eq!(
                result.status.code(),
                Some(i32::from(exit::USAGE)),
                "{label} must be a usage error, stderr:\n{stderr}"
            );
            assert!(
                stderr.contains(replacement),
                "{label}: stderr must name '{replacement}':\n{stderr}"
            );
            assert!(!out.exists(), "{label} must fail before any work");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
