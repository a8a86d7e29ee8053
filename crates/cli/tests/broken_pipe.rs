//! An offline subcommand whose standard output is closed early, as by
//! `soct shapes … | head -1`, ends without a panic. Each command here
//! writes well past a pipe's buffer, so its writes fail once the reader
//! has gone.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("soct_broken_pipe_{}_{name}", std::process::id()))
}

/// Runs `soct args`, reads one line of its output, closes the pipe and
/// returns what it wrote to stderr once it has ended.
fn first_line_then_close(args: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_soct"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert!(!first.is_empty(), "{args:?} printed nothing");
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    assert_ne!(out.status.code(), Some(101), "{args:?} panicked");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn offline_commands_end_quietly_when_their_reader_goes_away() {
    // 20,000 predicates, one shape each: about 200 KiB of `shapes` output.
    let facts = tmp("many.facts");
    let text: String = (0..20_000).map(|i| format!("p{i}(a).\n")).collect();
    std::fs::write(&facts, text).unwrap();
    let shapes = first_line_then_close(&["shapes", "--db", facts.to_str().unwrap()]);
    std::fs::remove_file(&facts).ok();
    assert!(!shapes.contains("panicked"), "{shapes}");
    // About 1.2 MB of generated facts.
    let data = first_line_then_close(&["generate-data", "--preds", "4", "--rsize", "20000"]);
    assert!(!data.contains("panicked"), "{data}");
}
