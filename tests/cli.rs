//! End-to-end tests of the `vpga` command-line binary.

use std::process::Command;

fn vpga() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vpga"))
}

#[test]
fn help_prints_usage() {
    let out = vpga().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("usage"), "{text}");
}

#[test]
fn unknown_command_fails_with_message() {
    let out = vpga().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("unknown command"), "{text}");
}

#[test]
fn gen_flow_program_roundtrip() {
    let dir = std::env::temp_dir().join("vpga_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let design = dir.join("alu.v");
    let fabric = dir.join("alu.fabric");

    // gen → Verilog file.
    let out = vpga()
        .args(["gen", "alu", "--size", "tiny", "-o"])
        .arg(&design)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&design).expect("file written");
    assert!(text.contains("module alu"), "{text}");

    // flow → metrics on stdout.
    let out = vpga()
        .args(["flow"])
        .arg(&design)
        .args(["--arch", "granular"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("flow a"), "{text}");
    assert!(text.contains("flow b"), "{text}");
    assert!(text.contains("power"), "{text}");

    // program → via map file (internally verified by reconstruction).
    let out = vpga()
        .args(["program"])
        .arg(&design)
        .args(["--arch", "lut", "-o"])
        .arg(&fabric)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&fabric).expect("file written");
    assert!(text.contains("plb "), "{text}");
    assert!(text.contains("vias="), "{text}");
}

#[test]
fn arch_lists_all_architectures() {
    let out = vpga().arg("arch").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["granular", "lut", "homogeneous"] {
        assert!(text.contains(name), "missing {name}: {text}");
    }
    assert!(text.contains("full adder"));
}

/// A flag outside a subcommand's accepted set fails the run with an error
/// naming the flag and the subcommand, including flags that were removed
/// (`--stage-threads`) or that another subcommand accepts (`gen --jobs`).
#[test]
fn unknown_flags_fail_naming_flag_and_subcommand() {
    let cases: [(&[&str], &str); 3] = [
        (&["matrix", "--stage-threads", "2"], "--stage-threads"),
        (&["matrix", "--bogus"], "--bogus"),
        (&["gen", "alu", "--jobs", "2"], "--jobs"),
    ];
    for (args, flag) in cases {
        let out = vpga().args(args).output().expect("binary runs");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} should fail: {text}");
        assert!(text.contains(&format!("unknown flag \"{flag}\"")), "{text}");
        assert!(text.contains(&format!("vpga {}", args[0])), "{text}");
    }
}

#[test]
fn every_documented_matrix_and_flow_flag_is_accepted() {
    let dir = std::env::temp_dir().join(format!("vpga_cli_flags_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let run = |args: &[&str]| {
        let out = vpga().args(args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let (design, varch) = (path("alu.v"), path("granular.varch"));
    run(&["gen", "alu", "--size", "tiny", "-o", &design]);
    run(&["export-arch", "granular", "-o", &varch]);
    run(&[
        "flow",
        &design,
        "--arch",
        "granular",
        "--no-compaction",
        "--stats",
        "--audit",
        "--retries",
        "1",
        "--deadline",
        "600",
    ]);
    let (ckpt, sdf, xdl) = (path("ckpt"), path("sdf"), path("xdl"));
    run(&[
        "matrix",
        "--size",
        "tiny",
        "--jobs",
        "1",
        "--stats",
        "--only",
        "alu/granular",
        "--arch-file",
        &varch,
        "--audit",
        "--retries",
        "1",
        "--deadline",
        "600",
        "--checkpoint-dir",
        &ckpt,
        "--resume",
        "--emit-sdf",
        &sdf,
        "--emit-xdl",
        &xdl,
        "--no-compaction",
    ]);
    let _ = std::fs::remove_dir_all(&dir);
}
