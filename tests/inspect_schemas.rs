//! `aov inspect` refuses a document it cannot read with a message that
//! names every schema tag it does read, and no other.

use std::process::Command;

/// Every schema tag `aov inspect` accepts.
const ACCEPTED: [&str; 3] = [
    aov_engine::diag::SCHEMA,
    aov_engine::profile::SCHEMA,
    aov_serve::protocol::SCHEMA,
];

/// Runs `aov inspect` on `doc` written to a scratch file; returns the
/// exit code and stderr.
fn inspect(name: &str, doc: &str) -> (Option<i32>, String) {
    let path = std::env::temp_dir().join(format!("aov-inspect-{name}-{}.json", std::process::id()));
    std::fs::write(&path, doc).expect("scratch file");
    let out = Command::new(env!("CARGO_BIN_EXE_aov"))
        .arg("inspect")
        .arg(&path)
        .output()
        .expect("aov starts");
    let _ = std::fs::remove_file(&path);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unsupported_schema_messages_name_every_accepted_tag() {
    for (name, doc) in [
        ("unknown-tag", r#"{"schema": "aov-nothing/1"}"#),
        ("no-tag", r#"{"program": "example1"}"#),
    ] {
        let (code, stderr) = inspect(name, doc);
        assert_eq!(code, Some(1), "{name}: {stderr}");
        assert!(stderr.contains("unsupported schema"), "{name}: {stderr}");
        let list = format!("(want one of {})", ACCEPTED.join(", "));
        assert!(
            stderr.contains(&list),
            "{name}: {list} missing from: {stderr}"
        );
    }
}
