//! Compile the identity of the sources into the crate as
//! `DCR_CODE_VERSION`, the code-version part of every result-cache key
//! (see `runspec::code_version`).

use std::path::{Path, PathBuf};

#[path = "src/code_identity.rs"]
mod code_identity;

fn main() {
    let manifest = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .parent()
        .and_then(Path::parent)
        .expect("dcr-bench sits at crates/bench in the workspace");
    let files = code_identity::source_files(root).expect("list the workspace sources");
    let identity = code_identity::code_identity(root, &files, &toolchain())
        .expect("hash the workspace sources");
    println!("cargo:rustc-env=DCR_CODE_VERSION={identity}");

    // Directories are watched whole, so an added or removed file reruns
    // the script as well as an edited one.
    for rel in ["Cargo.toml", "Cargo.lock", "vendor"] {
        watch(&root.join(rel));
    }
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            for rel in ["Cargo.toml", "build.rs", "src"] {
                watch(&entry.path().join(rel));
            }
        }
    }
}

/// Rerun on changes under `path`. A watched path that does not exist
/// would rerun the script on every build, so only existing ones are named.
fn watch(path: &Path) {
    if path.exists() {
        println!("cargo:rerun-if-changed={}", path.display());
    }
}

/// `rustc -vV` of the compiler building this crate: a new toolchain is
/// new code even when no source changed. Build scripts run at compile
/// time, never on a request path, so this is the one spawn the crate's
/// lint allows.
#[allow(clippy::disallowed_methods)]
fn toolchain() -> String {
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    std::process::Command::new(rustc)
        .arg("-vV")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).into_owned())
        .unwrap_or_default()
}
