//! The identity of the code a binary was built from: a hash over every
//! source file compiled into the server.
//!
//! This module is std-only because `build.rs` includes it by path and
//! runs it at compile time; the crate's unit tests include it the same
//! way. The build script's result becomes the compile-time constant that
//! [`crate::runspec::code_version`] returns, so the result cache is keyed
//! on the sources that were built, not on whatever `git` reports at run
//! time.

use std::io;
use std::path::{Path, PathBuf};

/// Every file, relative to the workspace `root`, whose bytes can change
/// what the server computes: the root `Cargo.toml` and `Cargo.lock`,
/// everything under `vendor/`, and for each crate under `crates/` its
/// manifest, its build script and everything under its `src/`. Paths
/// that do not exist are skipped.
pub fn source_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for name in ["Cargo.toml", "Cargo.lock"] {
        if root.join(name).is_file() {
            files.push(PathBuf::from(name));
        }
    }
    walk(root, Path::new("vendor"), &mut files)?;
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            let name = entry?.file_name();
            let krate = Path::new("crates").join(&name);
            for file in ["Cargo.toml", "build.rs"] {
                if root.join(&krate).join(file).is_file() {
                    files.push(krate.join(file));
                }
            }
            walk(root, &krate.join("src"), &mut files)?;
        }
    }
    Ok(files)
}

/// Append every file below `root/dir` to `out`, as paths relative to
/// `root`.
fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let full = root.join(dir);
    if !full.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(full)? {
        let entry = entry?;
        let rel = dir.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            walk(root, &rel, out)?;
        } else {
            out.push(rel);
        }
    }
    Ok(())
}

/// Hash `toolchain` and the named files under `root` into 32 hex digits.
/// Files are hashed in path order, whatever order `files` lists them in,
/// and each is framed by its path and length, so moving bytes between
/// files or renaming one changes the result. The hash is 128-bit FNV-1a:
/// it guards against accidental staleness, not against an adversary.
pub fn code_identity(root: &Path, files: &[PathBuf], toolchain: &str) -> io::Result<String> {
    let mut sorted: Vec<String> = files
        .iter()
        .map(|p| {
            p.components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    sorted.sort();
    let mut h = Fnv128::new();
    h.frame(toolchain.as_bytes());
    for rel in &sorted {
        h.frame(rel.as_bytes());
        h.frame(&std::fs::read(root.join(rel))?);
    }
    Ok(format!("{:032x}", h.0))
}

/// 128-bit FNV-1a.
struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Absorb `bytes` behind their length, so consecutive frames cannot
    /// run into each other.
    fn frame(&mut self, bytes: &[u8]) {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory under the system temp dir, removed on drop.
    struct TempTree(PathBuf);

    impl TempTree {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("dcr-code-identity-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            for (rel, body) in [
                ("Cargo.toml", "[workspace]\n"),
                ("Cargo.lock", "version = 3\n"),
                ("vendor/serde/src/lib.rs", "pub trait Serialize {}\n"),
                ("crates/sim/Cargo.toml", "[package]\nname = \"sim\"\n"),
                ("crates/sim/src/lib.rs", "pub fn slots() -> u64 { 7 }\n"),
                ("crates/sim/src/engine/mod.rs", "pub struct Engine;\n"),
                ("crates/bench/build.rs", "fn main() {}\n"),
                ("crates/bench/src/lib.rs", "pub mod runspec;\n"),
                ("crates/bench/tests/t.rs", "not compiled into the server\n"),
            ] {
                let path = dir.join(rel);
                std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                std::fs::write(path, body).unwrap();
            }
            Self(dir)
        }

        fn identity(&self, files: &[PathBuf]) -> String {
            code_identity(&self.0, files, "rustc 1.0.0").unwrap()
        }
    }

    impl Drop for TempTree {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn lists_what_the_server_compiles() {
        let tree = TempTree::new("list");
        let mut files: Vec<String> = source_files(&tree.0)
            .unwrap()
            .iter()
            .map(|p| p.to_string_lossy().replace('\\', "/"))
            .collect();
        files.sort();
        assert_eq!(
            files,
            [
                "Cargo.lock",
                "Cargo.toml",
                "crates/bench/build.rs",
                "crates/bench/src/lib.rs",
                "crates/sim/Cargo.toml",
                "crates/sim/src/engine/mod.rs",
                "crates/sim/src/lib.rs",
                "vendor/serde/src/lib.rs",
            ]
        );
    }

    #[test]
    fn one_byte_changes_the_identity() {
        let a = TempTree::new("a");
        let b = TempTree::new("b");
        let files = source_files(&a.0).unwrap();
        assert_eq!(a.identity(&files), b.identity(&files));
        std::fs::write(
            b.0.join("crates/sim/src/lib.rs"),
            "pub fn slots() -> u64 { 8 }\n",
        )
        .unwrap();
        assert_ne!(a.identity(&files), b.identity(&files));
        // The toolchain is part of the identity too.
        assert_ne!(
            a.identity(&files),
            code_identity(&a.0, &files, "rustc 1.0.1").unwrap()
        );
    }

    #[test]
    fn listing_order_does_not_matter() {
        let tree = TempTree::new("order");
        let files = source_files(&tree.0).unwrap();
        let mut reversed = files.clone();
        reversed.reverse();
        assert_ne!(files, reversed);
        assert_eq!(tree.identity(&files), tree.identity(&reversed));
    }
}
