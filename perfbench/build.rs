//! Records the compiler version, build profile and source revision for
//! the run record.

use std::path::Path;
use std::process::Command;

/// The commit id of the enclosing git checkout, read from `.git` directly
/// (no `git` process); "unknown" outside a git checkout.
fn git_rev(repo: &Path) -> String {
    let head = match std::fs::read_to_string(repo.join(".git/HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => {
            if let Ok(rev) = std::fs::read_to_string(repo.join(".git").join(reference)) {
                return rev.trim().to_string();
            }
            let packed = std::fs::read_to_string(repo.join(".git/packed-refs")).unwrap_or_default();
            packed
                .lines()
                .find_map(|line| line.strip_suffix(reference).map(str::trim))
                .map_or_else(|| "unknown".to_string(), str::to_string)
        }
    }
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let repo = Path::new(&manifest)
        .parent()
        .expect("the package sits in the repository");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={}", git_rev(repo));
    println!("cargo:rerun-if-changed=build.rs");
    // A missing file would make cargo rerun the script on every build.
    if let Ok(head) = std::fs::read_to_string(repo.join(".git/HEAD")) {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        if let Some(reference) = head.trim().strip_prefix("ref: ") {
            if repo.join(".git").join(reference).exists() {
                println!("cargo:rerun-if-changed=../.git/{reference}");
            }
        }
    }
}
