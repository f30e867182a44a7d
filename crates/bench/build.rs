//! Records what built the binaries, so a committed baseline can say so
//! (`cartprof`'s `host` object).

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    let opt = std::env::var("OPT_LEVEL").unwrap_or_else(|_| "?".to_string());
    println!("cargo:rustc-env=CARTCOMM_BUILD_RUSTC={version}");
    println!("cargo:rustc-env=CARTCOMM_BUILD_PROFILE={profile} (opt-level {opt})");
    println!("cargo:rerun-if-changed=build.rs");
}
