//! Records which compiler and flags built the benchmark, so every result
//! carries them: two results built with different `target-cpu` settings
//! are not comparable, and the binary cannot find that out at run time.

use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-env-changed=RUSTFLAGS");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    // Cargo hands build scripts the effective flags (from RUSTFLAGS or
    // `.cargo/config.toml`) separated by 0x1f.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\u{1f}', " ");
    println!("cargo:rustc-env=E2E_BENCH_RUSTC={version}");
    println!("cargo:rustc-env=E2E_BENCH_RUSTFLAGS={flags}");
}
