//! Records the code-generation flags (for example `-C target-cpu=native`
//! from the repository's `.cargo/config.toml`) so every run can print
//! what it was compiled for.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
