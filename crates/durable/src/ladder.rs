//! The torn-write ladder: one test procedure every framed-file reader
//! runs through its public entry point.
//!
//! Starting from a clean framed file, the ladder
//!
//! - cuts the file at every byte (each strict prefix must read as
//!   `truncated`);
//! - flips a byte in the header fields, the header checksum, the first
//!   and last byte of every payload, and both ends of every record
//!   checksum, the footer's included (each must read as
//!   `checksum_mismatch`);
//! - swaps in a foreign magic, and a short foreign file (`bad_magic`);
//! - bumps the version under a consistent header checksum
//!   (`unsupported_version`);
//! - deletes the file (`io`);
//!
//! and then restores the clean file. Flips stay off the length
//! prefixes: see the crate docs for why a prefix flip can read as
//! truncation.

use crate::{fnv1a64, Error, HEADER_LEN};
use std::path::Path;

/// Runs the ladder against the clean framed file at `path`, reading it
/// back through `read` after every mutation; restores the file at the
/// end.
///
/// # Panics
///
/// When the clean file does not read, or any rung reads clean or with
/// the wrong error class.
pub fn run<T>(path: &Path, read: impl Fn(&Path) -> Result<T, Error>) {
    let original = std::fs::read(path).expect("clean file");
    assert!(read(path).is_ok(), "the clean file must read");
    let rung = |bytes: &[u8], class: &str, what: &str| {
        std::fs::write(path, bytes).expect("write rung");
        match read(path) {
            Ok(_) => panic!("{what}: read clean, expected {class}"),
            Err(e) => assert_eq!(e.name(), class, "{what}: got {e:?}"),
        }
    };

    for cut in 0..original.len() {
        rung(&original[..cut], "truncated", &format!("cut at byte {cut}"));
    }

    // Walk the record frames by trusting the clean file's prefixes.
    let mut flips = vec![HEADER_LEN - 20, HEADER_LEN - 1];
    let mut at = HEADER_LEN;
    while at < original.len() {
        let len = u32::from_le_bytes(original[at..at + 4].try_into().expect("4 bytes")) as usize;
        let checksum = at + 4 + len;
        if len > 0 {
            flips.extend([at + 4, checksum - 1]);
        }
        flips.extend([checksum, checksum + 7]);
        at = checksum + 8;
    }
    assert_eq!(at, original.len(), "the frame walk must land exactly on EOF");
    for flip in flips {
        let mut bytes = original.clone();
        bytes[flip] ^= 0x10;
        rung(&bytes, "checksum_mismatch", &format!("flip at byte {flip}"));
    }

    let mut foreign = original.clone();
    foreign[..8].copy_from_slice(b"<?xml ve");
    rung(&foreign, "bad_magic", "foreign magic");
    rung(b"<?xml version=\"1.0\"?><gpx></gpx>", "bad_magic", "short foreign file");

    let mut future = original.clone();
    let version = u32::from_le_bytes(future[8..12].try_into().expect("4 bytes"));
    future[8..12].copy_from_slice(&(version + 1).to_le_bytes());
    let fnv = fnv1a64(&future[..HEADER_LEN - 8]);
    future[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&fnv.to_le_bytes());
    rung(&future, "unsupported_version", "future version");

    std::fs::remove_file(path).expect("delete");
    match read(path) {
        Ok(_) => panic!("deleted file read clean"),
        Err(e) => assert_eq!(e.name(), "io", "deleted file: got {e:?}"),
    }

    std::fs::write(path, &original).expect("restore");
    assert!(read(path).is_ok(), "the restored file must read");
}
