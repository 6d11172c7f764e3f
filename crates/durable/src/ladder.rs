//! The torn-write ladders: one test procedure every framed-file reader
//! and one every manifest reader runs through its public entry point.
//!
//! Starting from a clean framed file, [`run`]
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
//! truncation. [`manifest`] does the same for a published generation's
//! text manifest: every cut reads as `malformed`, a flipped byte as
//! `checksum_mismatch` above the closing checksum line and `malformed`
//! in that line or the newline before it, and a deleted manifest as
//! `io`. [`TempDir`] is the scratch directory their callers write in.

use crate::{fnv1a64, Error, HEADER_LEN};
use std::path::{Path, PathBuf};

/// A per-test scratch directory `elev-<tag>-<pid>` under the system
/// temp dir, emptied on creation and removed on drop; `tag` must be
/// unique within one test binary.
#[derive(Debug)]
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Creates the directory for `tag`.
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("elev-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One mutated image of the clean file, the error class it must read
/// as, and its description.
type Rung = (Vec<u8>, &'static str, String);

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

    let mut foreign = original.clone();
    foreign[..8].copy_from_slice(b"<?xml ve");
    let mut future = original.clone();
    let version = u32::from_le_bytes(future[8..12].try_into().expect("4 bytes"));
    future[8..12].copy_from_slice(&(version + 1).to_le_bytes());
    let fnv = fnv1a64(&future[..HEADER_LEN - 8]);
    future[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&fnv.to_le_bytes());
    let headers = [
        (foreign, "bad_magic", "foreign magic".into()),
        (b"<?xml version=\"1.0\"?><gpx></gpx>".to_vec(), "bad_magic", "short foreign file".into()),
        (future, "unsupported_version", "future version".into()),
    ];
    let rungs = cuts(&original, "truncated")
        .chain(flips.into_iter().map(|at| flip(&original, at, "checksum_mismatch")))
        .chain(headers);
    climb(path, &original, rungs, read);
}

/// Runs the manifest ladder against the clean manifest at `path`,
/// reading it back through `read` after every mutation; restores the
/// file at the end.
///
/// # Panics
///
/// When the clean manifest does not read, or any rung reads clean or
/// with the wrong error class.
pub fn manifest<T>(path: &Path, read: impl Fn(&Path) -> Result<T, Error>) {
    let original = std::fs::read(path).expect("clean manifest");
    assert!(read(path).is_ok(), "the clean manifest must read");
    // Flipping the newline that ends the text above the checksum line
    // merges the two lines, so the checksum line is gone.
    let last_newline =
        original[..original.len() - 1].iter().rposition(|&b| b == b'\n').unwrap_or(0);
    let flips = (0..original.len()).map(|at| {
        flip(&original, at, if at < last_newline { "checksum_mismatch" } else { "malformed" })
    });
    climb(path, &original, cuts(&original, "malformed").chain(flips), read);
}

/// Every strict prefix of `original`, each reading as `class`.
fn cuts<'a>(clean: &'a [u8], class: &'static str) -> impl Iterator<Item = Rung> + 'a {
    (0..clean.len()).map(move |cut| (clean[..cut].to_vec(), class, format!("cut at byte {cut}")))
}

/// `original` with byte `at` flipped, reading as `class`.
fn flip(original: &[u8], at: usize, class: &'static str) -> Rung {
    let mut bytes = original.to_vec();
    bytes[at] ^= 0x10;
    (bytes, class, format!("flip at byte {at}"))
}

/// Writes every rung over `path` and requires `read` to fail with its
/// class, then deletes the file (`io`) and restores `original`.
fn climb<T>(
    path: &Path,
    original: &[u8],
    rungs: impl Iterator<Item = Rung>,
    read: impl Fn(&Path) -> Result<T, Error>,
) {
    let check = |class: &str, what: &str| match read(path) {
        Ok(_) => panic!("{what}: read clean, expected {class}"),
        Err(e) => assert_eq!(e.name(), class, "{what}: got {e:?}"),
    };
    for (bytes, class, what) in rungs {
        std::fs::write(path, bytes).expect("write rung");
        check(class, &what);
    }
    std::fs::remove_file(path).expect("delete");
    check("io", "deleted file");
    std::fs::write(path, original).expect("restore");
    assert!(read(path).is_ok(), "the restored file must read");
}
