//! The framed file format end to end: write → stream → positioned
//! reads, the torn-write ladder, and the footer's structural checks,
//! over files that fit in one read window and files that span several.

use durable::ladder::TempDir;
use durable::{Dec, Enc, Error, FramedReader, FramedWriter, HEADER_LEN, READ_WINDOW};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"ELEVTST\x01";

/// Writes records `tag 1 | i u32 | i × u64` for `i` in `0..n`; returns
/// the path and the record boundaries (each record's start offset,
/// then the footer's).
fn write_demo(dir: &Path, n: u32) -> (PathBuf, Vec<u64>) {
    let path = dir.join("demo.bin");
    let mut w = FramedWriter::create(&path, MAGIC, 1, [n.into(), 7, 0xC0FFEE]).expect("create");
    let mut starts = vec![HEADER_LEN as u64];
    let mut enc = Enc::default();
    for i in 0..n {
        enc.0.clear();
        enc.u32(1).u32(i);
        for j in 0..i {
            enc.u64(u64::from(j) * 3);
        }
        starts.push(w.write_record(&enc.0).expect("record"));
    }
    assert_eq!(w.records(), u64::from(n));
    let len = w.finish().expect("finish");
    assert_eq!(len, std::fs::metadata(&path).expect("meta").len());
    (path, starts)
}

/// Streams every record, checking each decodes; returns the count.
fn read_demo(path: &Path) -> Result<u32, Error> {
    let mut r = FramedReader::open(path, MAGIC, 1)?;
    let mut n = 0;
    while let Some(p) = r.next_record()? {
        let mut d = Dec::payload(p);
        let (tag, i) = (d.u32()?, d.u32()?);
        if tag != 1 || i != n {
            return Err(Error::Malformed(format!("record {i} out of sequence at {n}")));
        }
        for j in 0..i {
            if d.u64()? != u64::from(j) * 3 {
                return Err(Error::Malformed(format!("record {i} field {j}")));
            }
        }
        d.end()?;
        n += 1;
    }
    Ok(n)
}

#[test]
fn records_stream_and_read_back_by_offset() {
    let dir = TempDir::new("durable-rt");
    let (path, starts) = write_demo(&dir.0, 5);
    assert_eq!(read_demo(&path), Ok(5));

    let mut r = FramedReader::open(&path, MAGIC, 1).expect("open");
    assert_eq!(r.fields(), [5, 7, 0xC0FFEE]);
    let mut streamed = Vec::new();
    loop {
        let at = r.offset();
        match r.next_record().expect("record") {
            Some(p) => streamed.push((at, p.to_vec())),
            None => break,
        }
    }
    assert_eq!(streamed.iter().map(|s| s.0).collect::<Vec<_>>(), starts[..5]);
    assert!(r.next_record().expect("idempotent EOF").is_none());
    for (i, (at, want)) in streamed.iter().enumerate() {
        let (got, next) = r.read_record_at(*at).expect("positioned read");
        assert_eq!((got, next), (&want[..], starts[i + 1]));
    }
    assert_eq!(r.read_record_at(1 << 20).unwrap_err().name(), "truncated");
}

#[test]
fn framed_reader_runs_the_ladder() {
    let dir = TempDir::new("durable-ladder");
    let (path, _) = write_demo(&dir.0, 4);
    durable::ladder::run(&path, read_demo);
}

#[test]
fn footer_pins_the_record_count_and_the_end_of_file() {
    let dir = TempDir::new("durable-footer");
    let (path, starts) = write_demo(&dir.0, 4);
    let original = std::fs::read(&path).expect("bytes");

    // Drop record 2 and keep the original footer: the record count or
    // the whole-file checksum catches it, never a quiet short read.
    let mut spliced = original[..starts[2] as usize].to_vec();
    spliced.extend_from_slice(&original[starts[3] as usize..]);
    std::fs::write(&path, &spliced).expect("splice");
    let err = read_demo(&path).expect_err("spliced file must not read clean");
    assert!(matches!(err.name(), "malformed" | "checksum_mismatch"), "got {err:?}");

    // Bytes after a valid footer are not ignored.
    let mut trailing = original.clone();
    trailing.extend_from_slice(b"junk");
    std::fs::write(&path, &trailing).expect("append");
    assert_eq!(read_demo(&path).unwrap_err().name(), "malformed");
}

/// Payload sizes of the multi-window file: frames that straddle the
/// file's page boundaries, an empty payload, and one frame larger than
/// the reader's window.
const PAGED_SIZES: [usize; 9] = [700, 1_500, 333, 2_900, 0, 5_000, 1_000, 4_085, 64];

/// Writes records of [`PAGED_SIZES`] bytes, each a deterministic byte
/// pattern; returns the path, each record's start offset and payload.
fn write_paged(dir: &Path) -> (PathBuf, Vec<u64>, Vec<Vec<u8>>) {
    let path = dir.join("paged.bin");
    let mut w = FramedWriter::create(&path, MAGIC, 1, [9, 0, 0]).expect("create");
    let (mut starts, mut payloads) = (vec![HEADER_LEN as u64], Vec::new());
    for (i, &n) in PAGED_SIZES.iter().enumerate() {
        let payload: Vec<u8> = (0..n).map(|j| ((i * 31 + j * 7) % 251) as u8).collect();
        starts.push(w.write_record(&payload).expect("record"));
        payloads.push(payload);
    }
    w.finish().expect("finish");
    starts.pop();
    (path, starts, payloads)
}

/// Streams every record, requiring each to be the expected payload.
fn read_paged(path: &Path, payloads: &[Vec<u8>]) -> Result<usize, Error> {
    let mut r = FramedReader::open(path, MAGIC, 1)?;
    let mut n = 0;
    while let Some(p) = r.next_record()? {
        if payloads.get(n).map(Vec::as_slice) != Some(p) {
            return Err(Error::Malformed(format!("record {n} is not its payload")));
        }
        n += 1;
    }
    Ok(n)
}

#[test]
fn a_file_of_several_windows_runs_the_ladder() {
    let dir = TempDir::new("durable-paged-ladder");
    let (path, starts, payloads) = write_paged(&dir.0);
    let len = std::fs::metadata(&path).expect("meta").len();
    let window = READ_WINDOW as u64;
    assert!(len > 3 * window, "{len} bytes span several windows");
    let frames: Vec<(u64, u64)> =
        starts.iter().zip(&payloads).map(|(&s, p)| (s, s + 4 + p.len() as u64 + 8)).collect();
    assert!(frames.iter().filter(|(s, e)| s / window != (e - 1) / window).count() >= 3);
    assert!(frames.iter().any(|(s, e)| e - s > window), "one frame is larger than a window");
    assert_eq!(read_paged(&path, &payloads), Ok(payloads.len()));
    durable::ladder::run(&path, |p| read_paged(p, &payloads));
}

#[test]
fn positioned_reads_jumping_both_ways_return_the_streamed_payloads() {
    let dir = TempDir::new("durable-paged-jumps");
    let (path, starts, payloads) = write_paged(&dir.0);
    let last = payloads.len() - 1;
    let mut r = FramedReader::open(&path, MAGIC, 1).expect("open");
    for i in [last, 0, 5, 2, 7, 1, 5, 8, 3, 0, 6, 4, last] {
        let (got, next) = r.read_record_at(starts[i]).expect("positioned read");
        assert_eq!(got, &payloads[i][..], "record {i}");
        assert_eq!(next, starts[i] + 4 + payloads[i].len() as u64 + 8);
    }

    // Streaming interleaved with far jumps keeps its own cursor, and
    // the footer still verifies the whole file.
    let mut r = FramedReader::open(&path, MAGIC, 1).expect("open");
    for (i, want) in payloads.iter().enumerate() {
        let jump = last - i;
        let (got, _) = r.read_record_at(starts[jump]).expect("jump");
        assert_eq!(got, &payloads[jump][..]);
        assert_eq!(r.offset(), starts[i]);
        assert_eq!(r.next_record().expect("record"), Some(&want[..]));
    }
    assert_eq!(r.next_record().expect("footer"), None);
}
