//! File-backed persistent device images.
//!
//! The in-memory [`crate::Medium`] dies with the process that owns it,
//! which is exactly the property the real-process crash harness needs
//! to *remove*: a simulation that is SIGKILLed must leave behind a
//! device image the parent can reopen and recover. This module is the
//! durable half of that seam — an append-only, write-through file
//! format mirroring the persist stream.
//!
//! The crash model is **process death**, not power loss: once
//! `write(2)` has returned, the bytes live in the kernel page cache
//! and survive a SIGKILL of the writer, so the writer needs no fsync
//! on the hot path ([`ImageWriter::sync`] exists for callers that also
//! want the power-loss guarantee).
//!
//! # Layout
//!
//! ```text
//! [ 64-byte header ][ frame ][ frame ] ... [ possibly torn tail ]
//! ```
//!
//! Header (all integers little-endian):
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 8    | magic `PLPNVM1\0` |
//! | 8      | 4    | format version (currently 1) |
//! | 12     | 4    | tree levels |
//! | 16     | 8    | tree arity |
//! | 24     | 8    | trace seed |
//! | 32     | 1    | scheme-name length |
//! | 33     | 23   | scheme name, zero-padded |
//! | 56     | 8    | FNV-1a 64 checksum of bytes 0..56 |
//!
//! Each frame is `[tag u8][len u32][payload][fnv u64]` where the
//! checksum covers the tag, the length bytes, and the payload. Frame
//! payloads are opaque here — `plp_core` defines the tags for tuple
//! components, root seals, and epoch seals.
//!
//! Readers tolerate a torn *tail* (a frame cut short or failing its
//! checksum, i.e. the write the kill landed on): everything from the
//! first bad frame onward is discarded and reported, never an error.
//! A corrupt *header* is an error — the image is unusable — reported
//! as a typed [`NvmError`], never a panic.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::NvmError;

/// Magic bytes opening every image file.
pub const IMAGE_MAGIC: [u8; 8] = *b"PLPNVM1\0";
/// Current image format version.
pub const IMAGE_VERSION: u32 = 1;
/// Fixed on-disk header size in bytes.
pub const IMAGE_HEADER_BYTES: usize = 64;
/// Longest scheme name the header can carry.
pub const IMAGE_SCHEME_MAX: usize = 23;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a 64 over `bytes` — the same hash the bench cache keys use, so
/// image checksums stay dependency-free and deterministic.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_BASIS, |h, &b| fnv_step(h, b))
}

fn fnv_step(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

/// FNV-1a 64 over four inputs at once: exactly
/// `[fnv1a(a), fnv1a(b), fnv1a(c), fnv1a(d)]`.
///
/// One FNV-1a stream is a chain of dependent multiplies, so it runs at
/// the multiplier's latency. Four independent chains stepped in one
/// loop keep the multiplier busy instead. The lanes run together over
/// the shortest input; each then finishes its own tail alone.
pub fn fnv1a_x4(parts: [&[u8]; 4]) -> [u64; 4] {
    let common = parts.iter().map(|p| p.len()).min().unwrap_or(0);
    let [a, b, c, d] = parts.map(|p| &p[..common]);
    let mut h = [FNV_BASIS; 4];
    for (((&x, &y), &z), &w) in a.iter().zip(b).zip(c).zip(d) {
        h = [
            fnv_step(h[0], x),
            fnv_step(h[1], y),
            fnv_step(h[2], z),
            fnv_step(h[3], w),
        ];
    }
    for (h, part) in h.iter_mut().zip(parts) {
        *h = part[common..].iter().fold(*h, |h, &b| fnv_step(h, b));
    }
    h
}

/// Identity of an image: which run produced it, against which geometry.
///
/// Enough for a reader to rebuild the matching integrity tree and to
/// refuse images from a different run than the one it expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageHeader {
    /// Integrity-tree arity the run was configured with.
    pub arity: u64,
    /// Integrity-tree levels the run was configured with.
    pub levels: u32,
    /// Trace seed of the producing run.
    pub seed: u64,
    /// Stable scheme name of the producing run (e.g. `"sp"`).
    pub scheme: String,
}

impl ImageHeader {
    /// Encodes the header into its fixed 64-byte on-disk form.
    ///
    /// Scheme names longer than [`IMAGE_SCHEME_MAX`] are truncated at a
    /// byte boundary; every stable scheme name in the workspace is far
    /// shorter.
    pub fn encode(&self) -> [u8; IMAGE_HEADER_BYTES] {
        let mut out = [0u8; IMAGE_HEADER_BYTES];
        out[0..8].copy_from_slice(&IMAGE_MAGIC);
        out[8..12].copy_from_slice(&IMAGE_VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&self.levels.to_le_bytes());
        out[16..24].copy_from_slice(&self.arity.to_le_bytes());
        out[24..32].copy_from_slice(&self.seed.to_le_bytes());
        let name = self.scheme.as_bytes();
        let take = name.len().min(IMAGE_SCHEME_MAX);
        out[32] = take as u8;
        out[33..33 + take].copy_from_slice(&name[..take]);
        let sum = fnv1a(&out[..56]);
        out[56..64].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decodes a header from its on-disk form, validating magic,
    /// version, checksum, and the scheme-name field.
    pub fn decode(bytes: &[u8; IMAGE_HEADER_BYTES]) -> Result<Self, NvmError> {
        if bytes[0..8] != IMAGE_MAGIC {
            return Err(NvmError::ImageBadMagic);
        }
        let version = read_u32(bytes, 8);
        if version != IMAGE_VERSION {
            return Err(NvmError::ImageBadVersion { version });
        }
        let sum = read_u64(bytes, 56);
        if sum != fnv1a(&bytes[..56]) {
            return Err(NvmError::ImageHeaderCorrupt);
        }
        let scheme_len = bytes[32] as usize;
        if scheme_len > IMAGE_SCHEME_MAX {
            return Err(NvmError::ImageHeaderCorrupt);
        }
        let scheme = match std::str::from_utf8(&bytes[33..33 + scheme_len]) {
            Ok(s) => s.to_string(),
            Err(_) => return Err(NvmError::ImageHeaderCorrupt),
        };
        Ok(ImageHeader {
            arity: read_u64(bytes, 16),
            levels: read_u32(bytes, 12),
            seed: read_u64(bytes, 24),
            scheme,
        })
    }
}

fn read_u32(bytes: &[u8], off: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[off..off + 4]);
    u32::from_le_bytes(b)
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Bytes a frame adds around its payload: tag (1), length (4) and
/// checksum (8).
const FRAME_OVERHEAD: usize = 13;

/// Encodes one complete frame: `[tag][len u32][payload][fnv u64]`.
///
/// Public because the frame format doubles as the supervisor's IPC
/// envelope: an isolated matrix child returns its `RunReport` over a
/// pipe as exactly one of these frames, so corruption detection on
/// the wire reuses the medium's checksum discipline.
pub fn encode_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    encode_frame_into(&mut frame, tag, payload);
    frame
}

/// Appends one complete frame to `out` — [`encode_frame`] without the
/// allocation, for writers that reuse one buffer.
fn encode_frame_into(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Length of the frame at the front of `bytes`, from its length field
/// alone, or `None` when that frame cannot fit in `bytes`.
fn frame_extent(bytes: &[u8]) -> Option<usize> {
    if bytes.len() < FRAME_OVERHEAD {
        return None;
    }
    let end = FRAME_OVERHEAD.checked_add(read_u32(bytes, 1) as usize)?;
    (end <= bytes.len()).then_some(end)
}

/// A whole frame split into the bytes its checksum covers (tag, length
/// and payload) and the checksum it carries.
fn frame_sum(frame: &[u8]) -> (&[u8], u64) {
    let body = frame.len() - 8;
    (&frame[..body], read_u64(frame, body))
}

/// Whether a whole frame passes its checksum — the per-frame check of
/// both [`decode_frame`] and [`read_image`].
fn frame_intact(frame: &[u8]) -> bool {
    let (body, sum) = frame_sum(frame);
    fnv1a(body) == sum
}

/// Decodes one frame from the front of `bytes`.
///
/// Returns `(tag, payload, frame_len)` when the leading frame is
/// intact, `None` when it is truncated or fails its checksum — the
/// same acceptance rule [`read_image`] applies per frame, exposed for
/// pipe readers that receive frames outside an image file.
pub fn decode_frame(bytes: &[u8]) -> Option<(u8, &[u8], usize)> {
    let end = frame_extent(bytes)?;
    frame_intact(&bytes[..end]).then(|| (bytes[0], &bytes[5..end - 8], end))
}

/// Write-through appender for a device image.
///
/// Every append is a single `write_all` straight to the file — no
/// userspace buffering, so a SIGKILL between appends loses nothing and
/// a SIGKILL *during* an append tears at most the final frame, which
/// readers discard. Frames are encoded into one buffer the writer
/// keeps, so once that buffer has grown to the largest frame an append
/// allocates nothing.
///
/// A caller that wants several frames in one write (recovery's scratch
/// image) [`stage`](ImageWriter::stage)s them and then
/// [`write_staged`](ImageWriter::write_staged)s the batch.
#[derive(Debug)]
pub struct ImageWriter {
    file: File,
    path: PathBuf,
    /// Encoded frames not yet written; empty between calls except
    /// while a caller is staging.
    staged: Vec<u8>,
}

impl ImageWriter {
    /// Creates (truncating) the image file and writes its header.
    pub fn create(path: &Path, header: &ImageHeader) -> Result<Self, NvmError> {
        let mut file = File::create(path).map_err(|_| NvmError::ImageIo { op: "create" })?;
        file.write_all(&header.encode())
            .map_err(|_| NvmError::ImageIo { op: "write" })?;
        Ok(ImageWriter {
            file,
            path: path.to_path_buf(),
            staged: Vec::new(),
        })
    }

    /// Appends one complete frame (after any staged ones) in one
    /// `write_all`.
    pub fn append(&mut self, tag: u8, payload: &[u8]) -> Result<(), NvmError> {
        self.stage(tag, payload);
        self.write_staged()
    }

    /// Encodes one frame into the writer's buffer without writing it.
    pub fn stage(&mut self, tag: u8, payload: &[u8]) {
        encode_frame_into(&mut self.staged, tag, payload);
    }

    /// Writes every staged frame in one `write_all` and empties the
    /// buffer (keeping its capacity).
    pub fn write_staged(&mut self) -> Result<(), NvmError> {
        let written = self
            .file
            .write_all(&self.staged)
            .map_err(|_| NvmError::ImageIo { op: "write" });
        self.staged.clear();
        written
    }

    /// Appends only the first `keep` bytes of the frame — the
    /// deterministic stand-in for a write the kill lands on. Readers
    /// will discard the torn frame, so an `append_torn` followed by
    /// process death leaves the image exactly as if the frame were
    /// never attempted.
    pub fn append_torn(&mut self, tag: u8, payload: &[u8], keep: usize) -> Result<(), NvmError> {
        let start = self.staged.len();
        self.stage(tag, payload);
        let keep = keep.min(self.staged.len() - start - 1);
        self.staged.truncate(start + keep);
        self.write_staged()
    }

    /// Flushes file contents to stable storage (`fdatasync`). Not
    /// needed for the SIGKILL crash model; offered for callers that
    /// also want the image to survive power loss.
    pub fn sync(&mut self) -> Result<(), NvmError> {
        self.file
            .sync_data()
            .map_err(|_| NvmError::ImageIo { op: "sync" })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// One intact frame recovered from an image, borrowed from the file
/// buffer its [`ImageContents`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageRecord<'a> {
    /// Frame tag (meaning assigned by the producer).
    pub tag: u8,
    /// Frame payload.
    pub payload: &'a [u8],
}

/// Everything a reader recovers from an image file.
#[derive(Clone, PartialEq, Eq)]
pub struct ImageContents {
    /// Validated header.
    pub header: ImageHeader,
    /// Number of intact frames.
    pub frames: usize,
    /// Bytes discarded from the first bad frame onward (0 for a
    /// cleanly closed image). Nonzero means the writer died mid-frame.
    pub torn_tail_bytes: u64,
    /// The whole file.
    bytes: Vec<u8>,
    /// End of the last intact frame.
    intact_end: usize,
}

impl ImageContents {
    /// All intact frames, in append order, as slices of the file
    /// buffer.
    pub fn records(&self) -> impl Iterator<Item = ImageRecord<'_>> + '_ {
        let mut rest = &self.bytes[IMAGE_HEADER_BYTES..self.intact_end];
        std::iter::from_fn(move || {
            let end = frame_extent(rest)?;
            let (frame, tail) = rest.split_at(end);
            rest = tail;
            Some(ImageRecord {
                tag: frame[0],
                payload: &frame[5..end - 8],
            })
        })
    }
}

impl std::fmt::Debug for ImageContents {
    /// Compact: an image of several megabytes must not dump into
    /// assertion messages.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImageContents")
            .field("header", &self.header)
            .field("frames", &self.frames)
            .field("torn_tail_bytes", &self.torn_tail_bytes)
            .field("file_bytes", &self.bytes.len())
            .finish()
    }
}

/// Reads and validates an image file.
///
/// Header problems are hard, typed errors. A bad frame is *not* an
/// error: frames after the last intact one are the write the kill
/// interrupted, so they are counted into
/// [`ImageContents::torn_tail_bytes`] and dropped — tuple atomicity at
/// the medium level.
///
/// The reader walks the frame boundaries from the length fields alone
/// and checks the checksums of each four consecutive frames in one
/// four-lane pass ([`fnv1a_x4`]); the frames of a last, shorter group
/// are checked one by one. The verdict per frame is exactly
/// [`decode_frame`]'s.
pub fn read_image(path: &Path) -> Result<ImageContents, NvmError> {
    let bytes = std::fs::read(path).map_err(|_| NvmError::ImageIo { op: "read" })?;
    if bytes.len() < IMAGE_HEADER_BYTES {
        return Err(NvmError::ImageHeaderTruncated {
            len: bytes.len() as u64,
        });
    }
    let mut head = [0u8; IMAGE_HEADER_BYTES];
    head.copy_from_slice(&bytes[..IMAGE_HEADER_BYTES]);
    let header = ImageHeader::decode(&head)?;
    let (intact_end, frames) = intact_prefix(&bytes);
    Ok(ImageContents {
        header,
        frames,
        torn_tail_bytes: (bytes.len() - intact_end) as u64,
        bytes,
        intact_end,
    })
}

/// The end offset of the intact frames after the header, and how many
/// there are: the frames before the first one that is cut short or
/// fails its checksum.
fn intact_prefix(bytes: &[u8]) -> (usize, usize) {
    let (mut intact_end, mut frames) = (IMAGE_HEADER_BYTES, 0);
    let mut off = IMAGE_HEADER_BYTES;
    loop {
        // The `(start, end)` of up to four frames, from their length
        // fields alone.
        let mut group = [(0usize, 0usize); 4];
        let mut found = 0;
        while found < group.len() {
            let Some(len) = frame_extent(&bytes[off..]) else {
                break;
            };
            group[found] = (off, off + len);
            off += len;
            found += 1;
        }
        let intact = leading_intact(bytes, &group[..found]);
        if intact > 0 {
            intact_end = group[intact - 1].1;
            frames += intact;
        }
        if intact < group.len() {
            return (intact_end, frames);
        }
    }
}

/// How many of `group`'s frames, from the first, pass their checksum.
fn leading_intact(bytes: &[u8], group: &[(usize, usize)]) -> usize {
    let frame = |&(start, end): &(usize, usize)| &bytes[start..end];
    if let [a, b, c, d] = group {
        let sums = [a, b, c, d].map(|span| frame_sum(frame(span)));
        let hashes = fnv1a_x4(sums.map(|(body, _)| body));
        sums.iter()
            .zip(hashes)
            .take_while(|((_, sum), hash)| sum == hash)
            .count()
    } else {
        group
            .iter()
            .take_while(|span| frame_intact(frame(span)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> ImageHeader {
        ImageHeader {
            arity: 8,
            levels: 9,
            seed: 7,
            scheme: "sp".to_string(),
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("plp_image_{}_{name}.img", std::process::id()))
    }

    #[test]
    fn frame_codec_round_trips_and_rejects_corruption() {
        let frame = encode_frame(9, b"hello");
        let (tag, payload, used) = decode_frame(&frame).expect("intact frame decodes");
        assert_eq!((tag, payload, used), (9, &b"hello"[..], frame.len()));
        // Truncation and bit flips both read as "no frame".
        assert_eq!(decode_frame(&frame[..frame.len() - 1]), None);
        let mut flipped = frame.clone();
        flipped[7] ^= 0x10;
        assert_eq!(decode_frame(&flipped), None);
    }

    #[test]
    fn header_round_trips() {
        let h = header();
        let bytes = h.encode();
        assert_eq!(ImageHeader::decode(&bytes), Ok(h));
    }

    #[test]
    fn header_rejects_bad_magic() {
        let mut bytes = header().encode();
        bytes[0] ^= 0xff;
        assert_eq!(ImageHeader::decode(&bytes), Err(NvmError::ImageBadMagic));
    }

    #[test]
    fn header_rejects_bad_version() {
        let mut bytes = header().encode();
        bytes[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert_eq!(
            ImageHeader::decode(&bytes),
            Err(NvmError::ImageBadVersion { version: 9 })
        );
    }

    #[test]
    fn header_rejects_flipped_bit_anywhere_past_magic() {
        for byte in 12..56 {
            let mut bytes = header().encode();
            bytes[byte] ^= 0x40;
            assert_eq!(
                ImageHeader::decode(&bytes),
                Err(NvmError::ImageHeaderCorrupt),
                "flip at byte {byte} must be caught"
            );
        }
    }

    #[test]
    fn write_read_round_trip_and_torn_tail() {
        let path = temp_path("roundtrip");
        let mut w = ImageWriter::create(&path, &header()).unwrap();
        w.append(1, &[1, 2, 3]).unwrap();
        w.append(2, b"payload").unwrap();
        w.append_torn(3, &[9; 40], 11).unwrap();
        drop(w);

        let img = read_image(&path).unwrap();
        assert_eq!(img.header, header());
        assert_eq!(
            img.records().collect::<Vec<_>>(),
            vec![
                ImageRecord {
                    tag: 1,
                    payload: &[1, 2, 3]
                },
                ImageRecord {
                    tag: 2,
                    payload: b"payload"
                },
            ]
        );
        assert_eq!(img.frames, 2);
        assert_eq!(img.torn_tail_bytes, 11);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_header_is_typed_error() {
        let path = temp_path("short");
        std::fs::write(&path, &header().encode()[..30]).unwrap();
        assert_eq!(
            read_image(&path),
            Err(NvmError::ImageHeaderTruncated { len: 30 })
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_frame_checksum_drops_tail() {
        let path = temp_path("badframe");
        let mut w = ImageWriter::create(&path, &header()).unwrap();
        w.append(1, &[5; 8]).unwrap();
        w.append(2, &[6; 8]).unwrap();
        drop(w);
        // Flip a payload byte of the second frame; its checksum now
        // fails, so only the first frame survives.
        let mut bytes = std::fs::read(&path).unwrap();
        let second_frame = IMAGE_HEADER_BYTES + 13 + 8;
        bytes[second_frame + 6] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let img = read_image(&path).unwrap();
        assert_eq!(img.frames, 1);
        assert_eq!(img.records().count(), 1);
        assert_eq!(img.torn_tail_bytes, 21);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_image_has_no_records() {
        let path = temp_path("empty");
        let w = ImageWriter::create(&path, &header()).unwrap();
        drop(w);
        let img = read_image(&path).unwrap();
        assert_eq!(img.frames, 0);
        assert_eq!(img.records().next(), None);
        assert_eq!(img.torn_tail_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn four_lane_fnv_equals_four_serial_hashes() {
        let data: Vec<u8> = (0..256u32).map(|i| (i * 31 % 251) as u8).collect();
        let lens = [
            [0, 0, 0, 0],
            [0, 1, 2, 3],
            [17, 0, 64, 5],
            [200, 199, 3, 100],
            [8, 8, 8, 8],
            [1, 250, 0, 249],
        ];
        for lens in lens {
            let mut lane = 0;
            let parts = lens.map(|len| {
                lane += 1;
                &data[lane..lane + len]
            });
            assert_eq!(fnv1a_x4(parts), parts.map(fnv1a), "lengths {lens:?}");
        }
    }

    /// The plain serial reader `read_image` must agree with: check each
    /// frame in turn and stop at the first that is cut short or fails
    /// its checksum.
    fn reference_read(bytes: &[u8]) -> (Vec<(u8, Vec<u8>)>, u64) {
        let mut records = Vec::new();
        let mut off = IMAGE_HEADER_BYTES;
        while bytes.len() - off >= 13 {
            let len = read_u32(bytes, off + 1) as usize;
            let end = off + 13 + len;
            if end > bytes.len() || read_u64(bytes, end - 8) != fnv1a(&bytes[off..end - 8]) {
                break;
            }
            records.push((bytes[off], bytes[off + 5..end - 8].to_vec()));
            off = end;
        }
        (records, (bytes.len() - off) as u64)
    }

    /// `read_image`'s view of `bytes`, in the reference's shape.
    fn grouped_read(path: &Path, bytes: &[u8]) -> (Vec<(u8, Vec<u8>)>, u64) {
        std::fs::write(path, bytes).unwrap();
        let img = read_image(path).unwrap();
        let records: Vec<_> = img.records().map(|r| (r.tag, r.payload.to_vec())).collect();
        assert_eq!(img.frames, records.len());
        (records, img.torn_tail_bytes)
    }

    /// Eleven frames of unequal lengths (zero included): two full
    /// four-frame groups and a remainder group of three.
    fn eleven_frame_image() -> Vec<u8> {
        let mut bytes = header().encode().to_vec();
        for i in 0..11u8 {
            let payload: Vec<u8> = (0..(usize::from(i) * 7) % 23)
                .map(|b| b as u8 ^ i)
                .collect();
            encode_frame_into(&mut bytes, i + 1, &payload);
        }
        bytes
    }

    #[test]
    fn grouped_reader_matches_serial_reference_on_flips() {
        let path = temp_path("flips");
        let clean = eleven_frame_image();
        let (all, torn) = reference_read(&clean);
        assert_eq!((all.len(), torn), (11, 0));
        assert_eq!(grouped_read(&path, &clean), (all, 0));
        // Frame starts, so a flip can land at each lane of a group and
        // in the remainder group.
        let mut starts = Vec::new();
        let mut off = IMAGE_HEADER_BYTES;
        while off < clean.len() {
            starts.push(off);
            off += frame_extent(&clean[off..]).unwrap();
        }
        for (frame, &start) in starts.iter().enumerate() {
            let end = start + frame_extent(&clean[start..]).unwrap();
            // Tag, length field, first payload byte (or checksum when
            // empty), last checksum byte.
            for at in [start, start + 2, start + 5, end - 1] {
                let mut bytes = clean.clone();
                bytes[at] ^= 0x20;
                let expected = reference_read(&bytes);
                assert_eq!(
                    expected.0.len(),
                    frame,
                    "flip at {at} must cut frame {frame}"
                );
                assert_eq!(grouped_read(&path, &bytes), expected, "flip at byte {at}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn grouped_reader_matches_serial_reference_on_truncation() {
        let path = temp_path("truncated");
        let clean = eleven_frame_image();
        for len in IMAGE_HEADER_BYTES..=clean.len() {
            let bytes = &clean[..len];
            assert_eq!(
                grouped_read(&path, bytes),
                reference_read(bytes),
                "cut at {len}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}
