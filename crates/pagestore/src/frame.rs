//! Page-frame serialization: the [`PagePayload`] codec contract and the
//! little-endian cursor helpers payload implementations build on.
//!
//! A [`PageBackend`](crate::backend::PageBackend) stores **fixed-size byte
//! frames**, so every payload type kept in a [`PageStore`](crate::PageStore)
//! must round-trip through bytes. The codec is the point where the paper's
//! 1 KB page size stops being a bookkeeping fiction: a payload whose encoding
//! does not fit its frame is rejected ([`FrameOverflow`]) instead of being
//! silently stored, so node fanout genuinely respects the page budget.

use std::fmt;

/// Bytes every sealed frame reserves at its tail for the integrity trailer:
/// a little-endian `u32` payload length followed by the little-endian
/// `u64` XXH64 (seed 0) checksum of everything before it.
///
/// The [`PageStore`](crate::PageStore) seals each frame on write-back
/// ([`seal_frame`]) and verifies it on every cold decode ([`verify_frame`]),
/// so bit-rot surfaces as a structured
/// [`Corrupt`](crate::FaultKind::Corrupt) error instead of garbage geometry.
/// Payload budgeting accounts for the trailer: a frame of `page_size` bytes
/// holds at most `page_size - FRAME_TRAILER_BYTES` payload bytes.
pub const FRAME_TRAILER_BYTES: usize = 12;

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

fn le64(bytes: &[u8]) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(raw)
}

fn xxh64_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

fn xxh64_merge(hash: u64, acc: u64) -> u64 {
    (hash ^ xxh64_round(0, acc))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

/// XXH64 with seed 0 over `bytes` — the hand-rolled, dependency-free hash
/// used by the frame integrity trailer. Deterministic across platforms and
/// runs.
///
/// Inputs of 32 bytes or more run four independent 64-bit lanes over
/// 32-byte stripes — the lanes carry no dependency on each other, so a 1 KB
/// frame is 31 rounds of four overlapping multiplies instead of a thousand
/// serial ones — then fold the lanes, the tail (8-, 4- and 1-byte steps) and the length into
/// one word and finish with the standard avalanche, which spreads every
/// input bit over the whole sum.
pub(crate) fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut hash = if bytes.len() >= 32 {
        let mut v1 = PRIME64_1.wrapping_add(PRIME64_2);
        let mut v2 = PRIME64_2;
        let mut v3 = 0u64;
        let mut v4 = 0u64.wrapping_sub(PRIME64_1);
        for stripe in &mut stripes {
            v1 = xxh64_round(v1, le64(&stripe[0..]));
            v2 = xxh64_round(v2, le64(&stripe[8..]));
            v3 = xxh64_round(v3, le64(&stripe[16..]));
            v4 = xxh64_round(v4, le64(&stripe[24..]));
        }
        let folded = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        [v1, v2, v3, v4].into_iter().fold(folded, xxh64_merge)
    } else {
        PRIME64_5
    };
    hash = hash.wrapping_add(bytes.len() as u64);

    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        hash = (hash ^ xxh64_round(0, le64(word)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&tail[..4]);
        hash = (hash ^ (u32::from_le_bytes(raw) as u64).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        tail = &tail[4..];
    }
    for &byte in tail {
        hash = (hash ^ (byte as u64).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }

    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME64_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME64_3);
    hash ^ (hash >> 32)
}

/// Writes the integrity trailer into the last [`FRAME_TRAILER_BYTES`] of
/// `frame`: the payload length and the XXH64 checksum of everything
/// before the checksum field (payload, padding and the length itself).
///
/// Frames shorter than the trailer are left untouched — such stores cannot
/// carry a trailer, and [`verify_frame`] treats them as trivially valid
/// (degraded, unchecked operation instead of a hard failure).
pub fn seal_frame(frame: &mut [u8], payload_len: usize) {
    if frame.len() < FRAME_TRAILER_BYTES {
        return;
    }
    let body = frame.len() - FRAME_TRAILER_BYTES;
    assert!(
        payload_len <= body,
        "seal_frame: payload of {payload_len} bytes exceeds the {body}-byte frame body"
    );
    frame[body..body + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let sum = xxh64(&frame[..body + 4]);
    frame[body + 4..].copy_from_slice(&sum.to_le_bytes());
}

/// Checks the integrity trailer written by [`seal_frame`], returning the
/// recorded payload length on success and a human-readable mismatch
/// description on failure (the store wraps it into a
/// [`Corrupt`](crate::FaultKind::Corrupt) [`PageIoError`](crate::PageIoError)
/// and quarantines the frame).
///
/// Frames shorter than the trailer verify trivially (see [`seal_frame`]).
pub fn verify_frame(frame: &[u8]) -> Result<usize, String> {
    if frame.len() < FRAME_TRAILER_BYTES {
        return Ok(frame.len());
    }
    let body = frame.len() - FRAME_TRAILER_BYTES;
    let mut raw_sum = [0u8; 8];
    raw_sum.copy_from_slice(&frame[body + 4..]);
    let stored = u64::from_le_bytes(raw_sum);
    let computed = xxh64(&frame[..body + 4]);
    if stored != computed {
        return Err(format!(
            "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        ));
    }
    let mut raw_len = [0u8; 4];
    raw_len.copy_from_slice(&frame[body..body + 4]);
    let payload_len = u32::from_le_bytes(raw_len) as usize;
    if payload_len > body {
        return Err(format!(
            "trailer length {payload_len} exceeds the {body}-byte frame body"
        ));
    }
    Ok(payload_len)
}

/// Error raised when an encoded payload does not fit its page frame.
///
/// The page store treats this as a logic error in the client (its node-size
/// budgeting let an oversized payload through) and panics with this message;
/// the type is public so tests and size-budget code can perform the same
/// check without going through a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameOverflow {
    /// Bytes the encoded payload needs.
    pub needed: usize,
    /// Bytes a frame provides (the page size).
    pub frame: usize,
}

impl fmt::Display for FrameOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "page frame overflow: payload needs {} bytes but a page holds {}",
            self.needed, self.frame
        )
    }
}

impl std::error::Error for FrameOverflow {}

/// A payload that can live in a fixed-size page frame.
///
/// The contract, enforced by [`PageStore`](crate::PageStore) and the
/// round-trip property tests:
///
/// * `decode(encode(p)) == p` observably — encoding is lossless (floats are
///   transferred bit-exactly, so heap- and file-backed stores return
///   identical payloads),
/// * `encode_into` appends exactly `encoded_len()` bytes — the cheap size
///   estimate is exact, so overflow detection never needs a trial encoding,
/// * `decode` is self-delimiting: it reads exactly the encoded prefix of the
///   frame and ignores the zero padding behind it.
pub trait PagePayload: Clone {
    /// Exact number of bytes [`PagePayload::encode_into`] appends. Must be
    /// cheap; the store calls it on every allocate for overflow detection.
    fn encoded_len(&self) -> usize;

    /// Appends the serialized payload to `out`.
    ///
    /// Appending (rather than returning a fresh buffer) lets the store
    /// reuse one scratch buffer across every write-back on its hot
    /// eviction path.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Serializes the payload into a fresh buffer (convenience wrapper over
    /// [`PagePayload::encode_into`]).
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Deserializes a payload from the prefix of a frame previously produced
    /// by [`PagePayload::encode_into`] (plus arbitrary padding).
    ///
    /// # Panics
    ///
    /// May panic on a frame that was never written by the encoder — frames
    /// are trusted storage, not untrusted input.
    fn decode(bytes: &[u8]) -> Self;

    /// Checks that the encoding fits a frame of `frame` bytes.
    fn check_frame(&self, frame: usize) -> Result<(), FrameOverflow> {
        let needed = self.encoded_len();
        if needed > frame {
            Err(FrameOverflow { needed, frame })
        } else {
            Ok(())
        }
    }
}

/// Diagnostic payload used by the page store's own tests: a bare `u32`,
/// encoded little-endian in 4 bytes.
impl PagePayload for u32 {
    fn encoded_len(&self) -> usize {
        4
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Self {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&bytes[..4]);
        u32::from_le_bytes(raw)
    }
}

/// Append-only little-endian writer used by [`PagePayload::encode`]
/// implementations.
#[derive(Debug, Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// Creates a writer with `capacity` bytes preallocated (pass
    /// [`PagePayload::encoded_len`] to avoid reallocation).
    pub fn with_capacity(capacity: usize) -> Self {
        FrameWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Wraps an existing buffer, appending behind its current content —
    /// the allocation-reuse path of [`PagePayload::encode_into`]
    /// implementations (take the buffer, wrap, write, unwrap with
    /// [`FrameWriter::into_bytes`]).
    pub fn over(buf: Vec<u8>) -> Self {
        FrameWriter { buf }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64`, bit-exactly (via its IEEE-754 bit pattern).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Consumes the writer, returning the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential little-endian reader over an encoded frame, the inverse of
/// [`FrameWriter`].
///
/// # Panics
///
/// Every `take_*` method panics when the frame is exhausted — a truncated
/// frame means storage corruption or a codec bug, not a runtime condition.
/// A decoder of a count-prefixed list takes the list's bytes
/// ([`FrameReader::take_bytes`]) **before** it allocates for it, so a count
/// the frame cannot hold ends in that panic and not in an allocation sized
/// by the count.
#[derive(Debug)]
pub struct FrameReader<'a> {
    /// What is left to read.
    rest: &'a [u8],
    /// Length of the whole frame, for [`FrameReader::consumed`] and the
    /// truncation message.
    frame_len: usize,
}

impl<'a> FrameReader<'a> {
    /// Creates a reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        FrameReader {
            rest: bytes,
            frame_len: bytes.len(),
        }
    }

    /// Number of bytes consumed so far.
    pub fn consumed(&self) -> usize {
        self.frame_len - self.rest.len()
    }

    #[cold]
    #[inline(never)]
    fn truncated(&self, needed: usize) -> ! {
        panic!(
            "truncated page frame: needed {} bytes at offset {} of a {}-byte frame",
            needed,
            self.consumed(),
            self.frame_len
        )
    }

    /// One fixed-width field: a single length test, no slice in between.
    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        match self.rest.split_first_chunk::<N>() {
            Some((field, rest)) => {
                self.rest = rest;
                *field
            }
            None => self.truncated(N),
        }
    }

    /// Takes the next `n` bytes as one slice — the bulk path of the
    /// count-prefixed lists (`n = count × entry size`, which the caller
    /// splits into fixed-width entries).
    pub fn take_bytes(&mut self, n: usize) -> &'a [u8] {
        let Some((taken, rest)) = self.rest.split_at_checked(n) else {
            self.truncated(n)
        };
        self.rest = rest;
        taken
    }

    /// Reads the next `u32`.
    pub fn take_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take_array())
    }

    /// Reads the next `u64`.
    pub fn take_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take_array())
    }

    /// Reads the next `f64` (bit-exact inverse of [`FrameWriter::put_f64`]).
    pub fn take_f64(&mut self) -> f64 {
        f64::from_bits(self.take_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = FrameWriter::with_capacity(28);
        w.put_u32(7);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.0);
        w.put_f64(f64::MIN_POSITIVE);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 28);
        let mut r = FrameReader::new(&bytes);
        assert_eq!(r.take_u32(), 7);
        assert_eq!(r.take_u64(), u64::MAX - 3);
        assert_eq!(r.take_f64().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.take_f64(), f64::MIN_POSITIVE);
        assert_eq!(r.consumed(), bytes.len());
    }

    #[test]
    #[should_panic(expected = "truncated page frame")]
    fn reader_panics_on_truncated_frame() {
        let bytes = [1u8, 2, 3];
        let mut r = FrameReader::new(&bytes);
        let _ = r.take_u32();
    }

    #[test]
    fn u32_payload_roundtrip_ignores_padding() {
        let v: u32 = 0xDEAD_BEEF;
        assert_eq!(v.encoded_len(), 4);
        let mut frame = v.encode();
        assert_eq!(frame.len(), 4);
        frame.extend_from_slice(&[0u8; 60]); // zero padding, as in a real frame
        assert_eq!(u32::decode(&frame), v);
    }

    #[test]
    fn seal_then_verify_roundtrips_the_payload_length() {
        let mut frame = vec![0u8; 64];
        frame[..4].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        seal_frame(&mut frame, 4);
        assert_eq!(verify_frame(&frame), Ok(4));
        // Sealing is idempotent for the same content.
        let snapshot = frame.clone();
        seal_frame(&mut frame, 4);
        assert_eq!(frame, snapshot);
    }

    /// A sealed 1 KB frame shaped like a full node page: 980 payload bytes
    /// from a fixed xorshift stream, zero padding, trailer.
    fn sealed_node_frame() -> Vec<u8> {
        let mut frame = vec![0u8; 1024];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for byte in &mut frame[..980] {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *byte = state as u8;
        }
        seal_frame(&mut frame, 980);
        assert_eq!(verify_frame(&frame), Ok(980));
        frame
    }

    #[test]
    fn verify_rejects_every_single_bit_flip() {
        // The 1 KB frame runs 31 stripes and a tail; a 40-byte frame sums
        // 32 bytes (one stripe, no tail), a 32-byte frame 24 (no stripe).
        let mut small = vec![0u8; 40];
        small[..4].copy_from_slice(&77u32.to_le_bytes());
        seal_frame(&mut small, 4);
        let mut tiny = small[..32].to_vec();
        seal_frame(&mut tiny, 4);
        for frame in [sealed_node_frame(), small, tiny] {
            let mut bad = frame.clone();
            for bit in 0..frame.len() * 8 {
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    verify_frame(&bad).is_err(),
                    "flip of bit {bit} of a {}-byte frame undetected",
                    frame.len()
                );
                bad[bit / 8] ^= 1 << (bit % 8);
            }
            assert_eq!(bad, frame);
        }
    }

    #[test]
    fn verify_rejects_equal_flips_in_consecutive_words() {
        // The pattern a word-wide multiplicative hash without an avalanche
        // lets through: the same bit position flipped in two neighbouring
        // 8-byte words.
        let frame = sealed_node_frame();
        let mut bad = frame.clone();
        for word in 0..frame.len() / 8 - 1 {
            for bit in 0..64 {
                let (lo, hi) = (word * 8 + bit / 8, (word + 1) * 8 + bit / 8);
                bad[lo] ^= 1 << (bit % 8);
                bad[hi] ^= 1 << (bit % 8);
                assert!(
                    verify_frame(&bad).is_err(),
                    "bit {bit} flipped in words {word} and {} undetected",
                    word + 1
                );
                bad[lo] ^= 1 << (bit % 8);
                bad[hi] ^= 1 << (bit % 8);
            }
        }
        assert_eq!(bad, frame);
    }

    #[test]
    fn verify_rejects_an_absurd_trailer_length() {
        let mut frame = vec![0u8; 32];
        let body = frame.len() - FRAME_TRAILER_BYTES;
        frame[body..body + 4].copy_from_slice(&(1_000_000u32).to_le_bytes());
        let sum = xxh64(&frame[..body + 4]);
        frame[body + 4..].copy_from_slice(&sum.to_le_bytes());
        let err = verify_frame(&frame).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn tiny_frames_skip_the_trailer() {
        let mut frame = vec![1u8, 2, 3];
        seal_frame(&mut frame, 3);
        assert_eq!(frame, vec![1u8, 2, 3]);
        assert_eq!(verify_frame(&frame), Ok(3));
    }

    /// XXH64 (seed 0) transcribed statement by statement from the
    /// reference description, with explicit offsets and no shared helper —
    /// what the production lanes are checked against.
    fn xxh64_reference(input: &[u8]) -> u64 {
        const P1: u64 = 0x9E37_79B1_85EB_CA87;
        const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
        const P3: u64 = 0x1656_67B1_9E37_79F9;
        const P4: u64 = 0x85EB_CA77_C2B2_AE63;
        const P5: u64 = 0x27D4_EB2F_1656_67C5;
        let read64 =
            |at: usize| (0..8).fold(0u64, |acc, i| acc | (input[at + i] as u64) << (8 * i));
        let len = input.len();
        let mut at = 0usize;
        let mut h: u64;
        if len >= 32 {
            let mut v = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
            while at + 32 <= len {
                for (lane, acc) in v.iter_mut().enumerate() {
                    *acc = acc.wrapping_add(read64(at + 8 * lane).wrapping_mul(P2));
                    *acc = acc.rotate_left(31);
                    *acc = acc.wrapping_mul(P1);
                }
                at += 32;
            }
            h = v[0]
                .rotate_left(1)
                .wrapping_add(v[1].rotate_left(7))
                .wrapping_add(v[2].rotate_left(12))
                .wrapping_add(v[3].rotate_left(18));
            for acc in v {
                let k = acc.wrapping_mul(P2).rotate_left(31).wrapping_mul(P1);
                h ^= k;
                h = h.wrapping_mul(P1).wrapping_add(P4);
            }
        } else {
            h = P5;
        }
        h = h.wrapping_add(len as u64);
        while at + 8 <= len {
            let k = read64(at).wrapping_mul(P2).rotate_left(31).wrapping_mul(P1);
            h ^= k;
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            at += 8;
        }
        if at + 4 <= len {
            let word = (0..4).fold(0u64, |acc, i| acc | (input[at + i] as u64) << (8 * i));
            h ^= word.wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            at += 4;
        }
        while at < len {
            h ^= (input[at] as u64).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
            at += 1;
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^= h >> 32;
        h
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        // Published XXH64 seed-0 vectors.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn xxh64_lanes_match_the_scalar_transcription() {
        // Around the 32-byte stripe boundary, and the 1 016 bytes a 1 KB
        // frame's checksum covers (31 stripes + three 8-byte words).
        let bytes: Vec<u8> = (0..1016u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in [0, 1, 3, 4, 7, 8, 12, 31, 32, 33, 63, 64, 100, 1016] {
            assert_eq!(
                xxh64(&bytes[..len]),
                xxh64_reference(&bytes[..len]),
                "length {len}"
            );
        }
    }

    proptest! {
        #[test]
        fn verify_never_panics_on_arbitrary_or_truncated_buffers(
            bytes in proptest::collection::vec(0u8..=255, 0..1100),
            payload in 0usize..1100,
            cut in 0usize..1100,
        ) {
            // Raw bytes that were never sealed: any verdict, no panic.
            let _ = verify_frame(&bytes);
            // A sealed frame verifies; every truncation of it is judged
            // without panicking (and a shortened tail no longer lines up).
            let mut frame = bytes;
            let body = frame.len().saturating_sub(FRAME_TRAILER_BYTES);
            seal_frame(&mut frame, payload.min(body));
            prop_assert!(verify_frame(&frame).is_ok());
            let _ = verify_frame(&frame[..cut.min(frame.len())]);
        }
    }

    #[test]
    fn check_frame_detects_overflow() {
        let v: u32 = 1;
        assert!(v.check_frame(4).is_ok());
        let err = v.check_frame(3).unwrap_err();
        assert_eq!(
            err,
            FrameOverflow {
                needed: 4,
                frame: 3
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("4 bytes") && msg.contains("3"), "{msg}");
    }
}
