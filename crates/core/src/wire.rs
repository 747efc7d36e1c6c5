//! Wire encoding of ghost data, including the message-combine framing.
//!
//! §3.5.1: MPI transfers of unknown-length arrays classically need a length
//! message followed by a payload message; the paper *combines* them by
//! making the first 8 bytes of the single message the element count; that
//! frame is built here (the ablation report prices the two-message one).

/// Serialize a flat `f64` slice to little-endian bytes.
#[must_use]
pub fn encode_f64s(values: &[f64]) -> Vec<u8> {
    let mut buf = vec![0u8; values.len() * 8];
    (&mut buf[..]).put_f64s(values);
    buf
}

/// Deserialize little-endian bytes into `f64`s. Panics if the length is not
/// a multiple of 8 (a framing bug, not a recoverable condition).
#[must_use]
pub fn decode_f64s(bytes: &[u8]) -> Vec<f64> {
    let mut out = Vec::new();
    decode_f64s_into(bytes, &mut out);
    out
}

/// [`decode_f64s`] into a caller-owned vector (cleared first), so a
/// receive loop reuses one allocation.
pub fn decode_f64s_into(bytes: &[u8], out: &mut Vec<f64>) {
    out.clear();
    out.extend(LeF64s::new(bytes).0.chunks_exact(8).map(le_f64));
}

/// Message-combine framing: `[count: u64 LE][count * f64]` in one message.
#[must_use]
pub fn frame_combined(values: &[f64]) -> Vec<u8> {
    let mut buf = vec![0u8; combined_size(values.len())];
    let (head, mut body) = buf.split_at_mut(COMBINED_HEADER_BYTES);
    head.copy_from_slice(&(values.len() as u64).to_le_bytes());
    body.put_f64s(values);
    buf
}

/// The payload bytes of a combined frame; tolerates trailing slack
/// (receive buffers are sized for the maximum message, the count field
/// says how much is real).
#[must_use]
pub fn combined_body(bytes: &[u8]) -> &[u8] {
    assert!(bytes.len() >= 8, "combined frame shorter than its header");
    let mut hdr = [0u8; 8];
    hdr.copy_from_slice(&bytes[..8]);
    let count = u64::from_le_bytes(hdr);
    // A forged count must not wrap the frame length around to a short one.
    let need = usize::try_from(count)
        .ok()
        .and_then(|n| n.checked_mul(8)?.checked_add(8))
        .unwrap_or(usize::MAX);
    assert!(
        bytes.len() >= need,
        "combined frame truncated: header claims {count} values, only {} bytes",
        bytes.len()
    );
    &bytes[8..need]
}

/// Parse a combined frame (see [`combined_body`]).
#[must_use]
pub fn parse_combined(bytes: &[u8]) -> Vec<f64> {
    decode_f64s(combined_body(bytes))
}

/// Size in bytes of a combined frame carrying `n` values.
#[must_use]
pub fn combined_size(n: usize) -> usize {
    8 + n * 8
}

/// Bytes of the combined frame's count header.
pub const COMBINED_HEADER_BYTES: usize = 8;

/// Destination for streamed `f64` payloads. Every op's pack is written
/// once against this trait and runs unchanged over a `Vec<f64>`, or a
/// put's landing range on either transport (a [`CombinedWriter`] frame, or
/// raw `&mut [u8]`).
pub trait F64Sink {
    /// Append a run of values.
    fn put_f64s(&mut self, vs: &[f64]);

    /// Append one value.
    fn put_f64(&mut self, v: f64) {
        self.put_f64s(&[v]);
    }
}

impl F64Sink for Vec<f64> {
    fn put_f64s(&mut self, vs: &[f64]) {
        self.extend_from_slice(vs);
    }
}

/// Little-endian bytes written in place at the head of a byte slice,
/// which then advances past them (as `std::io::Write` does for
/// `&mut [u8]`): a put's raw payload written straight into its landing
/// range (a uTofu direct-x Forward, every MPI message), and the body of a
/// [`CombinedWriter`] frame. Panics past the slice's end.
impl F64Sink for &mut [u8] {
    /// One bounds check for the whole run.
    fn put_f64s(&mut self, vs: &[f64]) {
        let (dst, rest) = std::mem::take(self).split_at_mut(vs.len() * 8);
        for (d, v) in dst.chunks_exact_mut(8).zip(vs) {
            d.copy_from_slice(&v.to_le_bytes());
        }
        *self = rest;
    }
}

/// Origin of streamed `f64` payloads — the receive-side mirror of
/// [`F64Sink`]. Every delivery is written once against this trait and runs
/// unchanged over a decoded `&[f64]` (tests) or over the little-endian
/// bytes a message landed in ([`LeF64s`]: a uTofu region or an MPI
/// mailbox, no intermediate `Vec<u8>` / `Vec<f64>`).
pub trait F64Source {
    /// Values not yet read.
    fn remaining(&self) -> usize;

    /// Read the next value. Panics past the end, like a slice index.
    fn get_f64(&mut self) -> f64;

    /// Fill `out` with the next `out.len()` values.
    fn get_f64s(&mut self, out: &mut [f64]) {
        for o in out {
            *o = self.get_f64();
        }
    }
}

impl F64Source for &[f64] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_f64(&mut self) -> f64 {
        let v = self[0];
        *self = &self[1..];
        v
    }

    fn get_f64s(&mut self, out: &mut [f64]) {
        let (head, rest) = self.split_at(out.len());
        out.copy_from_slice(head);
        *self = rest;
    }
}

/// One `f64` from its 8 little-endian bytes.
fn le_f64(chunk: &[u8]) -> f64 {
    let mut le = [0u8; 8];
    le.copy_from_slice(chunk);
    f64::from_le_bytes(le)
}

/// Little-endian `f64`s read in place from a byte slice — the bytes
/// [`encode_f64s`] / the `&mut [u8]` sink produce.
pub struct LeF64s<'a>(&'a [u8]);

impl<'a> LeF64s<'a> {
    /// Panics if the length is not a multiple of 8 (a framing bug, not a
    /// recoverable condition).
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        assert!(
            bytes.len().is_multiple_of(8),
            "payload not f64-aligned: {}",
            bytes.len()
        );
        LeF64s(bytes)
    }
}

impl F64Source for LeF64s<'_> {
    fn remaining(&self) -> usize {
        self.0.len() / 8
    }

    fn get_f64(&mut self) -> f64 {
        let (head, rest) = self.0.split_at(8);
        self.0 = rest;
        le_f64(head)
    }
}

/// Serializes a combined frame *in place* into a caller-provided byte
/// buffer — in the zero-copy wire path that buffer is the landing range of
/// a uTofu put in the receiver's registered region, so the frame is built
/// once, exactly where the receiver reads it, and never passes through an
/// intermediate `Vec` or a send region.
///
/// The 8-byte count header is reserved up front and patched by
/// [`CombinedWriter::finish`], so the element count need not be known
/// before packing starts. Output bytes are identical to
/// [`frame_combined`] over the same values.
pub struct CombinedWriter<'a> {
    buf: &'a mut [u8],
    count: usize,
}

impl<'a> CombinedWriter<'a> {
    /// Start a frame at the head of `buf`. Panics if the buffer cannot
    /// even hold the header — a sizing bug, not a recoverable condition.
    #[must_use]
    pub fn new(buf: &'a mut [u8]) -> Self {
        assert!(
            buf.len() >= COMBINED_HEADER_BYTES,
            "region slice shorter than the combined-frame header"
        );
        CombinedWriter { buf, count: 0 }
    }

    /// Patch the count header and return the framed length in bytes
    /// (`combined_size(count)`). The puttable frame is `buf[..len]`.
    #[must_use]
    pub fn finish(self) -> usize {
        self.buf[..COMBINED_HEADER_BYTES].copy_from_slice(&(self.count as u64).to_le_bytes());
        combined_size(self.count)
    }
}

impl F64Sink for CombinedWriter<'_> {
    /// Panics past capacity — writing beyond a registered region is a
    /// hard fault on real hardware too.
    fn put_f64s(&mut self, vs: &[f64]) {
        (&mut self.buf[COMBINED_HEADER_BYTES + self.count * 8..]).put_f64s(vs);
        self.count += vs.len();
    }
}

/// Stream one atom record into any [`F64Sink`], in one run: tag and type
/// packed into one f64 (tag in the low 48 bits, type in the next 5 — both
/// exact in a double's 53-bit mantissa), then `body` — Border's shifted
/// position, or Exchange's position and velocity.
pub fn put_record(out: &mut impl F64Sink, tag: u64, typ: u32, body: &[f64]) {
    let mut rec = [0.0; EXCHANGE_RECORD_F64S];
    rec[0] = pack_id(tag, typ);
    rec[1..=body.len()].copy_from_slice(body);
    out.put_f64s(&rec[..=body.len()]);
}

/// Number of f64 slots per border record.
pub const BORDER_RECORD_F64S: usize = 4;

/// Every atom tag the wire can carry is below this bound: the packed id's
/// 48-bit tag field.
pub const TAG_LIMIT: u64 = 1 << 48;

/// Pack (tag, type) into one exactly-representable f64.
#[must_use]
pub fn pack_id(tag: u64, typ: u32) -> f64 {
    assert!(tag < TAG_LIMIT, "tag exceeds the 48-bit wire budget");
    assert!(typ < (1 << 5), "type exceeds the 5-bit wire budget");
    (tag | (u64::from(typ) << 48)) as f64
}

/// Unpack a [`pack_id`] value.
#[must_use]
pub fn unpack_id(v: f64) -> (u64, u32) {
    let bits = v as u64;
    (bits & (TAG_LIMIT - 1), (bits >> 48) as u32)
}

/// Stream the records of `width` values out of `src` in order, handing `f`
/// each one's `(tag, type)` and the values after its packed id: how Border
/// and Exchange deliver straight from the bytes a message landed in.
/// Panics unless the payload is a whole number of records (a framing bug).
pub fn for_each_record(mut src: impl F64Source, width: usize, mut f: impl FnMut(u64, u32, &[f64])) {
    assert!(
        src.remaining().is_multiple_of(width),
        "payload not a whole number of {width}-value records"
    );
    let mut body = [0.0; EXCHANGE_RECORD_F64S];
    let body = &mut body[..width - 1];
    while src.remaining() > 0 {
        let (tag, typ) = unpack_id(src.get_f64());
        src.get_f64s(body);
        f(tag, typ, body);
    }
}

/// Decode border records; yields (tag, type, position).
#[must_use]
pub fn parse_border_records(values: &[f64]) -> Vec<(u64, u32, [f64; 3])> {
    let mut out = Vec::new();
    for_each_record(values, BORDER_RECORD_F64S, |tag, typ, x| {
        out.push((tag, typ, [x[0], x[1], x[2]]));
    });
    out
}

/// Number of f64 slots per exchange record: packed tag/type, x, v.
pub const EXCHANGE_RECORD_F64S: usize = 7;

/// Decode exchange records; yields (tag, type, position, velocity).
#[must_use]
pub fn parse_exchange_records(values: &[f64]) -> Vec<(u64, u32, [f64; 3], [f64; 3])> {
    let mut out = Vec::new();
    for_each_record(values, EXCHANGE_RECORD_F64S, |tag, typ, r| {
        out.push((tag, typ, [r[0], r[1], r[2]], [r[3], r[4], r[5]]));
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let vals = vec![0.0, -1.5, std::f64::consts::PI, 1e300, -0.0];
        assert_eq!(decode_f64s(&encode_f64s(&vals)), vals);
    }

    #[test]
    fn into_variants_reuse_the_vector_and_sources_agree() {
        let vals = vec![0.5, -1.5, f64::MAX, -0.0, 7.0];
        let mut out = vec![99.0; 9]; // stale content must be dropped
        decode_f64s_into(&encode_f64s(&vals), &mut out);
        assert_eq!(out, vals);
        decode_f64s_into(combined_body(&frame_combined(&vals[..2])), &mut out);
        assert_eq!(out, vals[..2]);
        // Both sources stream the same values, singly and in runs.
        let bytes = encode_f64s(&vals);
        let (mut a, mut b) = (vals.as_slice(), LeF64s::new(&bytes));
        assert_eq!((a.remaining(), b.remaining()), (5, 5));
        assert_eq!(a.get_f64().to_bits(), b.get_f64().to_bits());
        let (mut ra, mut rb) = ([0.0; 3], [0.0; 3]);
        a.get_f64s(&mut ra);
        b.get_f64s(&mut rb);
        assert_eq!((ra, a.remaining()), (rb, b.remaining()));
        assert_eq!(ra, [-1.5, f64::MAX, -0.0]);
    }

    #[test]
    #[should_panic(expected = "not f64-aligned")]
    fn misaligned_payload_rejected() {
        let _ = decode_f64s(&[0u8; 12]);
    }

    #[test]
    fn combined_frame_roundtrip() {
        let vals = vec![1.0, 2.0, 3.5];
        let frame = frame_combined(&vals);
        assert_eq!(frame.len(), combined_size(3));
        assert_eq!(parse_combined(&frame), vals);
    }

    #[test]
    fn combined_frame_tolerates_slack() {
        let vals = vec![9.0, -9.0];
        let mut padded = frame_combined(&vals).to_vec();
        padded.extend_from_slice(&[0u8; 64]); // max-size recv buffer slack
        assert_eq!(parse_combined(&padded), vals);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_frame_detected() {
        let frame = frame_combined(&[1.0, 2.0, 3.0]);
        let _ = parse_combined(&frame[..frame.len() - 8]);
    }

    #[test]
    #[should_panic(expected = "combined frame truncated")]
    fn forged_count_cannot_wrap_the_frame_length() {
        // 8 * (2^61 + 1) wraps to 8: unchecked, this 24-byte frame would
        // yield an 8-byte body.
        let mut frame = ((1u64 << 61) + 1).to_le_bytes().to_vec();
        frame.extend_from_slice(&[0u8; 16]);
        let _ = combined_body(&frame);
    }

    #[test]
    fn empty_combined_frame() {
        let frame = frame_combined(&[]);
        assert_eq!(frame.len(), 8);
        assert!(parse_combined(&frame).is_empty());
    }

    #[test]
    fn writer_bytes_match_frame_combined() {
        let vals = [1.0, -2.5, 3.25e10, -0.0, f64::MIN_POSITIVE];
        let mut buf = vec![0xAAu8; combined_size(vals.len()) + 16]; // slack
        let mut w = CombinedWriter::new(&mut buf);
        w.put_f64(vals[0]);
        w.put_f64s(&vals[1..]);
        let len = w.finish();
        assert_eq!(len, combined_size(vals.len()));
        assert_eq!(&buf[..len], frame_combined(&vals));
        // Slack past the frame is untouched and tolerated by the parser.
        assert_eq!(parse_combined(&buf), vals);
    }

    #[test]
    fn writer_empty_frame() {
        let mut buf = [0u8; 8];
        let w = CombinedWriter::new(&mut buf);
        assert_eq!(w.finish(), combined_size(0));
        assert_eq!(&buf[..], frame_combined(&[]));
    }

    #[test]
    fn vec_sink_matches_push_order() {
        let mut v: Vec<f64> = Vec::new();
        v.put_f64(1.0);
        v.put_f64s(&[2.0, 3.0]);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn byte_sink_matches_encode_f64s() {
        let vals = [1.0, -2.5, 3.25e10, -0.0];
        let mut b = vec![0u8; 8 * vals.len()];
        let mut sink: &mut [u8] = &mut b;
        sink.put_f64(vals[0]);
        sink.put_f64s(&vals[1..]);
        assert!(sink.is_empty());
        assert_eq!(b, encode_f64s(&vals));
    }

    #[test]
    #[should_panic]
    fn writer_overflow_faults() {
        let mut buf = [0u8; 16]; // header + one value
        let mut w = CombinedWriter::new(&mut buf);
        w.put_f64(1.0);
        w.put_f64(2.0);
    }

    #[test]
    fn border_records_roundtrip() {
        let mut buf: Vec<f64> = Vec::new();
        put_record(&mut buf, 42, 1, &[1.0, 2.0, 3.0]);
        put_record(&mut buf, 7, 3, &[-1.0, 0.0, 9.5]);
        let recs = parse_border_records(&buf);
        assert_eq!(
            recs,
            vec![(42, 1, [1.0, 2.0, 3.0]), (7, 3, [-1.0, 0.0, 9.5])]
        );
    }

    #[test]
    fn exchange_records_roundtrip() {
        let mut buf: Vec<f64> = Vec::new();
        put_record(&mut buf, 3, 2, &[1.0, 1.0, 1.0, 0.5, -0.5, 0.0]);
        let recs = parse_exchange_records(&buf);
        assert_eq!(recs, vec![(3, 2, [1.0; 3], [0.5, -0.5, 0.0])]);
    }

    #[test]
    fn packed_ids_are_exact_at_the_budget_edges() {
        let tag = (1u64 << 48) - 1;
        for typ in [0u32, 1, 31] {
            let (t, ty) = unpack_id(pack_id(tag, typ));
            assert_eq!((t, ty), (tag, typ));
        }
        let (t, ty) = unpack_id(pack_id(1, 0));
        assert_eq!((t, ty), (1, 0));
    }

    #[test]
    #[should_panic(expected = "48-bit")]
    fn oversized_tag_rejected() {
        let _ = pack_id(1 << 48, 0);
    }
}
